"""Run one workload of the repository benchmark and print its metrics.

    python3 qvbench/run.py --workload serve_zipf --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of that checkout and nowhere else.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import common

WORKLOADS = ("serve_zipf", "exec_read", "exec_rw")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SIGTERM unwinds like an error, so every ``finally`` stops and waits
    # for the processes it started.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        common.import_program()
    except common.SetupError as error:
        common.log(f"error: {error}")
        return 2
    if args.workload.startswith("serve"):
        import serve_run as runner
    else:
        import exec_run as runner
    report = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": report.provenance}), flush=True)
    common.emit(report.correct, report.attempted, report.failed, report.metrics)
    return 0


def _exit_on_signal(signum: int, _frame) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    sys.exit(main())
