"""Benchmark-regression gate: diff fresh bench output against a baseline.

Usage::

    PYTHONPATH=src python -m repro bench-diagram --json fresh.json [...]
    python benchmarks/compare.py fresh.json \
        [--baseline benchmarks/BENCH_diagram.json] [--tolerance 0.4]

    PYTHONPATH=src python -m repro bench-exec --engine all --rows 110000 \
        --json fresh-exec.json
    python benchmarks/compare.py fresh-exec.json \
        --baseline benchmarks/BENCH_executor.json

    PYTHONPATH=src python -m repro bench-serve --json fresh-serve.json
    python benchmarks/compare.py fresh-serve.json \
        --baseline benchmarks/BENCH_serve.json

The key tables below cover every baseline kind (diagram pipeline,
executor, serving tier); :func:`compare` only gates keys the baseline
actually carries, so one gate serves every benchmark JSON.  On top of the
per-table checks, **every key the baseline carries must still exist in the
fresh output** — a renamed or dropped metric fails the gate (with a
per-metric diff table) instead of silently un-gating itself.

Two classes of checks:

* **Deterministic facts must match exactly.**  Corpus composition, the
  number of distinct diagrams, the overall cache hit rate and the
  per-stage hit/miss counters are pure functions of the corpus and the
  pipeline — any drift is a behavior change (lost dedup, a stage suddenly
  recompiling), not noise, and fails the gate.
* **Performance ratios must stay inside a tolerance band.**  Absolute
  milliseconds vary per machine, so the gate compares the *speedup ratios*
  the benchmark derives (batched-vs-cold, persistent-warm-vs-cold): each
  must reach ``baseline * (1 - tolerance)``.  The default band (40%) is
  wide on purpose — the gate exists to catch "the cache stopped working"
  (a 5-10x collapse), not 10% jitter on shared CI runners.

A run with NumPy and one without it (``REPRO_DISABLE_NUMPY=1``) time
different columnar code, so when exactly one side recorded a
``numpy_version`` the gate fails with a line that says so, next to any
ratio shortfalls.

Exit code 0 = within bounds, 1 = regression, 2 = usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Keys that are deterministic given the corpus + pipeline version.
EXACT_KEYS = (
    # diagram pipeline
    "corpus_queries",
    "distinct_generated",
    "schema",
    "formats",
    "distinct_diagrams",
    "cache_hit_rate",
    # executor
    "engine",
    "workload_queries",
    "database_rows",
    "skew",
    "result_rows",
    "topk_engine",
    "topk_queries",
    # serving tier (seeded workload against a fresh in-process server)
    "distinct_queries",
    "concurrency",
    "warm_repeat",
    "burst_distinct",
    "burst_duplicates",
    "requests_cold",
    "requests_warm",
    "burst_requests",
    "burst_unique_compiles",
    "burst_unique_fraction",
    # pool leg: corpus composition is seeded, and a chaos-free bench run
    # must see a chaos-free pool (zero failures, zero restarts)
    "pool_workers",
    "pool_distinct",
    "pool_requests",
    "pool_failed_requests",
    "pool_worker_restarts",
    "pool_worker_crashes",
    "failed_requests",
)

#: Ratio keys gated by the tolerance band (fresh >= baseline * (1 - tol)).
RATIO_KEYS = (
    "speedup",
    "persistent_speedup_vs_cold",
    "columnar_speedup_cold",
    "columnar_speedup_warm",
    "sql_vs_planned_cold",
    "sql_vs_planned_warm",
    "topk_vs_full_cold",
    "topk_vs_full_warm",
    "warm_speedup_p50",
    "coalesce_collapse",
    # N-worker pool vs single process on the stalled-compile corpus; the
    # stall makes this portable across 1-to-N-core CI hosts (servebench).
    "pool_vs_single_warm_throughput",
)

#: Keys that must be truthy whenever both sides carry them.
FLAG_KEYS = ("parallel_identical", "results_identical", "topk_results_consistent")

#: Machine-dependent measurements: reported, never gated.
INFO_KEYS = (
    "cold_ms",
    "batched_ms",
    "persistent_warm_ms",
    "parallel_ms",
    "rows_cold_ms",
    "rows_warm_ms",
    "columnar_cold_ms",
    "columnar_warm_ms",
    "sql_cold_ms",
    "sql_warm_ms",
    "topk_cold_ms",
    "topk_warm_ms",
    "topk_full_cold_ms",
    "topk_full_warm_ms",
    # environment provenance: self-describing artifacts, never comparable
    # across machines
    "python_version",
    "sqlite_version",
    "numpy_version",
    "cold_p50_ms",
    "cold_p95_ms",
    "cold_p99_ms",
    "cold_rps",
    "warm_p50_ms",
    "warm_p95_ms",
    "warm_p99_ms",
    "warm_rps",
    "burst_p50_ms",
    "burst_p95_ms",
    "burst_p99_ms",
    "burst_rps",
    "retried_requests",
    # pool-leg timings: per-machine, the gated number is the ratio above
    "pool_single_rps",
    "pool_rps",
    "pool_single_p50_ms",
    "pool_p50_ms",
    "pool_p99_ms",
    # how many requests *observably* awaited an in-flight compile is a
    # race between workers — the deterministic gate is burst_unique_compiles
    "coalesced_requests",
    # disk-cache health: eviction/degradation counts depend on what an
    # earlier run (or a hostile filesystem) left in the store directory —
    # report them so a corrupt store is visible, never gate on them
    "disk_evictions",
    "disk_corrupt_evictions",
    "disk_stale_evictions",
    "disk_degraded",
)


def compare(
    fresh: dict, baseline: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Return (failures, notes) from diffing ``fresh`` against ``baseline``."""
    failures: list[str] = []
    notes: list[str] = []

    for key in EXACT_KEYS:
        if key not in baseline:
            continue
        if key not in fresh:
            failures.append(f"{key}: missing from fresh output")
        elif fresh[key] != baseline[key]:
            failures.append(
                f"{key}: expected {baseline[key]!r}, measured {fresh[key]!r}"
            )

    for stage, counters in baseline.get("stages", {}).items():
        fresh_counters = fresh.get("stages", {}).get(stage)
        if fresh_counters is None:
            failures.append(f"stages.{stage}: missing from fresh output")
            continue
        for counter in ("hits", "misses"):
            if fresh_counters.get(counter) != counters.get(counter):
                failures.append(
                    f"stages.{stage}.{counter}: expected "
                    f"{counters.get(counter)}, measured {fresh_counters.get(counter)}"
                )

    if "numpy_version" in baseline and "numpy_version" in fresh:
        had_numpy = baseline["numpy_version"], fresh["numpy_version"]
        if (had_numpy[0] is None) != (had_numpy[1] is None):
            failures.append(
                f"numpy_version: baseline {had_numpy[0]!r}, measured "
                f"{had_numpy[1]!r}; exactly one side ran with NumPy, so "
                "their ratios are not comparable"
            )

    for key in RATIO_KEYS:
        if key not in baseline:
            continue
        floor = baseline[key] * (1.0 - tolerance)
        measured = fresh.get(key)
        if measured is None:
            failures.append(f"{key}: missing from fresh output")
        elif measured < floor:
            failures.append(
                f"{key}: measured {measured:.2f}x, below tolerance floor "
                f"{floor:.2f}x (baseline {baseline[key]:.2f}x - {tolerance:.0%})"
            )
        else:
            notes.append(
                f"{key}: {measured:.2f}x (baseline {baseline[key]:.2f}x, "
                f"floor {floor:.2f}x)"
            )

    for key in FLAG_KEYS:
        if key in baseline and not fresh.get(key, False):
            failures.append(f"{key}: baseline requires it, fresh output says no")

    for key in INFO_KEYS:
        if key in baseline and key in fresh:
            notes.append(
                f"{key}: {fresh[key]} (baseline machine: {baseline[key]}; "
                "absolute times are informational only)"
            )

    # Completeness sweep: *every* baseline key must still exist in the
    # fresh output.  Without this, renaming a metric silently un-gates it —
    # the old checks skip keys the baseline carries but no table names, and
    # a stale baseline key would pass forever.
    already_reported = set(EXACT_KEYS) | set(RATIO_KEYS) | set(FLAG_KEYS)
    already_reported.add("stages")
    covered = already_reported | set(INFO_KEYS)
    for key in baseline:
        if key not in fresh:
            if key not in already_reported:
                failures.append(
                    f"{key}: present in baseline but missing from fresh "
                    "output (renamed or dropped metric?)"
                )
        elif key not in covered:
            if isinstance(baseline[key], dict):
                notes.append(f"{key}: present (nested, not gated)")
            else:
                notes.append(
                    f"{key}: {fresh[key]!r} (baseline {baseline[key]!r}; "
                    "not gated)"
                )
    return failures, notes


def _cell(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 28 else text[:25] + "..."


def diff_table(fresh: dict, baseline: dict) -> list[str]:
    """Per-metric table of baseline vs fresh, flagging missing keys."""
    rows = [f"  {'':1} {'metric':<28} {'baseline':<30} fresh"]
    for key in sorted(baseline):
        missing = key not in fresh
        marker = "!" if missing else " "
        fresh_cell = "(missing)" if missing else _cell(fresh[key])
        rows.append(
            f"  {marker} {key:<28} {_cell(baseline[key]):<30} {fresh_cell}"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="diff fresh `repro bench-diagram --json` output "
        "against a checked-in baseline"
    )
    parser.add_argument("fresh", help="path to the freshly measured JSON")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).parent / "BENCH_diagram.json"),
        help="checked-in baseline JSON (default: benchmarks/BENCH_diagram.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.4,
        help="allowed relative shortfall on speedup ratios (default: 0.4)",
    )
    args = parser.parse_args(argv)

    try:
        fresh = json.loads(Path(args.fresh).read_text())
        baseline = json.loads(Path(args.baseline).read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    failures, notes = compare(fresh, baseline, args.tolerance)
    for note in notes:
        print(f"  ok    {note}")
    for failure in failures:
        print(f"  FAIL  {failure}")
    if any(key not in fresh for key in baseline):
        print("\nbaseline vs fresh metric diff (! = missing from fresh):")
        for row in diff_table(fresh, baseline):
            print(row)
    if failures:
        print(
            f"\n{len(failures)} benchmark regression(s) vs {args.baseline} "
            f"(tolerance {args.tolerance:.0%})"
        )
        return 1
    print(f"\nbenchmarks within bounds of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
