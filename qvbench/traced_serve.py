"""``repro serve`` with the span recorder installed.

    python3 qvbench/traced_serve.py SPANS.json serve --port 0

Installs the pipeline and service wrappers and the ``gc`` callbacks, then
hands the remaining arguments to ``repro``'s own command line.  When the
server exits (SIGTERM drains it), the spans, GC pauses and the compiler's
cache size are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    spans_path = Path(sys.argv[1])
    common.import_program()
    recorder = tracing.Recorder()
    tracing.install_pipeline(recorder)
    tracing.install_serve(recorder)
    recorder.install_gc()
    from repro.cli import main as repro_main

    code = repro_main(sys.argv[2:])
    spans_path.write_text(json.dumps(recorder.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
