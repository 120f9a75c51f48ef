"""Paths, provenance and result printing shared by every workload."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sqlite3
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Report:
    """One run's verdict: the four keys of the result line, plus provenance."""

    correct: bool
    attempted: int
    failed: int
    #: metric name -> (value, unit)
    metrics: dict[str, tuple[float, str]]
    provenance: dict


#: End-to-end metrics (``--trace 0``), reported on every workload.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "max_rps": "1/s",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MiB",
    "ok_frac": "fraction",
}

_STAGES = ("artifact", "lex", "parse", "logic", "simplify", "fingerprint",
           "diagram", "layout", "render")
_STAGE_MODULES = ("sql.lexer", "sql.parser", "logic.translate", "logic.simplify",
                  "pipeline.fingerprint", "diagram.build", "render.layout", "render")

#: Per-layer metrics (``--trace 1``); a layer that idles in a workload reads 0.
PER_LAYER = {
    "serve.http.self_ms": "ms",
    "serve.service.self_ms": "ms",
    "serve.service.lru_hit_ratio": "ratio",
    "serve.service.coalesced_ratio": "ratio",
    "serve.service.memo_hit_ratio": "ratio",
    "serve.service.fp_wait_ms": "ms",
    "serve.service.compile_wait_ms": "ms",
    "serve.service.shed": "count",
    "serve.service.timeouts": "count",
    "pipeline.compile_ms": "ms",
    "pipeline.key_ms": "ms",
    "pipeline.cache_entries": "count",
    **{f"pipeline.{stage}.hit_ratio": "ratio" for stage in _STAGES},
    **{
        f"{module}.{kind}": unit
        for module in _STAGE_MODULES
        for kind, unit in (("busy_ms", "ms"), ("calls", "count"))
    },
    "gc.gen2_pause_max_ms": "ms",
    "gc.gen2_pause_total_ms": "ms",
    "gc.collections": "count",
    "relational.planner.busy_ms": "ms",
    "relational.planner.calls": "count",
    "relational.stats.busy_ms": "ms",
    "relational.executor.busy_ms": "ms",
    "relational.executor.plan_hit_ratio": "ratio",
    "relational.executor.scan_hit_ratio": "ratio",
    "relational.executor.subquery_hit_ratio": "ratio",
    "relational.executor.subquery_ms": "ms",
    "relational.executor.invalidations": "count",
    "relational.executor.topk_held_rows": "count",
    "relational.columnar.busy_ms": "ms",
    "relational.columnar.load_ms": "ms",
    "relational.columnar.loads": "count",
    "relational.sqlbackend.busy_ms": "ms",
    "relational.sqlbackend.lower_ms": "ms",
    "relational.sqlbackend.lower_hit_ratio": "ratio",
    "relational.sqlbackend.store_ms": "ms",
    "relational.sqlbackend.store_builds": "count",
    "relational.database.insert_ms": "ms",
    "relational.database.inserts": "count",
    "rows.qps": "1/s",
    "columnar.qps": "1/s",
    "sql.qps": "1/s",
    "rows.p50_ms": "ms",
    "columnar.p50_ms": "ms",
    "sql.p50_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.backlog_max": "count",
    "trace.latency_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
}


def with_units(values: dict[str, float], catalogue: dict[str, str]) -> dict:
    """Every metric of ``catalogue`` with its unit; absent ones read 0."""
    unknown = set(values) - set(catalogue)
    if unknown:
        raise KeyError(f"metrics not in the catalogue: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in catalogue.items()}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program sources)."""


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import ``repro``.

    Refuses to run against any other copy of the package, so a checkout
    without sources fails instead of measuring something else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SetupError(f"repro imported from {repro.__file__}, not from {SRC}")


def program_env() -> dict[str, str]:
    """Environment for a child process that runs the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(workload: str, seed: int, digest: str) -> dict:
    """Environment stamp printed next to every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": digest,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }


def digest_of(items) -> str:
    """SHA-256 over the JSON encoding of generated inputs."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(json.dumps(item, sort_keys=True).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


#: The calibration loop: iterations, and its duration at reference speed
#: (a typical reading on the 2-vCPU virtual machine the sizes were chosen
#: on).  Only the ratio of a reading to the reference is used.
CALIBRATION_ITERATIONS = 15_000
REFERENCE_LOOP_S = 0.0024


def calibration_loop_s() -> float:
    """One timing of a fixed interpreter-bound loop.

    It allocates nothing the garbage collector tracks and runs no program
    code, so it slows down only when the machine does.
    """
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERATIONS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def slowdown_sample(repeats: int = 3) -> float:
    """How much slower than reference the machine runs Python right now."""
    return statistics.fmean(calibration_loop_s() for _ in range(repeats)) / REFERENCE_LOOP_S


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU.

    A process that migrates between the vCPUs of a shared host changes
    speed mid-measurement.  On one CPU the program, the load generator
    and the calibration loop all run at the speed the slowdown measures.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def self_peak_rss_mb() -> float:
    """Peak RSS of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result line: the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
