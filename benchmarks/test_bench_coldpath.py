"""Experiment perf: the cold compile path, before vs after the overhaul.

PR 3's stage caches made *warm* corpus compilation fast; this PR rewrites
the cold path itself — regex master-pattern lexer over parallel token
arrays, slotted cached-hash AST/Logic-Tree nodes, rank-compressed
(hash-free) fingerprint refinement with memoized subtree keys, iterative
traversals throughout — and adds the persistent on-disk cache plus the
process-parallel batch API.

Three claims are asserted here:

* **cold ≥ 3×** — a cold single-query fingerprint compile (the operation
  ``DiagramCompiler(cache=False).fingerprint``) is at least 3× faster than
  the pre-PR path, measured against the faithful copy of that code in
  :mod:`benchmarks.legacy_coldpath` on a querygen corpus spanning nesting
  depths 2–5 (the paper's unique-set query nests 5 levels) plus the
  paper's running examples;
* **persistent warm start ≥ 5×** — a fresh compiler reading a populated
  on-disk cache beats a cold run by at least 5× on the 1.1k-query corpus;
* **parallel == serial** — a ``workers=N`` run produces byte-identical
  rendered artifacts and identical equivalence classes to a serial run.

Both sides of the cold comparison are best-of-N wall-clock times with the
GC parked, so the asserted quantity is a *ratio* of like measurements —
robust against slow CI hardware (both sides slow down together).
"""

from __future__ import annotations

import gc
import time
import timeit

from benchmarks.conftest import print_block
from benchmarks.legacy_coldpath import LegacyColdCompiler

from repro.catalog import sailors_schema
from repro.paper_queries import FIG24_VARIANTS, Q_ONLY_SQL, UNIQUE_SET_SQL
from repro.pipeline import DiagramBatchCompiler, DiagramCompiler
from repro.sql import format_query
from repro.workloads import QueryGenConfig, QueryGenerator


def _querygen(depth: int, tables: int, count: int) -> list[str]:
    generator = QueryGenerator(
        sailors_schema(),
        QueryGenConfig(max_depth=depth, max_tables_per_block=tables),
    )
    return [format_query(generator.generate(seed)) for seed in range(count)]


#: Cold corpus: querygen across the nesting depths the paper's examples
#: span (unique-set = 5 levels), plus the running examples themselves.
_COLD_CORPUS = (
    _querygen(2, 2, 30)
    + _querygen(3, 3, 30)
    + _querygen(4, 3, 30)
    + _querygen(5, 3, 30)
    + ([UNIQUE_SET_SQL, Q_ONLY_SQL] + list(FIG24_VARIANTS)) * 4
)

#: Warm-start corpus: 1.1k queries with workload-style verbatim repetition.
_DISTINCT = 60
_TOTAL = 1100
_DISTINCT_SQL = _querygen(2, 2, _DISTINCT)
_WARM_CORPUS = [
    _DISTINCT_SQL[index % _DISTINCT] for index in range(_TOTAL)
] + list(FIG24_VARIANTS)

_FORMATS = ("svg", "dot", "text")

#: Acceptance bars (see ISSUE 4 / docs/performance.md).
_REQUIRED_COLD_SPEEDUP = 3.0
_REQUIRED_WARM_SPEEDUP = 5.0


def _best_of(callable_, repeat: int = 5) -> float:
    gc.collect()
    gc.disable()
    try:
        return min(timeit.repeat(callable_, number=1, repeat=repeat))
    finally:
        gc.enable()


def test_perf_cold_compile_vs_pre_pr_path():
    """Cold fingerprint compile ≥3× faster than the preserved pre-PR path."""

    def run_new() -> list[str]:
        compiler = DiagramCompiler(cache=False)
        return [compiler.fingerprint(sql) for sql in _COLD_CORPUS]

    def run_legacy() -> list[str]:
        compiler = LegacyColdCompiler()
        return [compiler.fingerprint(sql) for sql in _COLD_CORPUS]

    # Both implementations must agree before their speeds are compared.
    # Digest *values* differ by design (the rank-compressed canonical form
    # encodes differently than the digest-chain one); what must match is
    # the induced partition of the corpus into equivalence classes.
    def partition(fingerprints: list[str]) -> list[tuple[int, ...]]:
        groups: dict[str, list[int]] = {}
        for index, fingerprint in enumerate(fingerprints):
            groups.setdefault(fingerprint, []).append(index)
        return sorted(tuple(indices) for indices in groups.values())

    assert partition(run_new()) == partition(run_legacy())

    new_elapsed = _best_of(run_new)
    legacy_elapsed = _best_of(run_legacy)
    speedup = legacy_elapsed / new_elapsed
    if speedup < _REQUIRED_COLD_SPEEDUP:
        # One calmer re-measurement before failing: a noisy neighbour can
        # depress a single best-of-5 on shared CI runners.
        new_elapsed = _best_of(run_new, repeat=9)
        legacy_elapsed = _best_of(run_legacy, repeat=9)
        speedup = legacy_elapsed / new_elapsed

    per_query_new = new_elapsed / len(_COLD_CORPUS) * 1e6
    per_query_old = legacy_elapsed / len(_COLD_CORPUS) * 1e6
    print_block(
        "Cold path: single-query fingerprint compile, pre-PR vs rewritten",
        "\n".join(
            (
                f"corpus      {len(_COLD_CORPUS)} queries "
                "(querygen depths 2-5 + paper examples)",
                f"pre-PR      {legacy_elapsed * 1000:9.1f} ms "
                f"({per_query_old:7.1f} us/query)",
                f"rewritten   {new_elapsed * 1000:9.1f} ms "
                f"({per_query_new:7.1f} us/query)",
                f"speedup     {speedup:9.2f}x  "
                f"(required: >= {_REQUIRED_COLD_SPEEDUP:.0f}x)",
            )
        ),
    )
    assert speedup >= _REQUIRED_COLD_SPEEDUP


def test_perf_persistent_warm_start_vs_cold(tmp_path):
    """A cross-process warm start beats a cold run ≥5× on the 1.1k corpus."""
    cold = DiagramBatchCompiler(cache=False)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        cold_artifacts = cold.run(_WARM_CORPUS, formats=_FORMATS)
        cold_elapsed = time.perf_counter() - start

        populate = DiagramBatchCompiler(disk_cache=tmp_path)
        start = time.perf_counter()
        populate.run(_WARM_CORPUS, formats=_FORMATS)
        populate_elapsed = time.perf_counter() - start

        # A *fresh* compiler (new process semantics: empty memory caches)
        # over the populated store.
        warm = DiagramBatchCompiler(disk_cache=tmp_path)
        start = time.perf_counter()
        warm_artifacts = warm.run(_WARM_CORPUS, formats=_FORMATS)
        warm_elapsed = time.perf_counter() - start
    finally:
        gc.enable()

    speedup = cold_elapsed / warm_elapsed
    disk_stats = warm.compiler.disk_cache.stats
    stage_disk_hits = sum(
        counter.disk_hits for counter in warm.stats().counters.values()
    )
    print_block(
        "Persistent cache: cold vs populate vs cross-process warm start",
        "\n".join(
            (
                f"corpus      {len(_WARM_CORPUS)} queries "
                f"({_DISTINCT} distinct + Fig. 24 trio), formats "
                + ",".join(_FORMATS),
                f"cold        {cold_elapsed * 1000:9.1f} ms",
                f"populate    {populate_elapsed * 1000:9.1f} ms "
                f"({populate.compiler.disk_cache.stats.writes} entries written)",
                f"warm start  {warm_elapsed * 1000:9.1f} ms "
                f"({disk_stats.hits} disk hits, "
                f"{stage_disk_hits} stage hits from disk)",
                f"speedup     {speedup:9.1f}x  "
                f"(required: >= {_REQUIRED_WARM_SPEEDUP:.0f}x vs cold)",
            )
        ),
    )
    assert stage_disk_hits > 0
    for ours, theirs in zip(cold_artifacts, warm_artifacts):
        assert ours.fingerprint == theirs.fingerprint
    assert speedup >= _REQUIRED_WARM_SPEEDUP


def test_perf_parallel_run_matches_serial_byte_for_byte():
    """workers=N: byte-identical artifacts, identical equivalence classes."""
    serial = DiagramBatchCompiler()
    start = time.perf_counter()
    serial_artifacts = serial.run(_WARM_CORPUS, formats=_FORMATS)
    serial_elapsed = time.perf_counter() - start

    parallel = DiagramBatchCompiler()
    start = time.perf_counter()
    parallel_artifacts = parallel.run(_WARM_CORPUS, formats=_FORMATS, workers=2)
    parallel_elapsed = time.perf_counter() - start

    assert len(parallel_artifacts) == len(serial_artifacts)
    for ours, theirs in zip(serial_artifacts, parallel_artifacts):
        assert ours.fingerprint == theirs.fingerprint
        assert ours.outputs == theirs.outputs  # byte-identical renders
    assert serial.equivalence_classes() == parallel.equivalence_classes()
    assert parallel.stats().queries == len(_WARM_CORPUS)

    print_block(
        "Parallel batch: workers=2 vs serial (must be byte-identical)",
        "\n".join(
            (
                f"corpus      {len(_WARM_CORPUS)} queries, formats "
                + ",".join(_FORMATS),
                f"serial      {serial_elapsed * 1000:9.1f} ms",
                f"workers=2   {parallel_elapsed * 1000:9.1f} ms "
                "(speed depends on core count; identity is the contract)",
                f"identical   outputs: yes, equivalence classes: yes "
                f"({parallel.distinct_diagrams()} distinct diagrams)",
            )
        ),
    )
