"""One run of ``exec_read`` or ``exec_rw``.

``--trace 0``: the run's rounds of the stream on the three engines.
``--trace 1``: half as many rounds twice, untraced (per-engine queries/s
and p50) and then traced on freshly built engines (per-layer numbers),
so both see the same inserts at the same database sizes; the difference
in engine time per query is the tracing overhead.
"""

from __future__ import annotations

import gc
import time

import exec_workload as ew
import tracing
from common import (
    END_TO_END,
    PER_LAYER,
    Report,
    digest_of,
    log,
    median,
    pin_to_one_cpu,
    provenance,
    ratio,
    self_peak_rss_mb,
    with_units,
)
from loadgen import percentile


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    from repro.sql import parse

    pin_to_one_cpu()
    engines, setup_s = ew.build_engines()
    span = seconds / 2 if trace else seconds
    texts = ew.stream(seed, ew.rounds_for(workload, span) * len(ew.FAMILIES))
    parsed = {text: parse(text) for text in set(texts)}
    queries = [parsed[text] for text in texts]
    batches = [()] * len(texts)
    if workload == "exec_rw":
        inserter = ew.Inserter(seed, engines[0].database)
        batches = [inserter.batch() for _ in texts]
    stamp = provenance(
        workload,
        seed,
        digest_of([texts, batches, _database_digest(engines[0].database)]),
    )
    time_limit = ew.OVERRUN * span
    if trace:
        return _traced(workload, engines, queries, batches, time_limit, stamp)
    phase = ew.run_phase(engines, queries, batches, time_limit)
    _log_phase(workload, phase, len(queries))
    stamp["slowdown"] = median(phase.slowdowns)
    pooled = sorted(x for samples in phase.latency_ms.values() for x in samples)
    values = {
        "setup_s": setup_s,
        "p50_ms": percentile(pooled, 0.50),
        "p99_ms": percentile(pooled, 0.99),
        "max_rps": median(phase.round_rates()),
        "cpu_ms_per_req": median(phase.round_cpu_ms()),
        "peak_rss_mb": self_peak_rss_mb(),
        "ok_frac": ratio(phase.steps - phase.failed, phase.steps),
    }
    return Report(
        phase.failed == 0, phase.steps, phase.failed, with_units(values, END_TO_END), stamp
    )


def _database_digest(database) -> str:
    return digest_of(
        [name, [list(row.values()) for row in database.relation(name)]]
        for name in database.table_names()
    )


def _log_phase(workload: str, phase: ew.Phase, planned: int) -> None:
    if phase.steps < planned:
        log(f"  {workload}: stopped after {phase.steps} of {planned} steps (time limit)")
    for name in ew.ENGINES:
        log(
            f"  {workload} {name:8s} {phase.steps / phase.elapsed_s[name]:8.1f} q/s"
            f"  p50 {median(phase.latency_ms[name]):6.2f} ms"
        )


def _counters(engines) -> dict[str, int]:
    totals: dict[str, int] = {}
    for engine in engines:
        for key, value in engine.batch.context.stats.snapshot().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _traced(workload, engines, queries, batches, time_limit, stamp) -> Report:
    plain = ew.run_phase(engines, queries, batches, time_limit)
    _log_phase(workload, plain, len(queries))
    engines = ew.fresh_engines()
    recorder = tracing.Recorder()
    tracing.install_relational(recorder)
    on_gc = recorder.install_gc()
    before = _counters(engines)
    started = time.perf_counter()
    traced = ew.run_phase(engines, queries, batches, time_limit)
    window = (started, time.perf_counter())
    after = _counters(engines)
    gc.callbacks.remove(on_gc)
    delta = {key: after[key] - before.get(key, 0) for key in after}
    steps = traced.steps
    self_s, calls, outer_s = tracing.layer_totals(recorder.spans, window)
    per_step = lambda seconds_: ratio(seconds_ * 1000.0, steps)  # noqa: E731
    plain_per_query = ratio(sum(plain.elapsed_s.values()), plain.queries)
    traced_per_query = ratio(sum(traced.elapsed_s.values()), traced.queries)
    gen2 = [
        (end - start) * 1000.0
        for start, end, generation in recorder.gc_events
        if generation == 2
    ]
    values = {
        "relational.planner.busy_ms": per_step(self_s["relational.planner"]),
        "relational.planner.calls": calls["relational.planner"],
        "relational.stats.busy_ms": per_step(self_s["relational.stats"]),
        "relational.executor.busy_ms": per_step(self_s["relational.executor"]),
        "relational.executor.plan_hit_ratio": ratio(
            delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]
        ),
        "relational.executor.scan_hit_ratio": ratio(
            delta["scan_hits"], delta["scan_hits"] + delta["scan_misses"]
        ),
        "relational.executor.subquery_hit_ratio": ratio(
            delta["subquery_hits"], delta["subquery_hits"] + delta["subquery_misses"]
        ),
        "relational.executor.subquery_ms": per_step(outer_s["relational.executor.subquery"]),
        "relational.executor.invalidations": calls["relational.executor.invalidation"],
        "relational.executor.topk_held_rows": max(
            engine.batch.context.stats.topk_held_rows for engine in engines
        ),
        "relational.columnar.busy_ms": per_step(self_s["relational.columnar"]),
        "relational.columnar.load_ms": per_step(outer_s["relational.columnar.load"]),
        "relational.columnar.loads": calls["relational.columnar.load"],
        "relational.sqlbackend.busy_ms": per_step(self_s["relational.sqlbackend"]),
        "relational.sqlbackend.lower_ms": per_step(outer_s["relational.sqlbackend.lower"]),
        "relational.sqlbackend.lower_hit_ratio": ratio(
            delta["sql_lower_hits"], delta["sql_lower_hits"] + delta["sql_lower_misses"]
        ),
        "relational.sqlbackend.store_ms": per_step(outer_s["relational.sqlbackend.store"]),
        "relational.sqlbackend.store_builds": delta["sql_store_builds"],
        "relational.database.insert_ms": per_step(outer_s["relational.database.insert"]),
        "relational.database.inserts": calls["relational.database.insert"],
        "gc.gen2_pause_max_ms": max(gen2, default=0.0),
        "gc.gen2_pause_total_ms": sum(gen2),
        "gc.collections": len(recorder.gc_events),
        "trace.latency_ms": traced_per_query * 1000.0,
        "trace.overhead_pct": ratio(
            (traced_per_query - plain_per_query) * 100.0, plain_per_query
        ),
    }
    for name in ew.ENGINES:
        values[f"{name}.qps"] = ratio(plain.steps, plain.elapsed_s[name])
        values[f"{name}.p50_ms"] = median(plain.latency_ms[name])
    failed = plain.failed + traced.failed
    attempted = plain.steps + traced.steps
    log(f"  traced {steps} steps, overhead {values['trace.overhead_pct']:.1f}%")
    return Report(failed == 0, attempted, failed, with_units(values, PER_LAYER), stamp)
