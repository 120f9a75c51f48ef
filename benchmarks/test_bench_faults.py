"""Robustness perf: fault points must be free when chaos is off.

The fault-injection registry instruments hot-adjacent code (engine
dispatch, every disk-cache read/write, the serve compile path).  Its
contract is *zero overhead when disabled*: one module-global load and a
``None`` check per call site.  This module pins that contract with an
absolute per-call bound and shows the breaker-guarded fallback wrapper
adds no fallbacks — and no measurable work — on a healthy engine.
"""

from __future__ import annotations

import time

from repro.faults import FaultPlan, FaultRule, active_plan, clear_plan, fault_point
from repro.relational import BatchExecutor, ExecutionMode, reset_breakers
from repro.workloads import chinook_bench_database, chinook_join_workload

from .conftest import print_block

#: Generous absolute ceiling for one *disabled* fault_point call.  The
#: measured figure is tens of nanoseconds; the ceiling only exists to
#: catch an accidental always-on plan lookup or lock acquisition.
_DISABLED_CALL_BUDGET_S = 5e-6

_CALLS = 20_000


def _time_calls(calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fault_point("bench.disabled.point")
    return time.perf_counter() - start


def test_perf_disabled_fault_point_is_effectively_free(benchmark):
    """Per-call cost of a fault point with no plan installed."""
    clear_plan()
    elapsed = benchmark(lambda: _time_calls(_CALLS))
    per_call = elapsed / _CALLS
    print_block(
        "disabled fault_point overhead",
        f"{_CALLS} calls in {elapsed * 1e3:.2f} ms "
        f"({per_call * 1e9:.0f} ns/call; budget "
        f"{_DISABLED_CALL_BUDGET_S * 1e9:.0f} ns)",
    )
    assert per_call < _DISABLED_CALL_BUDGET_S


def test_perf_unmatched_plan_overhead_is_bounded(benchmark):
    """An installed plan whose rules miss the point stays cheap too.

    This is the worst *production-adjacent* case: chaos enabled somewhere
    else in the process while this call site never matches.  It pays the
    plan lock, so the budget is wider — but still microseconds.
    """
    plan = FaultPlan(
        [FaultRule(point="some.other.point", fault="io")], seed=1
    )
    with active_plan(plan):
        elapsed = benchmark(lambda: _time_calls(_CALLS))
    per_call = elapsed / _CALLS
    print_block(
        "unmatched-plan fault_point overhead",
        f"{_CALLS} calls in {elapsed * 1e3:.2f} ms "
        f"({per_call * 1e9:.0f} ns/call)",
    )
    assert per_call < 20e-6
    assert plan.stats()["bench.disabled.point"]["fires"] == 0


def test_perf_fallback_wrapper_is_inert_on_a_healthy_engine(benchmark):
    """BatchExecutor(fallback=True) on a healthy engine: zero fallbacks,
    identical rows, one breaker success-path check per query."""
    clear_plan()
    reset_breakers()
    database = chinook_bench_database(scale=2)
    queries = chinook_join_workload(repeat=1)
    plain = BatchExecutor(database, mode=ExecutionMode.SQL)
    expected = [r.as_set() for r in plain.run(queries)]

    def run():
        batch = BatchExecutor(
            database, mode=ExecutionMode.SQL, fallback=True
        )
        return batch, batch.run(queries)

    batch, results = benchmark(run)
    assert [r.as_set() for r in results] == expected
    stats = batch.context.stats
    assert stats.fallbacks == 0
    assert stats.breaker_skips == 0
    assert batch.context.breaker_state == {"sql": "closed"}
    reset_breakers()
