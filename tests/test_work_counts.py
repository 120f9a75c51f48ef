"""Exact work counts on two fixed replays: serving, and the three engines.

Each replay sends its requests one after another, so no coalescing or
timing can move a count, and the counts read the same in every process
(any hash seed, with or without NumPy).  A memo that stops hitting, a
handoff that loses its front halves or a write that empties a cache
changes a count here, on any machine, where a timing gate would see
nothing.  A change that moves a count on purpose updates the dicts below
and says why in CHANGES.md.

Only counters that moved are listed, beside the handoff's entries at
the end and the asyncio tasks the serving replay created; every other
counter reads 0.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.paper_queries import FIG24_VARIANTS, Q_ONLY_SQL, UNIQUE_SET_SQL
from repro.relational import ExecutionMode, Executor
from repro.serve import BadRequest, CompileService
from repro.workloads import chinook_bench_database, chinook_mixed_workload

TEXTS = [*FIG24_VARIANTS, Q_ONLY_SQL, UNIQUE_SET_SQL]
#: Each text twice, one whitespace re-spelling of each, one invalid SQL.
REQUESTS = [
    *TEXTS,
    *TEXTS,
    *("  ".join(text.split()) for text in TEXTS),
    "SELEC nonsense FROM",
]

SERVING_COUNTS = {
    # Three compiles: the Fig. 24 trio shares one answer.
    "service": {"compiles": 3, "bad_requests": 1},
    "requests": {"compile": 16},
    "lru": {"hits": 12, "misses": 3},
    # Eleven key lookups (five texts, five re-spellings, the invalid
    # one) each miss the handoff; each of the three compiles pops the
    # front half its lookup left there, and each of the seven lookups
    # the LRU answered releases its own.
    "handoff": {"entries": 0, "hits": 3, "misses": 11},
    # One task per key lookup and per compile.  A request the caches
    # answer runs in its caller's task, and so does an admitted one.
    "tasks": 14,
    "stages": {
        "artifact": {"misses": 3},
        "lex": {"misses": 11},
        "parse": {"misses": 11},
        "logic": {"misses": 10},
        "simplify": {"misses": 10},
        "fingerprint": {"misses": 10},
        "diagram": {"misses": 3},
        "layout": {"misses": 3},
        "render": {"misses": 3},
    },
}

#: Per engine: the workload, one insert, the workload again.  Plans
#: survive the insert; the subquery memo does not.
ENGINE_COUNTS = {
    ExecutionMode.PLANNED: {
        "queries": 16,
        "plan_hits": 8,
        "plan_misses": 8,
        "subquery_misses": 16,
        "key_index_builds": 3,
    },
    ExecutionMode.COLUMNAR: {
        "queries": 16,
        "plan_hits": 8,
        "plan_misses": 8,
        "subquery_misses": 16,
        "scan_hits": 20,
        "scan_misses": 6,
        "key_index_builds": 1,
    },
    ExecutionMode.SQL: {
        "queries": 16,
        "plan_hits": 8,
        "plan_misses": 8,
        "rows_appended": 1,
        "sql_store_builds": 1,
        "sql_lower_hits": 8,
        "sql_lower_misses": 8,
    },
}


def _moved(counters) -> dict[str, int]:
    return {name: value for name, value in counters.snapshot().items() if value}


def test_serving_replay_counts():
    # The re-spellings are new texts, so each is a key lookup.
    assert not {text.strip() for text in TEXTS} & set(REQUESTS[2 * len(TEXTS) :])
    service = CompileService()
    tasks = 0

    def counting_factory(loop, coro, **kwargs):
        nonlocal tasks
        tasks += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def replay() -> None:
        loop = asyncio.get_running_loop()
        loop.set_task_factory(counting_factory)
        try:
            for text in REQUESTS:
                try:
                    await service.compile(text, ("text",))
                except BadRequest:
                    pass
        finally:
            loop.set_task_factory(None)

    try:
        asyncio.run(replay())
    finally:
        service.close()
    compiler = service.compiler
    assert {
        "service": _moved(service.stats),
        "requests": dict(service.requests),
        "lru": _moved(service.lru.stats),
        "handoff": {"entries": len(compiler.handoff), **_moved(compiler.handoff.stats)},
        "tasks": tasks,
        "stages": {
            name: _moved(counter) for name, counter in compiler.stats().counters.items()
        },
    } == SERVING_COUNTS


@pytest.mark.parametrize("mode", list(ENGINE_COUNTS), ids=lambda mode: mode.value)
def test_engine_replay_counts(mode):
    database = chinook_bench_database(scale=1)
    executor = Executor(database, mode=mode)
    workload = chinook_mixed_workload()
    executor.run(workload)
    database.insert("Invoice", {"InvoiceId": 10_000, "CustomerId": 1, "Total": 1.0})
    executor.run(workload)
    assert _moved(executor.stats()) == ENGINE_COUNTS[mode]
