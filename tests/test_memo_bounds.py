"""Every in-memory memo is a bounded LRU, and eviction never changes an answer.

The pipeline's stage caches, the engines' plan and subquery memos and the
serving tier's response LRU and text memo all store their entries in one
:class:`repro.lru.LRUCache` with a fixed bound.  These tests pin that
inventory, check that threads can share one cache, then shrink the bounds
to 2 so that every run evicts, and check that diagrams stay byte-identical
to a fresh compile and that every engine still agrees with the naive
oracle.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro.pipeline.stages as stages
import repro.relational.executor as executor_module
from repro.lru import LRUCache
from repro.paper_queries import Q_ONLY_SQL, Q_SOME_SQL
from repro.pipeline import STAGE_NAMES, DiagramCompiler, compile_sql
from repro.relational import ExecutionMode, Executor
from repro.serve import CompileService
from repro.workloads import (
    chinook_bench_database,
    chinook_join_workload,
    chinook_mixed_workload,
)

THREE_QUERIES = (
    Q_ONLY_SQL,
    Q_SOME_SQL,
    "SELECT S.sname FROM Sailor S WHERE S.rating > 7",
)


def test_every_in_memory_memo_is_a_bounded_lru():
    service = CompileService()
    try:
        memos = {
            "response LRU": service.lru,
            "text memo": service._text_keys,
            **{
                f"stage {name}": cache
                for name, cache in service.compiler._cache._caches.items()
            },
        }
    finally:
        service.close()
    context = Executor(chinook_bench_database(scale=1)).context
    memos["plan memo"] = context._plans
    memos["subquery memo"] = context._subqueries
    memos["key index memo"] = context._key_indexes
    assert {name for name in memos if name.startswith("stage ")} == {
        f"stage {name}" for name in STAGE_NAMES
    }
    unbounded = {
        name: memo
        for name, memo in memos.items()
        if not (isinstance(memo, LRUCache) and memo.max_entries > 0)
    }
    assert not unbounded


class _SlowHashKey:
    """A key whose hash runs Python code, as the pipeline's AST keys do."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __hash__(self) -> int:
        return hash(self.n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SlowHashKey) and other.n == self.n


def test_lru_shared_by_threads_never_fails_or_mixes_up_values():
    # The compile server's fingerprint and compile threads share the stage
    # caches.  Without the lock, a thread switch inside a key's __hash__
    # lets another thread evict the key mid-operation: a KeyError, or a
    # crash inside OrderedDict.
    cache = LRUCache(2)
    errors: list[BaseException] = []
    wrong: list[tuple] = []
    gets = [0] * 4
    deadline = time.monotonic() + 0.5

    def hammer(seed: int) -> None:
        n = seed
        try:
            while time.monotonic() < deadline:
                n = (n * 7 + 3) % 5
                value = cache.get(_SlowHashKey(n))
                gets[seed] += 1
                if value is not None and value != n * 10:
                    wrong.append((n, value))
                cache.put(_SlowHashKey(n), n * 10)
        except Exception as error:  # the assertion below reports it
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and not wrong
    assert len(cache) <= 2
    assert cache.stats.hits + cache.stats.misses == sum(gets)
    assert cache.stats.evictions > 0


def test_full_stage_evicts_its_least_recent_entry_not_every_entry(monkeypatch):
    monkeypatch.setattr(stages, "STAGE_CACHE_ENTRIES", 2)
    compiler = DiagramCompiler()
    outputs = [compiler.compile(sql).outputs for sql in THREE_QUERIES]
    # The third query pushed one entry out of each stage; two stay.
    assert compiler.cache_sizes() == {name: 2 for name in STAGE_NAMES}
    stats = compiler.stats()
    assert stats.as_dict()["stages"]["lex"]["evictions"] == 1
    assert all(stats.counter(name).evictions == 1 for name in STAGE_NAMES)
    # The first query left every stage; compiling it again recomputes
    # every stage and yields the same bytes as a fresh compiler does.
    again = compiler.compile(THREE_QUERIES[0]).outputs
    fresh = [compile_sql(sql).outputs for sql in THREE_QUERIES]
    assert outputs == fresh
    assert again == fresh[0]
    assert compiler.stats().counter("artifact").hits == 0


def test_unbounded_run_reports_no_evictions():
    compiler = DiagramCompiler()
    for sql in THREE_QUERIES:
        compiler.compile(sql, formats=("text",))
    payload = compiler.stats().as_dict()
    assert all("evictions" not in stage for stage in payload["stages"].values())


@pytest.mark.parametrize(
    "mode", [ExecutionMode.PLANNED, ExecutionMode.COLUMNAR, ExecutionMode.SQL]
)
def test_engines_agree_with_the_oracle_under_tiny_memo_bounds(monkeypatch, mode):
    monkeypatch.setattr(executor_module, "PLAN_MEMO_ENTRIES", 2)
    monkeypatch.setattr(executor_module, "SUBQUERY_MEMO_ENTRIES", 2)
    monkeypatch.setattr(executor_module, "KEY_INDEX_ENTRIES", 2)
    database = chinook_bench_database(scale=2)
    # The join workload has no subqueries; the mixed one adds a correlated
    # EXISTS, whose per-customer results overflow a 2-entry memo.
    queries = chinook_join_workload(repeat=2) + chinook_mixed_workload() * 2
    oracle = Executor(database, mode=ExecutionMode.NAIVE)
    expected = [oracle.execute(query).as_set() for query in queries]
    executor = Executor(database, mode=mode)
    assert [executor.execute(query).as_set() for query in queries] == expected
    stats = executor.stats()
    assert len(executor.context._plans) == 2
    assert stats.plan_evictions == stats.plan_misses - 2
    if mode is ExecutionMode.SQL:
        # sqlite runs the subqueries itself; each replanned query is
        # lowered again, its lowering having left with the evicted plan.
        assert stats.sql_lower_misses == stats.plan_misses
    else:
        assert stats.subquery_evictions > 0
        assert len(executor.context._subqueries) == 2
    if mode is ExecutionMode.PLANNED:
        # The joins' bare-scan build sides alone need more than 2 indexes.
        assert stats.key_index_evictions > 0
        assert len(executor.context._key_indexes) == 2
