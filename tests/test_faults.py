"""Fault-injection registry, circuit breakers, engine fallback, cache chaos.

Three layers, bottom-up:

* the :mod:`repro.faults` registry itself — deterministic seeded streams,
  the nth/times/probability triggers, the fault classes, plan specs;
* the engine degradation path — recoverability classification, the
  consecutive-failure breaker with a fake clock, and the breaker-guarded
  :class:`FallbackBackend` re-executing recoverable failures on the rows
  engine while semantic errors propagate untouched;
* the disk cache under injected IO/corruption — evict-never-trust, and
  root-safe (mock-based) degradation to memory-only mode.
"""

from __future__ import annotations

import errno
import pickle
from unittest import mock

import pytest

from repro.faults import (
    FaultPlan,
    FaultRule,
    InjectedCorruption,
    InjectedCrash,
    InjectedFault,
    InjectedIOError,
    PLAN_ENV_VAR,
    active_plan,
    clear_plan,
    current_plan,
    fault_point,
    fault_stats,
    install_plan,
    install_plan_from_env,
    suspended_plan,
)
from repro.pipeline.diskcache import DiskCache, stable_key_digest
from repro.relational import (
    BreakerState,
    CircuitBreaker,
    ExecutionMode,
    Executor,
    is_recoverable,
    reset_breakers,
    with_fallback,
)
from repro.relational.errors import EngineError, TypeMismatchError
from repro.sql.parser import parse
from repro.workloads import sailors_database

SAILOR_QUERY = parse("SELECT S.sname FROM Sailor S WHERE S.rating > 3")


@pytest.fixture(autouse=True)
def _isolated_faults():
    """No plan or breaker state leaks into (or out of) any test here."""
    clear_plan()
    reset_breakers()
    yield
    clear_plan()
    reset_breakers()


# --------------------------------------------------------------------- #
# registry: triggers, determinism, fault classes
# --------------------------------------------------------------------- #


class TestFaultRegistry:
    def test_disabled_fault_point_is_a_passthrough(self):
        assert current_plan() is None
        assert fault_point("anything") is None
        assert fault_point("anything", b"blob") == b"blob"
        assert fault_stats() == {}

    def test_always_on_io_rule_raises_and_counts(self):
        plan = FaultPlan([FaultRule(point="p.read", fault="io")])
        with active_plan(plan):
            with pytest.raises(InjectedIOError):
                fault_point("p.read")
            fault_point("p.other")  # non-matching point is untouched
        assert plan.stats() == {
            "p.read": {"calls": 1, "fires": 1},
            "p.other": {"calls": 1, "fires": 0},
        }
        assert plan.total_fires() == 1

    def test_injected_errors_form_one_catchable_family(self):
        assert issubclass(InjectedIOError, OSError)
        for cls in (InjectedIOError, InjectedCorruption, InjectedCrash):
            assert issubclass(cls, InjectedFault)

    def test_nth_trigger_fires_exactly_once_on_the_nth_call(self):
        plan = FaultPlan([FaultRule(point="p", fault="crash", nth=3)])
        with active_plan(plan):
            fault_point("p")
            fault_point("p")
            with pytest.raises(InjectedCrash):
                fault_point("p")
            fault_point("p")  # call 4: nth no longer matches
        assert plan.stats()["p"] == {"calls": 4, "fires": 1}

    def test_times_caps_total_fires(self):
        plan = FaultPlan([FaultRule(point="p", fault="io", times=2)])
        with active_plan(plan):
            for _ in range(2):
                with pytest.raises(InjectedIOError):
                    fault_point("p")
            for _ in range(5):
                fault_point("p")  # budget spent: never fires again
        assert plan.stats()["p"] == {"calls": 7, "fires": 2}

    def test_probability_stream_is_deterministic_across_plans(self):
        def fire_pattern() -> list[bool]:
            plan = FaultPlan(
                [FaultRule(point="p", fault="io", probability=0.5)], seed=7
            )
            pattern = []
            with active_plan(plan):
                for _ in range(64):
                    try:
                        fault_point("p")
                        pattern.append(False)
                    except InjectedIOError:
                        pattern.append(True)
            return pattern

        first, second = fire_pattern(), fire_pattern()
        assert first == second
        assert any(first) and not all(first)  # p=0.5 over 64 draws

    def test_different_seeds_give_different_streams(self):
        def pattern(seed: int) -> list[bool]:
            plan = FaultPlan(
                [FaultRule(point="p", fault="io", probability=0.5)], seed=seed
            )
            out = []
            with active_plan(plan):
                for _ in range(64):
                    try:
                        fault_point("p")
                        out.append(False)
                    except InjectedIOError:
                        out.append(True)
            return out

        assert pattern(1) != pattern(2)

    def test_glob_rule_matches_point_families(self):
        plan = FaultPlan([FaultRule(point="diskcache.*", fault="io")])
        with active_plan(plan):
            with pytest.raises(InjectedIOError):
                fault_point("diskcache.read")
            with pytest.raises(InjectedIOError):
                fault_point("diskcache.write")
            fault_point("engine.sql.execute")  # family boundary holds

    def test_corrupt_mangles_bytes_deterministically(self):
        blob = b"0123456789abcdef" * 8

        def corrupted() -> bytes:
            plan = FaultPlan(
                [FaultRule(point="p", fault="corrupt")], seed=11
            )
            with active_plan(plan):
                return fault_point("p", blob)

        first, second = corrupted(), corrupted()
        assert first == second  # deterministic mangling
        assert first != blob  # never a silent no-op
        # Even an empty payload comes back visibly wrong.
        plan = FaultPlan([FaultRule(point="p", fault="corrupt")])
        with active_plan(plan):
            assert fault_point("p", b"") != b""

    def test_corrupt_on_non_bytes_raises(self):
        plan = FaultPlan([FaultRule(point="p", fault="corrupt")])
        with active_plan(plan):
            with pytest.raises(InjectedCorruption):
                fault_point("p", {"not": "bytes"})

    def test_latency_returns_the_value(self):
        plan = FaultPlan(
            [FaultRule(point="p", fault="latency", latency_s=0.001)]
        )
        with active_plan(plan):
            assert fault_point("p", "payload") == "payload"
        assert plan.stats()["p"]["fires"] == 1

    def test_rule_validation_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            FaultRule(point="p", fault="meltdown")
        with pytest.raises(ValueError, match="probability"):
            FaultRule(point="p", probability=1.5)


class TestPlanSpecs:
    def test_from_spec_accepts_dict_inline_json_and_path(self, tmp_path):
        spec = {
            "seed": 9,
            "rules": [{"point": "p", "fault": "io", "probability": 0.25}],
        }
        import json

        for source in (
            spec,
            json.dumps(spec),
            (tmp_path / "plan.json").write_text(json.dumps(spec))
            and str(tmp_path / "plan.json"),
        ):
            plan = FaultPlan.from_spec(source)
            assert plan.seed == 9
            assert plan.rules[0].point == "p"
            assert plan.rules[0].probability == 0.25

    def test_as_dict_round_trips_through_from_spec(self):
        plan = FaultPlan(
            [FaultRule(point="p", fault="crash", nth=2, times=1)], seed=3
        )
        clone = FaultPlan.from_spec(plan.as_dict())
        assert clone.as_dict() == plan.as_dict()

    def test_from_spec_rejects_non_object_payloads(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_spec([1, 2])
        # Inline text that is not a JSON object reads as a path.
        with pytest.raises(OSError):
            FaultPlan.from_spec("no-such-plan.json")

    def test_install_plan_from_env(self):
        spec = '{"seed": 4, "rules": [{"point": "p", "fault": "io"}]}'
        installed = install_plan_from_env({PLAN_ENV_VAR: spec})
        assert installed is current_plan()
        assert installed.seed == 4
        clear_plan()
        assert install_plan_from_env({PLAN_ENV_VAR: "  "}) is None
        assert install_plan_from_env({}) is None
        assert current_plan() is None

    def test_active_and_suspended_plans_nest_and_restore(self):
        outer = FaultPlan([FaultRule(point="p", fault="io")])
        install_plan(outer)
        with suspended_plan():
            assert current_plan() is None
            fault_point("p")  # baseline half: must not fire
            inner = FaultPlan([FaultRule(point="q", fault="io")])
            with active_plan(inner):
                assert current_plan() is inner
            assert current_plan() is None
        assert current_plan() is outer
        assert outer.total_fires() == 0


# --------------------------------------------------------------------- #
# breaker + recoverability + fallback
# --------------------------------------------------------------------- #


class TestRecoverability:
    def test_operational_errors_are_recoverable(self):
        import sqlite3

        for error in (
            InjectedIOError("chaos"),
            OSError(errno.EIO, "io"),
            ImportError("numpy"),
            sqlite3.OperationalError("locked"),
            EngineError("mapped operational failure"),
        ):
            assert is_recoverable(error), error

    def test_semantic_errors_never_fall_back(self):
        assert not is_recoverable(TypeMismatchError("int vs text"))
        assert not is_recoverable(ValueError("unknown class"))


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_and_probes_half_open(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout=10.0, clock=lambda: now[0]
        )
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

        now[0] = 10.0  # timeout elapsed: exactly one half-open probe
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow()  # a second caller keeps falling back
        assert breaker.probes == 1

        breaker.record_failure()  # failed probe re-opens for a full timeout
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        now[0] = 20.0
        assert breaker.allow()
        breaker.record_success()  # healthy probe closes it again
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED


class TestEngineFallback:
    def _database(self):
        return sailors_database(n_sailors=8, n_boats=4, n_reservations=12)

    def test_recoverable_fault_degrades_to_identical_rows(self):
        db = self._database()
        expected = Executor(db).execute(SAILOR_QUERY).as_set()
        executor = Executor(db, mode=ExecutionMode.SQL, fallback=True)
        plan = FaultPlan(
            [FaultRule(point="engine.sql.execute", fault="io", times=2)]
        )
        with active_plan(plan):
            for _ in range(3):
                assert executor.execute(SAILOR_QUERY).as_set() == expected
        stats = executor.context.stats
        assert stats.fallbacks == 2
        assert stats.breaker_skips == 0
        assert executor.context.breaker_state == {"sql": "closed"}
        assert plan.total_fires() == 2

    def test_breaker_opens_and_skips_a_persistently_failing_engine(self):
        db = self._database()
        executor = Executor(db, mode=ExecutionMode.SQL, fallback=True)
        plan = FaultPlan([FaultRule(point="engine.sql.execute", fault="io")])
        with active_plan(plan):
            for _ in range(5):
                executor.execute(SAILOR_QUERY)
        stats = executor.context.stats
        assert stats.fallbacks == 5
        # threshold 3: failures 1-3 attempt the primary, 4-5 are skipped
        assert stats.breaker_skips == 2
        assert executor.context.breaker_state == {"sql": "open"}
        assert plan.stats()["engine.sql.execute"]["fires"] == 3

    def test_semantic_error_propagates_instead_of_falling_back(self):
        db = self._database()
        executor = Executor(db, mode=ExecutionMode.SQL, fallback=True)
        query = parse("SELECT S.sname FROM Sailor S WHERE S.sname > 3")
        with pytest.raises(TypeMismatchError):
            executor.execute(query)
        stats = executor.context.stats
        assert stats.fallbacks == 0
        assert executor.context.breaker_state == {"sql": "closed"}

    def test_fallback_off_by_default_fails_loudly(self):
        executor = Executor(self._database(), mode=ExecutionMode.SQL)
        plan = FaultPlan([FaultRule(point="engine.sql.execute", fault="io")])
        with active_plan(plan):
            with pytest.raises(InjectedIOError):
                executor.execute(SAILOR_QUERY)

    def test_planned_wrapper_degenerates_to_plain_dispatch(self):
        db = self._database()
        backend = with_fallback(ExecutionMode.PLANNED)
        plan = FaultPlan(
            [FaultRule(point="engine.planned.execute", fault="io")]
        )
        executor = Executor(db, mode=ExecutionMode.PLANNED, fallback=True)
        assert backend.fallback_mode is ExecutionMode.PLANNED
        with active_plan(plan):
            # Nowhere left to fall: the last-resort engine fails loudly.
            with pytest.raises(InjectedIOError):
                executor.execute(SAILOR_QUERY)


# --------------------------------------------------------------------- #
# disk cache: chaos reads/writes + root-safe degradation
# --------------------------------------------------------------------- #


class TestDiskCacheChaos:
    def _seeded(self, tmp_path) -> tuple[DiskCache, str]:
        cache = DiskCache(tmp_path)
        digest = stable_key_digest("ns", "lex", "payload-key")
        assert cache.put(digest, "lex", {"value": 42})
        return cache, digest

    def test_corrupt_read_evicts_and_recomputes(self, tmp_path):
        cache, digest = self._seeded(tmp_path)
        plan = FaultPlan(
            [FaultRule(point="diskcache.read.bytes", fault="corrupt", times=1)]
        )
        with active_plan(plan):
            assert cache.get(digest, "lex") == (False, None)
        assert cache.stats.corrupt_evictions == 1
        assert cache.stats.evictions == 1
        assert not cache.degraded
        # The entry is really gone; a re-put restores service.
        assert cache.get(digest, "lex") == (False, None)
        assert cache.put(digest, "lex", {"value": 42})
        assert cache.get(digest, "lex") == (True, {"value": 42})

    def test_read_io_fault_is_a_counted_eviction_not_a_crash(self, tmp_path):
        cache, digest = self._seeded(tmp_path)
        plan = FaultPlan(
            [FaultRule(point="diskcache.read", fault="io", times=1)]
        )
        with active_plan(plan):
            assert cache.get(digest, "lex") == (False, None)
        assert cache.stats.corrupt_evictions == 1

    def test_write_io_fault_counts_but_does_not_degrade(self, tmp_path):
        cache, digest = self._seeded(tmp_path)
        plan = FaultPlan(
            [FaultRule(point="diskcache.write", fault="io", times=1)]
        )
        with active_plan(plan):
            assert not cache.put(digest, "parse", "x")
        # A generic IO error (no degrade errno) is per-entry, not fatal.
        assert cache.stats.write_errors == 1
        assert not cache.degraded
        assert cache.put(digest, "parse", "x")

    def test_eviction_counters_always_reconcile(self, tmp_path):
        cache, digest = self._seeded(tmp_path)
        entry = tmp_path / "lex" / digest[:2] / f"{digest}.pkl"
        entry.write_bytes(b"garbage")
        cache.get(digest, "lex")
        cache.put(digest, "lex", "fresh")
        entry.write_bytes(
            pickle.dumps(("repro-diskcache", "other-version", "stale"))
        )
        cache.get(digest, "lex")
        stats = cache.stats
        assert stats.corrupt_evictions == 1
        assert stats.stale_evictions == 1
        assert stats.evictions == stats.corrupt_evictions + stats.stale_evictions


class TestDiskCacheDegradation:
    """Root-safe degradation tests: the suite runs as root in CI, where
    chmod cannot produce a denial — so the OS errors are mocked instead."""

    def test_uncreatable_root_degrades_to_memory_only(self, tmp_path):
        with mock.patch.object(
            type(tmp_path),
            "mkdir",
            side_effect=PermissionError(errno.EACCES, "denied"),
        ):
            cache = DiskCache(tmp_path / "store")
        assert cache.degraded
        assert cache.stats.disk_degraded == 1
        digest = stable_key_digest("ns", "lex", "k")
        assert not cache.put(digest, "lex", "v")
        assert cache.get(digest, "lex") == (False, None)
        assert cache.stats.misses == 1

    def test_unstampable_store_degrades(self, tmp_path):
        with mock.patch.object(
            type(tmp_path),
            "write_text",
            side_effect=OSError(errno.EROFS, "read-only"),
        ):
            cache = DiskCache(tmp_path)
        assert cache.degraded

    def test_enospc_write_degrades_and_stops_retrying(self, tmp_path):
        cache = DiskCache(tmp_path)
        digest = stable_key_digest("ns", "lex", "k")
        with mock.patch(
            "repro.pipeline.diskcache.tempfile.mkstemp",
            side_effect=OSError(errno.ENOSPC, "disk full"),
        ) as mkstemp:
            assert not cache.put(digest, "lex", "v")
            assert cache.degraded
            # Degraded stores never pay the syscall tax again.
            assert not cache.put(digest, "lex", "v")
            assert mkstemp.call_count == 1
        assert cache.stats.write_errors == 1
        assert cache.stats.disk_degraded == 1

    def test_degradation_is_invisible_to_the_compiler(self, tmp_path):
        from repro.pipeline import DiagramCompiler

        sql = "SELECT S.sname FROM Sailors S WHERE S.rating > 7"
        healthy = DiagramCompiler(disk_cache=tmp_path / "a")
        expected = healthy.compile(sql, formats=("text",))

        with mock.patch.object(
            type(tmp_path),
            "mkdir",
            side_effect=PermissionError(errno.EACCES, "denied"),
        ):
            degraded = DiagramCompiler(disk_cache=tmp_path / "b")
        artifact = degraded.compile(sql, formats=("text",))
        assert degraded.disk_cache.degraded
        assert artifact.fingerprint == expected.fingerprint
        assert artifact.outputs == expected.outputs
        assert degraded.disk_cache.stats.disk_degraded >= 1
