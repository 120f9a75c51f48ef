"""Chaos differential workload: ``repro chaos``.

The robustness contract of this codebase (docs/robustness.md) is not "no
faults" but "faults never change answers".  This workload *proves* it the
same way the differential suites prove engine equivalence: run a seeded
querygen corpus twice — once fault-free, once under a deterministic
:class:`~repro.faults.FaultPlan` — and require byte-identical results,
layer by layer:

* **engine** — the fallback-wrapped SQL and COLUMNAR engines execute the
  corpus while injected IO errors knock the primary over; the PLANNED
  rows engine absorbs every failure, and canonicalized result bytes must
  match the fault-free run exactly (``fallbacks`` asserted > 0, so the
  pass is never vacuous).
* **cache** — a disk store is populated fault-free, then a fresh compiler
  re-reads it under injected corruption and write failures; evicted
  entries recompute, artifacts must match.
* **serve** — an in-process :class:`~repro.serve.CompileService` answers
  the corpus while compile faults fire; the client retries shed (503)
  requests, and every request must end in the fault-free payload.
* **pool** — a :class:`~repro.serve.CompileService` over a 2-worker
  :class:`~repro.serve.WorkerSupervisor` answers the corpus concurrently
  while one worker is SIGKILLed with requests in flight; the service's
  retry on a sibling and the supervisor's restart machinery must deliver
  *zero* failed client requests and byte-identical bodies, and the kill
  must actually have landed (``worker_crashes`` asserted > 0).

Faults are seeded, so a failing run is exactly reproducible from its
config — chaos without flakes.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..catalog.builtin import sailors_schema
from ..faults import FaultPlan, FaultRule, active_plan, suspended_plan
from ..relational import ExecutionMode, Executor, reset_breakers
from ..relational.errors import EngineError
from ..serve import CompileService, PoolConfig, ServiceConfig, WorkerSupervisor
from ..serve.service import ServiceUnavailable
from ..sql.formatter import format_query
from .datagen import sailors_database
from .querygen import QueryGenConfig, QueryGenerator


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one ``repro chaos`` run."""

    #: Distinct generated queries per leg.
    queries: int = 30
    #: Base seed of the querygen corpus.
    seed: int = 0
    #: Seed of the fault plans (each leg gets a fresh plan with this seed).
    fault_seed: int = 1337
    #: Formats compiled in the cache and serve legs.
    formats: tuple[str, ...] = ("text",)
    #: Client-side attempts per serve request (retrying 503s).
    serve_attempts: int = 4
    #: Optional :meth:`FaultPlan.from_spec` spec (inline JSON or a path)
    #: replacing the per-leg default rules — ``repro chaos --fault-plan``.
    plan_spec: "str | None" = None
    #: Worker-pool size of the pool leg (< 2 skips the leg).
    pool_workers: int = 2


#: The default chaos rules, one list per leg.  Probabilities are tuned so
#: every leg both *fires* (non-vacuous) and *converges* (fallback, evict,
#: or retry always reaches the fault-free answer) under any seed: engine
#: faults are absorbed per-query by the PLANNED engine, cache corruption
#: is absorbed per-entry by recompute, and serve faults fire in a bounded
#: burst (``times``) smaller than the retry budget.
ENGINE_RULES = (
    FaultRule(point="engine.sql.execute", fault="io", probability=0.5),
    FaultRule(point="engine.columnar.execute", fault="io", probability=0.4),
)
CACHE_RULES = (
    FaultRule(point="diskcache.read.bytes", fault="corrupt", probability=0.3),
    FaultRule(point="diskcache.write", fault="io", probability=0.15),
)
SERVE_RULES = (
    FaultRule(point="serve.compile", fault="io", probability=0.25),
    FaultRule(point="serve.compile", fault="crash", nth=5, times=1),
)


def _leg_plan(config: ChaosConfig, default_rules: tuple) -> FaultPlan:
    if config.plan_spec:
        return FaultPlan.from_spec(config.plan_spec)
    return FaultPlan(default_rules, seed=config.fault_seed)


def _corpus(config: ChaosConfig) -> list:
    generator = QueryGenerator(
        sailors_schema(), QueryGenConfig(max_depth=3, max_tables_per_block=3)
    )
    return [generator.generate(config.seed + i) for i in range(config.queries)]


def _canonical_bytes(result) -> bytes:
    """Order-insensitive byte encoding of a result set.

    Engines agree on row *sets*, not enumeration order (the documented
    cross-engine contract); repr is deterministic for the Value union.
    """
    return repr(
        (result.columns, tuple(sorted(result.rows, key=repr)))
    ).encode("utf-8")


def _engine_leg(config: ChaosConfig) -> dict:
    db = sailors_database(n_sailors=12, n_boats=6, n_reservations=30)
    corpus = _corpus(config)
    legs: dict[str, dict] = {}
    for mode in (ExecutionMode.SQL, ExecutionMode.COLUMNAR):
        reset_breakers()
        baseline: list[bytes | type] = []
        executor = Executor(db, mode=mode, fallback=True)
        with suspended_plan():
            for query in corpus:
                try:
                    baseline.append(_canonical_bytes(executor.execute(query)))
                except EngineError as error:
                    # Semantic divergence (e.g. the SQL engine's static
                    # typecheck): contractual, identical under faults too.
                    baseline.append(type(error))

        reset_breakers()
        plan = _leg_plan(config, ENGINE_RULES)
        faulted_executor = Executor(db, mode=mode, fallback=True)
        faulted: list[bytes | type] = []
        with active_plan(plan):
            for query in corpus:
                try:
                    faulted.append(
                        _canonical_bytes(faulted_executor.execute(query))
                    )
                except EngineError as error:
                    faulted.append(type(error))
        stats = faulted_executor.context.stats
        legs[mode.value] = {
            "queries": len(corpus),
            "identical": faulted == baseline,
            "fallbacks": stats.fallbacks,
            "breaker_skips": stats.breaker_skips,
            "breaker_state": dict(faulted_executor.context.breaker_state),
            "fault_fires": plan.total_fires(),
        }
        reset_breakers()
    return legs


def _cache_leg(config: ChaosConfig, cache_dir: Path) -> dict:
    from ..pipeline import DiagramCompiler

    corpus = [format_query(query) for query in _corpus(config)]
    populate = DiagramCompiler(disk_cache=cache_dir)
    with suspended_plan():
        baseline = [
            (a.fingerprint, dict(a.outputs))
            for a in (
                populate.compile(sql, formats=config.formats)
                for sql in corpus
            )
        ]

    plan = _leg_plan(config, CACHE_RULES)
    faulted_compiler = DiagramCompiler(disk_cache=cache_dir)
    with active_plan(plan):
        faulted = [
            (a.fingerprint, dict(a.outputs))
            for a in (
                faulted_compiler.compile(sql, formats=config.formats)
                for sql in corpus
            )
        ]
    disk = faulted_compiler.disk_cache.stats
    return {
        "queries": len(corpus),
        "identical": faulted == baseline,
        "disk_hits": disk.hits,
        "corrupt_evictions": disk.corrupt_evictions,
        "write_errors": disk.write_errors,
        "fault_fires": plan.total_fires(),
    }


async def _serve_round(
    service: CompileService, corpus: list[str], config: ChaosConfig
) -> tuple[list, int]:
    """Fire the corpus; clients retry shed requests.  Returns (payloads,
    number of requests that needed more than one attempt)."""
    payloads = []
    client_retries = 0
    for sql in corpus:
        last: Exception | None = None
        for attempt in range(config.serve_attempts):
            try:
                response = await service.compile(sql, config.formats)
                break
            except ServiceUnavailable as error:
                last = error
        else:
            raise RuntimeError(
                f"request never succeeded in {config.serve_attempts} "
                f"attempts: {last}"
            )
        if attempt:
            client_retries += 1
        payloads.append(response.payload)
    return payloads, client_retries


def _serve_leg(config: ChaosConfig) -> dict:
    corpus = [format_query(query) for query in _corpus(config)]

    async def run() -> dict:
        baseline_service = CompileService()
        try:
            with suspended_plan():
                baseline, _ = await _serve_round(
                    baseline_service, corpus, config
                )
        finally:
            baseline_service.close()

        service = CompileService()
        plan = _leg_plan(config, SERVE_RULES)
        try:
            with active_plan(plan):
                faulted, client_retries = await _serve_round(
                    service, corpus, config
                )
        finally:
            service.close()
        return {
            "requests": len(corpus),
            "identical": faulted == baseline,
            "client_retries": client_retries,
            "compile_retries": service.stats.compile_retries,
            "executor_restarts": service.backend.executor_restarts,
            "fault_fires": plan.total_fires(),
        }

    return asyncio.run(run())


def _pool_leg(config: ChaosConfig) -> dict:
    """Worker-crash differential: SIGKILL one pool worker mid-load.

    The corpus is fired *concurrently* at a small pool whose workers run
    a deterministic per-compile stall (so requests are reliably in flight
    when the kill lands); one worker is SIGKILLed as soon as it has work
    pending.  The service's one retry on a sibling plus the client's 503
    retries must end every request in the fault-free body.
    """
    corpus = [format_query(query) for query in _corpus(config)]

    async def run() -> dict:
        baseline_service = CompileService()
        try:
            with suspended_plan():
                baseline, _ = await _serve_round(
                    baseline_service, corpus, config
                )
        finally:
            baseline_service.close()

        stall_plan = {
            "seed": config.fault_seed,
            "rules": [
                {
                    "point": "serve.compile",
                    "fault": "latency",
                    "latency_s": 0.01,
                }
            ],
        }
        supervisor = WorkerSupervisor(
            PoolConfig(
                workers=config.pool_workers,
                worker_fault_plan=stall_plan,
                min_uptime=0.0,
                backoff_base=0.01,
                backoff_cap=0.1,
            )
        )
        service = CompileService(
            backend=supervisor,
            config=ServiceConfig(max_pending=4096, request_timeout=60.0),
        )
        client_retries = 0
        failed = 0
        try:
            await supervisor.start()

            async def one(sql: str) -> dict | None:
                nonlocal client_retries, failed
                last: Exception | None = None
                for attempt in range(config.serve_attempts):
                    try:
                        response = await service.compile(sql, config.formats)
                    except ServiceUnavailable as error:
                        last = error
                        await asyncio.sleep(0.05)
                        continue
                    if attempt:
                        client_retries += 1
                    return json.loads(response.body)
                failed += 1
                return {"error": str(last)}

            async def assassin() -> int | None:
                # Wait until the victim actually has requests in flight —
                # a kill with nothing pending proves nothing.
                for _ in range(400):
                    worker = supervisor._slots[0].worker
                    if worker is not None and worker.pending:
                        break
                    await asyncio.sleep(0.005)
                return supervisor.kill_slot(0)

            tasks = [asyncio.ensure_future(one(sql)) for sql in corpus]
            killer = asyncio.ensure_future(assassin())
            faulted = await asyncio.gather(*tasks)
            killed_pid = await killer
            stats = supervisor.stats
            return {
                # Deterministic facts: same seeds → byte-identical.
                "requests": len(corpus),
                "workers": config.pool_workers,
                "identical": list(faulted) == baseline,
                "failed_requests": failed,
                "worker_crashes": stats.worker_crashes,
                # Timing-dependent observations: the SIGKILL is real OS
                # concurrency, so *how many* requests were in flight on the
                # victim (failovers, retries) varies run to run.  Keeping
                # them under one key lets the seed-reproducibility test
                # compare everything else exactly.
                "observed": {
                    "killed_pid": killed_pid,
                    "client_retries": client_retries,
                    "worker_restarts": stats.worker_restarts,
                    "failovers": stats.failovers,
                },
            }
        finally:
            service.begin_drain()
            await service.drain(5.0)
            service.close()

    return asyncio.run(run())


def run_chaos(
    config: ChaosConfig | None = None, cache_dir: Path | str | None = None
) -> dict:
    """Run all four legs; ``payload["ok"]`` is the overall verdict."""
    config = config or ChaosConfig()
    engine = _engine_leg(config)
    if cache_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            cache = _cache_leg(config, Path(tmp) / "store")
    else:
        cache = _cache_leg(config, Path(cache_dir))
    serve = _serve_leg(config)
    pool = _pool_leg(config) if config.pool_workers >= 2 else None
    ok = (
        all(leg["identical"] for leg in engine.values())
        and cache["identical"]
        and serve["identical"]
    )
    if pool is not None:
        # The kill must have landed (non-vacuous) and cost no request.
        ok = ok and (
            pool["identical"]
            and pool["failed_requests"] == 0
            and pool["worker_crashes"] > 0
        )
    # A chaos run where nothing fired proves nothing: require injection.
    fired = (
        sum(leg["fault_fires"] for leg in engine.values())
        + cache["fault_fires"]
        + serve["fault_fires"]
    )
    payload = {
        "ok": ok and fired > 0,
        "fault_fires": fired,
        "engine": engine,
        "cache": cache,
        "serve": serve,
    }
    if pool is not None:
        payload["pool"] = pool
    return payload
