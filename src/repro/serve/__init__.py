"""Long-running diagram-compilation serving tier.

Everything below :mod:`repro.pipeline` is batch-oriented: a process starts,
compiles a corpus, and exits.  This package turns those caches into a
*serving* tier — a long-running asyncio HTTP server in front of
:class:`~repro.pipeline.DiagramCompiler`:

* :mod:`repro.serve.service` — the transport-free application core:
  request coalescing keyed by canonical fingerprint (N concurrent requests
  for equivalent SQL await one compile), the LRU → stage-cache → disk-cache
  hierarchy, overload shedding and structured counters.  Its response LRU
  and text memo are :class:`repro.lru.LRUCache` instances, re-exported
  here as ``repro.serve.LRUCache``;
* :mod:`repro.serve.http` — the stdlib asyncio HTTP/1.1 layer exposing
  ``/compile``, ``/fingerprint``, ``/render``, ``/stats`` and ``/healthz``
  as JSON endpoints, plus graceful drain on shutdown;
* :mod:`repro.serve.supervisor` / :mod:`repro.serve.pool` — the
  multi-process worker pool: a supervisor that spawns N worker processes
  (each running a :class:`CompileService`), dispatches with
  fingerprint-affinity routing, restarts crashed workers with exponential
  backoff, and hot-reloads them one at a time on SIGHUP
  (``repro serve --workers N``).

``repro serve`` runs the server; ``repro bench-serve``
(:mod:`repro.workloads.servebench`) load-tests it.  See ``docs/serving.md``.
"""

from ..lru import LRUCache
from .http import CompileServer
from .service import (
    BadRequest,
    CompileService,
    ServedResponse,
    ServiceConfig,
    ServiceStats,
    ServiceUnavailable,
)
from .supervisor import (
    PoolConfig,
    PoolService,
    PoolStats,
    WorkerCrashed,
    WorkerSupervisor,
)

__all__ = [
    "BadRequest",
    "CompileServer",
    "CompileService",
    "LRUCache",
    "PoolConfig",
    "PoolService",
    "PoolStats",
    "ServedResponse",
    "ServiceConfig",
    "ServiceStats",
    "ServiceUnavailable",
    "WorkerCrashed",
    "WorkerSupervisor",
]
