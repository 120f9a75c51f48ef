"""Stage registry and content-addressed caches for the diagram pipeline.

The compiler decomposes ``SQL text → rendered diagram`` into explicit stages

    lex → parse → logic → simplify → fingerprint → diagram → layout → render

each of which is individually cacheable: a stage's cache key is the content
of its input (token text, frozen AST/Logic Tree, canonical fingerprint), so
repeated or semantically equivalent inputs hit the cache no matter which
query of a corpus produced them first.  The same idea drives the relational
side's :class:`~repro.relational.executor.ExecutionContext`; this is its
diagram counterpart.

One extra pseudo-stage, ``artifact``, sits in front of the chain: it
memoizes the whole compilation keyed on the verbatim input (stripped SQL
text or frozen AST, plus the requested formats).  Verbatim repeats — the
overwhelmingly common case in workload-scale corpora — then cost one
dictionary lookup instead of eight cache probes over recursively hashed
trees; the per-stage caches earn their keep on inputs that are *new text
but equivalent structure* (whitespace variants, alias renamings, the
Fig. 24 trio).

Each stage is an :class:`~repro.lru.LRUCache` of :data:`STAGE_CACHE_ENTRIES`
entries, so a long-running process holds a fixed number of entries however
many distinct queries it sees; an evicted entry is one disk-cache probe
or one recomputation away.  These memos serve the batch paths, whose
corpora repeat and re-spell queries within one run.  The compile server's
compiler keeps none (``memo=False``): its answers live in the serving
tier's text memo and response LRU, and stage results held beside them
would only be walked by the cyclic collector (docs/performance.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from ..lru import LRUCache
from ..metrics import Counters
from .diskcache import DiskCache, stable_key_digest

#: Stage names, in pipeline order (render appears once per output format).
STAGE_NAMES: tuple[str, ...] = (
    "artifact",
    "lex",
    "parse",
    "logic",
    "simplify",
    "fingerprint",
    "diagram",
    "layout",
    "render",
)

#: In-memory entries per stage of a memoizing compiler.  ``bench-diagram``'s
#: gated corpus (1,203 queries, 182 distinct texts) fills no stage past 182
#: entries (per format at render): corpora 45 times as varied compile
#: without evicting, and larger ones stay bounded.
STAGE_CACHE_ENTRIES = 8192

_MISSING = object()


@dataclass
class PipelineStats:
    """Cache effectiveness across all stages of one compiler.

    Each stage counts ``hits``, ``misses``, ``disk_hits`` and
    ``evictions``.  ``disk_hits`` is the subset of ``hits`` served from
    the persistent second-level store (:mod:`repro.pipeline.diskcache`)
    rather than from this process's memory.  ``evictions`` counts entries
    the stage's in-memory bound pushed out; it repeats the stage LRU's own
    count because batch workers ship these counters back, not their LRUs.
    """

    queries: int = 0
    counters: dict[str, Counters] = field(
        default_factory=lambda: {
            name: Counters("hits", "misses", "disk_hits", "evictions")
            for name in STAGE_NAMES
        }
    )

    def counter(self, stage: str) -> Counters:
        return self.counters[stage]

    @property
    def total_hits(self) -> int:
        return sum(counter.hits for counter in self.counters.values())

    @property
    def hit_rate(self) -> float:
        lookups = sum(c.hits + c.misses for c in self.counters.values())
        return self.total_hits / lookups if lookups else 0.0

    def describe(self) -> str:
        parts = [f"{self.queries} queries"]
        for name in STAGE_NAMES:
            counter = self.counters[name]
            lookups = counter.hits + counter.misses
            if lookups:
                parts.append(f"{name} {counter.hits}/{lookups} cached")
        parts.append(f"overall hit rate {self.hit_rate:.0%}")
        return ", ".join(parts)

    def merge(self, other: "PipelineStats") -> None:
        """Fold ``other``'s counters into this one (parallel-worker merge)."""
        self.queries += other.queries
        for name, counter in other.counters.items():
            self.counters[name].merge(counter)

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly summary (used by ``repro bench-diagram --json``)."""
        return {
            "queries": self.queries,
            "hit_rate": round(self.hit_rate, 4),
            "stages": {
                name: {
                    "hits": counter.hits,
                    "misses": counter.misses,
                    **({"disk_hits": counter.disk_hits} if counter.disk_hits else {}),
                    **({"evictions": counter.evictions} if counter.evictions else {}),
                }
                for name, counter in self.counters.items()
                if counter.hits or counter.misses
            },
        }


class StageCache:
    """One content-addressed, bounded cache per stage, with shared counters.

    ``memo=False`` keeps nothing in memory: every lookup without a disk
    store is a counted miss that computes and stores nothing.  With no
    disk either, that is how the benchmarks measure a truly cold pipeline
    while exercising identical code paths.

    ``disk`` plugs a persistent second level behind the in-memory LRUs
    (see :mod:`repro.pipeline.diskcache`): memory miss → disk probe →
    compute + write-through.  ``disk_namespace`` isolates entries of
    compilers with different fixed configuration (schema, simplify flag,
    layout geometry) sharing one store.
    """

    def __init__(
        self,
        stats: PipelineStats,
        memo: bool = True,
        disk: "DiskCache | None" = None,
        disk_namespace: str = "",
    ) -> None:
        # Direct reference: get_or_compute runs several times per query and
        # should not pay a method call + attribute hop to find its counter.
        self._counters = stats.counters
        self._disk = disk
        self._namespace = disk_namespace
        self._caches: dict[str, LRUCache] = (
            {name: LRUCache(STAGE_CACHE_ENTRIES) for name in STAGE_NAMES}
            if memo
            else {}
        )

    def get_or_compute(
        self, stage: str, key: Hashable, compute: Callable[..., Any], *args: Any
    ) -> Any:
        """The cached value for ``key``, else ``compute(*args)`` (stored).

        ``args`` are forwarded to ``compute`` so hot callers can pass plain
        functions instead of allocating a closure per stage per query.
        """
        counter = self._counters[stage]
        cache = self._caches.get(stage)
        if cache is not None:
            value = cache.get(key, _MISSING)
            if value is not _MISSING:
                counter.hits += 1
                return value
        disk = self._disk
        digest = None
        if disk is not None:
            digest = stable_key_digest(self._namespace, stage, key)
            found, value = disk.get(digest, stage)
            if found:
                counter.hits += 1
                counter.disk_hits += 1
                if cache is not None:
                    counter.evictions += cache.put(key, value)
                return value
        counter.misses += 1
        value = compute(*args)
        if cache is not None:
            counter.evictions += cache.put(key, value)
        if digest is not None:
            disk.put(digest, stage, value)
        return value

    def sizes(self) -> dict[str, int]:
        """Entries currently held per stage (content-addressed footprint)."""
        return {name: len(cache) for name, cache in self._caches.items() if cache}
