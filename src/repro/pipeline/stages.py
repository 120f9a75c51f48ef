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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable

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


@dataclass
class StageCounter:
    """Hit/miss counters of one stage cache.

    ``disk_hits`` counts the subset of ``hits`` that were served from the
    persistent second-level store (:mod:`repro.pipeline.diskcache`) rather
    than from this process's memory.
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class PipelineStats:
    """Cache effectiveness across all stages of one compiler."""

    queries: int = 0
    counters: dict[str, StageCounter] = field(
        default_factory=lambda: {name: StageCounter() for name in STAGE_NAMES}
    )
    #: Disk-store counters (hits, writes, corrupt/stale evictions,
    #: degradations) accumulated across this compiler and any merged
    #: workers; empty when no disk cache is bound.  Refreshed by
    #: :meth:`~repro.pipeline.compiler.DiagramCompiler.stats`.
    disk: dict[str, int] = field(default_factory=dict)

    def counter(self, stage: str) -> StageCounter:
        return self.counters[stage]

    @property
    def total_hits(self) -> int:
        return sum(counter.hits for counter in self.counters.values())

    @property
    def total_lookups(self) -> int:
        return sum(counter.lookups for counter in self.counters.values())

    @property
    def hit_rate(self) -> float:
        lookups = self.total_lookups
        return self.total_hits / lookups if lookups else 0.0

    def describe(self) -> str:
        parts = [f"{self.queries} queries"]
        for name in STAGE_NAMES:
            counter = self.counters[name]
            if counter.lookups:
                parts.append(f"{name} {counter.hits}/{counter.lookups} cached")
        parts.append(f"overall hit rate {self.hit_rate:.0%}")
        return ", ".join(parts)

    @property
    def total_disk_hits(self) -> int:
        return sum(counter.disk_hits for counter in self.counters.values())

    def merge(self, other: "PipelineStats") -> None:
        """Fold ``other``'s counters into this one (parallel-worker merge)."""
        self.queries += other.queries
        for name, counter in other.counters.items():
            mine = self.counters.setdefault(name, StageCounter())
            mine.hits += counter.hits
            mine.misses += counter.misses
            mine.disk_hits += counter.disk_hits
        for key, value in other.disk.items():
            self.disk[key] = self.disk.get(key, 0) + value

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly summary (used by ``repro bench-diagram --json``)."""
        payload: dict[str, Any] = {
            "queries": self.queries,
            "hit_rate": round(self.hit_rate, 4),
            "stages": {
                name: (
                    {"hits": counter.hits, "misses": counter.misses}
                    | (
                        {"disk_hits": counter.disk_hits}
                        if counter.disk_hits
                        else {}
                    )
                )
                for name, counter in self.counters.items()
                if counter.lookups
            },
        }
        if self.disk:
            payload["disk"] = dict(self.disk)
        return payload


class StageCache:
    """One content-addressed cache per stage, with shared counters.

    ``enabled=False`` turns every lookup into a miss without storing the
    result — that is how the benchmarks measure a truly cold pipeline while
    exercising identical code paths.

    ``disk`` plugs a persistent second level behind the in-memory dicts
    (see :mod:`repro.pipeline.diskcache`): memory miss → disk probe →
    compute + write-through.  ``disk_namespace`` isolates entries of
    compilers with different fixed configuration (schema, simplify flag,
    layout geometry) sharing one store.  A disabled cache never touches
    disk — cold means cold.
    """

    def __init__(
        self,
        stats: PipelineStats,
        enabled: bool = True,
        disk: "DiskCache | None" = None,
        disk_namespace: str = "",
    ) -> None:
        self._stats = stats
        # Direct reference: get_or_compute runs several times per query and
        # should not pay a method call + attribute hop to find its counter.
        self._counters = stats.counters
        self._enabled = enabled
        self._disk = disk
        self._namespace = disk_namespace
        self._caches: dict[str, dict[Hashable, Any]] = {
            name: {} for name in STAGE_NAMES
        }

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def disk(self) -> "DiskCache | None":
        return self._disk

    def get_or_compute(
        self, stage: str, key: Hashable, compute: Callable[..., Any], *args: Any
    ) -> Any:
        """The cached value for ``key``, else ``compute(*args)`` (stored).

        ``args`` are forwarded to ``compute`` so hot callers can pass plain
        functions instead of allocating a closure per stage per query.
        """
        counter = self._counters[stage]
        if not self._enabled:
            counter.misses += 1
            return compute(*args)
        cache = self._caches[stage]
        if key in cache:
            counter.hits += 1
            return cache[key]
        disk = self._disk
        if disk is not None and disk.persists(stage):
            digest = stable_key_digest(self._namespace, stage, key)
            found, value = disk.get(digest, stage)
            if found:
                counter.hits += 1
                counter.disk_hits += 1
                cache[key] = value
                return value
            counter.misses += 1
            value = compute(*args)
            cache[key] = value
            disk.put(digest, stage, value)
            return value
        counter.misses += 1
        value = compute(*args)
        cache[key] = value
        return value

    def sizes(self) -> dict[str, int]:
        """Entries currently held per stage (content-addressed footprint)."""
        return {name: len(cache) for name, cache in self._caches.items() if cache}

    def clear(self, stages: Iterable[str] | None = None) -> None:
        for name in stages if stages is not None else STAGE_NAMES:
            self._caches[name].clear()
