"""Corpus-scale diagram compilation: many queries, shared stage caches.

The diagram-side counterpart of :class:`repro.relational.Executor`:
one :class:`DiagramBatchCompiler` keeps a single :class:`DiagramCompiler`
(and therefore one set of content-addressed stage caches) alive across a
whole corpus.  Workload-scale corpora repeat queries verbatim and contain
semantically equivalent variants, so most compilations short-circuit in the
front half (text/AST caches) or collapse onto one diagram via the canonical
fingerprint (Fig. 24 invariance).

Two scale axes beyond the single shared compiler:

* ``disk_cache=`` plugs the persistent store
  (:mod:`repro.pipeline.diskcache`) behind the stage caches, so a fresh
  process warm-starts from a previous run's products;
* ``run(..., workers=N)`` fans the corpus over a ``ProcessPoolExecutor``
  in contiguous chunks and merges the per-worker results
  *deterministically*: artifacts come back in corpus order, per-worker
  :class:`~repro.pipeline.stages.PipelineStats` and disk-store counters
  are summed, equivalence classes are rebuilt in corpus order, and every
  artifact of one ``(fingerprint, roles)`` class is re-served the
  globally-first member's rendered outputs — exactly what the serial
  cache does — so a parallel run is byte-identical to a serial one.

Beyond the speedup, the batch compiler doubles as an analysis tool: it
records which source queries landed on which fingerprint, and
:meth:`DiagramBatchCompiler.equivalence_classes` reports the resulting
equivalence classes — the corpus-level view of "how many distinct diagrams
does this workload actually contain?".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from ..catalog.schema import Schema
from ..metrics import Counters
from ..render.layout import LayoutConfig
from ..sql.ast import SelectQuery
from ..sql.formatter import format_inline
from .compiler import CompiledDiagram, DiagramCompiler
from .diskcache import DiskCache
from .stages import PipelineStats


@dataclass(frozen=True)
class EquivalenceClass:
    """All corpus queries that share one canonical fingerprint.

    ``count`` is the number of corpus *occurrences* (verbatim repeats
    included); ``queries`` holds the distinct spellings, first-seen first.
    """

    fingerprint: str
    count: int
    queries: tuple[str, ...]  # distinct source spellings, first = representative

    @property
    def representative(self) -> str:
        return self.queries[0]

    @property
    def distinct_spellings(self) -> int:
        return len(self.queries)


class DiagramBatchCompiler:
    """Compiles a whole corpus through one shared set of stage caches.

    >>> batch = DiagramBatchCompiler()
    >>> artifacts = batch.run(corpus, formats=("svg",))   # doctest: +SKIP
    >>> batch.stats().describe()                          # doctest: +SKIP
    '1200 queries: lex 1000/1200 cached, ..., overall hit rate 83%'
    """

    def __init__(
        self,
        schema: Schema | None = None,
        simplify: bool = True,
        layout_config: LayoutConfig | None = None,
        cache: bool = True,
        disk_cache: DiskCache | str | Path | None = None,
    ) -> None:
        self._schema = schema
        self._simplify = simplify
        self._layout_config = layout_config
        self._cache_enabled = cache
        # Workers must reopen the *same* store: root alone is not enough —
        # a caller-supplied version stamp has to ship too, or the first
        # worker would wipe a custom-version store.
        if disk_cache is not None and not isinstance(disk_cache, DiskCache):
            disk_cache = DiskCache(Path(disk_cache))
        self._disk_config: tuple[str, str] | None = (
            None if disk_cache is None else (str(disk_cache.root), disk_cache.version)
        )
        self._compiler = DiagramCompiler(
            schema=schema,
            simplify=simplify,
            layout_config=layout_config,
            cache=cache,
            disk_cache=disk_cache,
        )
        # fingerprint → ordered set of distinct spellings (dict keys keep
        # first-seen order; membership is O(1), unlike the list scan this
        # replaced, which made corpus accounting O(n²) per class).
        self._members: dict[str, dict[str, None]] = {}
        self._occurrences: dict[str, int] = {}

    @property
    def compiler(self) -> DiagramCompiler:
        return self._compiler

    def compile(
        self,
        query: SelectQuery | str,
        formats: tuple[str, ...] = ("text",),
    ) -> CompiledDiagram:
        """Compile one query through the shared caches."""
        artifact = self._compiler.compile(query, formats=formats)
        spelling = (
            artifact.sql.strip() if artifact.sql else format_inline(artifact.query)
        )
        self._record(artifact.fingerprint, spelling)
        return artifact

    def _record(self, fingerprint: str, spelling: str) -> None:
        self._members.setdefault(fingerprint, {})[spelling] = None
        self._occurrences[fingerprint] = self._occurrences.get(fingerprint, 0) + 1

    def run(
        self,
        corpus: Iterable[SelectQuery | str],
        formats: tuple[str, ...] = ("text",),
        workers: int | None = None,
    ) -> list[CompiledDiagram]:
        """Compile a whole corpus, returning one artifact per query.

        ``workers=N`` (N ≥ 2) compiles contiguous corpus chunks in N
        processes and merges the results deterministically; the output is
        byte-identical to a serial run (same fingerprints, same rendered
        outputs, same equivalence classes).  Worker processes share this
        batch's persistent disk cache when one is configured.
        """
        if workers is not None and workers > 1:
            return self._run_parallel(list(corpus), formats, workers)
        return [self.compile(query, formats=formats) for query in corpus]

    # ------------------------------------------------------------------ #
    # process-parallel execution
    # ------------------------------------------------------------------ #

    def _run_parallel(
        self,
        corpus: list[SelectQuery | str],
        formats: tuple[str, ...],
        workers: int,
    ) -> list[CompiledDiagram]:
        # Imported here: it loads multiprocessing, which a process that
        # compiles serially (``repro fingerprint``, a server) never needs.
        from concurrent.futures import ProcessPoolExecutor

        if not corpus:
            return []
        workers = min(workers, len(corpus))
        chunk_size = -(-len(corpus) // workers)  # ceil division
        chunks = [
            corpus[start : start + chunk_size]
            for start in range(0, len(corpus), chunk_size)
        ]
        payloads = [
            (
                chunk,
                self._schema,
                self._simplify,
                self._layout_config,
                self._cache_enabled,
                self._disk_config,
                formats,
            )
            for chunk in chunks
        ]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(_compile_chunk, payloads))
        return self._merge_parallel_results(results, formats)

    def _merge_parallel_results(
        self,
        results: list[tuple[list[CompiledDiagram], PipelineStats, Counters | None]],
        formats: tuple[str, ...],
    ) -> list[CompiledDiagram]:
        """Deterministic merge: corpus order, first-member dedup, summed stats.

        Each worker's stage counters add to this compiler's, and its disk
        store's counters to this compiler's ``disk_cache.stats``.

        The serial stage caches serve every later member of a
        ``(fingerprint, roles)`` class the representative's diagram, layout
        and rendered outputs.  A worker only sees its own chunk, so a class
        spanning chunks would otherwise render per-worker representatives;
        re-serving the globally-first member's products here restores exact
        serial behavior (byte-identical outputs).
        """
        merged: list[CompiledDiagram] = []
        first_by_class: dict[tuple, CompiledDiagram] = {}
        for artifacts, stats, disk_stats in results:
            self._compiler.stats().merge(stats)
            if disk_stats is not None:
                self._compiler.disk_cache.stats.merge(disk_stats)
            for artifact in artifacts:
                key = (artifact.fingerprint, artifact.roles)
                first = first_by_class.get(key)
                if first is None:
                    first_by_class[key] = artifact
                elif artifact is not first:
                    # Same-chunk verbatim repeats arrive as the identical
                    # object; anything else came from another worker's
                    # caches and gets the global representative's products.
                    artifact = replace(
                        artifact,
                        diagram=first.diagram,
                        outputs=first.outputs,
                        _layout=first._layout,
                    )
                spelling = (
                    artifact.sql.strip()
                    if artifact.sql
                    else format_inline(artifact.query)
                )
                self._record(artifact.fingerprint, spelling)
                merged.append(artifact)
        return merged

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def stats(self) -> PipelineStats:
        """Cache counters accumulated so far.

        After a ``workers=N`` run these are the *summed worker* counters
        (every worker cold-starts its own in-memory caches, so parallel
        hit rates are lower than a serial run's even though the merged
        artifacts are identical).
        """
        return self._compiler.stats()

    def distinct_diagrams(self) -> int:
        """Number of distinct fingerprints (= compiled diagrams) seen."""
        return len(self._members)

    def equivalence_classes(self) -> tuple[EquivalenceClass, ...]:
        """Fingerprint classes, largest (most syntactic variants) first."""
        classes = [
            EquivalenceClass(
                fingerprint=fingerprint,
                count=self._occurrences[fingerprint],
                queries=tuple(members),
            )
            for fingerprint, members in self._members.items()
        ]
        classes.sort(key=lambda c: (-c.count, c.fingerprint))
        return tuple(classes)

    def report(self, max_classes: int = 10) -> str:
        """Readable equivalence-class report for CLI / logging output."""
        stats = self.stats()
        classes = self.equivalence_classes()
        lines = [
            f"{stats.queries} compilations, {len(classes)} distinct diagrams "
            f"(fingerprint dedup {1 - len(classes) / stats.queries:.0%})"
            if stats.queries
            else "no queries compiled"
        ]
        for cls in classes[:max_classes]:
            spellings = (
                f", {cls.distinct_spellings} spellings"
                if cls.distinct_spellings != cls.count
                else ""
            )
            lines.append(f"  {cls.fingerprint[:16]}  x{cls.count}{spellings}")
            for spelling in cls.queries[:3]:
                first_line = " ".join(spelling.split())
                if len(first_line) > 72:
                    first_line = first_line[:69] + "..."
                lines.append(f"      {first_line}")
        if len(classes) > max_classes:
            lines.append(f"  ... and {len(classes) - max_classes} more classes")
        return "\n".join(lines)


def _compile_chunk(
    payload: tuple,
) -> tuple[list[CompiledDiagram], PipelineStats, Counters | None]:
    """Worker entry point: compile one contiguous corpus chunk.

    Runs in a separate process; builds its own compiler (sharing only the
    on-disk cache, whose writes are atomic) and ships the artifacts, the
    stage counters and its disk store's counters back via pickle.
    """
    chunk, schema, simplify, layout_config, cache, disk_config, formats = payload
    disk_cache = None
    if disk_config is not None:
        root, version = disk_config
        disk_cache = DiskCache(Path(root), version=version)
    compiler = DiagramCompiler(
        schema=schema,
        simplify=simplify,
        layout_config=layout_config,
        cache=cache,
        disk_cache=disk_cache,
    )
    artifacts = [compiler.compile(query, formats=formats) for query in chunk]
    disk_stats = disk_cache.stats if disk_cache is not None else None
    return artifacts, compiler.stats(), disk_stats
