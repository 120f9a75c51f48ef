"""The staged diagram compiler: SQL text → diagram artifacts, cached per stage.

:class:`DiagramCompiler` replaces the hand-wired ``parse → translate →
simplify → build → layout → render`` call chains that used to live in
``cli.py`` and the one-shot helpers.  Every stage goes through one
content-addressed :class:`~repro.pipeline.stages.StageCache`:

========  =======================================================  =========
stage     cache key                                                product
========  =======================================================  =========
artifact  (stripped SQL text | frozen AST, formats)                everything
lex       stripped SQL text                                        tokens
parse     (token types, token values), positions ignored           AST
logic     frozen AST                                               Logic Tree
simplify  frozen Logic Tree                                        Logic Tree
fingerprint  frozen (simplified) Logic Tree                        hex digest
diagram   (fingerprint, canonical-role → alias map)                Diagram
layout    (fingerprint, canonical-role → alias map)                Layout
render    (fingerprint, canonical-role → alias map, format)        text
========  =======================================================  =========

Caches are strictly per-compiler, and a compiler's schema, simplify flag
and layout config are fixed at construction — so they never appear in the
keys.  A compiler made with ``memo=False`` (the compile server's) keeps
none of these in memory; a bounded handoff carries the front half from
:meth:`DiagramCompiler.canonical_key` to the
:meth:`DiagramCompiler.compile` of the same text instead.  Keying the
back half on the *fingerprint* is what dedupes
equivalent query variants (Fig. 24) to a single diagram/layout/render
computation: the first variant compiles, the others are pure cache hits.
Dedup serves the *representative's* artifacts — for a semantically
equivalent variant that spells its predicates in a different order, the
cached diagram's row order / edge orientation reflects whichever member
compiled first (same tables, rows and edges; ordering may differ from a
cold compile of that exact spelling).  The canonical-role → alias map
bounds that: a variant that renames an alias, or attaches the selection
to the structurally symmetric twin alias, shares the fingerprint (and the
equivalence class in reports) but compiles its own diagram, so rendered
output always shows the right labels in the right places.

The fingerprint pass makes a one-shot compile ~3.5x the bare
``translate → simplify → build`` chain (~0.4 ms vs ~0.1 ms per query on a
paper-sized query).  One-shot wrappers (``queryvis``, ``compile_sql``)
pay it even though their fresh caches cannot hit — a deliberate trade:
every artifact carries its fingerprint, and the corpus paths that matter
at scale amortize the cost across the batch.  Layout is only computed
when an output format is requested (or lazily on first
``CompiledDiagram.layout`` access).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from ..catalog.schema import Schema
from ..diagram.build import build_diagram
from ..diagram.model import Diagram
from ..logic.logic_tree import LogicTree
from ..logic.simplify import simplify_logic_tree
from ..logic.translate import sql_to_logic_tree
from ..lru import LRUCache
from ..render.ascii_art import diagram_to_text
from ..render.dot import diagram_to_dot
from ..render.layout import DEFAULT_LAYOUT_CONFIG, Layout, LayoutConfig, layout_diagram
from ..render.svg import diagram_to_svg
from ..sql.ast import SelectQuery
from ..sql.lexer import scan
from ..sql.parser import Parser
from .diskcache import DiskCache
from .fingerprint import fingerprint_and_roles
from .stages import PipelineStats, StageCache

def _parse_stream(stream) -> SelectQuery:
    return Parser(stream).parse_query()


#: Front halves a ``memo=False`` compiler holds between a text's key lookup
#: and its compile; sized like the compile server's default admission
#: bound, the most first sights that can wait for their compile at once.
HANDOFF_ENTRIES = 64


#: Output formats the render stage knows, mapped to layout-sharing renderers.
RENDERERS: dict[str, Callable[[Diagram, Layout], str]] = {
    "text": lambda diagram, layout: diagram_to_text(diagram, layout=layout),
    "svg": lambda diagram, layout: diagram_to_svg(diagram, layout=layout),
    "dot": lambda diagram, layout: diagram_to_dot(diagram, layout=layout),
}


@dataclass(frozen=True)
class CompiledDiagram:
    """Every artifact the pipeline produced for one query."""

    sql: str | None
    query: SelectQuery
    logic_tree: LogicTree
    simplified_tree: LogicTree
    fingerprint: str
    diagram: Diagram
    layout_config: LayoutConfig = DEFAULT_LAYOUT_CONFIG
    outputs: Mapping[str, str] = field(default_factory=dict)
    #: Canonical-role → (table, alias) assignment from the fingerprint
    #: stage; (fingerprint, roles) identifies the diagram/layout/render
    #: cache entries this artifact was served from.
    roles: tuple[tuple[str, str, str], ...] = ()
    _layout: Layout | None = field(default=None, repr=False, compare=False)

    @property
    def layout(self) -> Layout:
        """The shared layout — computed by the render path, else on demand."""
        if self._layout is None:
            object.__setattr__(
                self, "_layout", layout_diagram(self.diagram, self.layout_config)
            )
        return self._layout

    def output(self, fmt: str) -> str:
        """The rendered text for ``fmt`` (must have been requested)."""
        try:
            return self.outputs[fmt]
        except KeyError:
            raise KeyError(
                f"format {fmt!r} was not compiled; requested: {sorted(self.outputs)}"
            ) from None


class DiagramCompiler:
    """Compiles SQL queries to diagrams through cached, explicit stages.

    >>> compiler = DiagramCompiler()
    >>> artifact = compiler.compile("SELECT T.a FROM T", formats=("svg",))
    >>> artifact.fingerprint, artifact.output("svg")  # doctest: +SKIP

    One compiler instance owns one set of stage caches; the batch API
    (:class:`~repro.pipeline.batch.DiagramBatchCompiler`) keeps an instance
    alive across a whole corpus.  ``cache=False`` recompiles every stage on
    every call and never touches ``disk_cache`` (the benchmarks' cold
    baseline).

    ``memo=False`` is the compile server's compiler: no stage keeps
    anything in memory (``disk_cache`` still answers), and the front half
    that :meth:`canonical_key` computes for a text waits in a handoff of
    :data:`HANDOFF_ENTRIES` entries until :meth:`compile` of the same text
    pops it.
    """

    def __init__(
        self,
        schema: Schema | None = None,
        simplify: bool = True,
        layout_config: LayoutConfig | None = None,
        cache: bool = True,
        disk_cache: "DiskCache | str | Path | None" = None,
        memo: bool = True,
    ) -> None:
        self._schema = schema
        self._simplify = simplify
        self._layout_config = layout_config or DEFAULT_LAYOUT_CONFIG
        self._stats = PipelineStats()
        if isinstance(disk_cache, (str, Path)):
            disk_cache = DiskCache(Path(disk_cache))
        self._disk_cache = disk_cache
        # A compiler's schema / simplify flag / layout geometry are fixed at
        # construction and therefore absent from stage keys; a *shared*
        # persistent store must not mix entries across configurations, so
        # they become the disk namespace instead.
        namespace = ""
        if disk_cache is not None:
            namespace = hashlib.sha256(
                f"{schema!r}|{simplify}|{self._layout_config!r}".encode("utf-8")
            ).hexdigest()[:16]
        self._cache = StageCache(
            self._stats,
            memo=cache and memo,
            disk=disk_cache if cache else None,
            disk_namespace=namespace,
        )
        self._handoff = None if memo else LRUCache(HANDOFF_ENTRIES)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    @property
    def schema(self) -> Schema | None:
        return self._schema

    @property
    def layout_config(self) -> LayoutConfig:
        return self._layout_config

    def stats(self) -> PipelineStats:
        """Stage counters; the disk store counts in ``disk_cache.stats``."""
        return self._stats

    def cache_sizes(self) -> dict[str, int]:
        return self._cache.sizes()

    @property
    def disk_cache(self) -> DiskCache | None:
        return self._disk_cache

    @property
    def handoff(self) -> LRUCache | None:
        """Front halves awaiting their compile (``memo=False`` only)."""
        return self._handoff

    def compile(
        self,
        query: SelectQuery | str,
        formats: tuple[str, ...] = ("text",),
    ) -> CompiledDiagram:
        """Run every stage for ``query``, returning all artifacts.

        Verbatim repeats short-circuit in the ``artifact`` memo; anything
        else walks the stage chain, hitting whichever stage caches apply.
        A front half that :meth:`canonical_key` left in the handoff for
        this text is popped and used instead of walking lex → fingerprint.
        """
        for fmt in formats:
            if fmt not in RENDERERS:
                raise ValueError(
                    f"unknown output format {fmt!r}; known: {sorted(RENDERERS)}"
                )
        self._stats.queries += 1
        front = None
        if isinstance(query, str):
            memo_key = (query.strip(), formats)
            if self._handoff is not None:
                front = self._handoff.pop(memo_key[0])
        else:
            memo_key = (query, formats)
        return self._cache.get_or_compute(
            "artifact", memo_key, self._compile_stages, query, formats, front
        )

    def _front_half(
        self, query: SelectQuery | str
    ) -> tuple[SelectQuery, LogicTree, LogicTree, str, tuple]:
        """lex → parse → logic → simplify → fingerprint (no diagram work)."""
        ast = self._front_end(query)
        cache = self._cache
        tree = cache.get_or_compute("logic", ast, sql_to_logic_tree, ast)
        if self._simplify:
            simplified = cache.get_or_compute(
                "simplify", tree, simplify_logic_tree, tree
            )
        else:
            simplified = tree
        fingerprint, roles = cache.get_or_compute(
            "fingerprint", simplified, fingerprint_and_roles, simplified
        )
        return ast, tree, simplified, fingerprint, roles

    def _compile_stages(
        self, query: SelectQuery | str, formats: tuple[str, ...], front: tuple | None
    ) -> CompiledDiagram:
        sql_text = query if isinstance(query, str) else None
        ast, tree, simplified, fingerprint, roles = front or self._front_half(query)
        # The back half is keyed on (fingerprint, canonical-role → alias
        # assignment): equivalent variants dedupe to one diagram, but only
        # when each concrete alias plays the same structural role — an
        # alias-renamed variant, or a twin query whose selection sits on
        # the symmetric other alias, compiles its own correctly-labelled
        # diagram instead of being served the representative's.
        diagram_key = (fingerprint, roles)
        diagram = self._cache.get_or_compute(
            "diagram", diagram_key, build_diagram, simplified, self._schema
        )
        layout = None
        outputs: dict[str, str] = {}
        if formats:
            layout = self._cache.get_or_compute(
                "layout", diagram_key, layout_diagram, diagram, self._layout_config
            )
            outputs = {
                fmt: self._cache.get_or_compute(
                    "render", diagram_key + (fmt,), RENDERERS[fmt], diagram, layout
                )
                for fmt in formats
            }
        return CompiledDiagram(
            sql=sql_text,
            query=ast,
            logic_tree=tree,
            simplified_tree=simplified,
            fingerprint=fingerprint,
            diagram=diagram,
            layout_config=self._layout_config,
            outputs=outputs,
            roles=roles,
            _layout=layout,
        )

    def fingerprint(self, query: SelectQuery | str) -> str:
        """Canonical fingerprint of ``query`` through the cached front end.

        Runs only the front half of the pipeline (lex → parse → logic →
        simplify → fingerprint): fingerprint-only callers — corpus dedup
        reports, equivalence checks, the cold-path benchmark — do not pay
        for diagram construction.
        """
        self._stats.queries += 1
        return self._front_half(query)[3]

    def canonical_key(
        self, query: SelectQuery | str
    ) -> tuple[str, tuple[tuple[str, str, str], ...]]:
        """``(fingerprint, roles)`` — the identity of ``query``'s artifacts.

        The pair is exactly what keys the back-half caches (diagram,
        layout, render): two queries with equal canonical keys are served
        identical artifacts.  The serving tier
        (:mod:`repro.serve.service`) uses it to coalesce concurrent
        requests for equivalent SQL onto one in-flight compile and to
        address its bounded response LRU, without paying for diagram
        construction up front.  With a handoff, the front half of a text
        stays there for that text's :meth:`compile`.
        """
        handoff = self._handoff
        if handoff is None or not isinstance(query, str):
            front = self._front_half(query)
        else:
            text = query.strip()
            front = handoff.get(text)
            if front is None:
                front = self._front_half(text)
                handoff.put(text, front)
        return front[3], front[4]

    def release(self, query: str) -> None:
        """Drop the front half :meth:`canonical_key` left for ``query``.

        For a text whose compile will not come (the response LRU answered
        it), so its trees die young instead of waiting until
        :data:`HANDOFF_ENTRIES` later lookups push them out.
        """
        if self._handoff is not None:
            self._handoff.discard(query.strip())

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #

    def _front_end(self, query: SelectQuery | str) -> SelectQuery:
        """lex + parse (skipped entirely for already-parsed input)."""
        if isinstance(query, SelectQuery):
            return query
        text = query.strip()
        stream = self._cache.get_or_compute("lex", text, scan, text)
        # Two flat tuples, not one (type, value) pair per token: the key
        # then holds a fixed number of GC-tracked containers whatever the
        # query's length, and costs a disabled cache two tuple copies.
        token_key = (tuple(stream.types), tuple(stream.values))
        return self._cache.get_or_compute("parse", token_key, _parse_stream, stream)


def compile_sql(
    query: SelectQuery | str,
    schema: Schema | None = None,
    simplify: bool = True,
    layout_config: LayoutConfig | None = None,
    formats: tuple[str, ...] = ("text",),
) -> CompiledDiagram:
    """One-shot compilation through a fresh (still caching) compiler."""
    compiler = DiagramCompiler(
        schema=schema, simplify=simplify, layout_config=layout_config
    )
    return compiler.compile(query, formats=formats)
