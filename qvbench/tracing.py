"""Span recorder for the traced runs, installed from outside the program.

Every wrapper is put at the name its callers look up, so the program's
own code is untouched: ``repro.pipeline.compiler`` binds its stage
functions at import time, so they are replaced in that module's
namespace; methods are replaced on their class; the engines are reached
through the instances ``backend_for(mode)`` returns.

A span is ``(id, name, start, end, parent, request id, tag)`` on the
shared monotonic clock (``time.perf_counter``), kept in memory and written
out when the run ends.  The parent is the enclosing span on the same
thread; the request id follows a request across the event loop and the
executor threads.  A layer's self time is its spans' durations minus the
durations of their direct children.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import hashlib
import itertools
import threading
import time
from collections import defaultdict

#: span tuple positions
ID, NAME, START, END, PARENT, RID, TAG = range(7)


class Recorder:
    """Spans, GC pauses and request ids of one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.gc_events: list[tuple[float, float, int]] = []
        self.services: list = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        self.request = contextvars.ContextVar("qvbench_request", default=0)

    # -- recording ------------------------------------------------------ #

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request(self) -> int:
        return getattr(self._local, "request", 0) or self.request.get()

    def wrap(self, name: str, function, watch=None):
        """``function`` recording one span named ``name`` per call.

        With ``watch``, the span is kept only when ``watch(*args)`` reads
        differently after the call than before it (for example, a miss
        counter that only moves when the call did the work).
        """
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            before = watch(*args) if watch is not None else None
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if watch is None or watch(*args) != before:
                    self.spans.append(
                        (span_id, name, start, end, parent, self.current_request(), None)
                    )

        return traced

    def add(self, name: str, start: float, end: float, request: int) -> None:
        parent = self._stack()[-1] if self._stack() else 0
        self.spans.append((next(self._ids), name, start, end, parent, request, None))

    # -- process-wide hooks -------------------------------------------- #

    def install_gc(self):
        """Record every collection's pause; returns the callback installed."""
        started: dict[int, float] = {}

        def on_gc(phase: str, info: dict) -> None:
            now = time.perf_counter()
            if phase == "start":
                started[info["generation"]] = now
            else:
                generation = info["generation"]
                self.gc_events.append((started.get(generation, now), now, generation))

        gc.callbacks.append(on_gc)
        return on_gc

    def dump(self) -> dict:
        entries = 0
        for service in self.services:
            entries += sum(service.compiler.cache_sizes().values())
        return {
            "spans": self.spans,
            "gc": self.gc_events,
            "cache_entries": entries,
        }


def text_tag(sql: str) -> str:
    """How a server span names the request text it served."""
    return hashlib.sha1(sql.encode("utf-8")).hexdigest()[:20]


# --------------------------------------------------------------------- #
# installers
# --------------------------------------------------------------------- #

#: stage layer -> name bound in ``repro.pipeline.compiler``
PIPELINE_STAGES = {
    "sql.lexer": "scan",
    "logic.translate": "sql_to_logic_tree",
    "logic.simplify": "simplify_logic_tree",
    "pipeline.fingerprint": "fingerprint_and_roles",
    "diagram.build": "build_diagram",
    "render.layout": "layout_diagram",
}
STAGE_LAYERS = (
    "sql.lexer",
    "sql.parser",
    "logic.translate",
    "logic.simplify",
    "pipeline.fingerprint",
    "diagram.build",
    "render.layout",
    "render",
)


def install_pipeline(recorder: Recorder) -> None:
    """Spans around ``DiagramCompiler`` and each of its stage functions."""
    import repro.pipeline.compiler as compiler
    from repro.sql.parser import Parser

    for layer, attribute in PIPELINE_STAGES.items():
        setattr(compiler, attribute, recorder.wrap(layer, getattr(compiler, attribute)))
    Parser.parse_query = recorder.wrap("sql.parser", Parser.parse_query)
    for fmt, render in list(compiler.RENDERERS.items()):
        compiler.RENDERERS[fmt] = recorder.wrap("render", render)
    cls = compiler.DiagramCompiler
    cls.compile = recorder.wrap("pipeline.compile", cls.compile)
    cls.canonical_key = recorder.wrap("pipeline.key", cls.canonical_key)


def install_serve(recorder: Recorder) -> None:
    """Request ids and spans around ``CompileService`` and its thread hops."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve.service import CompileService

    original_init = CompileService.__init__
    original_compile = CompileService.compile

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        recorder.services.append(self)

    @functools.wraps(original_compile)
    async def compile(self, sql, formats):
        request = next(recorder._rids)
        token = recorder.request.set(request)
        start = time.perf_counter()
        try:
            return await original_compile(self, sql, formats)
        finally:
            recorder.spans.append(
                (next(recorder._ids), "serve.service.compile", start,
                 time.perf_counter(), 0, request, text_tag(sql))
            )
            recorder.request.reset(token)

    original_submit = ThreadPoolExecutor.submit

    @functools.wraps(original_submit)
    def submit(self, fn, /, *args, **kwargs):
        submitted = time.perf_counter()
        request = recorder.current_request()

        def hop(*hop_args, **hop_kwargs):
            started = time.perf_counter()
            thread = threading.current_thread().name
            if thread.startswith("serve-fp"):
                recorder.add("serve.service.fp_wait", submitted, started, request)
            elif thread.startswith("serve-compile"):
                recorder.add("serve.service.compile_wait", submitted, started, request)
            recorder._local.request = request
            try:
                return fn(*hop_args, **hop_kwargs)
            finally:
                recorder._local.request = 0

        return original_submit(self, hop, *args, **kwargs)

    CompileService.__init__ = init
    CompileService.compile = compile
    ThreadPoolExecutor.submit = submit


def install_relational(recorder: Recorder) -> None:
    """Spans around the engines, planner, statistics, loads and inserts."""
    import repro.relational.sqlbackend.backend as sql_backend
    from repro.relational import (
        CatalogStatistics,
        ColumnarTable,
        Database,
        ExecutionMode,
        Planner,
        TableStats,
    )
    from repro.relational.backends import backend_for
    from repro.relational.executor import ExecutionContext

    for mode, layer in (
        (ExecutionMode.PLANNED, "relational.executor"),
        (ExecutionMode.COLUMNAR, "relational.columnar"),
        (ExecutionMode.SQL, "relational.sqlbackend"),
    ):
        backend = backend_for(mode)
        backend.execute = recorder.wrap(layer, backend.execute)
    Planner.plan = recorder.wrap("relational.planner", Planner.plan)
    CatalogStatistics.for_relation = recorder.wrap(
        "relational.stats", CatalogStatistics.for_relation
    )
    TableStats.distinct_of = recorder.wrap("relational.stats", TableStats.distinct_of)
    ColumnarTable.from_relation = classmethod(
        recorder.wrap("relational.columnar.load", ColumnarTable.from_relation.__func__)
    )
    sql_backend.lower_query = recorder.wrap(
        "relational.sqlbackend.lower", sql_backend.lower_query
    )
    store_class = sql_backend.SQLiteStore
    sql_backend.SQLiteStore = recorder.wrap(
        "relational.sqlbackend.store", lambda database: store_class(database)
    )
    Database.insert = recorder.wrap("relational.database.insert", Database.insert)

    # A subquery span only when the memo missed, that is, the plan ran.
    for method in ("subquery_exists", "subquery_values"):
        setattr(ExecutionContext, method, recorder.wrap(
            "relational.executor.subquery",
            getattr(ExecutionContext, method),
            watch=lambda context, *_args: context.stats.subquery_misses,
        ))

    seen: dict[int, int] = {}
    original_refresh = ExecutionContext.refresh

    @functools.wraps(original_refresh)
    def refresh(self):
        version = self.database.total_rows()
        if seen.get(id(self), version) != version:
            now = time.perf_counter()
            recorder.add("relational.executor.invalidation", now, now, 0)
        seen[id(self)] = version
        return original_refresh(self)

    ExecutionContext.refresh = refresh


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #


def layer_totals(spans: list, window: tuple[float, float]):
    """Per layer: (self seconds, outermost calls, outermost seconds).

    Only spans that start inside ``window`` count.  A call is outermost
    when its parent belongs to another layer (recursion counts once).
    """
    by_id = {span[ID]: span for span in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT]:
            child_time[span[PARENT]] += span[END] - span[START]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    outer_s: dict[str, float] = defaultdict(float)
    for span in spans:
        if not window[0] <= span[START] <= window[1]:
            continue
        duration = span[END] - span[START]
        self_s[span[NAME]] += duration - child_time.get(span[ID], 0.0)
        parent = by_id.get(span[PARENT])
        if parent is None or parent[NAME] != span[NAME]:
            calls[span[NAME]] += 1
            outer_s[span[NAME]] += duration
    return self_s, calls, outer_s
