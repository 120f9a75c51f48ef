"""Command-line interface for the QueryVis reproduction.

Usage (after ``pip install -e .``)::

    python -m repro render query.sql --format svg -o query.svg
    python -m repro render query.sql --format text --no-simplify
    python -m repro render query.sql --row-height 18 --table-width 140
    python -m repro fingerprint a.sql b.sql c.sql
    python -m repro trc query.sql
    python -m repro study --questions 9
    python -m repro explain query.sql
    python -m repro bench-exec --scale 10 --repeat 3
    python -m repro bench-diagram --queries 1200 --distinct 200
    python -m repro serve --port 8080 --disk-cache ~/.cache/repro
    python -m repro bench-serve --concurrency 16 --json serve.json
    python -m repro chaos --queries 30 --fault-seed 1337

``render`` turns an SQL file (or stdin when the path is ``-``) into a DOT,
SVG or plain-text diagram via the staged compilation pipeline;
``fingerprint`` prints the canonical semantic fingerprint of one or more
queries and groups them into equivalence classes; ``trc`` prints the Logic
Tree and its tuple relational calculus; ``study`` runs the simulated
user-study replication and prints the Fig. 7-style report; ``explain``
prints the relational engine's execution plan for a query; ``bench-exec``
runs the Chinook batch workload through the planned executor; and
``bench-diagram`` compiles a generated corpus through the diagram pipeline
cold vs. batched and reports the speedup and per-stage cache statistics;
``serve`` runs the long-lived compile server (see ``docs/serving.md``); and
``bench-serve`` load-tests it, reporting sustained req/s, p50/p99 latency
cold vs. warm, and how far in-flight coalescing collapses duplicate bursts;
and ``chaos`` runs the seeded fault-injection differential (engines must
fall back, caches must evict-never-trust, the server must retry — and
every answer must stay byte-identical to the fault-free run; see
``docs/robustness.md``).  ``--fault-plan`` (on ``serve``, ``bench-exec``,
``bench-serve`` and ``chaos``) and the ``REPRO_FAULT_PLAN`` environment
variable install a :class:`repro.faults.FaultPlan` from inline JSON or a
JSON file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import SCHEMAS
from .logic.simplify import simplify_logic_tree
from .logic.translate import sql_to_logic_tree
from .logic.trc import logic_tree_to_trc
from .pipeline import RENDERERS, DiagramBatchCompiler, DiagramCompiler
from .relational.errors import EngineError
from .render.layout import DEFAULT_LAYOUT_CONFIG, LayoutConfig
from .sql.errors import SQLError
from .sql.parser import parse

#: (cli flag, LayoutConfig field) pairs for the ``render`` geometry knobs.
_LAYOUT_OVERRIDES = (
    ("row_height", "height of one attribute row in px"),
    ("header_height", "height of the table-name header in px"),
    ("table_width", "width of a table composite mark in px"),
    ("column_gap", "horizontal gap between layout columns in px"),
    ("row_gap", "vertical gap between stacked tables in px"),
    ("margin", "outer canvas margin in px"),
)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="QueryVis: logic-based diagrams for SQL queries"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    render = subparsers.add_parser("render", help="render an SQL query as a diagram")
    render.add_argument("sql_file", help="path to a .sql file, or - for stdin")
    render.add_argument(
        "--format", choices=sorted(RENDERERS), default="text", help="output format"
    )
    render.add_argument("-o", "--output", help="output file (default: stdout)")
    render.add_argument(
        "--no-simplify",
        action="store_true",
        help="keep the literal NOT EXISTS form instead of the ∀ simplification",
    )
    for name, help_text in _LAYOUT_OVERRIDES:
        default = getattr(DEFAULT_LAYOUT_CONFIG, name)
        render.add_argument(
            "--" + name.replace("_", "-"),
            type=float,
            default=None,
            help=f"{help_text} (default: {default})",
        )

    fingerprint = subparsers.add_parser(
        "fingerprint",
        help="print the canonical semantic fingerprint of one or more queries",
    )
    fingerprint.add_argument(
        "sql_files", nargs="+", help="paths to .sql files, or - for stdin"
    )
    fingerprint.add_argument(
        "--no-simplify",
        action="store_true",
        help="fingerprint the literal Logic Tree instead of the simplified one",
    )
    fingerprint.add_argument(
        "--full", action="store_true", help="print full 64-hex digests"
    )

    trc = subparsers.add_parser("trc", help="print the Logic Tree and TRC of a query")
    trc.add_argument("sql_file", help="path to a .sql file, or - for stdin")
    trc.add_argument(
        "--simplify", action="store_true", help="apply the ∄∄ → ∀∃ simplification first"
    )

    study = subparsers.add_parser("study", help="run the simulated user-study replication")
    study.add_argument(
        "--questions", type=int, choices=(9, 12), default=9,
        help="analyse the 9 non-GROUP BY questions (Fig. 7) or all 12 (Fig. 19)",
    )
    study.add_argument("--seed", type=int, default=None, help="simulation seed")

    explain = subparsers.add_parser(
        "explain", help="print the relational engine's execution plan for a query"
    )
    explain.add_argument("sql_file", help="path to a .sql file, or - for stdin")
    explain.add_argument(
        "--schema",
        choices=tuple(SCHEMAS),
        default="chinook",
        help="schema the query's tables belong to",
    )
    explain.add_argument(
        "--engine",
        choices=("rows", "sql"),
        default="rows",
        help="backend whose explanation to print: the planned row pipeline "
        "(the plan tree) or the SQL backend (plan tree, the lowered sqlite "
        "SQL with its bind parameters, and sqlite's query plan)",
    )

    bench = subparsers.add_parser(
        "bench-exec",
        help="run the Chinook batch workload through the relational engines",
    )
    bench.add_argument(
        "--engine",
        choices=("rows", "columnar", "sql", "both", "all"),
        default="rows",
        help="execution backend: planned row pipeline, vectorized columnar, "
        "sqlite transpilation, both row engines (measures the columnar "
        "speedup), or all three (also measures sql vs the row pipeline)",
    )
    bench.add_argument(
        "--scale", type=int, default=10,
        help="database scale factor (rows grow roughly linearly)",
    )
    bench.add_argument(
        "--rows", type=int, default=None,
        help="target total row count; selects the scaled zipfian database "
        "instead of --scale (e.g. --rows 110000 for the 100k-row workload)",
    )
    bench.add_argument(
        "--skew", type=float, default=1.1,
        help="zipf exponent for foreign keys of the scaled database "
        "(only with --rows; 0 disables skew)",
    )
    bench.add_argument(
        "--repeat", type=int, default=3,
        help="how many times the 12-query batch is repeated",
    )
    bench.add_argument(
        "--naive", action="store_true",
        help="also run the naive nested-loop oracle and report the speedup",
    )
    bench.add_argument(
        "--json", help="also write the measurements to this JSON file"
    )
    bench.add_argument(
        "--fault-plan",
        help="fault-injection plan (inline JSON or a JSON file path); "
        "see docs/robustness.md",
    )
    bench.add_argument(
        "--fallback",
        action="store_true",
        help="wrap each engine in the breaker-guarded PLANNED fallback "
        "(recoverable failures degrade instead of aborting the run)",
    )

    bench_diagram = subparsers.add_parser(
        "bench-diagram",
        help="compile a generated corpus through the diagram pipeline, "
        "cold vs. batched",
    )
    bench_diagram.add_argument(
        "--queries", type=int, default=1200,
        help="total corpus size (repeats distinct queries, like real traffic)",
    )
    bench_diagram.add_argument(
        "--distinct", type=int, default=200,
        help="number of distinct generated queries in the corpus",
    )
    bench_diagram.add_argument(
        "--schema",
        choices=tuple(SCHEMAS),
        default="sailors",
        help="schema the generated queries range over",
    )
    bench_diagram.add_argument(
        "--formats", default="svg",
        help="comma-separated output formats to render (svg,dot,text)",
    )
    bench_diagram.add_argument(
        "--seed", type=int, default=0, help="base seed for the query generator"
    )
    bench_diagram.add_argument(
        "--json", help="also write the measurements to this JSON file"
    )
    bench_diagram.add_argument(
        "--workers", type=int, default=None,
        help="also time a process-parallel run with this many workers",
    )
    bench_diagram.add_argument(
        "--disk-cache",
        help="persistent cache directory; also times a cross-process warm start",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived diagram-compilation HTTP server",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--disk-cache",
        help="persistent cache directory shared with batch runs/warm-cache",
    )
    serve.add_argument(
        "--lru-size", type=int, default=1024,
        help="bounded response-LRU capacity in rendered payloads",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64,
        help="bound on admitted requests, which a cached answer never needs; "
        "excess load is shed with 503",
    )
    serve.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-request wall-clock budget in seconds (503 beyond it)",
    )
    serve.add_argument(
        "--no-simplify",
        action="store_true",
        help="serve the literal NOT EXISTS form instead of the ∀ simplification",
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="run a supervised multi-process worker pool of this size "
        "(0/1 = single-process; SIGHUP hot-reloads the pool's workers)",
    )
    serve.add_argument(
        "--fault-plan",
        help="fault-injection plan (inline JSON or a JSON file path); "
        "see docs/robustness.md",
    )

    bench_serve = subparsers.add_parser(
        "bench-serve",
        help="load-test the compile server: cold/warm latency and coalescing",
    )
    bench_serve.add_argument(
        "--distinct", type=int, default=50,
        help="distinct queries in the cold/warm phases",
    )
    bench_serve.add_argument(
        "--warm-repeat", type=int, default=4,
        help="how many rounds of the distinct set the warm phase replays",
    )
    bench_serve.add_argument(
        "--concurrency", type=int, default=16,
        help="concurrent keep-alive client connections",
    )
    bench_serve.add_argument(
        "--burst-distinct", type=int, default=10,
        help="distinct never-seen queries in the duplicate-heavy burst",
    )
    bench_serve.add_argument(
        "--burst-duplicates", type=int, default=20,
        help="copies of each burst query fired concurrently",
    )
    bench_serve.add_argument(
        "--schema",
        choices=tuple(SCHEMAS),
        default="sailors",
        help="schema the generated queries range over",
    )
    bench_serve.add_argument(
        "--formats", default="svg,dot,text",
        help="comma-separated output formats requested per compile",
    )
    bench_serve.add_argument(
        "--seed", type=int, default=0, help="base seed for the query generator"
    )
    bench_serve.add_argument(
        "--workers", type=int, default=0,
        help="also run the pool leg: compile-bound throughput of an "
        "N-worker pool vs a single process (ignored with --url)",
    )
    bench_serve.add_argument(
        "--url",
        help="drive an already-running server instead of an in-process one "
        "(cold numbers then reflect that server's current cache state)",
    )
    bench_serve.add_argument(
        "--json", help="also write the measurements to this JSON file"
    )
    bench_serve.add_argument(
        "--fault-plan",
        help="fault-injection plan (inline JSON or a JSON file path); "
        "see docs/robustness.md",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="seeded fault-injection differential: answers must survive "
        "injected engine, cache and serve failures unchanged",
    )
    chaos.add_argument(
        "--queries", type=int, default=30,
        help="distinct generated queries per leg",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="base seed for the query generator"
    )
    chaos.add_argument(
        "--fault-seed", type=int, default=1337,
        help="seed of the injected fault plans (reproduces a chaos run)",
    )
    chaos.add_argument(
        "--fault-plan",
        help="replace the built-in per-leg rules with this plan "
        "(inline JSON or a JSON file path)",
    )
    chaos.add_argument(
        "--cache-dir",
        help="directory for the cache leg's disk store "
        "(default: a fresh temporary directory)",
    )
    chaos.add_argument(
        "--json", help="also write the verdict payload to this JSON file"
    )

    warm = subparsers.add_parser(
        "warm-cache",
        help="precompile a corpus into a persistent on-disk cache",
    )
    warm.add_argument(
        "--disk-cache", required=True,
        help="directory of the persistent cache to populate",
    )
    warm.add_argument(
        "--queries", type=int, default=1200,
        help="total corpus size (repeats distinct queries, like real traffic)",
    )
    warm.add_argument(
        "--distinct", type=int, default=200,
        help="number of distinct generated queries in the corpus",
    )
    warm.add_argument(
        "--schema",
        choices=tuple(SCHEMAS),
        default="sailors",
        help="schema the generated queries range over",
    )
    warm.add_argument(
        "--formats", default="svg",
        help="comma-separated output formats to prebuild (svg,dot,text)",
    )
    warm.add_argument(
        "--seed", type=int, default=0, help="base seed for the query generator"
    )
    warm.add_argument(
        "--workers", type=int, default=None,
        help="fan the corpus over this many worker processes",
    )
    warm.add_argument(
        "sql_files", nargs="*",
        help="additional .sql files to precompile into the cache",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    from .faults import (
        FaultPlan,
        InjectedFault,
        install_plan,
        install_plan_from_env,
    )

    # The environment plan first, an explicit --fault-plan over it.  The
    # chaos command manages its own per-leg plans instead (its flag
    # replaces the leg rules, not the global plan).
    install_plan_from_env()
    if args.command != "chaos" and getattr(args, "fault_plan", None):
        install_plan(FaultPlan.from_spec(args.fault_plan))
    try:
        if args.command == "render":
            return _run_render(args)
        if args.command == "fingerprint":
            return _run_fingerprint(args)
        if args.command == "trc":
            return _run_trc(args)
        if args.command == "explain":
            return _run_explain(args)
        if args.command == "bench-exec":
            return _run_bench_exec(args)
        if args.command == "bench-diagram":
            return _run_bench_diagram(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "bench-serve":
            return _run_bench_serve(args)
        if args.command == "warm-cache":
            return _run_warm_cache(args)
        if args.command == "chaos":
            return _run_chaos(args)
        return _run_study(args)
    except (SQLError, EngineError, InjectedFault) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. `head`).
        return 0


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #


def _read_sql(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _layout_config(args: argparse.Namespace) -> LayoutConfig:
    """The layout geometry for this invocation: defaults plus CLI overrides."""
    overrides = {
        name: value
        for name, _help in _LAYOUT_OVERRIDES
        if (value := getattr(args, name)) is not None
    }
    if not overrides:
        return DEFAULT_LAYOUT_CONFIG
    return LayoutConfig(**overrides)


def _run_render(args: argparse.Namespace) -> int:
    compiler = DiagramCompiler(
        simplify=not args.no_simplify, layout_config=_layout_config(args)
    )
    artifact = compiler.compile(_read_sql(args.sql_file), formats=(args.format,))
    rendered = artifact.output(args.format)
    if args.output:
        Path(args.output).write_text(rendered)
    else:
        print(rendered)
    return 0


def _run_fingerprint(args: argparse.Namespace) -> int:
    batch = DiagramBatchCompiler(simplify=not args.no_simplify)
    for path in args.sql_files:
        artifact = batch.compile(_read_sql(path), formats=())
        digest = artifact.fingerprint if args.full else artifact.fingerprint[:16]
        print(f"{digest}  {path}")
    if len(args.sql_files) > 1:
        print()
        print(batch.report())
    return 0


def _run_trc(args: argparse.Namespace) -> int:
    tree = sql_to_logic_tree(parse(_read_sql(args.sql_file)))
    if args.simplify:
        tree = simplify_logic_tree(tree)
    print(tree.describe())
    print()
    print(logic_tree_to_trc(tree).text)
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    from .relational import Database, ExecutionMode, Executor

    database = Database(SCHEMAS[args.schema]())
    query = parse(_read_sql(args.sql_file))
    mode = ExecutionMode.SQL if args.engine == "sql" else ExecutionMode.PLANNED
    print(Executor(database, mode=mode).explain(query))
    return 0


def _run_bench_exec(args: argparse.Namespace) -> int:
    import json
    import time

    from .relational import ExecutionMode, Executor
    from .workloads import (
        chinook_bench_database,
        chinook_join_workload,
        chinook_topk_workload,
        scaled_bench_database,
    )

    if args.rows is not None:
        database = scaled_bench_database(total_rows=args.rows, skew=args.skew)
        shape = f"scaled rows={args.rows} skew={args.skew}"
    else:
        database = chinook_bench_database(scale=args.scale)
        shape = f"scale={args.scale}"
    queries = chinook_join_workload(repeat=args.repeat)
    print(
        f"database: chinook {shape} ({database.total_rows()} rows), "
        f"workload: {len(queries)} queries"
    )

    engines = {
        "rows": (ExecutionMode.PLANNED,),
        "columnar": (ExecutionMode.COLUMNAR,),
        "sql": (ExecutionMode.SQL,),
        "both": (ExecutionMode.PLANNED, ExecutionMode.COLUMNAR),
        "all": (ExecutionMode.PLANNED, ExecutionMode.COLUMNAR, ExecutionMode.SQL),
    }[args.engine]
    engine_names = {
        ExecutionMode.PLANNED: "rows",
        ExecutionMode.COLUMNAR: "columnar",
        ExecutionMode.SQL: "sql",
    }

    import platform
    import sqlite3

    from .relational import columnar as _columnar

    payload: dict = {
        "engine": args.engine,
        "workload_queries": len(queries),
        "database_rows": database.total_rows(),
        "skew": args.skew if args.rows is not None else None,
        # Environment provenance: checked-in BENCH artifacts are compared
        # on other machines, so they record what actually executed —
        # whether the columnar engine had NumPy, and which sqlite/python
        # the SQL backend and interpreter were.
        "python_version": platform.python_version(),
        "sqlite_version": sqlite3.sqlite_version,
        "numpy_version": (
            getattr(_columnar._np, "__version__", None)
            if _columnar._np is not None
            else None
        ),
    }
    timings: dict[str, tuple[float, float]] = {}
    results: dict[str, list] = {}
    for mode in engines:
        name = engine_names[mode]
        batch = Executor(database, mode=mode, fallback=args.fallback)
        start = time.perf_counter()
        cold_results = batch.run(queries)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        batch.run(queries)
        warm = time.perf_counter() - start
        timings[name] = (cold, warm)
        results[name] = cold_results
        total_rows = sum(len(result) for result in cold_results)
        print(
            f"{name}:{' ' * (9 - len(name))}{cold * 1000:8.1f} ms cold "
            f"({len(queries) / cold:8.1f} q/s, {total_rows} result rows), "
            f"{warm * 1000:8.1f} ms warm ({len(queries) / warm:8.1f} q/s)"
        )
        print(f"caches:   {batch.stats().describe()}")
        stats = batch.context.stats
        if stats.fallbacks or stats.breaker_skips:
            print(
                f"fallback: {stats.fallbacks} queries degraded to the rows "
                f"engine ({stats.breaker_skips} skipped by an open breaker; "
                f"state {batch.context.breaker_state})"
            )
            payload[f"{name}_fallbacks"] = stats.fallbacks
        payload[f"{name}_cold_ms"] = round(cold * 1000, 1)
        payload[f"{name}_warm_ms"] = round(warm * 1000, 1)
        payload["result_rows"] = total_rows

    reference_name = engine_names[engines[0]]
    reference = results[reference_name]
    if len(engines) > 1:
        identical = all(
            all(a.as_set() == b.as_set() for a, b in zip(reference, results[name]))
            for name in (engine_names[mode] for mode in engines[1:])
        )
        payload["results_identical"] = identical
        rows_cold, rows_warm = timings["rows"]
        if "columnar" in timings:
            col_cold, col_warm = timings["columnar"]
            payload["columnar_speedup_cold"] = round(rows_cold / col_cold, 1)
            payload["columnar_speedup_warm"] = round(rows_warm / col_warm, 1)
            print(
                f"columnar: {rows_cold / col_cold:.1f}x cold, "
                f"{rows_warm / col_warm:.1f}x warm vs the row pipeline"
            )
        if "sql" in timings:
            sql_cold, sql_warm = timings["sql"]
            payload["sql_vs_planned_cold"] = round(rows_cold / sql_cold, 1)
            payload["sql_vs_planned_warm"] = round(rows_warm / sql_warm, 1)
            print(
                f"sql:      {rows_cold / sql_cold:.1f}x cold, "
                f"{rows_warm / sql_warm:.1f}x warm vs the row pipeline"
            )
        print(f"identical results across engines: {'yes' if identical else 'NO'}")
        if not identical:
            return 1

    # --- top-k leg: ranked queries vs their full-materialization twins ----
    # Runs on the columnar engine when selected (the vectorized executor is
    # where the partial-selection kernels live), else on the first engine.
    topk_mode = (
        ExecutionMode.COLUMNAR
        if ExecutionMode.COLUMNAR in engines
        else engines[0]
    )
    triples = chinook_topk_workload()
    ranked_queries = [ranked for _, ranked, _ in triples]
    full_queries = [full for _, _, full in triples]
    batch_ranked = Executor(database, mode=topk_mode, fallback=args.fallback)
    batch_full = Executor(database, mode=topk_mode, fallback=args.fallback)

    def _timed(batch: Executor, batch_queries: list) -> tuple[float, list]:
        start = time.perf_counter()
        batch_results = batch.run(batch_queries)
        return time.perf_counter() - start, batch_results

    topk_cold, ranked_results = _timed(batch_ranked, ranked_queries)
    full_cold, full_results = _timed(batch_full, full_queries)
    topk_warm, _ = _timed(batch_ranked, ranked_queries)
    full_warm, _ = _timed(batch_full, full_queries)
    # The gated warm ratio is the k=10 subset (the acceptance point of the
    # ranked-execution work), best-of-3 so a handful-of-ms measurement is
    # not at the mercy of one scheduler hiccup.
    k10_ranked = [ranked for k, ranked, _ in triples if k == 10]
    k10_full = [full for k, _, full in triples if k == 10]
    k10_topk = min(_timed(batch_ranked, k10_ranked)[0] for _ in range(3))
    k10_full_time = min(_timed(batch_full, k10_full)[0] for _ in range(3))
    consistent = all(
        ranked.as_set() <= full.as_set() and len(ranked) == min(k, len(full))
        for (k, _, _), ranked, full in zip(triples, ranked_results, full_results)
    )
    print(
        f"topk:     {topk_cold * 1000:8.1f} ms cold, {topk_warm * 1000:8.1f} ms "
        f"warm over {len(triples)} ranked queries ({engine_names[topk_mode]}; "
        f"full sort: {full_cold * 1000:.1f} / {full_warm * 1000:.1f} ms)"
    )
    print(
        f"topk:     {full_cold / topk_cold:.1f}x cold, "
        f"{k10_full_time / k10_topk:.1f}x warm at k=10 vs full materialization"
    )
    print(f"ranked results consistent with full results: {'yes' if consistent else 'NO'}")
    payload["topk_engine"] = engine_names[topk_mode]
    payload["topk_queries"] = len(triples)
    payload["topk_cold_ms"] = round(topk_cold * 1000, 1)
    payload["topk_warm_ms"] = round(topk_warm * 1000, 1)
    payload["topk_full_cold_ms"] = round(full_cold * 1000, 1)
    payload["topk_full_warm_ms"] = round(full_warm * 1000, 1)
    payload["topk_vs_full_cold"] = round(full_cold / topk_cold, 1)
    payload["topk_vs_full_warm"] = round(k10_full_time / k10_topk, 1)
    payload["topk_results_consistent"] = consistent
    if not consistent:
        return 1

    if args.naive:
        oracle = Executor(database, mode=ExecutionMode.NAIVE)
        start = time.perf_counter()
        naive_results = oracle.run(queries)
        naive_elapsed = time.perf_counter() - start
        fastest = min(warm for _, warm in timings.values())
        print(
            f"naive:    {naive_elapsed * 1000:8.1f} ms "
            f"({len(queries) / naive_elapsed:8.1f} q/s), "
            f"{naive_elapsed / fastest:.1f}x slower than the fastest engine"
        )
        agree = all(
            p.as_set() == n.as_set() for p, n in zip(reference, naive_results)
        )
        print(f"results identical to naive oracle: {'yes' if agree else 'NO'}")
        if not agree:
            return 1

    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"json:     wrote {args.json}")
    return 0


def _resolve_formats(args: argparse.Namespace) -> tuple[str, ...] | None:
    formats = tuple(fmt.strip() for fmt in args.formats.split(",") if fmt.strip())
    unknown = [fmt for fmt in formats if fmt not in RENDERERS]
    if unknown or not formats:
        print(
            f"error: unknown --formats {','.join(unknown) or '(empty)'}; "
            f"choose from {','.join(sorted(RENDERERS))}",
            file=sys.stderr,
        )
        return None
    return formats


def _generated_corpus(args: argparse.Namespace) -> tuple[list[str], int]:
    """The benchmark/warm-up corpus: generated queries + the Fig. 24 trio."""
    from .paper_queries import FIG24_VARIANTS
    from .sql.formatter import format_query
    from .workloads import QueryGenConfig, QueryGenerator

    schema = SCHEMAS[args.schema]()
    generator = QueryGenerator(
        schema, QueryGenConfig(max_depth=2, max_tables_per_block=2)
    )
    distinct = [
        format_query(generator.generate(args.seed + index))
        for index in range(max(1, args.distinct))
    ]
    corpus = [distinct[index % len(distinct)] for index in range(max(1, args.queries))]
    corpus.extend(FIG24_VARIANTS)  # the paper's equivalence trio rides along
    return corpus, len(distinct)


def _run_bench_diagram(args: argparse.Namespace) -> int:
    import json
    import time

    from .paper_queries import FIG24_VARIANTS

    formats = _resolve_formats(args)
    if formats is None:
        return 2
    corpus, distinct_count = _generated_corpus(args)
    print(
        f"corpus: {len(corpus)} queries "
        f"({distinct_count} distinct generated + Fig. 24 trio), "
        f"schema={args.schema}, formats={','.join(formats)}"
    )

    cold = DiagramBatchCompiler(cache=False)
    start = time.perf_counter()
    cold.run(corpus, formats=formats)
    cold_elapsed = time.perf_counter() - start
    print(
        f"cold:     {cold_elapsed * 1000:8.1f} ms "
        f"({len(corpus) / cold_elapsed:8.1f} q/s, every stage recompiled)"
    )

    batch = DiagramBatchCompiler()
    start = time.perf_counter()
    batched_artifacts = batch.run(corpus, formats=formats)
    batched_elapsed = time.perf_counter() - start
    stats = batch.stats()
    speedup = cold_elapsed / batched_elapsed
    print(
        f"batched:  {batched_elapsed * 1000:8.1f} ms "
        f"({len(corpus) / batched_elapsed:8.1f} q/s)"
    )
    print(f"speedup:  {speedup:.1f}x")
    print(f"caches:   {stats.describe()}")
    print(
        f"dedup:    {batch.distinct_diagrams()} distinct diagrams "
        f"for {len(corpus)} queries"
    )
    fig24_class = next(
        (
            cls
            for cls in batch.equivalence_classes()
            if any(variant.strip() in cls.queries for variant in FIG24_VARIANTS)
        ),
        None,
    )
    if fig24_class is not None:
        print(
            f"fig24:    {len(FIG24_VARIANTS)} variants -> 1 fingerprint "
            f"({fig24_class.fingerprint[:16]})"
        )

    payload = {
        "corpus_queries": len(corpus),
        "distinct_generated": distinct_count,
        "schema": args.schema,
        "formats": list(formats),
        "cold_ms": round(cold_elapsed * 1000, 1),
        "batched_ms": round(batched_elapsed * 1000, 1),
        "speedup": round(speedup, 1),
        "cache_hit_rate": round(stats.hit_rate, 4),
        "distinct_diagrams": batch.distinct_diagrams(),
        "stages": stats.as_dict()["stages"],
    }

    if args.workers:
        parallel = DiagramBatchCompiler()
        start = time.perf_counter()
        parallel_artifacts = parallel.run(corpus, formats=formats, workers=args.workers)
        parallel_elapsed = time.perf_counter() - start
        identical = all(
            a.fingerprint == b.fingerprint and a.outputs == b.outputs
            for a, b in zip(batched_artifacts, parallel_artifacts)
        ) and parallel.equivalence_classes() == batch.equivalence_classes()
        print(
            f"parallel: {parallel_elapsed * 1000:8.1f} ms "
            f"({len(corpus) / parallel_elapsed:8.1f} q/s, workers={args.workers}, "
            f"identical to serial: {'yes' if identical else 'NO'})"
        )
        payload["workers"] = args.workers
        payload["parallel_ms"] = round(parallel_elapsed * 1000, 1)
        payload["parallel_identical"] = identical
        if not identical:
            return 1

    if args.disk_cache:
        populate = DiagramBatchCompiler(disk_cache=args.disk_cache)
        start = time.perf_counter()
        populate.run(corpus, formats=formats)
        populate_elapsed = time.perf_counter() - start
        warm = DiagramBatchCompiler(disk_cache=args.disk_cache)
        start = time.perf_counter()
        warm.run(corpus, formats=formats)
        warm_elapsed = time.perf_counter() - start
        disk_stats = warm.compiler.disk_cache.stats
        print(
            f"persist:  {populate_elapsed * 1000:8.1f} ms populate, "
            f"{warm_elapsed * 1000:8.1f} ms cross-process warm start "
            f"({cold_elapsed / warm_elapsed:.1f}x vs cold, "
            f"{disk_stats.hits} disk hits, {disk_stats.evictions} evicted: "
            f"{disk_stats.corrupt_evictions} corrupt / "
            f"{disk_stats.stale_evictions} stale)"
        )
        payload["persistent_populate_ms"] = round(populate_elapsed * 1000, 1)
        payload["persistent_warm_ms"] = round(warm_elapsed * 1000, 1)
        payload["persistent_speedup_vs_cold"] = round(
            cold_elapsed / warm_elapsed, 1
        )
        payload["disk"] = disk_stats.snapshot()
        # Flat duplicates for benchmarks/compare.py's INFO keys (it only
        # inspects scalars).
        payload["disk_evictions"] = disk_stats.evictions
        payload["disk_corrupt_evictions"] = disk_stats.corrupt_evictions
        payload["disk_stale_evictions"] = disk_stats.stale_evictions
        payload["disk_degraded"] = disk_stats.disk_degraded

    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"json:     wrote {args.json}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import (
        CompileServer,
        CompileService,
        LocalCompiler,
        PoolConfig,
        ServiceConfig,
        WorkerSupervisor,
    )

    pooled = args.workers and args.workers > 1
    if pooled:
        # A fault plan reaches the workers too: they compile, so a
        # serve.* plan that only lived in this process would inject
        # nothing there.
        backend = WorkerSupervisor(
            PoolConfig(
                workers=args.workers,
                simplify=not args.no_simplify,
                disk_cache=args.disk_cache,
                worker_fault_plan=args.fault_plan,
            )
        )
    else:
        backend = LocalCompiler(
            simplify=not args.no_simplify, disk_cache=args.disk_cache
        )
    service = CompileService(
        backend=backend,
        config=ServiceConfig(
            lru_entries=args.lru_size,
            max_pending=args.max_pending,
            request_timeout=args.timeout,
        ),
    )

    async def _serve() -> int:
        if pooled:
            ready = await backend.start()
            print(f"pool: {ready}/{args.workers} workers ready", flush=True)
        server = CompileServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"serving on {server.url}", flush=True)
        if args.disk_cache:
            print(f"disk cache: {args.disk_cache}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover — non-POSIX loop
                signal.signal(signum, lambda *_: stop.set())
        if pooled:

            def _reload_done(task: asyncio.Task) -> None:
                if task.cancelled() or task.exception() is not None:
                    print("reload failed", flush=True)
                    return
                result = task.result()
                print(
                    f"reload complete: {len(result['replaced'])} workers "
                    f"replaced (min ready "
                    f"{backend.stats.reload_min_ready})",
                    flush=True,
                )

            def _on_hup() -> None:
                print("SIGHUP: rolling workers one at a time...", flush=True)
                loop.create_task(backend.reload()).add_done_callback(
                    _reload_done
                )

            try:
                loop.add_signal_handler(signal.SIGHUP, _on_hup)
            except (NotImplementedError, AttributeError):  # pragma: no cover
                pass
        await stop.wait()
        print("draining in-flight work...", flush=True)
        drained = await server.stop(drain_timeout=args.timeout + 5.0)
        print(
            f"shutdown {'clean' if drained else 'with undrained work'}; "
            f"served {sum(service.requests.values())} requests",
            flush=True,
        )
        return 0 if drained else 1

    return asyncio.run(_serve())


def _run_bench_serve(args: argparse.Namespace) -> int:
    import json

    from .workloads import ServeBenchConfig, serve_bench

    formats = _resolve_formats(args)
    if formats is None:
        return 2
    config = ServeBenchConfig(
        distinct=args.distinct,
        warm_repeat=args.warm_repeat,
        concurrency=args.concurrency,
        burst_distinct=args.burst_distinct,
        burst_duplicates=args.burst_duplicates,
        schema=args.schema,
        formats=formats,
        seed=args.seed,
        workers=args.workers,
    )
    payload = serve_bench(config, url=args.url)
    print(
        f"server:   {'external ' + args.url if args.url else 'in-process (fresh)'}"
    )
    print(
        f"workload: {payload['distinct_queries']} distinct queries "
        f"(schema={args.schema}, formats={','.join(formats)}), "
        f"concurrency {payload['concurrency']}"
    )
    for phase in ("cold", "warm", "burst"):
        requests = payload[
            "requests_cold" if phase == "cold"
            else "requests_warm" if phase == "warm"
            else "burst_requests"
        ]
        print(
            f"{phase}:{' ' * (9 - len(phase) - 1)}{requests:5d} requests, "
            f"p50 {payload[f'{phase}_p50_ms']:8.2f} ms, "
            f"p99 {payload[f'{phase}_p99_ms']:8.2f} ms, "
            f"{payload[f'{phase}_rps']:8.1f} req/s"
        )
    print(
        f"speedup:  {payload['warm_speedup_p50']:.1f}x warm p50 vs cold "
        "(response LRU vs full pipeline)"
    )
    print(
        f"coalesce: {payload['burst_requests']} duplicate-heavy requests -> "
        f"{payload['burst_unique_compiles']} unique compiles "
        f"({payload['burst_unique_fraction']:.1%} unique, "
        f"collapse {payload['coalesce_collapse']:.1f}x, "
        f"{payload['coalesced_requests']} coalesced in flight)"
    )
    if payload.get("failed_requests"):
        print(f"FAILED:   {payload['failed_requests']} requests never got a 200")
    if "pool_vs_single_warm_throughput" in payload:
        print(
            f"pool:     {payload['pool_workers']} workers, "
            f"{payload['pool_rps']:.1f} req/s vs single "
            f"{payload['pool_single_rps']:.1f} req/s -> "
            f"{payload['pool_vs_single_warm_throughput']:.2f}x "
            f"(stalled-compile corpus of {payload['pool_distinct']}; "
            f"{payload['pool_failed_requests']} failed, "
            f"{payload['pool_worker_restarts']} worker restarts)"
        )
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"json:     wrote {args.json}")
    # A request that exhausted its retry budget is a failed experiment,
    # not a statistic — the CI pool-chaos leg relies on this exit code.
    failed = payload.get("failed_requests", 0) + payload.get(
        "pool_failed_requests", 0
    )
    return 1 if failed else 0


def _run_warm_cache(args: argparse.Namespace) -> int:
    import time

    formats = _resolve_formats(args)
    if formats is None:
        return 2
    corpus, distinct_count = _generated_corpus(args)
    for path in args.sql_files:
        corpus.append(_read_sql(path))
    batch = DiagramBatchCompiler(disk_cache=args.disk_cache)
    start = time.perf_counter()
    batch.run(corpus, formats=formats, workers=args.workers)
    elapsed = time.perf_counter() - start
    disk = batch.compiler.disk_cache
    print(
        f"warmed {args.disk_cache}: {len(corpus)} queries "
        f"({distinct_count} distinct generated) in {elapsed * 1000:.1f} ms"
        + (f" with {args.workers} workers" if args.workers else "")
    )
    print(f"entries:  {disk.entry_count()} cached stage products on disk")
    # A parallel run has added its workers' counters to these.
    counts = disk.stats
    print(
        "disk:     "
        f"{counts.hits} hits, {counts.writes} writes, "
        f"{counts.evictions} evicted "
        f"({counts.corrupt_evictions} corrupt / "
        f"{counts.stale_evictions} stale)"
        + (", DEGRADED to memory-only" if counts.disk_degraded else "")
    )
    print(f"caches:   {batch.stats().describe()}")
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    import json

    from .workloads.chaosbench import ChaosConfig, run_chaos

    config = ChaosConfig(
        queries=args.queries,
        seed=args.seed,
        fault_seed=args.fault_seed,
        plan_spec=args.fault_plan,
    )
    payload = run_chaos(config, cache_dir=args.cache_dir)
    for mode, leg in payload["engine"].items():
        print(
            f"engine/{mode}: {leg['queries']} queries, "
            f"{leg['fallbacks']} fallbacks "
            f"({leg['breaker_skips']} breaker skips, "
            f"breaker {leg['breaker_state']}), "
            f"identical: {'yes' if leg['identical'] else 'NO'}"
        )
    cache = payload["cache"]
    print(
        f"cache:      {cache['queries']} queries, "
        f"{cache['corrupt_evictions']} corrupt evictions, "
        f"{cache['write_errors']} write errors, "
        f"identical: {'yes' if cache['identical'] else 'NO'}"
    )
    serve = payload["serve"]
    print(
        f"serve:      {serve['requests']} requests, "
        f"{serve['compile_retries']} compile retries, "
        f"{serve['executor_restarts']} executor restarts, "
        f"{serve['client_retries']} client retries, "
        f"identical: {'yes' if serve['identical'] else 'NO'}"
    )
    pool = payload.get("pool")
    if pool is not None:
        observed = pool["observed"]
        print(
            f"pool:       {pool['requests']} requests over {pool['workers']} "
            f"workers, killed pid {observed['killed_pid']}, "
            f"{pool['worker_crashes']} crashes / "
            f"{observed['worker_restarts']} restarts / "
            f"{observed['failovers']} failovers, "
            f"{pool['failed_requests']} failed, "
            f"identical: {'yes' if pool['identical'] else 'NO'}"
        )
    print(
        f"chaos:      {payload['fault_fires']} faults injected, verdict "
        f"{'OK' if payload['ok'] else 'FAILED'}"
    )
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"json:       wrote {args.json}")
    return 0 if payload["ok"] else 1


def _run_study(args: argparse.Namespace) -> int:
    from .study import (
        analyze_study,
        apply_exclusion,
        format_fig7,
        format_participant_deltas,
        legitimate_responses,
        questions_without_grouping,
        simulate_study,
    )
    from .study.simulate import DEFAULT_SEED

    study = simulate_study(seed=args.seed if args.seed is not None else DEFAULT_SEED)
    exclusion = apply_exclusion(study)
    responses = legitimate_responses(study, exclusion)
    if args.questions == 9:
        nine_ids = {q.question_id for q in questions_without_grouping()}
        responses = [r for r in responses if r.question_id in nine_ids]
    results = analyze_study(responses)
    print(
        f"{exclusion.n_total} workers simulated, {exclusion.n_excluded} excluded, "
        f"{exclusion.n_legitimate} legitimate"
    )
    print()
    print(format_fig7(results, title=f"Study results ({args.questions} questions)"))
    print()
    print(format_participant_deltas(results))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
