"""Unit tests for the staged diagram-compilation pipeline."""

from __future__ import annotations

import gc

import pytest

from repro import queryvis
from repro.catalog import sailors_schema
from repro.paper_queries import FIG24_VARIANTS, Q_ONLY_SQL, Q_SOME_SQL
from repro.pipeline import (
    DiagramBatchCompiler,
    DiagramCompiler,
    STAGE_NAMES,
    compile_corpus,
    compile_sql,
    fingerprint_sql,
)
from repro.render.layout import LayoutConfig
from repro.sql import parse
from repro.sql.lexer import scan


def _twins(pair: str, single: str, single_first: bool = False) -> str:
    """Two ∃ blocks whose tables are twins once flattened into the root.

    ``S1`` joins the Reserves alias ``single``, ``S2`` the alias ``pair``.
    """
    blocks = [
        f"EXISTS (SELECT * FROM Sailor S2, Reserves {pair} "
        f"WHERE {pair}.sid = S2.sid AND S2.age = S1.age)",
        f"EXISTS (SELECT * FROM Reserves {single} WHERE {single}.sid = S1.sid)",
    ]
    if single_first:
        blocks.reverse()
    return "SELECT B.color FROM Boat B, Sailor S1 WHERE " + " AND ".join(blocks)


TWINS = _twins("R2", "R1")
TWINS_REORDERED = _twins("R2", "R1", single_first=True)
#: Reordered, and the Reserves twins swap names, so name order no longer
#: follows which Sailor each one joins.
TWINS_RENAMED = _twins("R1", "R2", single_first=True)


class TestCompiler:
    def test_compile_produces_every_artifact(self):
        artifact = compile_sql(Q_ONLY_SQL, formats=("text", "svg", "dot"))
        assert artifact.sql == Q_ONLY_SQL
        assert artifact.query == parse(Q_ONLY_SQL)
        assert artifact.fingerprint and len(artifact.fingerprint) == 64
        assert artifact.output("svg").startswith("<svg")
        assert artifact.output("dot").startswith("digraph")
        assert "∀" in artifact.output("text")

    def test_missing_format_raises(self):
        artifact = compile_sql(Q_SOME_SQL, formats=("text",))
        with pytest.raises(KeyError):
            artifact.output("svg")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown output format"):
            compile_sql(Q_SOME_SQL, formats=("png",))

    def test_accepts_parsed_ast(self):
        from_text = compile_sql(Q_SOME_SQL, formats=("svg",))
        from_ast = compile_sql(parse(Q_SOME_SQL), formats=("svg",))
        assert from_ast.sql is None
        assert from_ast.fingerprint == from_text.fingerprint
        assert from_ast.output("svg") == from_text.output("svg")

    def test_simplify_flag_changes_tree_but_not_raw_tree(self):
        plain = compile_sql(Q_ONLY_SQL, simplify=False, formats=("text",))
        simplified = compile_sql(Q_ONLY_SQL, simplify=True, formats=("text",))
        assert plain.simplified_tree == plain.logic_tree
        assert simplified.logic_tree == plain.logic_tree
        assert simplified.simplified_tree != simplified.logic_tree
        assert "∄" in plain.output("text")
        assert "∀" in simplified.output("text")

    def test_wrappers_match_pipeline_output(self):
        """The old one-shot helpers are thin wrappers over the pipeline."""
        artifact = compile_sql(Q_ONLY_SQL, formats=())
        assert queryvis(Q_ONLY_SQL) == artifact.diagram
        assert queryvis(parse(Q_ONLY_SQL)) == artifact.diagram

    def test_layout_config_is_threaded_through(self):
        small = LayoutConfig(row_height=10, header_height=12, table_width=80)
        artifact = compile_sql(Q_SOME_SQL, layout_config=small, formats=("svg",))
        default = compile_sql(Q_SOME_SQL, formats=("svg",))
        assert artifact.layout.config == small
        assert artifact.layout.width < default.layout.width
        assert artifact.output("svg") != default.output("svg")

    def test_layout_carries_reading_order(self):
        artifact = compile_sql(Q_ONLY_SQL, formats=())
        assert artifact.layout.order == tuple(artifact.diagram.reading_order())

    def test_layout_is_lazy_without_formats(self):
        """formats=() callers (queryvis) skip the layout stage."""
        compiler = DiagramCompiler()
        artifact = compiler.compile(Q_ONLY_SQL, formats=())
        assert compiler.stats().counter("layout").lookups == 0
        assert artifact.layout.placements  # computed on demand
        assert artifact.layout is artifact.layout  # and memoized

    def test_schema_resolves_unqualified_columns(self):
        sql = (
            "SELECT S.sname FROM Sailor S WHERE S.sid IN "
            "(SELECT R.sid FROM Reserves R, Boat B "
            "WHERE R.bid = B.bid AND color = 'red')"
        )
        artifact = compile_sql(sql, schema=sailors_schema(), formats=("text",))
        assert "σ color = 'red'" in artifact.output("text")


class TestStageCaches:
    def test_verbatim_repeat_hits_artifact_memo(self):
        compiler = DiagramCompiler()
        first = compiler.compile(Q_ONLY_SQL, formats=("svg",))
        second = compiler.compile(Q_ONLY_SQL, formats=("svg",))
        assert second is first
        stats = compiler.stats()
        assert stats.queries == 2
        assert stats.counter("artifact").hits == 1
        assert stats.counter("lex").lookups == 1  # only the cold pass lexed

    def test_whitespace_variant_hits_parse_cache(self):
        compiler = DiagramCompiler()
        compiler.compile("SELECT T.a FROM T WHERE T.a = 1", formats=())
        compiler.compile("SELECT  T.a\nFROM T\nWHERE T.a = 1", formats=())
        stats = compiler.stats()
        assert stats.counter("artifact").hits == 0
        assert stats.counter("lex").misses == 2  # different byte content
        assert stats.counter("parse").hits == 1  # same token stream

    def test_equivalent_variant_hits_diagram_cache(self):
        compiler = DiagramCompiler()
        compiler.compile(FIG24_VARIANTS[0], formats=("svg",))
        compiler.compile(FIG24_VARIANTS[1], formats=("svg",))
        stats = compiler.stats()
        assert stats.counter("diagram").hits == 1
        assert stats.counter("layout").hits == 1
        assert stats.counter("render").hits == 1

    def test_disabled_cache_always_misses(self):
        compiler = DiagramCompiler(cache=False)
        compiler.compile(Q_SOME_SQL, formats=("text",))
        compiler.compile(Q_SOME_SQL, formats=("text",))
        stats = compiler.stats()
        assert stats.total_hits == 0
        assert compiler.cache_sizes() == {}

    def test_parse_key_holds_a_fixed_number_of_tracked_tuples(self):
        def tracked_tuples(key) -> int:
            count, stack = 0, [key]
            while stack:
                item = stack.pop()
                if isinstance(item, tuple):
                    count += gc.is_tracked(item)
                    stack.extend(item)
            return count

        def parse_key(sql: str):
            compiler = DiagramCompiler()
            compiler.compile(sql, formats=())
            (key,) = compiler._cache._caches["parse"]._entries
            return key

        short = parse_key("SELECT T.a FROM T WHERE T.a = 1")
        conditions = " AND ".join(f"T.a <> {n}" for n in range(125))
        long_sql = f"SELECT T.a FROM T WHERE {conditions}"
        assert len(scan(long_sql).types) > 500
        long = parse_key(long_sql)
        gc.collect()  # untracks tuples that hold only atomic values
        assert tracked_tuples(short) == tracked_tuples(long) <= 3

    def test_stage_names_cover_all_counters(self):
        compiler = DiagramCompiler()
        compiler.compile(Q_ONLY_SQL, formats=("text",))
        stats = compiler.stats()
        assert set(stats.counters) == set(STAGE_NAMES)
        assert stats.describe().startswith("1 queries")
        payload = stats.as_dict()
        assert payload["queries"] == 1
        assert "diagram" in payload["stages"]


class TestFingerprint:
    def test_fig24_variants_share_one_fingerprint(self):
        fingerprints = {fingerprint_sql(variant) for variant in FIG24_VARIANTS}
        assert len(fingerprints) == 1

    def test_fig24_variants_share_one_cached_diagram_and_svg(self):
        batch = DiagramBatchCompiler()
        artifacts = batch.run(FIG24_VARIANTS, formats=("svg",))
        assert len({id(a.diagram) for a in artifacts}) == 1
        assert len({a.output("svg") for a in artifacts}) == 1
        assert batch.distinct_diagrams() == 1
        assert batch.stats().counter("diagram").hits == 2

    def test_alias_renaming_is_invisible(self):
        renamed = FIG24_VARIANTS[0].replace("R.", "X.").replace("Reserves R", "Reserves X")
        assert fingerprint_sql(renamed) == fingerprint_sql(FIG24_VARIANTS[0])

    def test_alias_renamed_variant_renders_its_own_labels(self):
        """Fingerprint dedup must never leak another query's alias labels."""
        original = "SELECT R.sid FROM Reserves R WHERE R.bid = 1"
        renamed = "SELECT X.sid FROM Reserves X WHERE X.bid = 1"
        compiler = DiagramCompiler()
        first = compiler.compile(original, formats=("text",))
        second = compiler.compile(renamed, formats=("text",))
        assert first.fingerprint == second.fingerprint  # same equivalence class
        assert compiler.stats().counter("diagram").hits == 0  # but no label leak
        assert "(alias X)" in second.output("text")
        assert "(alias R)" not in second.output("text")

    def test_symmetric_twin_roles_do_not_share_a_diagram(self):
        """Same aliases, same fingerprint, different roles → separate diagrams."""
        on_a = "SELECT A.sname FROM Sailor A, Sailor B WHERE A.rating = 7"
        on_b = "SELECT B.sname FROM Sailor A, Sailor B WHERE B.rating = 7"
        compiler = DiagramCompiler()
        first = compiler.compile(on_a, formats=("text",))
        second = compiler.compile(on_b, formats=("text",))
        assert first.fingerprint == second.fingerprint  # alpha-equivalent
        assert compiler.stats().counter("diagram").hits == 0
        # The selection row must sit on the alias the query actually wrote.
        cold = DiagramCompiler(cache=False).compile(on_b, formats=("text",))
        assert second.output("text") == cold.output("text")
        assert second.output("text") != first.output("text")

    def test_predicate_order_is_invisible(self):
        a = "SELECT T.a FROM T, U WHERE T.a = U.a AND T.b = 1"
        b = "SELECT T.a FROM T, U WHERE T.b = 1 AND T.a = U.a"
        assert fingerprint_sql(a) == fingerprint_sql(b)

    def test_predicate_order_is_invisible_for_symmetric_twins(self):
        # Flattening both ∃ blocks into the root leaves S1/S2 and R1/R2 as
        # twins that refinement cannot tell apart; input order must not
        # decide which of them gets the first canonical name.
        fingerprints = {fingerprint_sql(q) for q in (TWINS, TWINS_REORDERED, TWINS_RENAMED)}
        assert len(fingerprints) == 1

    def test_symmetric_twins_in_either_order_share_one_diagram(self):
        """Same aliases in the same roles: the second spelling reuses the first's."""
        compiler = DiagramCompiler()
        first = compiler.compile(TWINS, formats=("text",))
        second = compiler.compile(TWINS_REORDERED, formats=("text",))
        assert (first.fingerprint, first.roles) == (second.fingerprint, second.roles)
        assert compiler.stats().counter("diagram").hits == 1
        cold = DiagramCompiler(cache=False).compile(TWINS, formats=("text",))
        assert second.output("text") == cold.output("text")

    def test_comparison_orientation_is_invisible(self):
        a = "SELECT T.a FROM T, U WHERE T.a < U.b"
        b = "SELECT T.a FROM T, U WHERE U.b > T.a"
        assert fingerprint_sql(a) == fingerprint_sql(b)

    def test_different_queries_differ(self):
        assert fingerprint_sql(Q_SOME_SQL) != fingerprint_sql(Q_ONLY_SQL)

    def test_operator_matters(self):
        a = "SELECT T.a FROM T, U WHERE T.a < U.b"
        b = "SELECT T.a FROM T, U WHERE T.a <= U.b"
        assert fingerprint_sql(a) != fingerprint_sql(b)

    def test_simplify_flag_matters(self):
        simplified = fingerprint_sql(Q_ONLY_SQL, simplify=True)
        literal = fingerprint_sql(Q_ONLY_SQL, simplify=False)
        assert simplified != literal


class TestBatchCompiler:
    def test_run_returns_one_artifact_per_query(self):
        corpus = [Q_SOME_SQL, Q_ONLY_SQL, Q_SOME_SQL]
        artifacts = compile_corpus(corpus, formats=("text",))
        assert len(artifacts) == 3
        assert artifacts[0] is artifacts[2]

    def test_iter_run_streams_pairs(self):
        batch = DiagramBatchCompiler()
        pairs = list(batch.iter_run([Q_SOME_SQL, Q_ONLY_SQL], formats=()))
        assert [query for query, _artifact in pairs] == [Q_SOME_SQL, Q_ONLY_SQL]

    def test_equivalence_classes_group_variants(self):
        batch = DiagramBatchCompiler()
        batch.run(list(FIG24_VARIANTS) + [Q_SOME_SQL], formats=())
        classes = batch.equivalence_classes()
        assert len(classes) == 2
        assert classes[0].count == 3  # largest class first
        assert classes[0].representative.startswith("SELECT S.sname")
        assert classes[1].count == 1

    def test_report_mentions_dedup(self):
        batch = DiagramBatchCompiler()
        batch.run(FIG24_VARIANTS, formats=())
        report = batch.report()
        assert "3 compilations, 1 distinct diagrams" in report
        assert "x3" in report
