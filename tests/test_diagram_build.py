"""Unit tests for Logic Tree → diagram construction (arrow rules, boxes, rows)."""

from __future__ import annotations

import re
import time

import pytest

from repro import queryvis
from repro.diagram import (
    BoxStyle,
    RowKind,
    SELECT_TABLE_ID,
    build_diagram,
    ensure_unique_aliases,
    flatten_existential_blocks,
    validate_diagram,
)
from repro.logic import Quantifier, simplify_logic_tree, sql_to_logic_tree
from repro.pipeline import compile_sql
from repro.sql import parse


def edge_map(diagram):
    """(source_table, target_table) -> edge for join edges."""
    return {
        (edge.source.table_id, edge.target.table_id): edge
        for edge in diagram.join_edges()
    }


class TestConjunctiveDiagram:
    def test_fig2a_structure(self, q_some_query):
        diagram = queryvis(q_some_query)
        assert len(diagram.data_tables()) == 3
        assert len(diagram.boxes) == 0
        assert len(diagram.join_edges()) == 3
        assert len(diagram.select_edges()) == 1
        validate_diagram(diagram)

    def test_conjunctive_edges_are_undirected_equijoins(self, q_some_query):
        diagram = queryvis(q_some_query)
        for edge in diagram.join_edges():
            assert not edge.directed
            assert edge.operator is None

    def test_select_table_rows(self, q_some_query):
        diagram = queryvis(q_some_query)
        assert diagram.select_table.is_select
        assert [row.label for row in diagram.select_table.rows] == ["person"]

    def test_attribute_rows(self, q_some_query):
        diagram = queryvis(q_some_query)
        frequents = diagram.table("F")
        assert set(frequents.row_keys()) == {"person", "bar"}

    def test_selection_row(self):
        diagram = queryvis("SELECT B.bname FROM Boat B WHERE B.color = 'red'")
        boat = diagram.table("B")
        selection_rows = [row for row in boat.rows if row.kind is RowKind.SELECTION]
        assert len(selection_rows) == 1
        assert selection_rows[0].label == "color = 'red'"

    def test_inequality_join_labelled(self):
        diagram = queryvis(
            "SELECT C.CustomerId FROM Customer C, Invoice I1, Invoice I2 "
            "WHERE C.CustomerId = I1.CustomerId AND C.CustomerId = I2.CustomerId "
            "AND I1.BillingState <> I2.BillingState"
        )
        operators = {edge.operator for edge in diagram.join_edges()}
        assert "<>" in operators


class TestNestedDiagram:
    def test_fig2b_unsimplified(self, q_only_query):
        diagram = queryvis(q_only_query, simplify=False)
        assert len(diagram.boxes) == 2
        assert all(box.style is BoxStyle.NOT_EXISTS for box in diagram.boxes)
        validate_diagram(diagram)

    def test_fig2c_simplified(self, q_only_query):
        diagram = queryvis(q_only_query, simplify=True)
        assert len(diagram.boxes) == 1
        assert diagram.boxes[0].style is BoxStyle.FOR_ALL

    def test_arrow_rule_parent_to_child(self, q_only_query):
        diagram = queryvis(q_only_query, simplify=False)
        edges = edge_map(diagram)
        # F (depth 0) -> S (depth 1): shallower to deeper.
        assert ("F", "S") in edges and edges[("F", "S")].directed
        # S (depth 1) -> L (depth 2): shallower to deeper.
        assert ("S", "L") in edges
        # L (depth 2) -> F (depth 0): difference 2, deeper to shallower.
        assert ("L", "F") in edges

    def test_unique_set_arrow_directions(self, unique_set_query):
        diagram = queryvis(unique_set_query, simplify=False)
        edges = edge_map(diagram)
        assert edges[("L1", "L2")].operator == "<>"
        assert ("L2", "L3") in edges  # depth 1 -> 2
        assert ("L3", "L4") in edges  # depth 2 -> 3
        assert ("L4", "L1") in edges  # depth 3 -> 0 (difference 3)
        assert ("L5", "L1") in edges  # depth 2 -> 0 (difference 2)
        assert ("L6", "L2") in edges  # depth 3 -> 1 (difference 2)
        assert ("L5", "L6") in edges  # depth 2 -> 3

    def test_unique_set_boxes(self, unique_set_query):
        diagram = queryvis(unique_set_query, simplify=False)
        assert len(diagram.boxes) == 5
        simplified = queryvis(unique_set_query, simplify=True)
        styles = sorted(box.style.value for box in simplified.boxes)
        assert styles == ["dashed", "double", "double"]

    def test_reading_order_matches_footnote1(self, unique_set_query):
        diagram = queryvis(unique_set_query, simplify=False)
        order = diagram.reading_order()
        assert order[0] == SELECT_TABLE_ID
        assert order[1:5] == ["L1", "L2", "L3", "L4"]
        assert order[5:] == ["L5", "L6"]

    def test_operator_flipped_when_arrow_reversed(self):
        # B is the parent of A in the nesting, so the arrow must go B -> A and
        # the operator A.attr1 > B.attr2 must be rewritten as B.attr2 < A.attr1.
        diagram = queryvis(
            "SELECT B.attr2 FROM B WHERE NOT EXISTS "
            "(SELECT * FROM A WHERE A.attr1 > B.attr2)",
            simplify=False,
        )
        edge = diagram.join_edges()[0]
        assert edge.source.table_id == "B" and edge.target.table_id == "A"
        assert edge.operator == "<"

    def test_exists_blocks_are_flattened(self):
        diagram = queryvis(
            "SELECT A.x FROM A WHERE EXISTS (SELECT * FROM B WHERE B.y = A.x)",
            simplify=False,
        )
        assert len(diagram.boxes) == 0
        assert len(diagram.data_tables()) == 2
        edge = diagram.join_edges()[0]
        assert not edge.directed  # same block after flattening

    def test_in_subquery_flattened_to_plain_join(self):
        diagram = queryvis(
            "SELECT A.x FROM A WHERE A.x IN (SELECT B.y FROM B)", simplify=False
        )
        assert len(diagram.boxes) == 0
        assert len(diagram.join_edges()) == 1


class TestGroupByAndAggregates:
    def test_group_by_row_highlighted(self):
        diagram = queryvis(
            "SELECT T.AlbumId, MAX(T.Milliseconds) FROM Track T GROUP BY T.AlbumId"
        )
        track = diagram.table("T")
        kinds = {row.key.lower(): row.kind for row in track.rows}
        assert kinds["albumid"] is RowKind.GROUP_BY
        assert any(row.kind is RowKind.AGGREGATE for row in track.rows)

    def test_aggregate_in_select_table(self):
        diagram = queryvis(
            "SELECT T.AlbumId, MAX(T.Milliseconds) FROM Track T GROUP BY T.AlbumId"
        )
        labels = [row.label for row in diagram.select_table.rows]
        assert "MAX(T.Milliseconds)" in labels

    def test_qualification_q3_diagram(self, chinook):
        sql = (
            "SELECT P.PlaylistId, G.Name, COUNT(T.TrackId) "
            "FROM Playlist P, PlaylistTrack PT, Track T, Genre G "
            "WHERE P.PlaylistId = PT.PlaylistId AND PT.TrackId = T.TrackId "
            "AND T.GenreId = G.GenreId GROUP BY P.PlaylistId, G.Name"
        )
        diagram = queryvis(sql, schema=chinook)
        validate_diagram(diagram)
        group_rows = [
            row for _table, row in diagram.iter_rows() if row.kind is RowKind.GROUP_BY
        ]
        assert len(group_rows) == 2


class TestLargeQueries:
    """Rows are found by lowercased key in a dict, not by scanning the
    table, so a table with many rows builds and renders in linear time."""

    #: Generous: both shapes take well under a second on a 2-vCPU machine,
    #: and tens of seconds when every lookup scans the table's rows.
    BOUND_S = 5.0

    @staticmethod
    def _compile(sql):
        start = time.perf_counter()
        compiled = compile_sql(sql, formats=("text", "svg", "dot"))
        return compiled, time.perf_counter() - start

    def test_many_selection_predicates(self):
        n = 20_000
        sql = "SELECT S.sname FROM Sailor S WHERE " + " AND ".join(
            f"S.rating > {i}" for i in range(n)
        )
        compiled, seconds = self._compile(sql)
        assert seconds < self.BOUND_S
        rows = compiled.diagram.table("S").rows
        selections = [row.label for row in rows if row.kind is RowKind.SELECTION]
        assert selections == [f"rating > {i}" for i in range(n)]
        assert [row.label for row in rows if row.kind is RowKind.ATTRIBUTE] == ["sname"]

    def test_many_join_columns(self):
        m = 4_000
        sql = "SELECT S.x FROM Sx S, Ty T WHERE " + " AND ".join(
            f"S.a{i} = T.b{i}" for i in range(m)
        )
        compiled, seconds = self._compile(sql)
        assert seconds < self.BOUND_S
        diagram = compiled.diagram
        assert [row.key for row in diagram.table("T").rows] == [f"b{i}" for i in range(m)]
        assert len(diagram.join_edges()) == m
        # Each join edge leaves from its own attribute row of S.
        heights = re.findall(r'<line x1="[^"]*" y1="([^"]*)"', compiled.outputs["svg"])
        assert len(set(heights)) >= m

    def test_predicates_differing_only_in_case_share_a_row(self):
        diagram = queryvis(
            "SELECT B.bname FROM Boat B WHERE B.color = 'red' AND B.COLOR = 'RED' "
            "AND B.Color = 'Red' AND B.bid > 3"
        )
        assert [(row.kind, row.label) for row in diagram.table("B").rows] == [
            (RowKind.SELECTION, "color = 'red'"),
            (RowKind.SELECTION, "bid > 3"),
            (RowKind.ATTRIBUTE, "bname"),
        ]


class TestPreprocessing:
    def test_ensure_unique_aliases_renames_duplicates(self):
        sql = (
            "SELECT A.x FROM T A WHERE "
            "NOT EXISTS (SELECT * FROM T B WHERE B.x = A.x AND "
            "EXISTS (SELECT * FROM T A WHERE A.x = B.x))"
        )
        tree = ensure_unique_aliases(sql_to_logic_tree(parse(sql)))
        aliases = [t.effective_alias for node in tree.iter_nodes() for t in node.tables]
        assert len(aliases) == len(set(a.lower() for a in aliases))

    def test_flatten_preserves_table_count(self, q_only_query):
        tree = sql_to_logic_tree(q_only_query)
        flattened = flatten_existential_blocks(tree)
        assert flattened.table_count() == tree.table_count()

    def test_flatten_does_not_merge_into_forall(self, q_only_query):
        tree = simplify_logic_tree(sql_to_logic_tree(q_only_query))
        flattened = flatten_existential_blocks(tree)
        serves = flattened.node_of_alias("S")
        assert serves.quantifier is Quantifier.FOR_ALL
        assert len(serves.children) == 1  # ∃ Likes block kept separate

    def test_study_stimuli_all_build_valid_diagrams(self, chinook):
        from repro.study import qualification_questions, test_questions

        for question in list(test_questions()) + list(qualification_questions()):
            for simplify in (False, True):
                diagram = queryvis(question.sql, schema=chinook, simplify=simplify)
                validate_diagram(diagram)
