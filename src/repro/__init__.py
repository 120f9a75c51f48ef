"""QueryVis reproduction: logic-based diagrams for SQL queries.

This package reproduces the system described in "QueryVis: Logic-based
diagrams help users understand complicated SQL queries faster" (SIGMOD 2020):

* :func:`queryvis` — the one-call pipeline SQL text → QueryVis diagram;
* :mod:`repro.sql` — parser and formatter for the supported SQL fragment;
* :mod:`repro.logic` — Logic Trees, TRC rendering, the ∄∄ → ∀∃ simplification;
* :mod:`repro.diagram` — diagram construction, recovery (unambiguity) and
  pattern signatures;
* :mod:`repro.pipeline` — the staged diagram compiler: per-stage caches,
  canonical fingerprints (Fig. 24 dedup) and corpus-scale batch rendering
  (:class:`repro.pipeline.DiagramBatchCompiler`);
* :mod:`repro.render` — DOT / SVG / text renderers;
* :mod:`repro.relational` — an in-memory engine used to verify semantics,
  with a plan-based executor (pushdown, hash joins, semi-joins) that runs
  whole workloads over shared caches (:class:`repro.relational.Executor`);
* :mod:`repro.study` and :mod:`repro.stats` — the user-study simulation and
  the pre-registered analysis pipeline of Section 6.
"""

from __future__ import annotations

from .catalog import Schema
from .diagram.model import Diagram
from .logic.simplify import simplify_logic_tree
from .logic.translate import sql_to_logic_tree
from .pipeline import (
    CompiledDiagram,
    DiagramBatchCompiler,
    DiagramCompiler,
    compile_sql,
    fingerprint_sql,
)
from .sql.ast import SelectQuery
from .sql.parser import parse

__version__ = "1.1.0"


def queryvis(
    sql: str | SelectQuery,
    schema: Schema | None = None,
    simplify: bool = True,
) -> Diagram:
    """Translate an SQL query into its QueryVis diagram.

    Parameters
    ----------
    sql:
        SQL text (or an already-parsed :class:`~repro.sql.ast.SelectQuery`)
        in the supported fragment: nested conjunctive queries with
        inequalities, optionally with a GROUP BY clause.
    schema:
        Optional schema used to resolve unqualified column references.
    simplify:
        Apply the ∄∄ → ∀∃ simplification (Section 4.7) before drawing, which
        replaces double negation by universal quantification — the Fig. 2c
        form of a query.  Pass ``False`` for the literal NOT EXISTS form
        (Fig. 2b).

    Returns
    -------
    Diagram
        The QueryVis diagram; render it with
        :func:`repro.render.diagram_to_dot`, :func:`repro.render.diagram_to_svg`
        or :func:`repro.render.diagram_to_text`.
    """
    return compile_sql(sql, schema=schema, simplify=simplify, formats=()).diagram


__all__ = [
    "CompiledDiagram",
    "Diagram",
    "DiagramBatchCompiler",
    "DiagramCompiler",
    "Schema",
    "SelectQuery",
    "__version__",
    "compile_sql",
    "fingerprint_sql",
    "parse",
    "queryvis",
    "simplify_logic_tree",
    "sql_to_logic_tree",
]
