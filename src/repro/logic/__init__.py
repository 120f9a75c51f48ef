"""Logic layer: Logic Trees, TRC rendering, simplification and evaluation.

:func:`evaluate_logic_tree` is imported on first access (PEP 562): its
module runs Logic Trees on :mod:`repro.relational`, which a process that
only compiles diagrams never needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import DegenerateQueryError, EvaluationError, LogicError, TranslationError
from .logic_tree import LogicTree, LogicTreeNode, Quantifier
from .properties import (
    MAX_SUPPORTED_DEPTH,
    PropertyReport,
    check_properties,
    is_non_degenerate,
    validate_for_diagram,
)
from .simplify import count_universal_nodes, simplify_logic_tree
from .translate import sql_to_logic_tree
from .trc import TRCExpression, logic_tree_to_trc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .evaluate import evaluate_logic_tree


def __getattr__(name: str):
    if name != "evaluate_logic_tree":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .evaluate import evaluate_logic_tree

    globals()[name] = evaluate_logic_tree
    return evaluate_logic_tree


__all__ = [
    "DegenerateQueryError",
    "EvaluationError",
    "LogicError",
    "LogicTree",
    "LogicTreeNode",
    "MAX_SUPPORTED_DEPTH",
    "PropertyReport",
    "Quantifier",
    "TRCExpression",
    "TranslationError",
    "check_properties",
    "count_universal_nodes",
    "evaluate_logic_tree",
    "is_non_degenerate",
    "logic_tree_to_trc",
    "simplify_logic_tree",
    "sql_to_logic_tree",
    "validate_for_diagram",
]
