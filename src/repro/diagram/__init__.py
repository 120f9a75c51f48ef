"""QueryVis diagrams: model, construction, recovery, patterns and metrics."""

from .build import (
    SELECT_TABLE_ID,
    build_diagram,
    ensure_unique_aliases,
    flatten_existential_blocks,
)
from .inverse import (
    AmbiguousDiagramError,
    consistent_logic_trees,
    logic_trees_match,
    recover_logic_tree,
)
from .metrics import DiagramMetrics, diagram_metrics, element_count
from .model import (
    BoundingBox,
    BoxStyle,
    Diagram,
    DiagramTable,
    Edge,
    Endpoint,
    RowKind,
    TableRow,
)
from .patterns import PatternSignature, pattern_signature, same_pattern
from .proofs import (
    PATH_EDGES,
    build_path_logic_tree,
    enumerate_valid_path_patterns,
    pattern_families,
)
from .validate import InvalidDiagramError, ValidationReport, validate_diagram

__all__ = [
    "AmbiguousDiagramError",
    "BoundingBox",
    "BoxStyle",
    "Diagram",
    "DiagramMetrics",
    "DiagramTable",
    "Edge",
    "Endpoint",
    "InvalidDiagramError",
    "PATH_EDGES",
    "PatternSignature",
    "RowKind",
    "SELECT_TABLE_ID",
    "TableRow",
    "ValidationReport",
    "build_diagram",
    "build_path_logic_tree",
    "consistent_logic_trees",
    "diagram_metrics",
    "element_count",
    "ensure_unique_aliases",
    "enumerate_valid_path_patterns",
    "flatten_existential_blocks",
    "logic_trees_match",
    "pattern_families",
    "pattern_signature",
    "recover_logic_tree",
    "same_pattern",
    "validate_diagram",
]
