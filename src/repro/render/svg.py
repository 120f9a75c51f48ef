"""Standalone SVG renderer for QueryVis diagrams.

GraphViz is unavailable offline, so this renderer substitutes for it: it
draws the same marks (table composite marks, dashed/double bounding boxes,
lines with arrowheads and operator labels) using the layered layout from
:mod:`repro.render.layout`.  The output is a self-contained SVG document.
"""

from __future__ import annotations

from ..diagram.model import BoxStyle, Diagram, RowKind
from .layout import Layout, LayoutConfig, layout_diagram

_FONT = "font-family=\"Helvetica, Arial, sans-serif\" font-size=\"12\""


def diagram_to_svg(
    diagram: Diagram,
    layout: Layout | None = None,
    config: LayoutConfig | None = None,
) -> str:
    """Render ``diagram`` as an SVG document string.

    Pass a precomputed ``layout`` (the pipeline's layout stage does) to share
    one layout computation across renderers; otherwise one is derived here
    from ``config``.
    """
    layout = layout or layout_diagram(diagram, config=config)
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{layout.width:.0f}" '
        f'height="{layout.height:.0f}" viewBox="0 0 {layout.width:.0f} {layout.height:.0f}">'
    )
    parts.append(_arrow_marker())
    parts.extend(_render_boxes(diagram, layout))
    parts.extend(_render_edges(diagram, layout))
    parts.extend(_render_tables(diagram, layout))
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------- #
# internals
# ---------------------------------------------------------------------- #


def _arrow_marker() -> str:
    return (
        "<defs><marker id=\"arrow\" markerWidth=\"8\" markerHeight=\"8\" refX=\"7\" "
        "refY=\"3\" orient=\"auto\"><path d=\"M0,0 L7,3 L0,6 z\" fill=\"#333\"/></marker></defs>"
    )


def _render_tables(diagram: Diagram, layout: Layout) -> list[str]:
    parts: list[str] = []
    for table in diagram.tables:
        placement = layout.placement(table.table_id)
        header_fill = "#bbbbbb" if table.is_select else "#000000"
        header_color = "#000000" if table.is_select else "#ffffff"
        parts.append(
            f'<rect x="{placement.x}" y="{placement.y}" width="{placement.width}" '
            f'height="{placement.height}" fill="#ffffff" stroke="#333333"/>'
        )
        parts.append(
            f'<rect x="{placement.x}" y="{placement.y}" width="{placement.width}" '
            f'height="{placement.header_height}" fill="{header_fill}"/>'
        )
        parts.append(
            f'<text x="{placement.x + 6}" y="{placement.y + placement.header_height - 7}" '
            f'fill="{header_color}" {_FONT} font-weight="bold">{_escape(table.name)}</text>'
        )
        for index, row in enumerate(table.rows):
            row_y = placement.y + placement.header_height + index * placement.row_height
            fill = None
            if row.kind is RowKind.SELECTION:
                fill = "#ffffaa"
            elif row.kind is RowKind.GROUP_BY:
                fill = "#dddddd"
            elif row.kind in (RowKind.ORDER_BY, RowKind.LIMIT):
                fill = "#cce8ff"
            if fill:
                parts.append(
                    f'<rect x="{placement.x}" y="{row_y}" width="{placement.width}" '
                    f'height="{placement.row_height}" fill="{fill}"/>'
                )
            parts.append(
                f'<text x="{placement.x + 6}" y="{row_y + placement.row_height - 7}" '
                f'fill="#000000" {_FONT}>{_escape(row.label)}</text>'
            )
    return parts


def _render_boxes(diagram: Diagram, layout: Layout) -> list[str]:
    parts: list[str] = []
    padding = 12.0
    for box in diagram.boxes:
        placements = [layout.placement(table_id) for table_id in box.table_ids]
        left = min(p.x for p in placements) - padding
        top = min(p.y for p in placements) - padding
        right = max(p.right for p in placements) + padding
        bottom = max(p.bottom for p in placements) + padding
        if box.style is BoxStyle.NOT_EXISTS:
            parts.append(
                f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
                'fill="none" stroke="#555555" stroke-dasharray="6,4" rx="10"/>'
            )
        else:
            parts.append(
                f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
                'fill="none" stroke="#555555" rx="10"/>'
            )
            parts.append(
                f'<rect x="{left - 4}" y="{top - 4}" width="{right - left + 8}" '
                f'height="{bottom - top + 8}" fill="none" stroke="#555555" rx="12"/>'
            )
    return parts


def _render_edges(diagram: Diagram, layout: Layout) -> list[str]:
    parts: list[str] = []
    row_indexes: dict[str, dict[str, int]] = {}

    def row_index(table_id: str, row_key: str) -> int:
        """Position of the table's first row with ``row_key`` (any case), else 0."""
        index = row_indexes.get(table_id)
        if index is None:
            index = {}
            for position, row in enumerate(diagram.table(table_id).rows):
                index.setdefault(row.key.lower(), position)
            row_indexes[table_id] = index
        return index.get(row_key.lower(), 0)

    for edge in diagram.edges:
        source_placement = layout.placement(edge.source.table_id)
        target_placement = layout.placement(edge.target.table_id)
        source_index = row_index(edge.source.table_id, edge.source.row_key)
        target_index = row_index(edge.target.table_id, edge.target.row_key)
        _, source_y = source_placement.row_anchor(source_index)
        _, target_y = target_placement.row_anchor(target_index)
        if source_placement.x <= target_placement.x:
            x1 = source_placement.right
            x2 = target_placement.x
        else:
            x1 = source_placement.x
            x2 = target_placement.right
        marker = ' marker-end="url(#arrow)"' if edge.directed else ""
        parts.append(
            f'<line x1="{x1}" y1="{source_y}" x2="{x2}" y2="{target_y}" '
            f'stroke="#333333" stroke-width="1.2"{marker}/>'
        )
        if edge.operator:
            mid_x = (x1 + x2) / 2
            mid_y = (source_y + target_y) / 2 - 4
            parts.append(
                f'<text x="{mid_x}" y="{mid_y}" text-anchor="middle" {_FONT}>'
                f"{_escape(edge.operator)}</text>"
            )
    return parts


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
