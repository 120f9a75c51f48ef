"""Canonical fingerprints for Logic Trees (the Fig. 24 invariance, made a key).

The paper's core claim is that syntactically different spellings of the same
query — ``NOT EXISTS`` / ``NOT IN`` / ``NOT = ANY`` (Fig. 24) — collapse to
one Logic Tree and hence one diagram.  This module turns that claim into an
operational cache key: a deterministic semantic hash of the simplified Logic
Tree that is invariant under

* alias names (alpha-renaming: ``Reserves R`` vs ``Reserves X``),
* the order of commutative predicates within a block,
* the orientation of comparisons (``A.x < B.y`` vs ``B.y > A.x``),
* the order of sibling subquery blocks.

Two queries with equal fingerprints compile to the same diagram, so the
pipeline's diagram/layout/render caches key on the fingerprint and dedupe
whole equivalence classes of a corpus to a single compilation.

The canonicalization is a refinement-based alpha-renaming: each alias gets a
structural signature (table name, depth, quantifier, its selection
predicates), iteratively refined with the signatures of its join neighbours
— a tiny Weisfeiler-Leman pass, ample for the fragment's small trees.
Canonical names ``t1, t2, …`` are then assigned in a canonical traversal
(children ordered by subtree signature).  Refinement cannot tell twins
apart (two ``∃`` blocks of one shape flattened into the root, say), and
naming each tied class by input order on its own can pair one twin with
the other twin's join partner, so predicate order would leak into the
fingerprint.  Joined twins are instead told apart one at a time: one is
ranked first and the ranks are refined again, which carries that choice
to its partners.  Ties refinement misses for other reasons (it is not a
complete isomorphism test) fall back to input order: that can only
*split* an equivalence class (missing a dedup opportunity), never merge
two inequivalent queries.

This is the single hottest cold-path stage, so the implementation avoids
per-node hashing entirely: refinement signatures are *rank-compressed* each
round (feature tuples are sorted and replaced by dense integer ranks — the
classic colour-refinement trick), subtree keys are plain orderable tuples
memoized bottom-up, and every traversal is an explicit work-list instead of
recursion.  Ranks are functions of tree *content* only (never of dict or
input order), so fingerprints stay deterministic across processes and runs
— which the persistent cache and the parallel batch API both rely on.  The
reported fingerprint itself stays SHA-256 over the canonical form.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from ..sql.ast import ColumnRef, Comparison, FLIPPED_OP, SelectQuery
from ..logic.logic_tree import LogicTree, LogicTreeNode
from ..logic.translate import sql_to_logic_tree
from ..logic.simplify import simplify_logic_tree
from ..diagram.build import ensure_unique_aliases, flatten_existential_blocks

#: Minimum refinement rounds (actual count adapts to alias count and stops
#: early once the partition into signature classes is stable).
_REFINEMENT_ROUNDS = 3

#: Most twin ties broken per tree, each costing one more refinement; ties
#: left after that fall back to input order.
_MAX_TWIN_CHOICES = 8

#: Quantifier → feature string (``str(Quantifier)`` is a Python call per
#: node per use; this is one dict probe).  ``None`` maps exactly like the
#: historical ``str(None)`` / serialize-time ``"root"`` spellings.
from ..logic.logic_tree import Quantifier as _Q  # noqa: E402

_QUANT_FEATURE = {
    None: "None",
    _Q.EXISTS: "∃",
    _Q.NOT_EXISTS: "∄",
    _Q.FOR_ALL: "∀",
}
_QUANT_LABEL = {
    None: "root",
    _Q.EXISTS: "∃",
    _Q.NOT_EXISTS: "∄",
    _Q.FOR_ALL: "∀",
}


def fingerprint_sql(query: SelectQuery | str, simplify: bool = True) -> str:
    """Fingerprint an SQL query (text or AST) through the standard stages."""
    if isinstance(query, str):
        from ..sql.parser import parse

        query = parse(query)
    tree = sql_to_logic_tree(query)
    if simplify:
        tree = simplify_logic_tree(tree)
    return fingerprint_logic_tree(tree)


def fingerprint_logic_tree(tree: LogicTree) -> str:
    """SHA-256 hex digest of the canonical form of ``tree``."""
    return fingerprint_and_roles(tree)[0]


def fingerprint_and_roles(
    tree: LogicTree,
) -> tuple[str, tuple[tuple[str, str, str], ...]]:
    """The fingerprint plus the canonical-role → alias assignment.

    The second element maps each canonical name to the concrete (table,
    alias) that plays that role: ``((canonical, table, alias), ...)``,
    sorted.  Two trees with equal fingerprints AND equal role assignments
    build diagrams with identical labelling — which is what makes the pair
    a safe cache key for the diagram/layout/render stages.  Equal
    fingerprints with *different* role assignments (e.g. the selection
    moved from alias A to its structurally symmetric twin B) are the same
    query up to renaming but must not share rendered output.
    """
    form, names, table_of = _canonical_data(tree)
    digest = hashlib.sha256(form.encode("utf-8")).hexdigest()
    roles = tuple(
        sorted((name, table_of[alias], alias) for alias, name in names.items())
    )
    return digest, roles


def canonical_form(tree: LogicTree) -> str:
    """Deterministic serialization of ``tree`` modulo aliases and ordering.

    The tree is preprocessed exactly like diagram construction (unique
    aliases, flattened ∃ blocks) so the fingerprint identifies precisely the
    trees that build the same diagram structure.
    """
    return _canonical_data(tree)[0]


def _canonical_data(
    tree: LogicTree,
) -> tuple[str, dict[str, str], dict[str, str]]:
    tree = flatten_existential_blocks(ensure_unique_aliases(tree))
    index = _TreeIndex(tree)
    ranks = _alias_ranks(tree, index)
    order = _ordered_children_map(tree, index, ranks)
    names = _canonical_names(tree, index, ranks, order)
    body = _serialize(tree.root, index, names, order)
    select = ",".join(_operand_repr(item, names) for item in tree.select_items)
    group_by = ",".join(_column_repr(column, names) for column in tree.group_by)
    head = f"select[{select}] group[{group_by}]"
    # Ranked-output modifiers participate in dedup: the same body with a
    # different ORDER BY / LIMIT / DISTINCT is a different query.  Queries
    # without modifiers keep the historical form (and hence fingerprint).
    if tree.distinct:
        head += " distinct"
    if tree.order_by:
        keys = ",".join(
            _column_repr(item.column, names) + (" desc" if item.descending else "")
            for item in tree.order_by
        )
        head += f" order[{keys}]"
    if tree.limit is not None:
        head += f" limit[{tree.limit}+{tree.offset}]"
    return f"{head} {body}", names, index.table_of


def _needs_child_ordering(index: _TreeIndex) -> bool:
    """Whether any node has siblings to order canonically.

    Subtree keys exist solely to order sibling subquery blocks; in chains
    (every node ≤ 1 child) — the overwhelmingly common shape — the input
    order is the only order and the whole keying pass can be skipped.
    """
    for node, _depth in index.nodes:
        if len(node.children) > 1:
            return True
    return False


class _TreeIndex:
    """One-pass, pre-lowered view of a tree for the canonicalization below.

    Everything the refinement, ordering and serialization steps consume —
    lowered aliases and column names, join orientations, owner-resolved
    predicate attribution — is derived exactly once per tree here, instead
    of re-lowering and re-resolving on every use (the canonicalization
    walks each predicate several times).
    """

    __slots__ = ("nodes", "tables", "preds", "owner_node", "depth_of", "table_of")

    def __init__(self, tree: LogicTree) -> None:
        #: (node, depth) pairs in pre-order.
        self.nodes = list(tree.iter_with_depth())
        #: id(node) → ((alias, table_name), ...), both lowered.
        self.tables: dict[int, tuple[tuple[str, str], ...]] = {}
        #: id(node) → predicate descriptors (see ``_descriptor``).
        self.preds: dict[int, tuple[tuple, ...]] = {}
        #: alias → owning node (aliases are unique after preprocessing).
        self.owner_node: dict[str, LogicTreeNode] = {}
        self.depth_of: dict[str, int] = {}
        self.table_of: dict[str, str] = {}
        for node, depth in self.nodes:
            local = []
            for table in node.tables:
                alias = table.effective_alias.lower()
                name = table.name.lower()
                local.append((alias, name))
                self.owner_node[alias] = node
                self.depth_of[alias] = depth
                self.table_of[alias] = name
            self.tables[id(node)] = tuple(local)
        # Second pass on purpose: descriptors resolve owner aliases, which
        # must all be registered first (correlated predicates may reference
        # an alias owned by an outer node).
        descriptor = self._descriptor
        for node, _depth in self.nodes:
            self.preds[id(node)] = tuple(
                descriptor(predicate, node) for predicate in node.predicates
            )

    def _descriptor(self, predicate: Comparison, node: LogicTreeNode) -> tuple:
        """Pre-resolved rendering/attribution data for one predicate.

        * ``("j", lcol, op, l_explicit, l_owner, rcol, flop, r_explicit,
          r_owner)`` for joins — ``*_explicit`` is the spelled qualifier
          (reprs use it, ``?`` when absent), ``*_owner`` the owner-resolved
          alias the refinement attributes the join to;
        * ``("s", col, op, literal, explicit, owner)`` for selections with
          a column side (literal already rendered);
        * ``("p", text)`` for anything else (rendered verbatim).
        """
        left = predicate.left
        right = predicate.right
        left_is_col = type(left) is ColumnRef
        right_is_col = type(right) is ColumnRef
        if left_is_col and right_is_col:
            return (
                "j",
                left.column.lower(),
                predicate.op,
                left.table.lower() if left.table else None,
                self._owner(left, node),
                right.column.lower(),
                FLIPPED_OP[predicate.op],
                right.table.lower() if right.table else None,
                self._owner(right, node),
            )
        if right_is_col:
            # literal op column — normalize orientation without building a
            # flipped Comparison node (construction validates + allocates).
            column, op, literal = right, FLIPPED_OP[predicate.op], left
        elif left_is_col:
            column, op, literal = left, predicate.op, right
        else:
            return ("p", f"{left} {predicate.op} {right}")
        return (
            "s",
            column.column.lower(),
            op,
            str(literal),
            column.table.lower() if column.table else None,
            self._owner(column, node),
        )

    def _owner(self, column: ColumnRef, node: LogicTreeNode) -> str | None:
        """The alias a column belongs to; local single-table fallback."""
        if column.table is not None:
            alias = column.table.lower()
            return alias if alias in self.owner_node else None
        local = self.tables[id(node)]
        if len(local) == 1:
            return local[0][0]
        return None


def _pred_reprs(descriptors: tuple[tuple, ...], qualifiers: dict) -> list[str]:
    """Orientation-normalized predicate renderings under ``qualifiers``.

    ``qualifiers`` maps aliases to whatever stands in for them (refinement
    ranks while ordering, canonical ``tN`` names while serializing); spelled
    qualifiers that resolve to nothing render as ``?`` — matching the
    historic behavior of qualifying by the *explicit* prefix only.
    """
    out = []
    get = qualifiers.get
    for d in descriptors:
        kind = d[0]
        if kind == "j":
            _, lcol, op, lex, _lo, rcol, flop, rex, _ro = d
            lq = get(lex, "?") if lex else "?"
            rq = get(rex, "?") if rex else "?"
            forward = f"{lq}.{lcol} {op} {rq}.{rcol}"
            backward = f"{rq}.{rcol} {flop} {lq}.{lcol}"
            out.append(forward if forward <= backward else backward)
        elif kind == "s":
            _, col, op, literal, explicit, _owner = d
            prefix = get(explicit, "?") if explicit else "?"
            out.append(f"{prefix}.{col} {op} {literal}")
        else:
            out.append(d[1])
    return out


# ---------------------------------------------------------------------- #
# alias ranks (colour refinement with rank compression)
# ---------------------------------------------------------------------- #


def _compress(features: dict[str, object]) -> tuple[dict[str, int], int]:
    """Replace feature values by dense ranks in sorted-feature order.

    Feature tuples within one round share a shape, so sorting them is
    well-defined; the resulting ranks depend only on tree content, which
    keeps the canonicalization deterministic across processes.
    """
    distinct = sorted(set(features.values()))  # type: ignore[type-var]
    rank_of = {feature: rank for rank, feature in enumerate(distinct)}
    return {alias: rank_of[feature] for alias, feature in features.items()}, len(
        distinct
    )


def _alias_ranks(tree: LogicTree, index: _TreeIndex) -> dict[str, int]:
    """Structural rank per alias, refined over join neighbourhoods."""
    owner = index.owner_node
    if len(owner) == 1:
        # One alias: nothing to discriminate, no features needed.
        return {next(iter(owner)): 0}
    # Fast path: when (table, depth, quantifier) alone discriminates every
    # alias, the finer features (selections, outputs, join neighbourhoods)
    # provably cannot change the ranking — tuples that differ in a prefix
    # compare by that prefix no matter what is appended, and refinement
    # starts (and immediately stops) fully discriminated either way.  Most
    # queries take this exit: tied prefixes need a self-join or a symmetric
    # twin table at the same depth.
    prefix: dict[str, object] = {
        alias: (
            index.table_of[alias],
            index.depth_of[alias],
            _QUANT_FEATURE[owner[alias].quantifier],
        )
        for alias in owner
    }
    ranks, classes = _compress(prefix)
    if classes == len(owner):
        return ranks
    selections: dict[str, list[str]] = {alias: [] for alias in owner}
    joins: dict[str, list[tuple[str, str, str, str]]] = {alias: [] for alias in owner}
    for node, _depth in index.nodes:
        for descriptor in index.preds[id(node)]:
            kind = descriptor[0]
            if kind == "j":
                _, lcol, op, _lex, lo, rcol, flop, _rex, ro = descriptor
                if lo is not None and ro is not None:
                    joins[lo].append((lcol, op, ro, rcol))
                    joins[ro].append((rcol, flop, lo, lcol))
            elif kind == "s":
                _, col, op, literal, _explicit, owning = descriptor
                if owning is not None:
                    selections[owning].append(f"{col}{op}{literal}")

    # SELECT / GROUP BY references are distinguishing features too: without
    # them, the selected table and a structurally symmetric twin would tie
    # and fall back to input order (breaking order-invariance).
    outputs: dict[str, list[str]] = {alias: [] for alias in owner}
    root = tree.root
    for item in tree.select_items:
        column = item if isinstance(item, ColumnRef) else getattr(item, "argument", None)
        if isinstance(column, ColumnRef):
            alias = index._owner(column, root)
            if alias is not None:
                outputs[alias].append(f"sel:{column.column.lower()}")
    for column in tree.group_by:
        alias = index._owner(column, root)
        if alias is not None:
            outputs[alias].append(f"grp:{column.column.lower()}")
    for item in tree.order_by:
        alias = index._owner(item.column, root)
        if alias is not None:
            direction = "desc" if item.descending else "asc"
            outputs[alias].append(f"ord:{item.column.column.lower()}:{direction}")

    initial: dict[str, object] = {
        alias: (
            index.table_of[alias],
            index.depth_of[alias],
            _QUANT_FEATURE[owner[alias].quantifier],
            tuple(sorted(selections[alias])),
            tuple(sorted(outputs[alias])),
        )
        for alias in owner
    }
    ranks, classes = _refine(*_compress(initial), joins)
    # Twins left tied: rank the first of the lowest tied class ahead of the
    # rest and refine again, so its join partners follow the choice.  The
    # choice itself cannot matter when the twins are interchangeable.
    # Tied aliases without joins need none: swapping them changes nothing.
    for _choice in range(_MAX_TWIN_CHOICES):
        if classes == len(owner):
            break
        sizes = Counter(ranks.values())
        twins = [alias for alias, rank in ranks.items() if sizes[rank] > 1 and joins[alias]]
        if not twins:
            break
        first = min(twins, key=lambda alias: (ranks[alias], alias))
        split = {alias: (rank, alias != first) for alias, rank in ranks.items()}
        ranks, classes = _refine(*_compress(split), joins)
    return ranks


def _refine(
    ranks: dict[str, int],
    classes: int,
    joins: dict[str, list[tuple[str, str, str, str]]],
) -> tuple[dict[str, int], int]:
    """``ranks`` refined by the ranks of each alias's join partners."""
    # One round per alias guarantees a distinguishing feature propagates
    # across the whole join graph (Weisfeiler-Leman converges in <= n);
    # refinement is monotone, so it stops as soon as every alias sits in
    # its own class (fully discriminated — the common case, checked before
    # the first join round even runs) or a round fails to split any class.
    for _round in range(max(_REFINEMENT_ROUNDS, len(ranks))):
        if classes == len(ranks):
            break
        refined: dict[str, object] = {
            alias: (
                ranks[alias],
                tuple(
                    sorted(
                        (col, op, ranks[other], other_col)
                        for col, op, other, other_col in joins[alias]
                    )
                ),
            )
            for alias in ranks
        }
        ranks, new_classes = _compress(refined)
        if new_classes == classes:
            break
        classes = new_classes
    return ranks, classes


# ---------------------------------------------------------------------- #
# canonical ordering, naming and serialization
# ---------------------------------------------------------------------- #


def _ordered_children_map(
    tree: LogicTree, index: _TreeIndex, ranks: dict[str, int]
) -> dict[int, tuple[LogicTreeNode, ...]]:
    """Memoized canonical child order per node (keyed by ``id(node)``).

    Subtree keys are computed bottom-up in one pass, so ordering the whole
    tree is O(nodes·log) instead of the O(nodes²) of re-deriving every
    subtree's key at every ancestor — and when no node has more than one
    child (queries are overwhelmingly chains) the keying pass is skipped
    outright, since sibling order is the only thing the keys decide.
    """
    if not _needs_child_ordering(index):
        return {id(node): node.children for node, _depth in index.nodes}
    subtree_key: dict[int, tuple] = {}
    order: dict[int, tuple[LogicTreeNode, ...]] = {}
    # index.nodes is pre-order (parents first), so the reverse visits every
    # child before its parent — no extra tree walk needed.
    for node, _depth in reversed(index.nodes):
        children = node.children
        if len(children) > 1:
            keyed = sorted(
                enumerate(children),
                key=lambda pair: (subtree_key[id(pair[1])], pair[0]),
            )
            order[id(node)] = tuple(child for _index, child in keyed)
            child_keys = tuple(sorted(subtree_key[id(child)] for child in children))
        else:
            order[id(node)] = children
            child_keys = tuple(subtree_key[id(child)] for child in children)
        subtree_key[id(node)] = (
            _QUANT_FEATURE[node.quantifier],
            tuple(sorted(ranks[alias] for alias, _name in index.tables[id(node)])),
            tuple(sorted(_pred_reprs(index.preds[id(node)], ranks))),
            child_keys,
        )
    return order


def _canonical_names(
    tree: LogicTree,
    index: _TreeIndex,
    ranks: dict[str, int],
    order: dict[int, tuple[LogicTreeNode, ...]],
) -> dict[str, str]:
    """Assign t1, t2, … in canonical (pre-order, ordered-children) traversal."""
    names: dict[str, str] = {}
    stack: list[LogicTreeNode] = [tree.root]
    while stack:
        node = stack.pop()
        local = index.tables[id(node)]
        if len(local) == 1:
            names[local[0][0]] = f"t{len(names) + 1}"
        else:
            for _rank, _position, alias in sorted(
                (ranks[alias], position, alias)
                for position, (alias, _name) in enumerate(local)
            ):
                names[alias] = f"t{len(names) + 1}"
        children = order[id(node)]
        if children:
            stack.extend(reversed(children))
    return names


def _serialize(
    root: LogicTreeNode,
    index: _TreeIndex,
    names: dict[str, str],
    order: dict[int, tuple[LogicTreeNode, ...]],
) -> str:
    """Serialize the tree bottom-up (children before parents)."""
    rendered: dict[int, str] = {}
    for node, _depth in reversed(index.nodes):
        node_id = id(node)
        local = index.tables[node_id]
        if len(local) == 1:
            alias, name = local[0]
            tables_text = f"{names[alias]}={name}"
        else:
            tables_text = ",".join(
                sorted(f"{names[alias]}={name}" for alias, name in local)
            )
        descriptors = index.preds[node_id]
        preds_text = (
            ";".join(sorted(_pred_reprs(descriptors, names))) if descriptors else ""
        )
        child_nodes = order[node_id]
        children_text = (
            " ".join(rendered[id(child)] for child in child_nodes)
            if child_nodes
            else ""
        )
        quantifier = _QUANT_LABEL[node.quantifier]
        rendered[node_id] = (
            f"({quantifier} tables[{tables_text}] "
            f"preds[{preds_text}] children[{children_text}])"
        )
    return rendered[id(root)]


def _operand_repr(item, names: dict[str, str]) -> str:
    if isinstance(item, ColumnRef):
        return _column_repr(item, names)
    # AggregateCall: canonicalize the argument column too.
    argument = item.argument
    if isinstance(argument, ColumnRef):
        return f"{item.func.lower()}({_column_repr(argument, names)})"
    return f"{item.func.lower()}({argument})"


def _column_repr(column: ColumnRef, names: dict[str, str]) -> str:
    alias = column.table.lower() if column.table else None
    prefix = names.get(alias, "?") if alias else "?"
    return f"{prefix}.{column.column.lower()}"
