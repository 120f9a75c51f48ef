"""Hash indexes on key columns, kept level with their table by appends.

A :class:`KeyIndex` groups every row of one relation by the values of some
of its columns: the build table of a hash join whose build side is a bare
scan, or the rows a correlated ``col = Param(i)`` conjunct selects.  It
holds the stored row tuples themselves, in table order, plus the value
types seen in each column of the table.  The types decide whether an
index may answer at all: a probe answered from a bucket skips the rows of
every other bucket, so it is exact only where comparing those rows could
not have raised (:meth:`KeyIndex.holds_only`).

NaN keys are left out of the buckets.  NaN equals nothing, itself
included, and a dict would otherwise find the very same NaN object by
identity.

The :class:`~.executor.ExecutionContext` keeps the indexes and brings
each level with its table before use, by the rule it applies to the
columnar tables: an index that holds fewer rows than the table takes in
the tail (:meth:`KeyIndex.extend`), and one that holds more is built again.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Relation
    from .values import Value

_NUMERIC = (int, float)


class KeyIndex:
    """``relation``'s rows grouped by the values of the ``key`` columns."""

    __slots__ = ("key", "buckets", "types", "nrows")

    def __init__(self, relation: "Relation", key: tuple[int, ...]) -> None:
        self.key = key
        #: Key value (a tuple for several key columns) -> rows, in table order.
        self.buckets: dict = {}
        #: Per column of the table, the Python types of its values.
        self.types: list[set[type]] = [set() for _ in relation.columns]
        self.nrows = 0
        self.extend(relation)

    def extend(self, relation: "Relation") -> None:
        """Take in ``relation``'s rows beyond the :attr:`nrows` held here."""
        tail = relation.rows[self.nrows:]
        for seen, values in zip(self.types, zip(*tail)):
            seen.update(map(type, values))
        buckets = self.buckets
        get = buckets.get
        single = len(self.key) == 1
        key_of = itemgetter(*self.key)
        for row in tail:
            key = key_of(row)
            if (key != key) if single else any(value != value for value in key):
                continue  # NaN matches no probe
            bucket = get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)
        self.nrows += len(tail)

    def family(self, column: int) -> str | None:
        """``"num"`` or ``"str"`` when every value of ``column`` is of that
        family; None when the column mixes them, holds other types, or the
        table is empty."""
        types = self.types[column]
        if not types:
            return None
        if all(issubclass(kind, _NUMERIC) for kind in types):
            return "num"
        if all(issubclass(kind, str) for kind in types):
            return "str"
        return None

    def holds_only(self, column: int, value: "Value") -> bool:
        """Whether ``column`` holds values of ``value``'s family alone, so
        comparing any of its values with ``value`` cannot raise."""
        family = self.family(column)
        if family == "num":
            return isinstance(value, _NUMERIC)
        return family == "str" and isinstance(value, str)
