"""Hash indexes on key columns, kept level with their table by appends.

A :class:`KeyIndex` groups every row of one relation by the values of some
of its columns: the build table of a hash join whose build side is a bare
scan, or the rows a scan filter's ``col = Param(i)`` or ``col = Const``
conjunct selects.  A constant's bucket is the same on every run, and an
append extends it as it extends every other.  It
holds the stored row tuples themselves, in table order, plus the value
types seen in each column of the table.  The types decide whether an
index may answer at all: a probe answered from a bucket skips the rows of
every other bucket, so it is exact only where comparing those rows could
not have raised (:meth:`KeyIndex.holds_only`).

NaN keys are left out of the buckets, here and in every hash build of the
row and columnar engines (:func:`group_by_key`).  NaN equals nothing,
itself included, and a dict would otherwise find the very same NaN object
by identity.

The :class:`~.executor.ExecutionContext` keeps the indexes and brings
each level with its table before use, as it does the columnar tables:
tables only grow, so an index takes in the rows appended since it was
last read (:meth:`KeyIndex.extend`).

An index on one column also reads its table in key order
(:meth:`KeyIndex.in_key_order`), for a ranked block that stops once its
limit is filled.  The first such read sorts the bucket keys, and appends
then insert each new key in place.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain, islice
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Relation
    from .values import Value

_NUMERIC = (int, float)


class KeyIndex:
    """``relation``'s rows grouped by the values of the ``key`` columns."""

    __slots__ = ("key", "buckets", "types", "nrows", "left_out", "sorted_keys")

    def __init__(self, relation: "Relation", key: tuple[int, ...]) -> None:
        self.key = key
        #: Key value (a tuple for several key columns) -> rows, in table order.
        self.buckets: dict = {}
        #: Per column of the table, the Python types of its values.
        self.types: list[set[type]] = [set() for _ in relation.columns]
        self.nrows = 0
        #: Rows whose key holds a NaN, and so went in no bucket.
        self.left_out = 0
        #: The bucket keys in ascending order, from the first ordered read
        #: on; None before it, or once the keys stop sharing one order.
        self.sorted_keys: list | None = None
        self.extend(relation)

    def extend(self, relation: "Relation") -> None:
        """Take in ``relation``'s rows beyond the :attr:`nrows` held here."""
        tail = relation.rows[self.nrows:]
        for seen, values in zip(self.types, zip(*tail)):
            seen.update(map(type, values))
        known = len(self.buckets)
        self.left_out += len(
            group_by_key(tail, itemgetter(*self.key), self.buckets, len(self.key) == 1)
        )
        self.nrows += len(tail)
        added = len(self.buckets) - known
        if self.sorted_keys is not None and added:
            if self.family(self.key[0]) is None:
                self.sorted_keys = None
            else:  # new keys are the last ones the dict took in
                for key in islice(reversed(self.buckets), added):
                    insort(self.sorted_keys, key)

    def orderable(self) -> bool:
        """Whether :meth:`in_key_order` reads every row: the key is one
        column, of one value family (:meth:`family`), with no NaN."""
        return len(self.key) == 1 and not self.left_out and self.family(self.key[0]) is not None

    def in_key_order(self, descending: bool) -> Iterator[tuple]:
        """The indexed rows bucket by bucket, in ascending key order or,
        if ``descending``, descending.  Rows of one bucket are ties.

        Only for an :meth:`orderable` index.
        """
        keys = self.sorted_keys
        if keys is None:
            keys = self.sorted_keys = sorted(self.buckets)
        return chain.from_iterable(
            map(self.buckets.__getitem__, reversed(keys) if descending else keys)
        )

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


def group_by_key(items: Iterable, key_of: Callable, buckets: dict, single: bool) -> list:
    """Append each of ``items`` to the bucket of ``key_of(item)`` in ``buckets``.

    Buckets keep their items in the order given.  A key that is NaN, or
    holds one when it is a tuple (``single`` false), goes in no bucket,
    since NaN matches no probe; those keys are returned, so a caller can
    still check the value family of every key it built from.
    """
    left_out = []
    get = buckets.get
    for item in items:
        key = key_of(item)
        if (key != key) if single else any(value != value for value in key):
            left_out.append(key)
            continue
        bucket = get(key)
        if bucket is None:
            buckets[key] = [item]
        else:
            bucket.append(item)
    return left_out
