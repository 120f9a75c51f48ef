"""Value comparison semantics for the relational engine.

The supported fragment uses 2-valued logic without NULLs (Section 4.7), so
comparisons are total within a type family: numbers compare numerically,
strings compare lexicographically, and comparing a number with a string is a
type error rather than silently false.
"""

from __future__ import annotations

import operator
from typing import Union

from .errors import TypeMismatchError

Value = Union[int, float, str]

_NUMERIC_TYPES = (int, float)

#: The fragment's six comparison operators as native functions.
OPERATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def value_family(value: Value) -> str:
    """The comparison family of a value: ``"num"`` or ``"str"``."""
    return "num" if isinstance(value, _NUMERIC_TYPES) else "str"


def values_comparable(left: Value, right: Value) -> bool:
    """Return True if the two values belong to the same comparison family."""
    if isinstance(left, _NUMERIC_TYPES) and isinstance(right, _NUMERIC_TYPES):
        return True
    return isinstance(left, str) and isinstance(right, str)


class OrderKey:
    """A sort key over a tuple of values with per-position direction flags.

    Strings cannot be negated, so descending order cannot be expressed by
    flipping the value; instead this comparator reverses the ``<`` test at
    every position whose ``descending`` flag is set.  Comparing keys whose
    values are not in the same type family raises
    :class:`~.errors.TypeMismatchError`, matching ``compare``'s semantics —
    ranked output inherits the engine's no-silent-coercion rule.

    Shared by the planned row engine (heap element key), the columnar
    engine's pure-Python fallback and the naive oracle's full sort, so all
    three rank by identical comparison semantics.
    """

    __slots__ = ("values", "descending")

    def __init__(self, values: tuple[Value, ...], descending: tuple[bool, ...]):
        self.values = values
        self.descending = descending

    def __lt__(self, other: "OrderKey") -> bool:
        for mine, theirs, desc in zip(self.values, other.values, self.descending):
            if not values_comparable(mine, theirs):
                raise TypeMismatchError(
                    f"cannot order {type(mine).__name__} against "
                    f"{type(theirs).__name__} in the same ORDER BY key"
                )
            if mine == theirs:
                continue
            return (mine > theirs) if desc else (mine < theirs)
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderKey):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)


def compare(left: Value, op: str, right: Value) -> bool:
    """Apply a comparison operator from the supported fragment.

    Raises
    ------
    TypeMismatchError
        When ``left`` and ``right`` are not comparable (e.g. str vs number).
    ValueError
        When ``op`` is not one of the six supported operators.
    """
    if not values_comparable(left, right):
        raise TypeMismatchError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )
    apply = OPERATORS.get(op)
    if apply is None:
        raise ValueError(f"unsupported operator {op!r}")
    return apply(left, right)
