"""Named integer counters: the one counter type behind every layer's stats.

Every counter family in :mod:`repro` is a :class:`Counters`: the LRU's
hits and misses, each pipeline stage's, the disk cache's, each fault
point's, the compile service's and the pool supervisor's, and the
engines' :class:`~repro.relational.executor.ExecutionStats`.  A family
with labels is a ``dict[label, Counters]`` when each label holds several
counts (pipeline stages, fault points), or a :class:`collections.Counter`
when each label holds one (requests per endpoint).

A leaf module: it imports nothing from :mod:`repro`, so any layer may use
it without an import cycle.
"""

from __future__ import annotations

from typing import Mapping


class Counters:
    """Named integers, fixed when the object is made.

    ``Counters("hits", "misses", evictions=0)`` holds three counters, each
    starting at 0 unless given a value; a subclass declares the names all
    its instances hold in ``names``.  Each counter is a plain instance
    attribute, so ``counters.hits += 1`` costs what a dataclass field bump
    costs, and reading an undeclared name raises :class:`AttributeError`.
    There is no lock: the LRU and the fault plans bump theirs under their
    own locks.  A ``Counters`` pickles as a plain object, which is how
    batch workers ship theirs back.
    """

    names: tuple[str, ...] = ()

    def __init__(self, *names: str, **initial: int) -> None:
        for name in (*self.names, *names):
            setattr(self, name, 0)
        for name, value in initial.items():
            setattr(self, name, value)

    def snapshot(self) -> dict[str, int]:
        """Every counter by name, in declaration order."""
        return dict(vars(self))

    def merge(self, other: "Counters | Mapping[str, int]") -> None:
        """Add ``other``'s counters to these, name by name."""
        values = other.snapshot() if isinstance(other, Counters) else other
        for name, value in values.items():
            setattr(self, name, getattr(self, name) + value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"
