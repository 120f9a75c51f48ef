"""Deterministic, seeded fault injection for chaos and robustness testing.

Production query engines earn their robustness claims by *injecting* the
failures they promise to survive — torn cache files, dying executors,
flaky IO — under a deterministic seed, so a chaos run is exactly as
reproducible as a unit test.  This module is that discipline for the
repro codebase:

* **Fault points** are declared at call sites::

      from ..faults import fault_point
      fault_point("diskcache.read")              # may raise an injected fault
      blob = fault_point("diskcache.read.bytes", value=blob)  # may corrupt

  A fault point is *free when disabled*: with no plan installed the call
  is one module-global load and a ``None`` check (see
  ``benchmarks/test_bench_faults.py`` for the measured bound), and no
  fault point ever sits inside a per-row loop.

* **Fault plans** activate them.  A :class:`FaultPlan` is a seeded list
  of :class:`FaultRule` entries — each matches points by exact name or
  ``fnmatch`` glob and fires with a probability, on the nth matching
  call, and/or a bounded number of times.  Every random draw comes from
  a per-(rule, point) :class:`random.Random` stream seeded from the
  plan's seed and the point name, so two runs of the same workload under
  the same plan inject byte-identical faults.

* **Fault classes** mirror the real failure taxonomy:

  ==========  ========================================================
  class       effect at the fault point
  ==========  ========================================================
  ``io``      raises :class:`InjectedIOError` (an ``OSError``)
  ``corrupt`` ``bytes`` payloads are deterministically mangled and
              returned; other payloads raise :class:`InjectedCorruption`
  ``latency`` sleeps ``latency_s`` seconds, then returns the payload
  ``crash``   raises :class:`InjectedCrash` (a worker/executor dying)
  ==========  ========================================================

* **Trigger counters** record, per point, how many calls were seen and
  how many faults actually fired — chaos tests assert on them so a plan
  that silently stopped matching fails loudly instead of passing vacuously.

Plans install process-globally (:func:`install_plan` /
:func:`clear_plan` / the :func:`active_plan` context manager) and can be
configured from the environment: ``REPRO_FAULT_PLAN`` holds either inline
JSON or a path to a JSON file (see :meth:`FaultPlan.from_spec`), which is
how the CI chaos leg and the ``repro --fault-plan`` flags feed plans into
subprocesses.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from random import Random
from typing import Any, Iterator

from .metrics import Counters

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedCorruption",
    "InjectedCrash",
    "InjectedFault",
    "InjectedIOError",
    "active_plan",
    "clear_plan",
    "current_plan",
    "fault_point",
    "fault_stats",
    "install_plan",
    "install_plan_from_env",
    "suspended_plan",
]

#: Environment variable holding inline JSON or a path to a plan file.
PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: The fault classes a rule may name.
FAULT_KINDS = ("io", "corrupt", "latency", "crash")


class InjectedFault(Exception):
    """Base class of every injected fault (lets layers catch "chaos only")."""


class InjectedIOError(InjectedFault, OSError):
    """An injected IO failure (read/write/stat on a fragile path)."""


class InjectedCorruption(InjectedFault):
    """An injected data-corruption fault on a non-bytes payload."""


class InjectedCrash(InjectedFault):
    """An injected crash of a worker component (executor thread, process)."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *where* it applies and *when/what* it fires.

    ``point`` matches fault-point names exactly or as an ``fnmatch`` glob
    (``"diskcache.*"``).  A call that matches fires when all of the
    enabled triggers agree:

    * ``probability`` — chance per matching call (1.0 = always), drawn
      from the rule's deterministic per-point random stream;
    * ``nth`` — only the nth matching call fires (1-based);
    * ``times`` — at most this many fires, ever (``None`` = unlimited).
    """

    point: str
    fault: str = "io"
    probability: float = 1.0
    nth: int | None = None
    times: int | None = None
    latency_s: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.fault not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault class {self.fault!r}; known: {FAULT_KINDS}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"point": self.point, "fault": self.fault}
        if self.probability != 1.0:
            payload["probability"] = self.probability
        if self.nth is not None:
            payload["nth"] = self.nth
        if self.times is not None:
            payload["times"] = self.times
        if self.latency_s:
            payload["latency_s"] = self.latency_s
        if self.message:
            payload["message"] = self.message
        return payload


class _RuleState:
    """Mutable per-rule bookkeeping: match counts, fire counts, RNG streams."""

    __slots__ = ("rule", "fires", "matches", "_rngs", "_seed")

    def __init__(self, rule: FaultRule, seed: int) -> None:
        self.rule = rule
        self.fires = 0
        #: matching calls seen per point name (drives ``nth``).
        self.matches: dict[str, int] = {}
        self._rngs: dict[str, Random] = {}
        self._seed = seed

    def rng(self, point: str) -> Random:
        """The rule's deterministic random stream for ``point``.

        Seeded from (plan seed, rule spec, point name) — strings seed
        :class:`random.Random` deterministically across processes, unlike
        built-in ``hash``.
        """
        rng = self._rngs.get(point)
        if rng is None:
            rng = Random(f"{self._seed}|{self.rule.point}|{self.rule.fault}|{point}")
            self._rngs[point] = rng
        return rng


class FaultPlan:
    """A seeded set of :class:`FaultRule` entries plus its trigger counters.

    Plans are cheap, single-use objects: installing one resets nothing —
    its counters accumulate until the plan is discarded, which is what the
    chaos suites assert on.  All mutation is lock-protected because fault
    points fire from server worker threads as well as the main thread.
    """

    def __init__(self, rules: Iterator[FaultRule] | list[FaultRule], seed: int = 0) -> None:
        self.rules = tuple(rules)
        self.seed = seed
        self._states = [_RuleState(rule, seed) for rule in self.rules]
        #: point name -> its ``calls`` and ``fires``.
        self._points: dict[str, Counters] = {}
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------- #

    @classmethod
    def from_spec(cls, spec: "str | Path | dict") -> "FaultPlan":
        """Build a plan from a dict, inline JSON text, or a JSON file path.

        The JSON shape::

            {"seed": 42,
             "rules": [{"point": "engine.sql.execute", "fault": "io",
                        "probability": 0.5, "nth": 3, "times": 2,
                        "latency_s": 0.01, "message": "..."}]}
        """
        if isinstance(spec, Path):
            spec = spec.read_text(encoding="utf-8")
        if isinstance(spec, str):
            text = spec.strip()
            if not text.startswith("{"):
                text = Path(text).read_text(encoding="utf-8")
            spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ValueError(f"fault plan spec must be a JSON object, got {spec!r}")
        rules = [FaultRule(**rule) for rule in spec.get("rules", ())]
        return cls(rules, seed=int(spec.get("seed", 0)))

    def as_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "rules": [rule.as_dict() for rule in self.rules]}

    # -- introspection --------------------------------------------------- #

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-point trigger counters: ``{point: {"calls": n, "fires": m}}``."""
        with self._lock:
            return {point: stats.snapshot() for point, stats in self._points.items()}

    def total_fires(self) -> int:
        with self._lock:
            return sum(stats.fires for stats in self._points.values())

    # -- activation ------------------------------------------------------ #

    def install(self) -> "FaultPlan":
        install_plan(self)
        return self

    @contextmanager
    def active(self) -> "Iterator[FaultPlan]":
        previous = current_plan()
        install_plan(self)
        try:
            yield self
        finally:
            install_plan(previous)

    # -- the hot path ---------------------------------------------------- #

    def trigger(self, point: str, value: Any) -> Any:
        """Evaluate ``point`` against every rule; raise/mutate on a fire."""
        with self._lock:
            stats = self._points.get(point)
            if stats is None:
                stats = self._points[point] = Counters("calls", "fires")
            stats.calls += 1
            fired: _RuleState | None = None
            for state in self._states:
                rule = state.rule
                if point != rule.point and not fnmatchcase(point, rule.point):
                    continue
                matched = state.matches.get(point, 0) + 1
                state.matches[point] = matched
                if rule.times is not None and state.fires >= rule.times:
                    continue
                if rule.nth is not None and matched != rule.nth:
                    continue
                if rule.probability < 1.0 and (
                    state.rng(point).random() >= rule.probability
                ):
                    continue
                state.fires += 1
                stats.fires += 1
                fired = state
                break
        if fired is None:
            return value
        return self._fire(fired, point, value)

    def _fire(self, state: _RuleState, point: str, value: Any) -> Any:
        rule = state.rule
        message = rule.message or f"injected {rule.fault} fault at {point!r}"
        if rule.fault == "io":
            raise InjectedIOError(message)
        if rule.fault == "crash":
            raise InjectedCrash(message)
        if rule.fault == "latency":
            if rule.latency_s > 0:
                time.sleep(rule.latency_s)
            return value
        # corrupt
        if isinstance(value, (bytes, bytearray)):
            return _corrupt_bytes(bytes(value), state.rng(point))
        raise InjectedCorruption(message)


def _corrupt_bytes(blob: bytes, rng: Random) -> bytes:
    """Deterministically mangle ``blob``: truncate or flip bits, never both
    a no-op — even an empty blob comes back visibly wrong."""
    if not blob:
        return b"\xde\xad"
    choice = rng.random()
    if choice < 0.5:
        # torn write: keep a prefix only (possibly empty)
        return blob[: rng.randrange(0, max(1, len(blob) // 2))]
    # bit rot: flip a byte somewhere in the payload
    index = rng.randrange(0, len(blob))
    flipped = blob[index] ^ 0xFF
    return blob[:index] + bytes((flipped,)) + blob[index + 1 :]


# ---------------------------------------------------------------------- #
# module-global activation
# ---------------------------------------------------------------------- #

#: The active plan.  ``None`` means every fault point is a cheap no-op.
_ACTIVE: FaultPlan | None = None


def install_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-globally (``None`` disables injection)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def clear_plan() -> None:
    """Disable fault injection (idempotent)."""
    install_plan(None)


def current_plan() -> FaultPlan | None:
    return _ACTIVE


@contextmanager
def active_plan(plan: FaultPlan) -> "Iterator[FaultPlan]":
    """``with active_plan(plan):`` — scoped installation, restores on exit."""
    with plan.active():
        yield plan


@contextmanager
def suspended_plan() -> "Iterator[None]":
    """Temporarily disable injection, restoring the previous plan on exit.

    Chaos differentials need this for their *baseline* half: the
    fault-free run must stay fault-free even when a plan arrived globally
    via ``REPRO_FAULT_PLAN`` or ``--fault-plan``.
    """
    previous = current_plan()
    install_plan(None)
    try:
        yield
    finally:
        install_plan(previous)


def install_plan_from_env(environ: "dict[str, str] | None" = None) -> FaultPlan | None:
    """Install the plan named by ``REPRO_FAULT_PLAN``, if any.

    Returns the installed plan (or ``None`` when the variable is unset or
    empty).  Called by the CLI so ``repro serve`` / ``repro chaos``
    subprocesses — including CI's chaos leg — pick plans up from the
    environment without new plumbing through every entry point.
    """
    import os

    spec = (environ if environ is not None else os.environ).get(PLAN_ENV_VAR, "")
    if not spec.strip():
        return None
    return install_plan(FaultPlan.from_spec(spec))


def fault_point(name: str, value: Any = None) -> Any:
    """Declare a fault point; returns ``value`` (possibly corrupted).

    The disabled path — no plan installed — is one global load and a
    ``None`` check, so instrumenting a call site costs nothing measurable
    in production.  With a plan installed the call is evaluated against
    every rule under the plan's lock (fault points sit at IO/compile
    granularity, never inside per-row loops).
    """
    plan = _ACTIVE
    if plan is None:
        return value
    return plan.trigger(name, value)


def fault_stats() -> dict[str, dict[str, int]]:
    """Trigger counters of the active plan (empty when none installed)."""
    plan = _ACTIVE
    return plan.stats() if plan is not None else {}
