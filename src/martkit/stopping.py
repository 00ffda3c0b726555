"""Stopping times, hitting times, stopped processes, optional stopping.

A stopping time on a finite filtered space is a map atom -> time whose level
sets ``{tau <= i}`` are unions of blocks of the step-``i`` partition.  Times
may be infinite; ``INF`` (IEEE infinity) plays the role of the extended
value, which gives the right total order against plain ints for free
(``min(3, INF) == 3``).

Hitting times come in two flavours: a bounded-window form that always returns
a finite index (falling back to the window end when nothing is hit), which
``check_hitting_is_stopping_time`` wraps as a StoppingTime, and an unbounded
form that returns a genuine StoppingTime with INF where the path never enters
the target set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .measure import FiniteMeasureSpace, _check_rv, _measurable, _twin, _weighted
from .processes import Classification, Filtration, MartingaleClass, Process, classify, is_adapted
from .scalars import INF, Mode, Scalar, coerce_scalar, tolerance

__all__ = [
    "StoppingTime",
    "ValuePredicate",
    "is_stopping_time",
    "hitting",
    "hitting_unbounded",
    "check_hitting_is_stopping_time",
    "stopped_process",
    "stopping_min",
    "stopping_max",
    "OptionalStoppingReport",
    "check_optional_stopping",
]


# ---------------------------------------------------------------------------
# Value predicates (target sets on the value axis)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValuePredicate:
    """A target set of values: half-line, closed interval, or arbitrary test.

    The closed forms are ``at_most``, ``at_least`` and ``between``; ``custom``
    wraps any membership callback.
    """

    kind: str  # "at_most" | "at_least" | "between" | "custom"
    a: Optional[Scalar] = None
    b: Optional[Scalar] = None
    fn: Optional[Callable] = None
    label: str = ""

    @staticmethod
    def at_most(a: Scalar) -> "ValuePredicate":
        """Half-line (-inf, a]."""
        return ValuePredicate(kind="at_most", a=a)

    @staticmethod
    def at_least(b: Scalar) -> "ValuePredicate":
        """Half-line [b, inf)."""
        return ValuePredicate(kind="at_least", b=b)

    @staticmethod
    def between(a: Scalar, b: Scalar) -> "ValuePredicate":
        """Closed interval [a, b]."""
        return ValuePredicate(kind="between", a=a, b=b)

    @staticmethod
    def custom(fn: Callable, label: str = "custom") -> "ValuePredicate":
        return ValuePredicate(kind="custom", fn=fn, label=label)

    def coerced(self, mode: Mode) -> "ValuePredicate":
        """Coerce threshold scalars into ``mode`` (rejects floats in exact mode)."""
        if self.kind == "custom":
            return self
        a = None if self.a is None else coerce_scalar(self.a, mode)
        b = None if self.b is None else coerce_scalar(self.b, mode)
        return ValuePredicate(kind=self.kind, a=a, b=b, label=self.label)

    def __call__(self, v: Scalar) -> bool:
        if self.kind == "at_most":
            return v <= self.a
        if self.kind == "at_least":
            return v >= self.b
        if self.kind == "between":
            return self.a <= v <= self.b
        if self.kind == "custom":
            return bool(self.fn(v))
        raise ValueError(f"unknown predicate kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Stopping times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoppingTime:
    """Per-atom time, possibly INF.  Validity is a property of a filtration,
    checked by :func:`is_stopping_time`, not enforced here."""

    time_of: tuple

    def __post_init__(self) -> None:
        for t in self.time_of:
            if t == INF:
                continue
            if not isinstance(t, int) or isinstance(t, bool) or t < 0:
                raise ValueError(f"stopping time values must be naturals or INF, got {t!r}")

    @staticmethod
    def of(values) -> "StoppingTime":
        return StoppingTime(time_of=tuple(values))

    @staticmethod
    def constant(n, atom_count: int) -> "StoppingTime":
        return StoppingTime(time_of=(n,) * atom_count)

    @property
    def atom_count(self) -> int:
        return len(self.time_of)

    def is_finite(self) -> bool:
        return all(t != INF for t in self.time_of)

    def __le__(self, other: "StoppingTime") -> bool:
        return all(s <= t for s, t in zip(self.time_of, other.time_of))


def stopping_min(tau: StoppingTime, sigma: StoppingTime) -> StoppingTime:
    return StoppingTime(time_of=tuple(min(s, t) for s, t in zip(tau.time_of, sigma.time_of)))


def stopping_max(tau: StoppingTime, sigma: StoppingTime) -> StoppingTime:
    return StoppingTime(time_of=tuple(max(s, t) for s, t in zip(tau.time_of, sigma.time_of)))


def is_stopping_time(tau: StoppingTime, F: Filtration) -> bool:
    """True iff every level set {tau <= i} is a union of blocks of steps[i]."""
    if tau.atom_count != F.atom_count:
        raise ValueError("stopping time and filtration live on different atom sets")
    times = np.array(tau.time_of, dtype=float)
    return all(_measurable(times <= i, "float", F.steps[i]) for i in range(F.horizon + 1))


# ---------------------------------------------------------------------------
# Hitting times
# ---------------------------------------------------------------------------


def hitting(f: Process, s: ValuePredicate, n: int, m: int) -> tuple:
    """First time in the window [n, m] at which the path value lies in ``s``.

    Per atom: the least j in [n, m] with s(f_j); if there is none, or the
    window is empty (n > m), the window end m.  Always finite.
    """
    if not 0 <= n <= f.horizon or not 0 <= m <= f.horizon:
        raise ValueError("hitting window must lie within the horizon")
    s = s.coerced(f.mode)
    out = []
    for w in range(f.atom_count):
        hit = m
        for j in range(n, m + 1):
            if s(f.values[j][w]):
                hit = j
                break
        out.append(hit)
    return tuple(out)


def hitting_unbounded(f: Process, s: ValuePredicate, n: int) -> StoppingTime:
    """First time >= n at which the path enters ``s``; INF when it never does."""
    if not 0 <= n <= f.horizon:
        raise ValueError("hitting window must lie within the horizon")
    s = s.coerced(f.mode)
    out = []
    for w in range(f.atom_count):
        hit = INF
        for j in range(n, f.horizon + 1):
            if s(f.values[j][w]):
                hit = j
                break
        out.append(hit)
    return StoppingTime(time_of=tuple(out))


def check_hitting_is_stopping_time(
    f: Process, s: ValuePredicate, n: int, m: int, F: Filtration
) -> bool:
    """Wrap the bounded hitting time of an adapted process and validate it."""
    if not is_adapted(f, F):
        raise ValueError("hitting time validity requires an adapted process")
    tau = StoppingTime(time_of=hitting(f, s, n, m))
    return is_stopping_time(tau, F)


# ---------------------------------------------------------------------------
# Stopped processes and optional stopping
# ---------------------------------------------------------------------------


def stopped_process(f: Process, tau: StoppingTime) -> Process:
    """g_n(w) = f_{min(tau(w), n)}(w).  INF entries leave the path unstopped."""
    if tau.atom_count != f.atom_count:
        raise ValueError("stopping time and process live on different atom sets")
    rows = []
    for nn in range(f.horizon + 1):
        rows.append(tuple(f.values[min(tau.time_of[w], nn)][w] for w in range(f.atom_count)))
    return Process(values=tuple(rows), mode=f.mode)


@dataclass(frozen=True)
class OptionalStoppingReport:
    lhs: Scalar  # integral of f at tau
    rhs: Scalar  # integral of f at sigma
    holds: bool
    is_martingale: bool
    equality_holds: bool


def check_optional_stopping(
    space: FiniteMeasureSpace,
    f: Process,
    F: Filtration,
    tau: StoppingTime,
    sigma: StoppingTime,
    classification: Optional[Classification] = None,
    tol: Optional[float] = None,
) -> OptionalStoppingReport:
    """Fair-game check: for a (sub)martingale and bounded stopping times
    tau <= sigma, the stopped expectations satisfy mu[f_tau] <= mu[f_sigma],
    with equality in the martingale case.
    """
    if not (tau.is_finite() and sigma.is_finite()):
        raise ValueError("optional stopping requires bounded (finite) stopping times")
    if not all(t <= f.horizon for t in sigma.time_of):
        raise ValueError("stopping times must not exceed the horizon")
    if not tau <= sigma:
        raise ValueError("optional stopping requires tau <= sigma pointwise")
    if not (is_stopping_time(tau, F) and is_stopping_time(sigma, F)):
        raise ValueError("both times must be stopping times for the filtration")
    cls = classification if classification is not None else classify(space, f, F, tol=tol)
    if not cls.is_at_least(MartingaleClass.SUBMARTINGALE):
        raise ValueError("optional stopping requires a submartingale or martingale")
    _check_rv(space, f.at(0))
    rows, scale = _twin(f)
    atoms = np.arange(f.atom_count)
    lhs, rhs = _weighted(space, rows[[tau.time_of, sigma.time_of], atoms], scale)
    eps = tolerance(space.mode, tol)
    is_mart = cls.kind == MartingaleClass.MARTINGALE
    return OptionalStoppingReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + eps,
        is_martingale=is_mart,
        equality_holds=abs(rhs - lhs) <= eps,
    )
