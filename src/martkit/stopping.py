"""Stopping times, hitting times, stopped processes, optional stopping.

A stopping time on a finite filtered space is a map atom -> time whose level
sets ``{tau <= i}`` are unions of blocks of the step-``i`` partition.  Times
may be infinite; ``INF`` (IEEE infinity) plays the role of the extended
value, which gives the right total order against plain ints for free
(``min(3, INF) == 3``).

A target set is a closed interval [low, high] of values, a None end
unbounded.  Both hitting times take the first time >= n at which one mask over
the process's twin holds (``_first_entry``): ``hitting`` falls back to the
window end m where that time is past m, ``hitting_unbounded`` to INF.
``stopped_process`` is one gather of the stored values at min(tau, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor
from typing import Optional

import numpy as np

from .measure import FiniteMeasureSpace, _check_rv, _measurable, _threshold, _weighted
from .processes import Classification, Filtration, MartingaleClass, Process, _require_class, is_adapted
from .scalars import INF, Scalar, at_most, close, coerce_scalar, integer

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
    """The closed target set [low, high] of values; a None end is unbounded."""

    low: Optional[Scalar] = None
    high: Optional[Scalar] = None

    @staticmethod
    def at_most(a: Scalar) -> "ValuePredicate":
        """Half-line (-inf, a]."""
        return ValuePredicate(None, a)

    @staticmethod
    def at_least(b: Scalar) -> "ValuePredicate":
        """Half-line [b, inf)."""
        return ValuePredicate(b, None)

    @staticmethod
    def between(a: Scalar, b: Scalar) -> "ValuePredicate":
        """Closed interval [a, b], empty when a > b."""
        return ValuePredicate(a, b)

    def __call__(self, v: Scalar) -> bool:
        return (self.low is None or self.low <= v) and (self.high is None or v <= self.high)


# ---------------------------------------------------------------------------
# Stopping times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoppingTime:
    """Per-atom time, possibly INF.  Finite times go through
    ``scalars.integer`` and are stored as Python ints.  Validity is a property
    of a filtration, checked by :func:`is_stopping_time`, not enforced here."""

    time_of: tuple

    def __post_init__(self) -> None:
        times = tuple(INF if t == INF else integer(t, "stopping time value") for t in self.time_of)
        object.__setattr__(self, "time_of", times)

    @staticmethod
    def of(values) -> "StoppingTime":
        return StoppingTime(time_of=tuple(values))

    @staticmethod
    def constant(n, atom_count: int) -> "StoppingTime":
        n = n if n == INF else integer(n, "n")
        return StoppingTime(time_of=(n,) * integer(atom_count, "atom_count"))

    @property
    def atom_count(self) -> int:
        return len(self.time_of)

    def is_finite(self) -> bool:
        return all(t != INF for t in self.time_of)

    def __le__(self, other: "StoppingTime") -> bool:
        return all(s <= t for s, t in self._pairs(other))

    def _pairs(self, other: "StoppingTime"):
        """(self, other) times atom by atom; both must live on the same atoms."""
        if self.atom_count != other.atom_count:
            raise ValueError("the stopping times live on different atom sets")
        return zip(self.time_of, other.time_of)


def stopping_min(tau: StoppingTime, sigma: StoppingTime) -> StoppingTime:
    return StoppingTime(time_of=tuple(map(min, tau._pairs(sigma))))


def stopping_max(tau: StoppingTime, sigma: StoppingTime) -> StoppingTime:
    return StoppingTime(time_of=tuple(map(max, tau._pairs(sigma))))


def is_stopping_time(tau: StoppingTime, F: Filtration) -> bool:
    """True iff every level set {tau <= i} is a union of blocks of steps[i]."""
    if tau.atom_count != F.atom_count:
        raise ValueError("stopping time and filtration live on different atom sets")
    times = np.array(tau.time_of, dtype=float)
    return all(_measurable(times <= i, "float", F.steps[i]) for i in range(F.horizon + 1))


# ---------------------------------------------------------------------------
# Hitting times
# ---------------------------------------------------------------------------


def _first_entry(f: Process, s: ValuePredicate, n) -> tuple:
    """(entered, first) over atoms: whether the path lies in ``s`` at some
    time >= n, and the first such time (n where there is none), from one mask
    over the twin with the ends of ``s`` on its scale (``_threshold``)."""
    n = integer(n, "n", 0, f.horizon)
    rows, scale = f._twin
    rows = rows[n:]
    inside = np.ones(rows.shape, dtype=bool)
    if s.low is not None:
        inside &= rows >= _threshold(f.mode, coerce_scalar(s.low, f.mode), scale, ceil)
    if s.high is not None:
        inside &= rows <= _threshold(f.mode, coerce_scalar(s.high, f.mode), scale, floor)
    return inside.any(axis=0), n + inside.argmax(axis=0)


def hitting(f: Process, s: ValuePredicate, n: int, m: int) -> tuple:
    """First time in the window [n, m] at which the path value lies in ``s``.

    Per atom: the least j in [n, m] with s(f_j); if there is none, or the
    window is empty (n > m), the window end m.  Always finite.
    """
    m = integer(m, "m", 0, f.horizon)
    entered, first = _first_entry(f, s, n)
    return tuple(np.where(entered & (first <= m), first, m).tolist())


def hitting_unbounded(f: Process, s: ValuePredicate, n: int) -> StoppingTime:
    """First time >= n at which the path enters ``s``; INF when it never does."""
    entered, first = _first_entry(f, s, n)
    return StoppingTime(time_of=tuple(np.where(entered, first.astype(object), INF).tolist()))


def check_hitting_is_stopping_time(f: Process, s: ValuePredicate, n: int, m: int, F: Filtration) -> bool:
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
    steps = np.minimum(np.array(tau.time_of, dtype=float), np.arange(f.horizon + 1)[:, None])
    rows = np.take_along_axis(np.array(f.values, dtype=object), steps.astype(np.intp), axis=0)
    return Process(values=tuple(map(tuple, rows.tolist())), mode=f.mode)


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
    cls = _require_class(space, f, F, classification, MartingaleClass.SUBMARTINGALE,
                         "optional stopping requires a submartingale or martingale")
    _check_rv(space, f.at(0))
    rows, scale = f._twin
    atoms = np.arange(f.atom_count)
    lhs, rhs = _weighted(space, rows[[tau.time_of, sigma.time_of], atoms], scale)
    is_mart = cls.kind == MartingaleClass.MARTINGALE
    return OptionalStoppingReport(
        lhs=lhs,
        rhs=rhs,
        holds=at_most(lhs, rhs, space.mode),
        is_martingale=is_mart,
        equality_holds=close(rhs, lhs, space.mode),
    )
