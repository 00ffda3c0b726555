"""Upper/lower crossing times, upcrossing counts, and the upcrossing estimate.

The crossing chain per atom: sigma_0 = 0; tau_k is the first time in
[sigma_k, N] at which the path is <= a; sigma_{k+1} the first time in
[tau_k, N] at which it is >= b.  Both hitting scans fall back to N, so the
chain is nondecreasing and interleaved, 0 = sigma_0 <= tau_0 <= sigma_1 <= ...
and stabilizes: once sigma_{k+1} == sigma_k every later row repeats.

``upcrossings_before(a, b, f, N)`` is the largest n in 0..N with sigma_n < N
(0 when N = 0).  For a < b this counts the upcrossings of the band completed
strictly before N; a >= b is deliberately allowed, the estimate's left side
is then nonpositive.

Counts come from one state machine that steps through times 0..N-1 with
array operations over every atom (or, for
:func:`martkit.montecarlo.count_upcrossings_batch`, every trial) at once,
reading only the masks "value <= a" and "value >= b".  Float masks compare
one array of the rows; exact masks compare the process's integer numerators
(``Process._numerators``) with the band edges moved onto their scale, so no
``Fraction`` is compared.  Crossing times (``crossing_table``,
``upper_crossing``, ``lower_crossing``) and the band translation identity
instead scan each atom's path, read from the same rows, once into its
unbounded chain and clip it at every N.  There is no memo.  The N-bounded
recursion and a single-pass scanner live in the test suite as oracles.

A float process derives its rows once as a read-only float64 matrix
(``Process._matrix``); the float masks slice it, and the estimates take both
sides from it and the space's weight vector: the left side from the counts
array, each right side mu[(f_N - a)^+] from row N, and the sup form's H + 1
right sides from one pass over the matrix.  Those sums add left to right from
+0.0 in ascending atom order (``measure._float_sums``); exact estimates add
products of the space's and the process's integer numerators and build one
``Fraction`` per side.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from operator import mul
from typing import Iterable, Optional

import numpy as np

from .measure import FiniteMeasureSpace, _check_rv, _float_sums
from .processes import Classification, Filtration, MartingaleClass, Process, classify
from .scalars import (
    INF,
    Scalar,
    coerce_scalar,
    positive_part,
    tolerance,
)

__all__ = [
    "Band",
    "CrossingTable",
    "crossing_table",
    "upper_crossing",
    "lower_crossing",
    "upcrossings_before",
    "upcrossings",
    "UpcrossingEstimateReport",
    "check_upcrossing_estimate",
    "UpcrossingSupReport",
    "check_upcrossing_estimate_sup",
    "BandTranslationReport",
    "band_translation_identity",
]


@dataclass(frozen=True)
class Band:
    """Value band (a, b).  a < b is deliberately not required; the estimate
    stays valid (and vacuous) for a >= b."""

    a: Scalar
    b: Scalar

    def coerced(self, mode) -> "Band":
        return Band(a=coerce_scalar(self.a, mode), b=coerce_scalar(self.b, mode))


@dataclass(frozen=True)
class CrossingTable:
    """sigma/tau values by recursion row: sigma[k][atom], tau[k][atom]."""

    sigma: tuple
    tau: tuple
    N: int

    def validate(self) -> None:
        """Chain inequalities 0 = sigma_0 <= tau_0 <= sigma_1 <= ... <= N."""
        atoms = range(len(self.sigma[0]))
        for w in atoms:
            if self.sigma[0][w] != 0:
                raise AssertionError("sigma_0 must be 0")
            prev = 0
            for k in range(len(self.sigma)):
                s, t = self.sigma[k][w], self.tau[k][w]
                if not (prev <= s <= t <= self.N):
                    raise AssertionError(f"chain order violated at row {k}, atom {w}")
                prev = t


# ---------------------------------------------------------------------------
# Chain construction: every N-dependent quantity is read off one unbounded chain.
# ---------------------------------------------------------------------------


def _atom_chain(path, a: Scalar, b: Scalar) -> tuple:
    """(sigmas, taus, stick) of one path with no time bound: the finite sigma_k
    and tau_k, then the time from which every row repeats (a value both <= a
    and >= b, so only when a >= b), or INF, the value of every later row."""
    sigmas = [0]
    taus = []
    want_low = True
    for t, v in enumerate(path):
        while True:  # one value may close several legs at the same time
            if want_low:
                if not v <= a:
                    break
                taus.append(t)
            else:
                if not v >= b:
                    break
                if t == sigmas[-1]:
                    return sigmas, taus, t
                sigmas.append(t)
            want_low = not want_low
    return sigmas, taus, INF


def _scaled(band: Band, f: Process) -> tuple:
    """(rows, low, high): f's derived matrix and edges with v <= a iff
    v <= low and v >= b iff v >= high on its entries.  In float mode those are
    the float64 rows and the band's own edges.  In exact mode they are the
    integer numerators over f's denominator den and the edges moved onto the
    same scale: an integer n has n/den <= a iff n <= floor(a * den), and
    n/den >= b iff n >= ceil(b * den), so no Fraction is compared."""
    bd = band.coerced(f.mode)
    if f.mode == "float":
        return f._matrix, bd.a, bd.b
    rows, den = f._numerators
    return rows, floor(bd.a * den), ceil(bd.b * den)


def _shifted(band: Band, f: Process, times) -> tuple:
    """((f_n - a)^+ for the rows n that ``times`` indexes, their scale): float64
    rows and 1 in float mode, where v > a exactly when v - a > 0, as a
    difference of finite doubles is 0 only for equal operands.  In exact mode,
    with a = p/q and f's denominator den, the integer numerators
    (n q - p den)^+ over the scale den q."""
    rows, low, _ = _scaled(band, f)
    rows = rows[times]
    if f.mode == "float":
        return np.where(rows > low, rows - low, 0.0), 1
    a, den = band.coerced("exact").a, f._numerators[1]
    return np.where(rows > low, rows * a.denominator - a.numerator * den, 0), den * a.denominator


def _chains(band: Band, f: Process) -> list:
    """Each atom's unbounded chain: float paths read f's values, exact ones
    its integer numerators against the ``_scaled`` edges."""
    if f.mode == "float":
        bd = band.coerced("float")
        return [_atom_chain(path, bd.a, bd.b) for path in zip(*f.values)]
    rows, low, high = _scaled(band, f)
    return [_atom_chain(path, low, high) for path in rows.T.tolist()]


def _check_bound(f: Process, N: int, n: int = 0) -> None:
    if not 0 <= N <= f.horizon:
        raise ValueError("N must lie within the horizon")
    if n < 0:
        raise ValueError("n must be >= 0")


def _row(chain: tuple, which: int, n: int):
    """Unbounded sigma_n (which = 0) or tau_n (which = 1)."""
    return chain[which][n] if n < len(chain[which]) else chain[2]


def _count_before(chain: tuple, N: int) -> int:
    """Largest n in 0..N with sigma_n < N (0 when N = 0)."""
    if N == 0:
        return 0
    if chain[2] < N:
        # stuck strictly below N: sigma_n < N for every n, so the count
        # tops out at N (reachable only when a >= b)
        return N
    return bisect_left(chain[0], N) - 1


def crossing_table(band: Band, f: Process, N: int) -> CrossingTable:
    """Chain rows at bound N, up to (and including) the first repeat: an
    atom's rows end at the first k with sigma_k >= N or with the chain stuck
    at sigma_k, so its bounded chain has k + 2 sigma rows."""
    _check_bound(f, N)
    chains = _chains(band, f)
    rows = 2 + max(bisect_left(c[0], N) - (c[2] < N) for c in chains)
    sigma, tau = (
        tuple(tuple(min(_row(c, which, k), N) for c in chains) for k in range(rows))
        for which in (0, 1)
    )
    return CrossingTable(sigma=sigma, tau=tau, N=N)


def upper_crossing(band: Band, f: Process, N: int, n: int) -> tuple:
    """sigma_n per atom: time the n-th upcrossing of the band completes
    (0 for n = 0, N once the chain has run out of crossings)."""
    _check_bound(f, N, n)
    return tuple(min(_row(c, 0, n), N) for c in _chains(band, f))


def lower_crossing(band: Band, f: Process, N: int, n: int) -> tuple:
    """tau_n per atom: first visit below a at or after sigma_n."""
    _check_bound(f, N, n)
    return tuple(min(_row(c, 1, n), N) for c in _chains(band, f))


# ---------------------------------------------------------------------------
# Upcrossing counts: one state machine over time, vectorised over atoms.
# ---------------------------------------------------------------------------


def _count_upcrossings(masks: Iterable, width: int, N: int, overlap: bool) -> np.ndarray:
    """Upcrossings before N of ``width`` atoms or trials, as an int64 array.

    ``masks`` yields, for t = 0..N-1, the bool arrays (value <= a, value >= b).
    A row is armed by a value <= a; an armed row completes an upcrossing (its
    next sigma) at a value >= b.  ``overlap`` says a >= b: a value that is
    both then sticks the chain, and a row stuck before N counts N.  For a < b
    no value is both, so the loop skips that test.
    """
    armed = np.zeros(width, dtype=bool)
    counts = np.zeros(width, dtype=np.int64)
    stuck = np.zeros(width, dtype=bool)
    for low, high in masks:
        done = armed & high
        counts += done
        armed ^= done  # done is within armed: disarm those rows
        armed |= low
        if overlap:
            stuck |= low & high
    counts[stuck] = N
    return counts


def _counts(band: Band, f: Process, N: int) -> np.ndarray:
    """``upcrossings_before`` as an int64 array over atoms."""
    _check_bound(f, N)
    bd = band.coerced(f.mode)
    rows, low, high = _scaled(bd, f)
    return _count_upcrossings(zip(rows[:N] <= low, rows[:N] >= high), f.atom_count, N, bd.a >= bd.b)


def upcrossings_before(band: Band, f: Process, N: int) -> tuple:
    """Largest n in 0..N with sigma_n < N, per atom (0 when N = 0)."""
    return tuple(_counts(band, f, N).tolist())


def upcrossings(band: Band, f: Process) -> tuple:
    """Supremum over N <= horizon of upcrossings_before, per atom.

    The count is nondecreasing in N, so the supremum is the count at the
    horizon.  The codomain mirrors an extended nonnegative count; on a
    finite horizon the value is always a finite int.
    """
    return upcrossings_before(band, f, f.horizon)


# ---------------------------------------------------------------------------
# The upcrossing estimate
# ---------------------------------------------------------------------------


def _require_submartingale(
    space: FiniteMeasureSpace,
    f: Process,
    F: Filtration,
    classification: Optional[Classification],
    tol: Optional[float],
) -> Classification:
    cls = classification if classification is not None else classify(space, f, F, tol=tol)
    if not cls.is_at_least(MartingaleClass.SUBMARTINGALE):
        raise ValueError("the upcrossing estimate requires a submartingale or martingale")
    return cls


def _count_integral(space: FiniteMeasureSpace, counts: np.ndarray) -> Scalar:
    """mu[U] of an int64 array of counts over the atoms."""
    if space.mode == "exact":
        weights, unit = space._numerators
        return Fraction(sum(map(mul, weights.tolist(), counts.tolist())), unit)
    return _float_sums(space._weight_vector * counts).tolist()


def _excesses(space: FiniteMeasureSpace, f: Process, band: Band, times) -> list:
    """The estimate's right sides mu[(f_n - a)^+] for n in ``times``, each one
    weighted sum over the atoms of a row of ``_shifted``: left to right in
    float mode, in integers and one Fraction per side in exact mode."""
    rows, scale = _shifted(band, f, list(times))
    if space.mode == "exact":
        weights, unit = space._numerators
        return [Fraction(sum(map(mul, weights.tolist(), row)), unit * scale) for row in rows.tolist()]
    return _float_sums(space._weight_vector * rows).tolist()


@dataclass(frozen=True)
class UpcrossingEstimateReport:
    a: Scalar
    b: Scalar
    N: int
    lhs: Scalar  # (b - a) * integral of upcrossings_before
    rhs: Scalar  # integral of (f_N - a)^+
    holds: bool


def check_upcrossing_estimate(
    space: FiniteMeasureSpace,
    band: Band,
    f: Process,
    F: Filtration,
    N: int,
    classification: Optional[Classification] = None,
    tol: Optional[float] = None,
) -> UpcrossingEstimateReport:
    """(b - a) * mu[U_N] <= mu[(f_N - a)^+] for submartingales.

    a >= b is allowed: the left side is then nonpositive and the right side
    nonnegative, so the inequality is automatic.
    """
    _require_submartingale(space, f, F, classification, tol)
    _check_rv(space, f.at(0))
    bd = band.coerced(f.mode)
    lhs = (bd.b - bd.a) * _count_integral(space, _counts(band, f, N))
    rhs = _excesses(space, f, band, [N])[0]
    eps = tolerance(space.mode, tol)
    return UpcrossingEstimateReport(a=bd.a, b=bd.b, N=N, lhs=lhs, rhs=rhs, holds=lhs <= rhs + eps)


@dataclass(frozen=True)
class UpcrossingSupReport:
    a: Scalar
    b: Scalar
    coefficient: Scalar  # (b - a)^+ as an extended nonnegative scalar
    lhs: Scalar
    rhs: Scalar
    argmax_n: int  # the N realizing the right-side supremum
    holds: bool


def check_upcrossing_estimate_sup(
    space: FiniteMeasureSpace,
    band: Band,
    f: Process,
    F: Filtration,
    classification: Optional[Classification] = None,
    tol: Optional[float] = None,
    check_classification: bool = True,
) -> UpcrossingSupReport:
    """Sup form: (b-a)^+ * lintegral(upcrossings) <= sup_N lintegral((f_N - a)^+).

    On a finite horizon every count and integral is finite, so the extended
    product with 0 * inf = 0 is the plain product.  ``check_classification=False``
    skips the submartingale gate and evaluates the arithmetic only (the
    inequality is not guaranteed then).
    """
    if check_classification:
        _require_submartingale(space, f, F, classification, tol)
    _check_rv(space, f.at(0))
    bd = band.coerced(f.mode)
    coeff = positive_part(bd.b - bd.a)
    lhs = coeff * _count_integral(space, _counts(band, f, f.horizon))
    rhs = _excesses(space, f, band, range(f.horizon + 1))
    best_n = max(range(len(rhs)), key=rhs.__getitem__)  # the first largest
    best = rhs[best_n]
    eps = tolerance(space.mode, tol)
    return UpcrossingSupReport(
        a=bd.a,
        b=bd.b,
        coefficient=coeff,
        lhs=lhs,
        rhs=best,
        argmax_n=best_n,
        holds=lhs <= best + eps,
    )


# ---------------------------------------------------------------------------
# Band translation identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandTranslationReport:
    holds: bool
    first_mismatch: Optional[tuple]  # (N, atom, lhs_count, rhs_count)


def band_translation_identity(band: Band, f: Process) -> BandTranslationReport:
    """Crossings of (a, b) by f equal crossings of (0, b-a) by (f - a)^+,
    per atom, at every N <= horizon.  Requires a < b."""
    bd = band.coerced(f.mode)
    if not bd.a < bd.b:
        raise ValueError("band translation requires a < b")
    shifted, scale = _shifted(bd, f, slice(None))
    width = bd.b - bd.a if f.mode == "float" else ceil((bd.b - bd.a) * scale)
    pairs = list(zip(_chains(bd, f), (_atom_chain(path, 0, width) for path in shifted.T.tolist())))
    for N in range(f.horizon + 1):
        for w, (lc, rc) in enumerate(pairs):
            x, y = _count_before(lc, N), _count_before(rc, N)
            if x != y:
                return BandTranslationReport(holds=False, first_mismatch=(N, w, x, y))
    return BandTranslationReport(holds=True, first_mismatch=None)
