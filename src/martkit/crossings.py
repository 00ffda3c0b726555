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

There is no memo: a call scans each atom's path once with no time bound, and
the chain at N is that chain clipped at N, so a sweep over N builds one chain
per (band, process).  The N-bounded recursion and a single-pass state machine
live in the test suite as oracles; :mod:`martkit.montecarlo` has a vectorized
counter for Monte Carlo batches.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .measure import FiniteMeasureSpace, RandomVariable, integral
from .processes import Classification, Filtration, MartingaleClass, Process, classify
from .scalars import INF, Scalar, coerce_scalar, ext_mul, of_real, positive_part, tolerance

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


def _chains(band: Band, f: Process) -> list:
    bd = band.coerced(f.mode)
    return [_atom_chain(path, bd.a, bd.b) for path in zip(*f.values)]


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


def upcrossings_before(band: Band, f: Process, N: int) -> tuple:
    """Largest n in 0..N with sigma_n < N, per atom (0 when N = 0)."""
    _check_bound(f, N)
    return tuple(_count_before(c, N) for c in _chains(band, f))


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
    bd = band.coerced(f.mode)
    counts = upcrossings_before(band, f, N)
    u = RandomVariable(
        values=tuple(coerce_scalar(c, f.mode) for c in counts), mode=f.mode
    )
    lhs = (bd.b - bd.a) * integral(space, u)
    shifted = f.at(N).shift(-bd.a).positive_part()
    rhs = integral(space, shifted)
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

    Extended nonnegative arithmetic with 0 * inf = 0; on a finite horizon all
    quantities are finite.  ``check_classification=False`` skips the
    submartingale gate and evaluates the arithmetic only (the inequality is
    not guaranteed then).
    """
    if check_classification:
        _require_submartingale(space, f, F, classification, tol)
    bd = band.coerced(f.mode)
    coeff = of_real(bd.b - bd.a)
    counts = upcrossings(band, f)
    u = RandomVariable(
        values=tuple(coerce_scalar(c, f.mode) for c in counts), mode=f.mode
    )
    lhs = ext_mul(coeff, integral(space, u))
    best = None
    best_n = 0
    for N in range(f.horizon + 1):
        val = integral(space, f.at(N).shift(-bd.a).positive_part())
        if best is None or val > best:
            best, best_n = val, N
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
    g = Process(
        values=tuple(
            tuple(positive_part(v - bd.a) for v in row) for row in f.values
        ),
        mode=f.mode,
    )
    shifted = Band(a=coerce_scalar(0, f.mode), b=bd.b - bd.a)
    pairs = list(zip(_chains(band, f), _chains(shifted, g)))
    for N in range(f.horizon + 1):
        for w, (lc, rc) in enumerate(pairs):
            x, y = _count_before(lc, N), _count_before(rc, N)
            if x != y:
                return BandTranslationReport(holds=False, first_mismatch=(N, w, x, y))
    return BandTranslationReport(holds=True, first_mismatch=None)
