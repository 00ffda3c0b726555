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

One state machine (``_count_upcrossings``) gives the path-space counts, the
crossing times and the band translation identity.  It steps through times
0..N-1 with array operations over every atom at once, reading only the masks
"value <= a" and "value >= b".  Float masks compare one array of the rows;
exact masks compare the process's integer numerators (``Process._numerators``)
with the band edges moved onto their scale, so no ``Fraction`` is compared.
On request it also records when a row closes a leg (a sigma), arms (a tau)
and first sits on both sides of a band with a >= b; ``crossing_table``,
``upper_crossing`` and ``lower_crossing`` rank those events per atom and clip
them at N.  The band translation identity compares the two bands' masks and
runs the machine at every N only for the atoms whose masks differ.  There is
no memo.  The N-bounded recursion and a single-pass scanner live in the test
suite as oracles.

:func:`martkit.montecarlo.count_upcrossings_batch` reads the same two masks
of a Monte Carlo block from run starts, in one pass with no loop over time
(``_count_upcrossings_runs``), and equals the state machine on every row.
Path spaces keep the stepped machine: the crossing times need its per-time
events, and at path-space sizes it is the faster of the two (float H = 12,
4096 atoms: about 0.1 ms against 0.3-0.4 ms from run starts).

A float process derives its rows once as a read-only float64 matrix
(``Process._matrix``); the float masks slice it.  The estimates take both
sides from the process's twin and the space's weights, through the one
weighted sum of :mod:`martkit.measure`: the left side from the counts array,
each right side mu[(f_N - a)^+] from row N, and the sup form's H + 1 right
sides from one pass over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor
from typing import Iterable, Optional

import numpy as np

from .measure import FiniteMeasureSpace, _check_rv, _threshold, _twin, _weighted
from .processes import Classification, Filtration, MartingaleClass, Process, _require_class
from .scalars import Scalar, at_most, coerce_scalar, integer, positive_part

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
# One state machine over time, vectorised over atoms: counts, then leg times.
# ---------------------------------------------------------------------------


def _count_upcrossings(
    masks: Iterable, width: int, N: int, overlap: bool, events: Optional[list] = None
) -> np.ndarray:
    """Upcrossings before N of ``width`` atoms or trials, as an int64 array.

    ``masks`` yields, for t = 0..N-1, the bool arrays (value <= a, value >= b).
    A row is armed by a value <= a; an armed row completes an upcrossing (its
    next sigma) at a value >= b.  ``overlap`` says a >= b: a value that is
    both then sticks the chain, and a row stuck before N counts N.  For a < b
    no value is both, so the loop skips that test.  A list passed as
    ``events`` receives, per time, the rows that close a leg (a sigma), the
    rows that arm (a tau) and the rows stuck at or before that time.
    """
    armed = np.zeros(width, dtype=bool)
    counts = np.zeros(width, dtype=np.int64)
    stuck = np.zeros(width, dtype=bool)
    for low, high in masks:
        done = armed & high
        counts += done
        armed ^= done  # done is within armed: disarm those rows
        if events is not None:
            events.append((done, low & ~armed, stuck | (low & high)))
        armed |= low
        if overlap:
            stuck |= low & high
    counts[stuck] = N
    return counts


def _count_upcrossings_runs(paths: np.ndarray, a: float, b: float, N: int) -> np.ndarray:
    """``_count_upcrossings`` of every row of a 2-D block at bound N, read
    from run starts in one pass over ``paths[:, :N]`` with no loop over time.

    Each entry is labelled +1 (>= b), -1 (<= a) or 0.  A run start is a
    nonzero label that differs from the entry before it in its row, so every
    nonzero label between two consecutive starts equals the first one's: an
    upcrossing completes exactly at a +1 start whose previous start in its
    row is -1.  Column 0 is forced to be a start, so the pair that straddles
    two rows is the one whose later start lies in column 0, and is dropped.
    For a >= b, a row with an entry that is both is stuck and counts N.
    """
    low, high = paths[:, :N] <= a, paths[:, :N] >= b
    stuck = (low & high).any(1) if a >= b else None
    # C order, also for F-order blocks: flat indices then run row by row
    labels = np.subtract(high.view(np.int8), low.view(np.int8), order="C")
    del low, high  # each del keeps the pass's peak memory near its masks
    starts = labels != 0
    starts[:, 1:] &= labels[:, 1:] != labels[:, :-1]
    starts[:, :1] = True
    idx = np.flatnonzero(starts)
    runs = labels.ravel()[idx]
    del labels, starts
    ends = idx[1:][(runs[1:] == 1) & (runs[:-1] == -1)]
    del idx, runs
    ends = ends[ends % N != 0]
    counts = np.bincount(ends // N, minlength=paths.shape[0])
    if stuck is not None:
        counts[stuck] = N
    return counts


def _scaled(bd: Band, f: Process) -> tuple:
    """(rows, low, high): f's twin and the edges of a band ``bd`` already
    coerced to f's mode, moved onto the twin's scale (``measure._threshold``),
    so that v <= a iff its entry is <= low and v >= b iff it is >= high.  In
    exact mode no Fraction is compared."""
    rows, den = _twin(f)
    return rows, _threshold(f.mode, bd.a, den, floor), _threshold(f.mode, bd.b, den, ceil)


def _shifted(bd: Band, f: Process, rows: np.ndarray, low) -> tuple:
    """((f_n - a)^+ for ``rows`` and ``low`` from ``_scaled``, their scale):
    float64 rows and 1 in float mode, where v > a exactly when v - a > 0, as a
    difference of finite doubles is 0 only for equal operands.  In exact mode,
    with a = p/q and f's denominator den, the integer numerators
    (n q - p den)^+ over the scale den q."""
    if f.mode == "float":
        return np.where(rows > low, rows - low, 0.0), 1
    a, den = bd.a, f._numerators[1]
    return np.where(rows > low, rows * a.denominator - a.numerator * den, 0), den * a.denominator


def _counts(bd: Band, scaled: tuple, N: int, events: Optional[list] = None) -> np.ndarray:
    """``upcrossings_before`` of a coerced band as an int64 array over atoms,
    from ``_scaled``'s (rows, low, high), recording ``_count_upcrossings``'
    events into ``events`` when given."""
    rows, low, high = scaled
    masks = zip(rows[:N] <= low, rows[:N] >= high)
    return _count_upcrossings(masks, rows.shape[1], N, bd.a >= bd.b, events)


def _legs(band: Band, f: Process, N: int) -> tuple:
    """(sigma, tau, limit) of every atom's chain at bound N, from one run of
    the state machine.  ``limit`` is the atom's first time on both sides of
    the band (a >= b only; every later row sits there), or N.  sigma and tau
    hold the leg times before the limit as (atoms, times, ranks) arrays, atom
    by atom in time order: sigma_0 = 0 and each closing event, and each
    arming event."""
    events = []
    bd = band.coerced(f.mode)
    _counts(bd, _scaled(bd, f), N, events)
    closes, arms, stuck = np.array(events, dtype=bool).reshape(N, 3, f.atom_count).transpose(1, 2, 0)
    limit = N - stuck.sum(1)
    closes[:, :1] = True  # sigma_0 = 0: no row is armed at time 0
    legs = []
    for hits in (closes, arms):
        atoms, times = np.nonzero(hits & (np.arange(N) < limit[:, None]))
        legs.append((atoms, times, np.arange(atoms.size) - np.searchsorted(atoms, atoms)))
    return legs[0], legs[1], limit


def _rows(leg: tuple, limit: np.ndarray, start: int, stop: int) -> tuple:
    """Rows start..stop-1 of one leg as tuples of Python ints: row k of an
    atom is its k-th time, or its limit once its times run out."""
    atoms, times, ranks = leg
    out = np.tile(limit, (stop - start, 1))
    sel = (start <= ranks) & (ranks < stop)
    out[ranks[sel] - start, atoms[sel]] = times[sel]
    return tuple(map(tuple, out.tolist()))


def crossing_table(band: Band, f: Process, N: int) -> CrossingTable:
    """Chain rows at bound N, up to (and including) the first repeat: an
    atom's rows end at the first k with sigma_k >= N or with the chain stuck
    at sigma_k, so its bounded chain has k + 2 sigma rows."""
    N = integer(N, "N", 0, f.horizon)
    sigma, tau, limit = _legs(band, f, N)
    rows = 3 + int(sigma[2].max(initial=-1))
    return CrossingTable(sigma=_rows(sigma, limit, 0, rows), tau=_rows(tau, limit, 0, rows), N=N)


def _leg_row(band: Band, f: Process, N: int, n: int, which: int) -> tuple:
    """Row n of sigma (which = 0) or tau (which = 1) at bound N."""
    N, n = integer(N, "N", 0, f.horizon), integer(n, "n")
    legs = _legs(band, f, N)
    n = min(n, N)  # no atom has more than N times before N: row N is the limit
    return _rows(legs[which], legs[2], n, n + 1)[0]


def upper_crossing(band: Band, f: Process, N: int, n: int) -> tuple:
    """sigma_n per atom: time the n-th upcrossing of the band completes
    (0 for n = 0, N once the chain has run out of crossings)."""
    return _leg_row(band, f, N, n, 0)


def lower_crossing(band: Band, f: Process, N: int, n: int) -> tuple:
    """tau_n per atom: first visit below a at or after sigma_n."""
    return _leg_row(band, f, N, n, 1)


def upcrossings_before(band: Band, f: Process, N: int) -> tuple:
    """Largest n in 0..N with sigma_n < N, per atom (0 when N = 0)."""
    N = integer(N, "N", 0, f.horizon)
    bd = band.coerced(f.mode)
    return tuple(_counts(bd, _scaled(bd, f), N).tolist())


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

_ESTIMATE_GATE = "the upcrossing estimate requires a submartingale or martingale"


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
) -> UpcrossingEstimateReport:
    """(b - a) * mu[U_N] <= mu[(f_N - a)^+] for submartingales.

    a >= b is allowed: the left side is then nonpositive and the right side
    nonnegative, so the inequality is automatic.
    """
    _require_class(space, f, F, classification, MartingaleClass.SUBMARTINGALE, _ESTIMATE_GATE)
    _check_rv(space, f.at(0))
    N = integer(N, "N", 0, f.horizon)
    bd = band.coerced(f.mode)
    scaled = _scaled(bd, f)
    rows, low, _ = scaled
    lhs = (bd.b - bd.a) * _weighted(space, _counts(bd, scaled, N)[None])[0]
    rhs = _weighted(space, *_shifted(bd, f, rows[[N]], low))[0]
    holds = at_most(lhs, rhs, space.mode)
    return UpcrossingEstimateReport(a=bd.a, b=bd.b, N=N, lhs=lhs, rhs=rhs, holds=holds)


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
) -> UpcrossingSupReport:
    """Sup form: (b-a)^+ * lintegral(upcrossings) <= sup_N lintegral((f_N - a)^+),
    for submartingales, through the same gate as the fixed-N estimate.

    On a finite horizon every count and integral is finite, so the extended
    product with 0 * inf = 0 is the plain product.
    """
    _require_class(space, f, F, classification, MartingaleClass.SUBMARTINGALE, _ESTIMATE_GATE)
    _check_rv(space, f.at(0))
    bd = band.coerced(f.mode)
    coeff = positive_part(bd.b - bd.a)
    scaled = _scaled(bd, f)
    rows, low, _ = scaled
    lhs = coeff * _weighted(space, _counts(bd, scaled, f.horizon)[None])[0]
    rhs = _weighted(space, *_shifted(bd, f, rows, low))
    best_n = max(range(len(rhs)), key=rhs.__getitem__)  # the first largest
    best = rhs[best_n]
    return UpcrossingSupReport(
        a=bd.a,
        b=bd.b,
        coefficient=coeff,
        lhs=lhs,
        rhs=best,
        argmax_n=best_n,
        holds=at_most(lhs, best, space.mode),
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
    per atom, at every N <= horizon.  Requires a < b.

    Counts before N read only the two masks at times 0..N-1, so an atom whose
    masks agree on both bands (every exact atom; a float one unless v - a
    rounds across b - a) cannot differ.  The state machine counts the other
    atoms at every N, and the report names the first (N, atom) in row-major
    order."""
    bd = band.coerced(f.mode)
    if not bd.a < bd.b:
        raise ValueError("band translation requires a < b")
    H = f.horizon
    rows, low, high = _scaled(bd, f)
    shifted, scale = _shifted(bd, f, rows, low)
    width = bd.b - bd.a if f.mode == "float" else ceil((bd.b - bd.a) * scale)
    masks = np.array([[rows[:H] <= low, rows[:H] >= high], [shifted[:H] <= 0, shifted[:H] >= width]])
    atoms = np.flatnonzero((masks[0] != masks[1]).any((0, 1)))
    if atoms.size:
        running = []  # counts at N = 1..H of the atoms whose masks differ
        for lows, highs in masks[..., atoms]:
            events = []
            _count_upcrossings(zip(lows, highs), atoms.size, H, False, events)
            running.append(np.cumsum([closes for closes, _, _ in events], axis=0))
        N, w = np.nonzero(running[0] != running[1])
        if N.size:
            x, y = (int(c[N[0], w[0]]) for c in running)
            return BandTranslationReport(holds=False, first_mismatch=(int(N[0]) + 1, int(atoms[w[0]]), x, y))
    return BandTranslationReport(holds=True, first_mismatch=None)
