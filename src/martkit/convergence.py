"""Maximal inequality, limit estimation, and the convergence criteria checks.

Everything here is exact/desk scale: processes small enough to hold as
tuples, with Fraction arithmetic in exact mode.  The Monte Carlo shadows of
these checks (Polya-urn window convergence, fair-walk band-violation decay)
run on streaming statistics produced by :mod:`martkit.montecarlo`.

The limit process is realized as a windowed-oscillation estimator: an atom
whose final ``window`` values oscillate within ``tol`` is declared converged
with the final value as its limit; every other atom gets 0, mirroring the
default branch of a non-computational choice function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Optional, Sequence

import numpy as np

from .condexp import _Kernel
from .measure import (
    FiniteMeasureSpace,
    Partition,
    RandomVariable,
    ae_witness,
    snorm,
    _check_rv,
    _lp_norms,
    _mask,
    _powers,
    _threshold,
    _twin,
    _weighted,
)
from .crossings import Band, _counts, _scaled
from .processes import (
    Classification,
    Filtration,
    MartingaleClass,
    Process,
    filtration_sup,
    _check_process,
    _first_unmeasured,
    _require_class,
    _violations,
)
from .scalars import Scalar, at_most, coerce_scalar, integer

__all__ = [
    "MaximalInequalityReport",
    "check_maximal_inequality",
    "LimitEstimate",
    "limit_process_estimate",
    "ConvergenceDiagnostic",
    "ae_convergence_diagnostic",
    "geometric_checkpoints",
    "L1ConvergenceAReport",
    "check_l1_convergence_a",
    "L1ConvergenceBReport",
    "check_l1_convergence_b",
    "LevyUpwardReport",
    "check_levy_upward",
    "FatouReport",
    "fatou_norm_check",
]

UI_SMALL = 1e-6  # a terminal UI modulus at or below this counts as small


# ---------------------------------------------------------------------------
# Maximal inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaximalInequalityReport:
    n: int
    level: Scalar
    set_mass: Scalar
    lhs: Scalar  # level * mu{max_{k<=n} f_k >= level}
    rhs: Scalar  # integral of f_n over that set
    holds: bool


def check_maximal_inequality(
    space: FiniteMeasureSpace,
    f: Process,
    F: Filtration,
    n: int,
    level: Scalar,
    classification: Optional[Classification] = None,
) -> MaximalInequalityReport:
    """lambda * mu{max_{k<=n} f_k >= lambda} <= integral of f_n over the set,
    for submartingales and lambda > 0."""
    lam = coerce_scalar(level, space.mode)
    if not lam > 0:
        raise ValueError("the maximal inequality needs a level > 0")
    n = integer(n, "n", 0, f.horizon)
    _require_class(space, f, F, classification, MartingaleClass.SUBMARTINGALE,
                   "the maximal inequality requires a submartingale or martingale")
    _check_rv(space, f.at(n))
    rows, scale = _twin(f)
    level_set = rows[: n + 1].max(axis=0) >= _threshold(space.mode, lam, scale, ceil)
    mass = _weighted(space, level_set[None])[0]
    lhs = lam * mass
    rhs = _weighted(space, np.where(level_set, rows[n], 0)[None], scale)[0]
    return MaximalInequalityReport(
        n=n, level=lam, set_mass=mass, lhs=lhs, rhs=rhs, holds=at_most(lhs, rhs, space.mode)
    )


# ---------------------------------------------------------------------------
# Limit process estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitEstimate:
    values: RandomVariable
    converged_mask: frozenset
    sup_partition: Partition


def limit_process_estimate(
    space: FiniteMeasureSpace,
    f: Process,
    F: Filtration,
    tol: Scalar,
    window: int,
) -> LimitEstimate:
    """Windowed-oscillation limit estimator.

    Per atom: when the last ``window`` values oscillate within ``tol`` the
    estimate is the final value and the atom is marked converged; otherwise
    the estimate defaults to 0.
    """
    window = integer(window, "window", 1, f.horizon + 1)
    tol = coerce_scalar(tol, space.mode)
    if tol < 0:
        raise ValueError("tol must be >= 0")
    rows, scale = _twin(f)
    tail = rows[f.horizon + 1 - window:]
    converged = (tail.max(axis=0) - tail.min(axis=0) <= _threshold(space.mode, tol, scale, floor)).tolist()
    z = coerce_scalar(0, space.mode)
    return LimitEstimate(
        values=RandomVariable(tuple(v if ok else z for v, ok in zip(f.values[-1], converged)), space.mode),
        converged_mask=frozenset(w for w, ok in enumerate(converged) if ok),
        sup_partition=filtration_sup(F),
    )


# ---------------------------------------------------------------------------
# a.e. convergence diagnostics
# ---------------------------------------------------------------------------


def geometric_checkpoints(horizon: int) -> tuple:
    """1, 2, 4, ... capped by and always including the horizon."""
    horizon = integer(horizon, "horizon")
    out = []
    n = 1
    while n < horizon:
        out.append(n)
        n *= 2
    out.append(horizon)
    return tuple(out)


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    cutoff: Scalar
    bounded_fraction: Scalar  # fraction of mass with sup_n |f_n| <= cutoff
    unbounded_measure: Scalar
    band_violations: tuple  # (band, ((k, measure of {U >= k}), ...))
    cauchy_gap: tuple  # (n, m, snorm(f_n - f_m, 1)) over consecutive checkpoints
    chain_bounds: Optional[tuple]  # (band, mu[U], bound, holds) when R supplied


def ae_convergence_diagnostic(
    space: FiniteMeasureSpace,
    f: Process,
    F: Filtration,
    cutoff: Scalar,
    bands: Sequence[Band],
    l1_bound: Optional[Scalar] = None,
) -> ConvergenceDiagnostic:
    """Boundedness, band-violation, and Cauchy-gap diagnostics, the gaps
    between consecutive ``geometric_checkpoints``.

    Per band the report measures {upcrossings_before(a, b, f, horizon) >= k}
    for k = 1, 2, 4, ...; an a.e.-convergent process drives these to zero.
    With an L1 bound R it also verifies mu[U] <= (R + |a| mu(Omega)) / (b-a)
    on every band with a < b.
    """
    _check_rv(space, f.at(0))
    cutoff = coerce_scalar(cutoff, space.mode)
    rows, scale = _twin(f)
    unbounded = abs(rows).max(axis=0) > _threshold(space.mode, cutoff, scale, floor)
    unbounded_measure = _weighted(space, unbounded[None])[0]
    total = space.total
    bounded_fraction = (
        (total - unbounded_measure) / total if total > 0 else coerce_scalar(0, space.mode)
    )

    ks = []
    k = 1
    while k <= f.horizon or k == 1:
        ks.append(k)
        if k > f.horizon:
            break
        k *= 2
    band_rows = []
    chain_rows = [] if l1_bound is not None else None
    for band in bands:
        bd = band.coerced(f.mode)
        counts = _counts(bd, _scaled(bd, f), f.horizon)
        band_rows.append((band, tuple(zip(ks, _weighted(space, counts >= np.array(ks)[:, None])))))
        if l1_bound is not None:
            if bd.a < bd.b:
                mu_u = _weighted(space, counts[None])[0]
                bound = (coerce_scalar(l1_bound, space.mode) + abs(bd.a) * total) / (
                    bd.b - bd.a
                )
                chain_rows.append((band, mu_u, bound, bool(at_most(mu_u, bound, space.mode))))

    cps = geometric_checkpoints(f.horizon)
    gaps = _lp_norms(space, abs(rows[list(cps[1:])] - rows[list(cps[:-1])]), scale, 1)
    return ConvergenceDiagnostic(
        cutoff=cutoff,
        bounded_fraction=bounded_fraction,
        unbounded_measure=unbounded_measure,
        band_violations=tuple(band_rows),
        cauchy_gap=tuple(zip(cps, cps[1:], gaps)),
        chain_bounds=tuple(chain_rows) if chain_rows is not None else None,
    )


# ---------------------------------------------------------------------------
# L1 convergence checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class L1ConvergenceAReport:
    checkpoints: tuple
    gaps: tuple  # snorm(f_n - limit_estimate, 1) at the checkpoints
    ui_small: bool
    trend_ok: bool
    final_below_tol: bool
    holds: bool


def check_l1_convergence_a(
    space: FiniteMeasureSpace,
    f: Process,
    F: Filtration,
    ui_modulus_curve: Sequence[tuple],
    tol: Scalar,
    window: int,
    classification: Optional[Classification] = None,
) -> L1ConvergenceAReport:
    """Conditional L1 convergence for a submartingale: when the family's UI
    modulus is at most UI_SMALL at its largest truncation level,
    snorm(f_n - limit, 1) must end below tol.  ``trend_ok`` reports whether
    the gaps never rise across geometric checkpoints; it is a diagnostic, not
    part of ``holds``, because L1 distances to the limit may rise before they
    vanish (see :func:`check_levy_upward`).

    ``ui_modulus_curve`` is a sequence of (C, modulus) pairs, typically from
    :func:`martkit.uniform_integrability.probabilist_curve`.  When the
    terminal modulus is not small the assertion is vacuous (holds=True) and
    the gaps are still reported; this is the negative-control reading.
    """
    _require_class(space, f, F, classification, MartingaleClass.SUBMARTINGALE,
                   "check (a) requires a submartingale or martingale")
    _check_rv(space, f.at(0))
    est = limit_process_estimate(space, f, F, tol=tol, window=window)
    cps = geometric_checkpoints(f.horizon)
    rows, scale = _twin(f)
    limit = np.where(_mask(f.atom_count, est.converged_mask), rows[-1], 0)
    gaps = tuple(_lp_norms(space, abs(rows[list(cps)] - limit), scale, 1))
    ui_small = bool(ui_modulus_curve) and float(ui_modulus_curve[-1][1]) <= UI_SMALL
    trend_ok = all(float(gaps[i + 1]) <= float(gaps[i]) for i in range(len(gaps) - 1))
    final_below = at_most(gaps[-1], coerce_scalar(tol, space.mode), space.mode)
    holds = (not ui_small) or bool(final_below)
    return L1ConvergenceAReport(
        checkpoints=cps,
        gaps=gaps,
        ui_small=ui_small,
        trend_ok=trend_ok,
        final_below_tol=bool(final_below),
        holds=holds,
    )


@dataclass(frozen=True)
class L1ConvergenceBReport:
    holds: bool
    witness: Optional[tuple]  # (n, atom) of the first a.e. violation
    kind: MartingaleClass


def check_l1_convergence_b(
    space: FiniteMeasureSpace,
    f: Process,
    F: Filtration,
    *,  # keyword-only, so a stray fourth argument cannot pass as a classification
    classification: Optional[Classification] = None,
) -> L1ConvergenceBReport:
    """Martingale representation at the horizon: f_n = condexp(f_N | steps[n])
    a.e. for every n (the finite-filtration limit process is f_N itself).
    Gated like every theorem check: ``classification``, or ``classify`` when
    it is None, must say martingale."""
    _check_process(space, f, F)
    cls = _require_class(space, f, F, classification, MartingaleClass.MARTINGALE,
                         "check (b) is a martingale statement; classification says otherwise")
    kernel = _Kernel(space, F.steps)
    rows = kernel.rows(f)
    found = _violations(kernel, rows, f.horizon, f.horizon, 0, _first_unmeasured(f, F.steps, 0) is None)
    witness = next(((n, min(a for a in w if a is not None)) for (n, _), w in sorted(found.items())
                    if w != (None, None)), None)
    return L1ConvergenceBReport(holds=witness is None, witness=witness, kind=cls.kind)


def _l1_distance(kernel: _Kernel, row, sums, k: int) -> Fraction:
    """snorm(condexp(g | steps[k]) - g, 1) for exact g, from g's integer row
    and block integrals: each block B of mass m_B > 0 adds
    sum over B of w |S_B - g m_B| / m_B, so one Fraction is built per block
    where g is not constant and none per atom."""
    nums, den = row
    (s, _), (m, _) = sums, kernel.mass[k]
    spread = [0] * len(s)
    for b, w, x in zip(kernel.steps[k].block_of, kernel.weights, nums.tolist()):
        spread[b] += w * abs(s[b] - x * m[b])
    return sum((Fraction(x, y) for x, y in zip(spread, m) if x), Fraction(0)) / (kernel.unit * den)


@dataclass(frozen=True)
class LevyUpwardReport:
    d: tuple  # snorm(condexp(g | steps[n]) - g, 1) for n = 0..horizon
    monotone: bool
    final_zero: bool
    holds: bool


def check_levy_upward(
    space: FiniteMeasureSpace,
    g: RandomVariable,
    F: Filtration,
) -> LevyUpwardReport:
    """d_n = snorm(condexp(g | steps[n]) - g, 1): requires g measurable with
    respect to the filtration's sup; reports d_horizon = 0 as ``final_zero``
    and whether the d_n are nonincreasing as ``monotone``.

    ``final_zero`` is the finite shadow of Levy's upward theorem.  ``monotone``
    is a reported diagnostic, not a theorem: Levy's theorem does not make the
    L1 distances nonincreasing, and refining a partition can move the blockwise
    average away from g (the uniform 6-atom witness g = (0,0,3,-3,0,0) over
    trivial -> {{0,1,2},{3,4,5}} -> singletons has d = (1, 4/3, 0)).  What does
    hold is d_{n+1} <= 2 d_n, and the L2 distances are nonincreasing.
    ``holds`` still conjoins both flags, as specified.
    """
    _check_rv(space, g)
    if F.atom_count != space.atom_count:
        raise ValueError("atom counts differ between space and filtration")
    kernel = _Kernel(space, F.steps)
    row = kernel.row(g)
    if kernel.unmeasured(row, F.horizon) is not None:  # the sup of monotone steps is the last
        raise ValueError("Levy upward requires g measurable w.r.t. the filtration's sup")
    if kernel.exact:
        d = [_l1_distance(kernel, row, sums, n) for n, sums in kernel.tower(row, F.horizon, 0)]
    else:
        ce = np.array([kernel.condexp(row, n) for n in range(F.horizon, -1, -1)])
        d = _lp_norms(space, abs(ce - row), 1, 1)
    d.reverse()
    monotone = all(at_most(d[i + 1], d[i], space.mode) for i in range(len(d) - 1))
    final_zero = at_most(d[-1], 0, space.mode)
    return LevyUpwardReport(
        d=tuple(d), monotone=monotone, final_zero=bool(final_zero), holds=monotone and final_zero
    )


# ---------------------------------------------------------------------------
# Fatou norm check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FatouReport:
    limit_norm: Scalar
    surrogate: Scalar  # running infimum of snorm(f_n, p) over the tail window
    tail_start: int
    curve: tuple  # snorm(f_n, p) for all n
    holds: bool


def fatou_norm_check(
    space: FiniteMeasureSpace,
    f: Process,
    g: RandomVariable,
    p: Scalar,
    tail_start: Optional[int] = None,
) -> FatouReport:
    """snorm(g, p) <= inf over the tail window of snorm(f_n, p).

    The tail infimum is the finite-horizon liminf surrogate; the window
    defaults to the second half of the horizon.  Precondition: f_horizon
    agrees with g on positive-weight atoms (``ae_witness``), the computable
    shadow of "f_n converges to g a.e.".  Both comparisons are the mode's
    one rule, ``scalars.at_most``, which orders exact root forms exactly.
    """
    w = ae_witness(space, f.at(f.horizon), g, "eq")
    if w is not None:
        raise ValueError(
            f"f does not reach g at the horizon (first mismatch at atom {w})"
        )
    start = integer(f.horizon // 2 if tail_start is None else tail_start, "tail_start", 0, f.horizon)
    _check_rv(space, f.at(0))
    rows, scale = _twin(f)
    powered, scale, p = _powers(space.mode, abs(rows), scale, p)
    curve = tuple(_lp_norms(space, powered, scale, p, lambda n, a: abs(f.values[n][a])))
    surrogate = min(curve[start:])  # the first least
    limit_norm = snorm(space, g, p)
    return FatouReport(
        limit_norm=limit_norm,
        surrogate=surrogate,
        tail_start=start,
        curve=curve,
        holds=bool(at_most(limit_norm, surrogate, space.mode)),
    )
