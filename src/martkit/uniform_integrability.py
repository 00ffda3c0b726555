"""Uniform integrability moduli, the bridging inequality, and empirical Vitali.

The quantifier-heavy textbook definitions are replaced by computable modulus
curves: the analyst's modulus maximizes the restricted p-norm over small
sets, the probabilist's over high truncation levels.  Neither is ever
collapsed to a boolean; checks report curves and let the caller (or the
acceptance suite) judge decay.

The analyst's maximization is a 0/1 knapsack over atoms (value w*|f|^p,
weight w, capacity delta).  Two independent exact solvers are kept.  A
branch-and-bound over items sorted by density v/w is the exact-mode default;
exhaustive subset search is its cross-check (``force_method="exhaustive"``),
and the test suite compares the two.  Float mode keeps the numpy subset sweep
up to EXHAUSTIVE_ATOM_LIMIT items and branch-and-bound above it.  Above
HARD_ATOM_CAP contributing atoms every solver raises rather than truncate the
search, and a forced subset search raises above EXHAUSTIVE_ATOM_LIMIT.

The probabilist's modulus, the norm bound, the bridging inequality, the
p-monotonicity check and the Vitali diagnostics read a family's twin, the
(members x atoms) array it derives once: in float mode the read-only float64
matrices f, |f| and |f|^p, with |f|^p taken by Python's ``**`` as ``snorm``
takes it; in exact mode the integer numerators over one denominator.
Truncation at C is the mask |f| >= C, a member's norm the p-th root of its
row's weighted sum (``measure._lp_norms``, the rule behind ``snorm``), and
Vitali's differences one array f - g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .measure import (
    FiniteMeasureSpace,
    RandomVariable,
    measure,
    _check_rv,
    _frozen_floats,
    _exponent,
    _integer_twin,
    _lp_norms,
    _mask,
    _powers,
    _real_exponent,
    _threshold,
    _twin,
    _weighted,
)
from .scalars import INF, RootValue, Scalar, at_most, coerce_scalar, integer

__all__ = [
    "FunctionFamily",
    "UIModuli",
    "analyst_modulus",
    "probabilist_modulus",
    "ui_moduli",
    "probabilist_curve",
    "BridgingReport",
    "check_bridging_inequality",
    "PMonotonicityReport",
    "check_p_monotonicity",
    "VitaliReport",
    "vitali_empirical",
    "shrinking_spike_family",
    "fixed_mass_spike_family",
]

EXHAUSTIVE_ATOM_LIMIT = 20
HARD_ATOM_CAP = 40
_KNAPSACK_METHODS = ("exhaustive", "branch_bound")
VITALI_DECAY_RATIO = 0.2


@dataclass(frozen=True)
class FunctionFamily:
    """Finitely many random variables over one space, with an exponent p."""

    space: FiniteMeasureSpace
    members: tuple
    p: Scalar  # >= 1, or INF

    def __post_init__(self) -> None:
        for m in self.members:
            if m.mode != self.space.mode:
                raise ValueError("family members must match the space's mode")
            if len(m.values) != self.space.atom_count:
                raise ValueError("family members must live on the space's atoms")
        _real_exponent(self.p)

    @staticmethod
    def of(space: FiniteMeasureSpace, members: Iterable[RandomVariable], p: Scalar = 1) -> "FunctionFamily":
        return FunctionFamily(space=space, members=tuple(members), p=p)

    @cached_property
    def _matrices(self) -> tuple:
        """(f, |f|, |f|^p) as read-only (members x atoms) float64 matrices,
        derived at most once; float families only.  Not fields, so equality
        and hashing ignore them."""
        values = _frozen_floats(
            self.space.mode, [f.values for f in self.members], (len(self.members), self.space.atom_count)
        )
        absolute = np.abs(values)
        absolute.flags.writeable = False
        return values, absolute, _powers("float", absolute, 1, self.p)[0]

    @cached_property
    def _numerators(self) -> tuple:
        """The members' values as one read-only (members x atoms) object array
        of integer numerators over one common denominator, derived at most
        once; exact families only.  Not a field, so equality, hashing and
        ``repr`` ignore it."""
        return _integer_twin(self.space.mode, [v for f in self.members for v in f.values],
                             (len(self.members), self.space.atom_count))


def _norms(fam: FunctionFamily, C: Scalar, atoms: Optional[frozenset] = None) -> list:
    """snorm(f * 1{|f| >= C} * 1_atoms, p) for each member f, over every atom
    when ``atoms`` is None, from the family's twin: its float matrices over 1,
    or its integer numerators and their powers."""
    if fam.space.mode == "float":
        _, absolute, powered = fam._matrices
        scale, power_scale, p = 1, 1, fam.p if fam.p == INF else float(fam.p)
    else:
        values, scale = fam._numerators
        absolute = abs(values)
        powered, power_scale, p = _powers("exact", absolute, scale, fam.p)
    keep = absolute >= _threshold(fam.space.mode, C, scale, ceil)
    if atoms is not None:
        keep &= _mask(fam.space.atom_count, atoms)
    kept = lambda r, a: abs(fam.members[r].values[a]) if keep[r, a] else Fraction(0)
    return _lp_norms(fam.space, np.where(keep, powered, 0), power_scale, p, kept)


def _largest_abs(fam: FunctionFamily) -> Scalar:
    """The largest |value| of any member, 0 for a family without members: a
    Fraction in exact mode, from the integer twin."""
    if fam.space.mode == "float":
        return fam._matrices[1].max(initial=0.0).item()
    values, den = fam._numerators
    return Fraction(abs(values).max(initial=0), den)


# ---------------------------------------------------------------------------
# Probabilist's modulus
# ---------------------------------------------------------------------------


def probabilist_modulus(fam: FunctionFamily, C: Scalar) -> Scalar:
    """sup over members of snorm(f * indicator{|f| >= C}, p)."""
    C = coerce_scalar(C, fam.space.mode)
    if C < 0:
        raise ValueError("truncation level must be >= 0")
    return max([coerce_scalar(0, fam.space.mode), *_norms(fam, C)])


# ---------------------------------------------------------------------------
# Analyst's modulus: knapsack over atoms
# ---------------------------------------------------------------------------


def _knapsack_items(space: FiniteMeasureSpace, f: RandomVariable, p: Scalar) -> list:
    """(weight, value) pairs for atoms that can contribute: w > 0, w*|f|^p > 0.
    A float power past the float range raises ValueError naming p."""
    try:
        return [(w, w * abs(v) ** p) for w, v in zip(space.weights, f.values) if w > 0 and abs(v) > 0]
    except OverflowError:
        raise ValueError(f"|f|^p overflows a float at p = {p}") from None


def _knapsack_exhaustive(items: Sequence[tuple], capacity: Scalar, mode: str) -> Scalar:
    """Exact max value with total weight <= capacity, by subset enumeration.

    Float mode uses the numpy doubling trick over all 2^n subsets; exact mode
    enumerates with Fractions (callers keep n small there).
    """
    n = len(items)
    if n == 0:
        return coerce_scalar(0, mode)
    if mode == "float":
        wsum = np.zeros(1 << n)
        vsum = np.zeros(1 << n)
        for i, (w, v) in enumerate(items):
            lo = 1 << i
            wsum[lo : lo << 1] = wsum[:lo] + w
            vsum[lo : lo << 1] = vsum[:lo] + v
        feasible = wsum <= capacity
        return float(vsum[feasible].max()) if feasible.any() else 0.0
    best = Fraction(0)
    sums = [(Fraction(0), Fraction(0))]
    for w, v in items:
        extended = [(ws + w, vs + v) for ws, vs in sums]
        sums.extend(extended)
    for ws, vs in sums:
        if ws <= capacity and vs > best:
            best = vs
    return best


def _knapsack_branch_bound(items: Sequence[tuple], capacity: Scalar, mode: str) -> Scalar:
    """Exact max value via DFS with a fractional (greedy) upper bound."""
    zero = coerce_scalar(0, mode)
    if not items:
        return zero
    # exact densities: a float sort overflows on huge values and misorders
    # near-ties, and out of density order the greedy bound can prune the optimum
    ratio = Fraction if mode == "exact" else (lambda v, w: float(v) / float(w))
    order = sorted(items, key=lambda it: ratio(it[1], it[0]), reverse=True)
    ws = [it[0] for it in order]
    vs = [it[1] for it in order]
    n = len(order)
    best = zero

    def bound(i: int, cap, acc):
        # greedy fractional completion; valid upper bound for the 0/1 problem
        total = acc
        for j in range(i, n):
            if ws[j] <= cap:
                cap = cap - ws[j]
                total = total + vs[j]
            else:
                total = total + vs[j] * cap / ws[j]
                break
        return total

    stack = [(0, capacity, zero)]
    while stack:
        i, cap, acc = stack.pop()
        if acc > best:
            best = acc
        if i >= n or bound(i, cap, acc) <= best:
            continue
        # skip branch pushed first so the take branch is explored first
        stack.append((i + 1, cap, acc))
        if ws[i] <= cap:
            stack.append((i + 1, cap - ws[i], acc + vs[i]))
    return best


def _analyst_modulus_one(
    space: FiniteMeasureSpace,
    f: RandomVariable,
    delta: Scalar,
    p: Scalar,
    force_method: Optional[str] = None,
) -> Scalar:
    if p == INF:
        # best single atom: any admissible set's ess-sup is attained at one
        # atom whose own weight is then <= delta
        candidates = [
            abs(f.values[w])
            for w in range(space.atom_count)
            if 0 < space.weights[w] <= delta
        ]
        return max([coerce_scalar(0, space.mode), *candidates])
    items = _knapsack_items(space, f, p)
    if len(items) > HARD_ATOM_CAP:
        raise ValueError(
            f"{len(items)} contributing atoms exceed the exact-search cap ({HARD_ATOM_CAP})"
        )
    method = force_method
    if method is None:
        small = space.mode == "float" and len(items) <= EXHAUSTIVE_ATOM_LIMIT
        method = "exhaustive" if small else "branch_bound"
    elif method == "exhaustive" and len(items) > EXHAUSTIVE_ATOM_LIMIT:
        raise ValueError(
            f"{len(items)} contributing atoms exceed the subset-search limit ({EXHAUSTIVE_ATOM_LIMIT})"
        )
    if method == "exhaustive":
        total = _knapsack_exhaustive(items, delta, space.mode)
    else:
        total = _knapsack_branch_bound(items, delta, space.mode)
    if space.mode == "float":
        return float(total) ** (1.0 / p)
    root = RootValue.of(total, int(p))
    return root.as_fraction() if root.is_rational() else root


def analyst_modulus(
    fam: FunctionFamily,
    delta: Scalar,
    force_method: Optional[str] = None,
) -> Scalar:
    """sup over members and atom sets A with mu(A) <= delta of snorm(f*1_A, p).

    ``force_method`` ("exhaustive" or "branch_bound") pins the knapsack solver
    for cross-checks; by default the mode and item count choose it.  Every
    method raises above HARD_ATOM_CAP contributing atoms, and "exhaustive"
    above EXHAUSTIVE_ATOM_LIMIT, before any subset table is built.
    """
    if force_method is not None and force_method not in _KNAPSACK_METHODS:
        raise ValueError(f"force_method must be one of {_KNAPSACK_METHODS} or None, got {force_method!r}")
    delta = coerce_scalar(delta, fam.space.mode)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    p = _exponent(fam.space.mode, fam.p)
    vals = (_analyst_modulus_one(fam.space, f, delta, p, force_method) for f in fam.members)
    return max([coerce_scalar(0, fam.space.mode), *vals])


# ---------------------------------------------------------------------------
# Moduli bundle and curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UIModuli:
    """Callable moduli plus the family's uniform norm bound."""

    family: FunctionFamily
    l1_bound: Scalar  # sup over members of snorm(member, p)

    def analyst(self, delta: Scalar) -> Scalar:
        return analyst_modulus(self.family, delta)

    def probabilist(self, C: Scalar) -> Scalar:
        return probabilist_modulus(self.family, C)


def ui_moduli(fam: FunctionFamily) -> UIModuli:
    z = coerce_scalar(0, fam.space.mode)
    return UIModuli(family=fam, l1_bound=max([z, *_norms(fam, z)]))


def probabilist_curve(fam: FunctionFamily, cs: Sequence[Scalar]) -> tuple:
    return tuple((c, probabilist_modulus(fam, c)) for c in cs)


# ---------------------------------------------------------------------------
# Bridging inequality and p-monotonicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BridgingReport:
    C: Scalar
    set_mass: Scalar
    rows: tuple  # per member: (lhs, rhs)
    holds: bool


def check_bridging_inequality(
    fam: FunctionFamily, C: Scalar, A: frozenset
) -> BridgingReport:
    """||f*1_A||_1 <= C*mu(A) + ||f*1_{|f| >= C}||_1, member by member."""
    if fam.p != 1:
        raise ValueError("the bridging inequality is an L1 statement; p must be 1")
    C = coerce_scalar(C, fam.space.mode)
    if C < 0:
        raise ValueError("truncation level must be >= 0")
    mass = measure(fam.space, A)
    rows = tuple(
        (lhs, C * mass + tail)
        for lhs, tail in zip(_norms(fam, coerce_scalar(0, fam.space.mode), A), _norms(fam, C))
    )
    holds = all(at_most(lhs, rhs, fam.space.mode) for lhs, rhs in rows)
    return BridgingReport(C=C, set_mass=mass, rows=rows, holds=holds)


@dataclass(frozen=True)
class PMonotonicityReport:
    p: Scalar
    q: Scalar
    factor: Scalar  # mu(Omega)^(1/p - 1/q)
    rows: tuple  # (C, modulus_p, modulus_q, bound, holds)
    holds: bool


def _holder_factor(space: FiniteMeasureSpace, p, q) -> Scalar:
    if space.mode == "float":
        return float(space.total) ** (1.0 / p - 1.0 / q)
    if p != int(p) or q != int(q):
        raise ValueError("exact mode restricts exponents to integers")
    p, q = int(p), int(q)
    root = RootValue.of(Fraction(space.total) ** (q - p), p * q)
    return root.as_fraction() if root.is_rational() else root


def _c_grid(fam: FunctionFamily) -> tuple:
    m = _largest_abs(fam)
    if m <= 0:
        return (coerce_scalar(0, fam.space.mode), coerce_scalar(1, fam.space.mode))
    quarter = m / 4
    return (coerce_scalar(0, fam.space.mode), quarter, 2 * quarter, 3 * quarter, m, m + 1)


def check_p_monotonicity(fam: FunctionFamily, p: Scalar, q: Scalar) -> PMonotonicityReport:
    """modulus_p(C) <= modulus_q(C) * mu(Omega)^(1/p - 1/q) over the C grid
    0, m/4, m/2, 3m/4, m, m+1 (m the largest |value| of any member)."""
    if not _real_exponent(p) <= _real_exponent(q, "q"):
        raise ValueError("exponents must satisfy 1 <= p <= q")
    fam_p = FunctionFamily(space=fam.space, members=fam.members, p=p)
    fam_q = FunctionFamily(space=fam.space, members=fam.members, p=q)
    factor = _holder_factor(fam.space, p, q)
    rows = []
    ok = True
    for C in _c_grid(fam):
        mp = probabilist_modulus(fam_p, C)
        mq = probabilist_modulus(fam_q, C)
        bound = mq * factor
        row_ok = bool(at_most(mp, bound, fam.space.mode))
        rows.append((C, mp, mq, bound, row_ok))
        ok = ok and row_ok
    return PMonotonicityReport(p=p, q=q, factor=factor, rows=tuple(rows), holds=ok)


# ---------------------------------------------------------------------------
# Empirical Vitali diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VitaliReport:
    eps_grid: tuple
    in_measure: tuple  # per eps: curve of mu{|f_n - g| > eps} over n
    in_measure_decay: bool
    c_grid: tuple
    ui_modulus_curve: tuple  # (C, probabilist modulus of the truncated family)
    ui_small: bool
    lp_curve: tuple  # snorm(f_n - g, p) over n
    lp_decay: bool
    consistent: bool


def _observed_decay(curve: Sequence) -> bool:
    first, last = float(curve[0]), float(curve[-1])
    return last <= max(VITALI_DECAY_RATIO * first, 1e-12)


def vitali_empirical(
    space: FiniteMeasureSpace,
    fam_sequence: Iterable[RandomVariable],
    g: RandomVariable,
    p: Scalar,
    horizon: int,
) -> VitaliReport:
    """Convergence-in-measure, UI-modulus, and Lp-decay diagnostics for a
    function sequence against a candidate limit.

    ``consistent`` checks the Vitali direction empirically: Lp decay is
    observed exactly when in-measure decay and a small terminal UI modulus
    are both observed.  Decay/smallness are threshold judgements at the
    truncation (final value <= VITALI_DECAY_RATIO * initial), not proofs,
    in measure at eps = 1/2 and UI over C = 0, 1, 2, 4, ... up to max |f_n|.
    """
    if _real_exponent(p) == INF:
        raise ValueError("Vitali diagnostics need p in [1, inf)")
    horizon = integer(horizon, "horizon", 1)
    members = []
    for f in fam_sequence:
        members.append(f)
        if len(members) >= horizon:
            break
    if not members:
        raise ValueError("empty function sequence")
    mode = space.mode
    eps_grid = (coerce_scalar(1, mode) / 2,) if mode == "exact" else (0.5,)
    _check_rv(space, g)
    for f in members:
        _check_rv(space, f)
    fam = FunctionFamily(space=space, members=tuple(members), p=p)

    values, scale = (fam._matrices[0], 1) if mode == "float" else fam._numerators
    limit, limit_scale = _twin(g)
    unit = lcm(scale, limit_scale)
    if unit != 1:  # exact twins over different denominators: move both onto their lcm
        values, limit = values * (unit // scale), limit * (unit // limit_scale)
    gaps = abs(values - limit)
    in_measure = tuple(
        tuple(_weighted(space, gaps > _threshold(mode, eps, unit, floor))) for eps in eps_grid
    )
    lp_curve = tuple(_lp_norms(space, *_powers(mode, gaps, unit, p)))
    m = _largest_abs(fam)
    grid = [coerce_scalar(0, mode)]
    c = coerce_scalar(1, mode)
    while c <= m and len(grid) < 40:
        grid.append(c)
        c = c * 2
    c_grid = tuple(grid)
    ui_curve = tuple((c, probabilist_modulus(fam, c)) for c in c_grid)

    in_measure_decay = all(_observed_decay(curve) for curve in in_measure)
    lp_decay = _observed_decay(lp_curve)
    ui_small = _observed_decay([v for _, v in ui_curve])
    consistent = lp_decay == (in_measure_decay and ui_small)
    return VitaliReport(
        eps_grid=eps_grid,
        in_measure=in_measure,
        in_measure_decay=in_measure_decay,
        c_grid=c_grid,
        ui_modulus_curve=ui_curve,
        ui_small=ui_small,
        lp_curve=lp_curve,
        lp_decay=lp_decay,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# Closed-form spike families (Vitali's positive and negative examples)
# ---------------------------------------------------------------------------


def _spike_family(horizon: int, mode: str, mass_power: int) -> tuple:
    """Spike n of height n on atom n-1, of mass 1/n^mass_power; limit 0."""
    horizon = integer(horizon, "horizon", 1)
    zero = coerce_scalar(0, mode)
    weights, members = [], []
    for n in range(1, horizon + 1):
        weights.append(Fraction(1, n**mass_power) if mode == "exact" else 1.0 / n**mass_power)
        vals = [zero] * horizon
        vals[n - 1] = coerce_scalar(n, mode)
        members.append(RandomVariable(values=tuple(vals), mode=mode))
    space = FiniteMeasureSpace.from_weights(weights, mode)
    return space, tuple(members), RandomVariable.constant(zero, horizon, mode)


def shrinking_spike_family(horizon: int, mode: str = "float") -> tuple:
    """Spikes of height n on sets of mass 1/n^2: converges in L1 (norm 1/n).

    Returns (space, members, limit); atoms are indexed n-1 for spike n.
    """
    return _spike_family(horizon, mode, 2)


def fixed_mass_spike_family(horizon: int, mode: str = "float") -> tuple:
    """Spikes of height n on sets of mass 1/n: in measure but L1 norm stays 1."""
    return _spike_family(horizon, mode, 1)
