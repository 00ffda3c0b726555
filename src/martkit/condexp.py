"""Conditional expectation on finite measure spaces, built two ways.

:func:`condexp` is the defining construction: averaging over the blocks of
the conditioning partition, with total-function "junk value" semantics: the
zero function when the conditioning partition is not a sub-sigma-algebra of
the ambient one, the integrand itself, value for value, when it is already
measurable, and 0 on blocks of measure zero.  Its averages come from
``_Kernel``, the blockwise kernel it shares with classification, the Doob
decomposition, Levy's upward theorem and the predictable sums: float block
sums run in ascending atom order; exact ones add products of the integer
numerators that the space and the data each derived once (their twins,
``measure._derived``), so a Fraction is built only per block average;
and exact filtration-wide work folds the block integrals of step k+1 into
those of step k (the tower rule).

:func:`condexp_l2` is an intentionally separate second route: orthogonal
projection onto the span of the block indicators under the weighted inner
product, implemented by assembling and solving the normal equations.  The
assembly walks each atom's nonzero basis entries, so it costs O(n + nnz of
B^T W B) plus ``_solve_linear``.  It stays independent of :func:`condexp`: it
never assumes the blocks are disjoint, never divides by a block mass and
shares no blockwise kernel.  The two constructions are exact oracles for each
other; the test suite checks a.e. agreement on large random batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .measure import (
    FiniteMeasureSpace,
    Partition,
    RandomVariable,
    ae_equal,
    ae_le,
    ae_witness,
    partition_le,
    _check_rv,
    _unmeasured,
)
from .scalars import Scalar, at_most, zero


def _default_ambient(space: FiniteMeasureSpace, ambient: Partition | None) -> Partition:
    return Partition.singletons(space.atom_count) if ambient is None else ambient


class _Kernel:
    """Block tables of a sequence of partitions over one space.  Per step k,
    ``of[k]`` (each atom's block) and ``first[k]`` (each block's first atom)
    are the partition's own block table, derived once when it was built;
    ``rep[k]`` (the first positive-weight atom of each block of positive
    mass) and ``mass[k]`` (the block masses) depend on the weights, so they
    are built inside each call and never kept.  A row is (entries, scale) in
    both modes: a random variable's twin, or a row of a process's twin with
    its scale (``measure._derived``), float64 entries over 1 or integer
    numerators over their common denominator; the weights are the space's
    own twin.  Adaptedness is not the kernel's: ``processes._first_unmeasured``
    scans it from the twin.  Block sums run in ascending atom order:
    ``np.bincount`` in float mode, sums of integer products in exact mode, so
    a Fraction is built only per block average."""

    def __init__(self, space: FiniteMeasureSpace, steps: Sequence[Partition]) -> None:
        self.mode, self.exact, self.steps = space.mode, space.mode == "exact", steps
        weights, self.unit = space._twin
        self.weights = weights.tolist() if self.exact else weights
        self.positive = np.flatnonzero(weights != 0)  # weights are >= 0
        self.of, self.first = [p._of for p in steps], [p._first for p in steps]
        self.rep = [self.positive[np.unique(of[self.positive], return_index=True)[1]] for of in self.of]
        self.mass = [(self._add(self.weights, k), self.unit) if self.exact else self.sums((1.0, 1), k)
                     for k in range(len(steps))]

    def rows(self, f) -> list:
        """The rows of a process's twin, each with the twin's scale."""
        entries, scale = f._twin
        return [(row, scale) for row in entries]

    def _add(self, terms, k: int) -> list:
        out = [0] * len(self.first[k])
        for b, t in zip(self.steps[k].block_of, terms):
            out[b] += t
        return out

    def sums(self, row, k: int) -> tuple:
        """Integrals over the blocks of step k, as (entries, scale) like a row:
        a float64 array over 1, or a list of integers over the weights' and
        the row's scales.  A float integral of finite values past the float
        range raises ValueError, as ``measure._weighted`` does: its inf, or the
        NaN of inf and -inf terms, would pass as a block average."""
        entries, scale = row
        if self.exact:
            return self._add(map(mul, self.weights, entries.tolist()), k), self.unit * scale
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below, naming itself
            sums = np.bincount(self.of[k], weights=self.weights * entries, minlength=len(self.first[k]))
        if not np.isfinite(sums).all():
            raise ValueError("a weighted sum of finite values overflows a float")
        return sums, scale

    def means(self, sums, k: int) -> np.ndarray:
        """Block averages from block integrals; 0 on blocks of mass zero."""
        (s, d), (m, e) = sums, self.mass[k]
        if not self.exact:
            return np.divide(s, m, out=np.zeros(len(s)), where=m != 0)
        return np.array([Fraction(x * e, d * y) if y else Fraction(0) for x, y in zip(s, m)])

    def unmeasured(self, row, k: int) -> int | None:
        """``measure._unmeasured`` on step k: None when ``row`` is measurable."""
        return _unmeasured(row[0], self.mode, self.of[k], self.first[k])

    def tower(self, row, top: int, low: int):
        """(i, block integrals of row over steps[i]) for i = top down to low.
        Exact mode folds step i+1's integrals into step i's (the tower rule);
        float mode sums each step from the atoms, as the fold rounds otherwise."""
        sums = None
        for i in range(top, low - 1, -1):
            if sums is not None and self.exact:
                folded = [0] * len(self.first[i])
                for parent, x in zip(self.of[i][self.first[i + 1]].tolist(), sums[0]):
                    folded[parent] += x
                sums = folded, sums[1]
            else:
                sums = self.sums(row, i)
            yield i, sums

    def averages(self, row, sums, k: int) -> np.ndarray:
        """Float condexp(row | steps[k]) per block, from the row's block
        integrals: the row's own values where it is measurable, else the
        block averages."""
        return row[0][self.first[k]] if self.unmeasured(row, k) is None else self.means(sums, k)

    def condexp(self, row, k: int) -> np.ndarray:
        """Float condexp(row | steps[k]) at every atom."""
        return self.averages(row, self.sums(row, k), k)[self.of[k]]

    def gaps(self, row, sums, i: int, low, at: np.ndarray) -> np.ndarray:
        """condexp(row | steps[i]) - low at the atoms ``at``, whose blocks have
        positive mass, from ``row``'s block integrals over steps[i].  Exact mode
        returns each difference times its block's mass and the denominators,
        a positive factor, so only the sign counts there; no Fraction is built."""
        blocks = self.of[i][at]
        if not self.exact:
            return self.averages(row, sums, i)[blocks] - low[0][at]
        s, m = (np.array(x[0], dtype=object)[blocks] for x in (sums, self.mass[i]))
        return s - low[0][at] * m


def condexp(
    space: FiniteMeasureSpace,
    f: RandomVariable,
    sub: Partition,
    ambient: Partition | None = None,
) -> RandomVariable:
    """Conditional expectation of f given the partition ``sub``.

    Dispatch order, each case total:

    1. ``sub`` not a sub-sigma-algebra of ``ambient`` -> zero function.
    2. f already measurable w.r.t. ``sub`` -> f itself, bitwise.
    3. otherwise -> blockwise average, 0 on blocks of measure zero.
    """
    _check_rv(space, f)
    ambient = _default_ambient(space, ambient)
    # sub <= ambient in the sigma-algebra order means ambient refines sub.
    if not partition_le(sub, ambient):
        return RandomVariable.constant(0, space.atom_count, space.mode)
    kernel = _Kernel(space, (sub,))
    row = f._twin
    if kernel.unmeasured(row, 0) is None:
        return f
    means = kernel.means(kernel.sums(row, 0), 0)
    return RandomVariable(tuple(means[kernel.of[0]].tolist()), space.mode)


def _solve_linear(g: list[list[Scalar]], r: list[Scalar], mode: str) -> list[Scalar]:
    """Gauss-Jordan with partial pivoting; zero pivot rows get coefficient 0."""
    n = len(g)
    a = [row[:] + [r[i]] for i, row in enumerate(g)]
    pivot_of_col: dict[int, int] = {}
    row = 0
    for col in range(n):
        pick = max(range(row, n), key=lambda i: abs(a[i][col]))
        if a[pick][col] == 0:
            continue
        a[row], a[pick] = a[pick], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for i in range(n):
            if i != row and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[row])]
        pivot_of_col[col] = row
        row += 1
    x = [Fraction(0) if mode == "exact" else 0.0] * n
    for col, prow in pivot_of_col.items():
        x[col] = a[prow][n]
    return x


def condexp_l2(
    space: FiniteMeasureSpace,
    f: RandomVariable,
    sub: Partition,
    ambient: Partition | None = None,
) -> RandomVariable:
    """Conditional expectation as an orthogonal projection.

    Projects f onto the span of the indicators of the blocks of ``sub``
    under the inner product ``<u, v> = integral(u * v)``, by assembling the
    Gram matrix B^T W B and the right side B^T W f and solving the normal
    equations.  Violated preconditions raise (no junk values on this route);
    blocks of measure zero get projection coefficient 0.

    The assembly visits each atom's nonzero basis entries only, so it costs
    O(n + nnz(B^T W B)) plus laying out the k x k matrix, then
    ``_solve_linear``.  It stays generic: an atom may lie in any number of
    basis vectors, nothing divides by a block mass, and no blockwise kernel
    is shared with :func:`condexp`.  Each entry sums ``w * a * b`` (and
    ``w * f * a``) from zero in ascending atom order.  The terms it skips are
    the +-0 products of a zero entry, which leave a sum started at +0 as it
    is, so every entry is bitwise the full inner product over all atoms.
    """
    _check_rv(space, f)
    ambient = _default_ambient(space, ambient)
    if not partition_le(sub, ambient):
        raise ValueError("sub is not a sub-sigma-algebra of ambient")
    mode, n = space.mode, space.atom_count
    one = Fraction(1) if mode == "exact" else 1.0
    blocks = sub.blocks()
    entries: list[list[tuple[int, Scalar]]] = [[] for _ in range(n)]
    for i, block in enumerate(blocks):
        for t in block:
            entries[t].append((i, one))
    k = len(blocks)
    gram = [[zero(mode)] * k for _ in range(k)]
    rhs = [zero(mode)] * k
    for w, x, nonzero in zip(space.weights, f.values, entries):
        for i, a in nonzero:
            rhs[i] += w * x * a
            row = gram[i]
            for j, b in nonzero:
                row[j] += w * a * b
    coeff = _solve_linear(gram, rhs, mode)
    out = [zero(mode)] * n
    for c, block in zip(coeff, blocks):
        for t in block:
            out[t] = c
    return RandomVariable(tuple(out), mode)


@dataclass(frozen=True)
class CharacterizationReport:
    holds: bool
    worst_block_gap: Scalar


def check_set_integral_characterization(
    space: FiniteMeasureSpace,
    f: RandomVariable,
    sub: Partition,
    ambient: Partition | None = None,
) -> CharacterizationReport:
    """Verify the defining property: block integrals of condexp match f's.

    For every block B of ``sub``: integral of condexp(f | sub) over B equals
    the integral of f over B, the worst gap decided by ``scalars.at_most``.
    """
    ce = condexp(space, f, sub, ambient)
    kernel = _Kernel(space, (sub,))
    sums = [kernel.sums(g._twin, 0) for g in (ce, f)]
    sums = [[Fraction(n, d) for n in s] if kernel.exact else s.tolist() for s, d in sums]
    worst = max(abs(a - b) for a, b in zip(*sums))
    return CharacterizationReport(holds=at_most(worst, 0, space.mode), worst_block_gap=worst)


@dataclass(frozen=True)
class CondexpPropertiesReport:
    linearity_holds: bool
    tower_holds: bool
    monotonicity_premise_holds: bool
    monotonicity_holds: bool
    holds: bool


def condexp_properties(
    space: FiniteMeasureSpace,
    f: RandomVariable,
    g: RandomVariable,
    sub_fine: Partition,
    sub_coarse: Partition,
    alpha: Scalar = 1,
    beta: Scalar = 1,
    ambient: Partition | None = None,
) -> CondexpPropertiesReport:
    """Check linearity, the tower rule, and monotonicity, all a.e.

    * linearity: condexp(alpha*f + beta*g | fine) = alpha*condexp(f|fine)
      + beta*condexp(g|fine)
    * tower: condexp(condexp(f | fine) | coarse) = condexp(f | coarse)
    * monotonicity: f <= g a.e. implies condexp(f|fine) <= condexp(g|fine)
      a.e.; reported vacuously true when the premise fails.

    Pre: sub_coarse <= sub_fine in the partition order.
    """
    if not partition_le(sub_coarse, sub_fine):
        raise ValueError("sub_coarse must be <= sub_fine (fine refines coarse)")
    combo = f.scale(alpha) + g.scale(beta)
    lin_lhs = condexp(space, combo, sub_fine, ambient)
    lin_rhs = condexp(space, f, sub_fine, ambient).scale(alpha) + condexp(
        space, g, sub_fine, ambient
    ).scale(beta)
    linearity = ae_equal(space, lin_lhs, lin_rhs)

    tower_lhs = condexp(space, condexp(space, f, sub_fine, ambient), sub_coarse, ambient)
    tower_rhs = condexp(space, f, sub_coarse, ambient)
    tower = ae_equal(space, tower_lhs, tower_rhs)

    premise = ae_le(space, f, g)
    if premise:
        mono = ae_le(
            space, condexp(space, f, sub_fine, ambient), condexp(space, g, sub_fine, ambient)
        )
    else:
        mono = True
    return CondexpPropertiesReport(
        linearity_holds=linearity,
        tower_holds=tower,
        monotonicity_premise_holds=premise,
        monotonicity_holds=mono,
        holds=linearity and tower and mono,
    )


def condexp_agreement_witness(
    space: FiniteMeasureSpace,
    f: RandomVariable,
    sub: Partition,
    ambient: Partition | None = None,
) -> int | None:
    """First positive-weight atom where the two constructions disagree."""
    return ae_witness(
        space, condexp(space, f, sub, ambient), condexp_l2(space, f, sub, ambient), "eq"
    )
