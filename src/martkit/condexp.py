"""Conditional expectation on finite measure spaces, built two ways.

:func:`condexp` is the defining construction: averaging over the blocks of
the conditioning partition, with total-function "junk value" semantics.  The
function is defined for every input; when the conditioning partition is not
a sub-sigma-algebra of the ambient one the result is the zero function, and
when the integrand is already measurable the result is the integrand itself,
value for value (not merely almost everywhere).  Blocks of measure zero get
the value 0.

:func:`condexp_l2` is an intentionally separate second route: orthogonal
projection onto the span of the block indicators under the weighted inner
product, implemented by assembling and solving the normal equations.  The
two constructions are exact oracles for each other; the test suite checks
a.e. agreement on large random batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .measure import (
    FiniteMeasureSpace,
    Partition,
    RandomVariable,
    ae_equal,
    ae_le,
    ae_witness,
    indicator,
    is_measurable_wrt,
    measure,
    partition_le,
    set_integral,
    _check_rv,
)
from .scalars import Scalar, tolerance, zero


def _default_ambient(space: FiniteMeasureSpace, ambient: Partition | None) -> Partition:
    return Partition.singletons(space.atom_count) if ambient is None else ambient


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
    if is_measurable_wrt(f, sub):
        return f
    out = [zero(space.mode)] * space.atom_count
    for block in sub.block_sets():
        mass = measure(space, block)
        if mass == 0:
            continue
        avg = set_integral(space, f, block) / mass
        for a in block:
            out[a] = avg
    return RandomVariable(tuple(out), space.mode)


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
    Gram matrix and solving the normal equations.  Violated preconditions
    raise (no junk values on this route); blocks of measure zero get
    projection coefficient 0.
    """
    _check_rv(space, f)
    ambient = _default_ambient(space, ambient)
    if not partition_le(sub, ambient):
        raise ValueError("sub is not a sub-sigma-algebra of ambient")
    basis = [indicator(b, space.atom_count, space.mode) for b in sub.block_sets()]
    k = len(basis)

    def inner(u: RandomVariable, v: RandomVariable) -> Scalar:
        return sum(
            (w * a * b for w, a, b in zip(space.weights, u.values, v.values)),
            zero(space.mode),
        )

    gram = [[inner(basis[i], basis[j]) for j in range(k)] for i in range(k)]
    rhs = [inner(f, basis[i]) for i in range(k)]
    coeff = _solve_linear(gram, rhs, space.mode)
    out = [zero(space.mode)] * space.atom_count
    for c, b in zip(coeff, sub.blocks()):
        for a in b:
            out[a] = c
    return RandomVariable(tuple(out), space.mode)


@dataclass(frozen=True)
class CharacterizationReport:
    holds: bool
    worst_block_gap: Scalar


def check_set_integral_characterization(
    space: FiniteMeasureSpace,
    f: RandomVariable,
    sub: Partition,
    ambient: Partition | None = None,
    tol: float | None = None,
) -> CharacterizationReport:
    """Verify the defining property: block integrals of condexp match f's.

    For every block B of ``sub``: integral of condexp(f | sub) over B equals
    the integral of f over B.  Exact mode demands equality; float mode allows
    the default absolute tolerance.
    """
    ce = condexp(space, f, sub, ambient)
    worst = zero(space.mode)
    for block in sub.block_sets():
        gap = abs(set_integral(space, ce, block) - set_integral(space, f, block))
        if gap > worst:
            worst = gap
    limit = tolerance(space.mode, tol)
    return CharacterizationReport(holds=worst <= limit, worst_block_gap=worst)


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
    tol: float | None = None,
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
    linearity = ae_equal(space, lin_lhs, lin_rhs, tol)

    tower_lhs = condexp(space, condexp(space, f, sub_fine, ambient), sub_coarse, ambient)
    tower_rhs = condexp(space, f, sub_coarse, ambient)
    tower = ae_equal(space, tower_lhs, tower_rhs, tol)

    premise = ae_le(space, f, g, tol)
    if premise:
        mono = ae_le(
            space, condexp(space, f, sub_fine, ambient), condexp(space, g, sub_fine, ambient), tol
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
    tol: float | None = None,
) -> int | None:
    """First positive-weight atom where the two constructions disagree."""
    return ae_witness(
        space, condexp(space, f, sub, ambient), condexp_l2(space, f, sub, ambient), "eq", tol
    )
