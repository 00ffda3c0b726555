"""Filtrations, processes, martingale classification, Doob decomposition.

A filtration here is a finite monotone sequence of partitions, each bounded
by an ambient partition.  A process is a time-major table of values, one row
per time 0..horizon.  Classification compares ``condexp(f_j | steps[i])``
with ``f_i`` almost everywhere over *all* pairs ``i <= j``, once per block of
positive mass (exact mode reaches every pair by the tower rule); the tower
rule also makes the consecutive-pair check equivalent, and both are provided
(the equivalence is property-tested, not assumed silently).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm
from typing import Iterable

import numpy as np

from .condexp import _Kernel
from .measure import (
    FiniteMeasureSpace,
    Partition,
    RandomVariable,
    generated_partition,
    join,
    meet,
    partition_le,
    _frozen_floats,
    _integer_twin,
    _twin,
    _unmeasured,
)
from .scalars import Mode, Scalar, at_most, check_same_mode, close, coerce_values, integer, tolerance, zero


@dataclass(frozen=True)
class Filtration:
    """Monotone sequence of partitions bounded by an ambient partition."""

    steps: tuple
    ambient: Partition

    def __post_init__(self) -> None:
        if len(self.steps) < 1:
            raise ValueError("a filtration needs at least one step")
        for i, p in enumerate(self.steps):
            if p.atom_count != self.ambient.atom_count:
                raise ValueError("filtration steps over different atom counts")
            if not partition_le(p, self.ambient):
                raise ValueError(f"steps[{i}] is not a sub-sigma-algebra of ambient")
        for i in range(len(self.steps) - 1):
            if not partition_le(self.steps[i], self.steps[i + 1]):
                raise ValueError(f"filtration not monotone at step {i}")

    @staticmethod
    def of(steps: Iterable[Partition], ambient: Partition | None = None) -> "Filtration":
        steps = tuple(steps)
        if ambient is None and steps:  # no steps: __post_init__ raises
            ambient = Partition.singletons(steps[0].atom_count)
        return Filtration(steps, ambient)

    @staticmethod
    def constant(p: Partition, horizon: int, ambient: Partition | None = None) -> "Filtration":
        return Filtration.of([p] * (integer(horizon, "horizon") + 1), ambient)

    @property
    def horizon(self) -> int:
        return len(self.steps) - 1

    @property
    def atom_count(self) -> int:
        return self.ambient.atom_count


@dataclass(frozen=True)
class Process:
    """Time-major value table: values[n][atom] for n = 0..horizon."""

    values: tuple
    mode: Mode

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("a process needs at least one time row")
        widths = {len(row) for row in self.values}
        if len(widths) != 1:
            raise ValueError("ragged process rows")

    @staticmethod
    def from_values(rows: Iterable[Iterable[Scalar]], mode: Mode) -> "Process":
        return Process(tuple(coerce_values(row, mode) for row in rows), mode)

    @staticmethod
    def from_path(path: Iterable[Scalar], mode: Mode = "exact") -> "Process":
        """Deterministic single-atom process from one trajectory."""
        return Process.from_values([[v] for v in path], mode)

    @staticmethod
    def from_rvs(rows: Iterable[RandomVariable]) -> "Process":
        rows = list(rows)
        mode = check_same_mode(*[r.mode for r in rows])
        return Process(tuple(r.values for r in rows), mode)

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    @property
    def atom_count(self) -> int:
        return len(self.values[0])

    @cached_property
    def _matrix(self) -> np.ndarray:
        """``values`` as one read-only (times x atoms) float64 matrix, derived
        at most once from the immutable rows; float processes only.  Not a
        field, so equality and hashing ignore it."""
        return _frozen_floats(self.mode, self.values, (len(self.values), self.atom_count))

    @cached_property
    def _numerators(self) -> tuple:
        """``values`` as one read-only (times x atoms) object array of integer
        numerators over one common denominator, derived at most once; exact
        processes only.  Not a field, so equality, hashing and ``repr``
        ignore it."""
        return _integer_twin(self.mode, [v for row in self.values for v in row],
                             (len(self.values), self.atom_count))

    def at(self, n: int) -> RandomVariable:
        return RandomVariable(self.values[n], self.mode)

    def rows(self) -> tuple:
        return tuple(self.at(n) for n in range(self.horizon + 1))

    def __sub__(self, other: "Process") -> "Process":
        check_same_mode(self.mode, other.mode)
        if len(self.values) != len(other.values) or self.atom_count != other.atom_count:
            raise ValueError("process shapes differ")
        return Process(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.values, other.values)
            ),
            self.mode,
        )

    def path(self, atom: int) -> tuple:
        return tuple(row[atom] for row in self.values)


def _check_process(space: FiniteMeasureSpace, f: Process, F: Filtration) -> None:
    check_same_mode(space.mode, f.mode)
    if f.atom_count != space.atom_count or F.atom_count != space.atom_count:
        raise ValueError("atom counts differ between space, process, filtration")
    if f.horizon != F.horizon:
        raise ValueError(f"process horizon {f.horizon} != filtration horizon {F.horizon}")


def _first_unmeasured(f: Process, steps, lag: int) -> tuple | None:
    """(n, ``measure._unmeasured``'s atom) for the first row n of f's twin not measurable
    at step max(n - lag, 0), or None: lag 0 scans adaptedness, lag 1 predictability."""
    if len(steps) != len(f.values) or steps[0].atom_count != f.atom_count:
        raise ValueError("process and filtration shapes differ")
    for n, row in enumerate(_twin(f)[0]):
        step = steps[max(n - lag, 0)]
        atom = _unmeasured(row, f.mode, step._of, step._first)
        if atom is not None:
            return n, atom
    return None


def is_adapted(f: Process, F: Filtration) -> bool:
    return _first_unmeasured(f, F.steps, 0) is None


def is_predictable(c: Process, F: Filtration) -> bool:
    """c_0 measurable at step 0 and c_{n+1} measurable at step n."""
    return _first_unmeasured(c, F.steps, 1) is None


def filtration_sup(F: Filtration) -> Partition:
    """Join of all steps: the last step, since the steps are monotone."""
    return F.steps[-1]


def natural_filtration(f: Process, ambient: Partition | None = None) -> Filtration:
    """Smallest filtration making f adapted, bounded by ambient: step n joins
    the level sets of rows 0..n, and meets ambient when it is not below it."""
    if ambient is None:
        ambient = Partition.singletons(f.atom_count)
    steps, current = [], Partition.trivial(f.atom_count)
    for row in f.rows():
        current = join(current, generated_partition(row))
        steps.append(current if partition_le(current, ambient) else meet(current, ambient))
    return Filtration(tuple(steps), ambient)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class MartingaleClass(enum.Enum):
    MARTINGALE = "martingale"
    SUBMARTINGALE = "submartingale"
    SUPERMARTINGALE = "supermartingale"
    NONE = "none"


@dataclass(frozen=True)
class Classification:
    """Outcome of classify(): strongest class plus first violation witnesses.

    ``sub_violation`` is the first (i, j, atom) with condexp(f_j|steps[i])
    strictly below f_i on a positive-weight atom (kills submartingale);
    ``super_violation`` the first strictly above (kills supermartingale).
    A martingale has neither.  ``adapted_witness`` is (n, atom-block info)
    when adaptedness itself fails, in which case the kind is NONE.
    """

    kind: MartingaleClass
    adapted: bool
    adapted_witness: tuple | None
    sub_violation: tuple | None
    super_violation: tuple | None

    def witness_against(self, asserted: MartingaleClass) -> tuple | None:
        """First (i, j, atom) contradicting an asserted class, if any."""
        if not self.adapted:
            return self.adapted_witness
        if asserted is MartingaleClass.MARTINGALE:
            return self.sub_violation or self.super_violation
        if asserted is MartingaleClass.SUBMARTINGALE:
            return self.sub_violation
        if asserted is MartingaleClass.SUPERMARTINGALE:
            return self.super_violation
        return None

    def is_at_least(self, asserted: MartingaleClass) -> bool:
        return self.adapted and self.witness_against(asserted) is None


def _violations(kernel, rows, j: int, top: int, low: int, adapted: bool = True) -> dict:
    """{(i, j): (first atom below, first atom above)} for i = top down to low:
    the first positive-weight atoms where E[f_j | steps[i]] lies below or above
    f_i by more than the tolerance, or None.  One comparison per block of
    positive mass, or per positive-weight atom when f is not adapted."""
    t = tolerance(kernel.mode)
    out = {}
    for i, sums in kernel.tower(rows[j], top, low):
        at = kernel.rep[i] if adapted else kernel.positive
        d = kernel.gaps(rows[j], sums, i, rows[i], at)
        out[i, j] = tuple(int(at[m].min()) if m.any() else None for m in (d < -t, d > t))
    return out


def classify(
    space: FiniteMeasureSpace,
    f: Process,
    F: Filtration,
    pairs: str = "all",
) -> Classification:
    """Classify f against F as (sub/super)martingale or none, with witnesses.

    ``pairs="all"`` compares condexp(f_j | steps[i]) with f_i for every
    i <= j (the defining form); ``pairs="consecutive"`` checks only
    j = i + 1, which the tower rule proves equivalent.  Adaptedness uses the
    value equality of ``is_adapted`` (``measure._value_keys``; float 0.0 != -0.0).
    Pairs i = j never violate once f is adapted, so they are not compared.
    """
    _check_process(space, f, F)
    if pairs not in ("all", "consecutive"):
        raise ValueError("pairs must be 'all' or 'consecutive'")
    witness = _first_unmeasured(f, F.steps, 0)
    if witness is not None:
        return Classification(MartingaleClass.NONE, False, witness, None, None)
    kernel = _Kernel(space, F.steps)
    rows = kernel.rows(f)
    found: dict = {}
    for j in range(1, f.horizon + 1):
        found.update(_violations(kernel, rows, j, j - 1, 0 if pairs == "all" else j - 1))
    ordered = sorted(found.items())  # (i, j) order: the first violation of each side wins
    sub_violation = next(((i, j, w[0]) for (i, j), w in ordered if w[0] is not None), None)
    super_violation = next(((i, j, w[1]) for (i, j), w in ordered if w[1] is not None), None)
    if sub_violation is None and super_violation is None:
        kind = MartingaleClass.MARTINGALE
    elif sub_violation is None:
        kind = MartingaleClass.SUBMARTINGALE
    elif super_violation is None:
        kind = MartingaleClass.SUPERMARTINGALE
    else:
        kind = MartingaleClass.NONE
    return Classification(kind, True, None, sub_violation, super_violation)


def _require_class(space, f: Process, F: Filtration, classification, kind, message: str) -> Classification:
    """The one hypothesis gate of the theorem checks: ``classification``, or
    ``classify(space, f, F)`` when it is None; raises ValueError(message)
    unless f is at least ``kind``, and TypeError when ``classification`` is
    neither a Classification nor None."""
    if classification is None:
        classification = classify(space, f, F)
    elif not isinstance(classification, Classification):
        raise TypeError(f"classification must be a Classification or None, got {classification!r}")
    if not classification.is_at_least(kind):
        raise ValueError(message)
    return classification


# ---------------------------------------------------------------------------
# Discrete stochastic integral and Doob decomposition
# ---------------------------------------------------------------------------


def stochastic_integral(c: Process, f: Process) -> Process:
    """(c . f)_n = sum_{k<n} c_{k+1} * (f_{k+1} - f_k); row 0 is zero.

    c_0 never enters.  The result has the common horizon of c and f.
    """
    check_same_mode(c.mode, f.mode)
    if c.horizon != f.horizon or c.atom_count != f.atom_count:
        raise ValueError("integrand and integrator shapes differ")
    n_atoms = f.atom_count
    rows = [tuple([zero(f.mode)] * n_atoms)]
    acc = list(rows[0])
    for k in range(f.horizon):
        for a in range(n_atoms):
            acc[a] = acc[a] + c.values[k + 1][a] * (f.values[k + 1][a] - f.values[k][a])
        rows.append(tuple(acc))
    return Process(tuple(rows), f.mode)


@dataclass(frozen=True)
class DoobDecomposition:
    martingale_part: Process
    predictable_part: Process


def doob_decomposition(
    space: FiniteMeasureSpace, f: Process, F: Filtration
) -> DoobDecomposition:
    """Split an adapted process into martingale + predictable parts.

    predictable_part[n] = sum_{k<n} (condexp(f_{k+1} | steps[k]) - f_k),
    martingale_part = f - predictable_part.  The identity f = m + p holds
    exactly in exact mode; in float mode m and p are rounded, so m + p equals
    f only within the float slack (``scalars.close``).  The classification facts (m is a
    martingale, p is predictable, p is nondecreasing iff f is a submartingale) are
    decided by ``doob_witnesses``, not assumed here.  In exact mode m_n is
    formed once per cell of ``_running_sums``, which for adapted input is a
    block of steps[n], where m_n is constant.
    """
    _check_process(space, f, F)
    kernel = _Kernel(space, F.steps)
    pred, cells = _running_sums(kernel, f, 0)
    predictable = Process(pred, f.mode)
    if cells is None:
        return DoobDecomposition(martingale_part=f - predictable, predictable_part=predictable)
    nums, den = f._numerators
    mart = []
    for cell_of, first, row, pred_row in zip(*cells, nums, pred):
        per_cell = []
        for a, y in zip(first.tolist(), row[first].tolist()):
            q = pred_row[a]
            per_cell.append(Fraction(y * q.denominator - q.numerator * den, den * q.denominator))
        mart.append(tuple(map(per_cell.__getitem__, cell_of.tolist())))
    return DoobDecomposition(Process(tuple(mart), f.mode), predictable)


def doob_witnesses(space: FiniteMeasureSpace, f: Process, F: Filtration) -> tuple:
    """Doob's facts on ``doob_decomposition(space, f, F) = (m, a)``, each its first
    failing place or None: m is a martingale (``classify``'s witness), then the
    first (n, atom) in row-major order where a_n is not measurable at step n - 1,
    falls below a_{n-1} at positive weight, or m_n + a_n != f_n by the mode's rule."""
    dd = doob_decomposition(space, f, F)
    twins = [_twin(x) for x in (dd.martingale_part, dd.predictable_part, f)]
    den = lcm(*(scale for _, scale in twins))
    m, a, g = (values * (den // scale) for values, scale in twins)
    live = list(space.positive_atoms())
    falls = np.argwhere(~at_most(a[:-1, live], a[1:, live], f.mode)).tolist()
    differs = np.argwhere(~close(m + a, g, f.mode)).tolist()
    return (classify(space, dd.martingale_part, F).witness_against(MartingaleClass.MARTINGALE),
            _first_unmeasured(dd.predictable_part, F.steps, 1),
            (falls[0][0] + 1, live[falls[0][1]]) if falls else None,
            tuple(differs[0]) if differs else None)


def _running_sums(kernel: _Kernel, f: Process, lag) -> tuple:
    """(rows 0..horizon, cells) of the running sums over k < n of the
    increments ce_k - f_k (lag 0, Doob's predictable part), f_{k+1} - ce_k
    (lag 1, the compensated count) or ce_k alone (lag None), where ce_k =
    condexp(f_{k+1} | steps[k]), averaged from the atoms.

    Float input is summed at every atom, and ``cells`` is None.  Exact input
    is summed once per cell, in integers up to one Fraction per cell: over
    f's denominator den, ce_k on a block B of steps[k] is n_B / (m_B den),
    with n_B, m_B the block integral and mass (the row's own numerator and 1
    where the row is measurable, 0 and 1 on a block of mass zero), so each
    increment is an integer over m_B den.  The cells of step n are the
    blocks of steps[n] when f is adapted (increment k is then constant on
    the blocks of steps[k + 1] for lag 1, and of steps[k] otherwise), and
    single atoms when it is not; ``cells`` holds, per step, each atom's cell
    and each cell's first atom, and a cell's atoms share its sum."""
    rows = kernel.rows(f)
    if not kernel.exact:
        acc = np.zeros(f.atom_count)
        out = [tuple(acc.tolist())]
        for k in range(f.horizon):
            ce = kernel.condexp(rows[k + 1], k)
            a, b = (ce, rows[k]) if lag == 0 else (rows[k + 1], ce) if lag == 1 else (ce, None)
            acc = acc + a if b is None else acc + a - b
            out.append(tuple(acc.tolist()))
        return tuple(out), None
    atoms = [np.arange(f.atom_count)] * len(rows)
    cells = (kernel.of, kernel.first) if _first_unmeasured(f, kernel.steps, 0) is None else (atoms, atoms)
    nums, den = f._numerators
    level, acc = 0, [zero("exact")] * len(cells[1][0])
    out = [tuple(map(acc.__getitem__, cells[0][0].tolist()))]
    for k in range(f.horizon):
        new = k + 1 if lag == 1 else k
        first = cells[1][new]
        row = rows[k + 1]
        if kernel.unmeasured(row, k) is None:
            ce_num, ce_mass = row[0][kernel.first[k]].tolist(), [1] * len(kernel.first[k])
        else:
            (ce_num, _), (mass, _) = kernel.sums(row, k), kernel.mass[k]
            ce_mass = [m or 1 for m in mass]
        own = repeat(0) if lag is None else nums[k + lag][first].tolist()
        sign = -1 if lag == 1 else 1  # f_{k+1} - ce_k = -(ce_k - f_{k+1})
        new_acc = []
        for u, b, y in zip(cells[0][level][first].tolist(), kernel.of[k][first].tolist(), own):
            a, m = acc[u], ce_mass[b]
            d = m * den
            new_acc.append(Fraction(a.numerator * d + sign * (ce_num[b] - y * m) * a.denominator,
                                    a.denominator * d))
        level, acc = new, new_acc
        out.append(tuple(map(acc.__getitem__, cells[0][new].tolist())))
    return tuple(out), cells
