"""Finite measure spaces, partition sigma-algebras, and random variables.

The whole toolkit works over a finite set of atoms ``{0, ..., n-1}`` with
nonnegative weights.  A sigma-algebra on such a space is exactly a partition
of the atoms; a function is measurable with respect to it iff it is constant
on every block.  "Almost everywhere" means "outside the atoms of weight 0".

Everything here is mode-aware (see :mod:`martkit.scalars`): exact mode
stores Fractions and performs no rounding; float mode stores IEEE doubles.

>>> sp = FiniteMeasureSpace.uniform(4)
>>> f = RandomVariable.exact([1, 3, 5, 7])
>>> integral(sp, f)
Fraction(4, 1)
>>> set_integral(sp, f, frozenset({0, 1}))
Fraction(1, 1)
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter, mul
from typing import Callable, Iterable

import numpy as np

from .scalars import (
    INF,
    Mode,
    ModeError,
    RootValue,
    Scalar,
    at_most,
    check_same_mode,
    close,
    coerce_values,
    integer,
    zero,
)

AtomSet = frozenset  # frozenset[int]; atoms are indices into the weight vector


# ---------------------------------------------------------------------------
# Measure space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """Finite measure on atoms 0..n-1, given by nonnegative weights."""

    weights: tuple
    mode: Mode

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}; expected 'exact' or 'float'")
        if len(self.weights) < 1:
            raise ValueError("a measure space needs at least one atom")
        for w in self.weights:
            if isinstance(w, float) and self.mode == "exact":
                raise ModeError(f"float weight {w!r} in exact mode; pass a Fraction or int")
            if isinstance(w, float) and (w != w or w in (INF, -INF)):
                raise ValueError("weights must be finite")
            if w < 0:
                raise ValueError("weights must be nonnegative")

    @staticmethod
    def from_weights(weights: Iterable[Scalar], mode: Mode = "exact") -> "FiniteMeasureSpace":
        return FiniteMeasureSpace(coerce_values(weights, mode), mode)

    @staticmethod
    def uniform(n: int, mode: Mode = "exact") -> "FiniteMeasureSpace":
        """Uniform probability space on n atoms."""
        n = integer(n, "n", 1)
        return FiniteMeasureSpace((Fraction(1, n) if mode == "exact" else 1.0 / n,) * n, mode)

    @property
    def atom_count(self) -> int:
        return len(self.weights)

    @cached_property
    def _weight_vector(self) -> np.ndarray:
        """The weights as one read-only float64 vector, derived at most once
        from the immutable tuple; float spaces only."""
        return _frozen_floats(self.mode, self.weights, (self.atom_count,))

    @cached_property
    def _numerators(self) -> tuple:
        """The weights as integer numerators over one common denominator,
        derived at most once from the immutable tuple; exact spaces only."""
        return _integer_twin(self.mode, self.weights, (self.atom_count,))

    @property
    def total(self) -> Scalar:
        return _weighted(self, np.ones((1, self.atom_count), dtype=bool))[0]

    def is_probability(self) -> bool:
        """Total mass 1, decided by ``scalars.close``."""
        return close(self.total, 1, self.mode)

    def positive_atoms(self) -> tuple:
        return tuple(i for i, w in enumerate(self.weights) if w > 0)

    def check_atoms(self, s: AtomSet) -> None:
        _atoms(s, self.atom_count)


def _atoms(s: AtomSet, n: int) -> set:
    """The atoms of s as ints, each passed through ``integer`` for 0..n-1."""
    return {integer(a, "atom", 0, n - 1) for a in s}


def _integer_twin(mode: Mode, values, shape: tuple) -> tuple:
    """Exact ``values`` as (a read-only object array of the given shape of
    Python-int numerators, their common denominator): the derived form that
    exact spaces, random variables and processes build at most once.  Over
    one denominator, two numerators are equal exactly when the values are,
    and a sum of w * v over both forms is a sum of integers.  This is where
    a value that is not an int or a Fraction raises ModeError."""
    if mode != "exact":
        raise ModeError("only exact data has integer numerators")
    try:
        nums, dens = (list(map(attrgetter(name), values)) for name in ("numerator", "denominator"))
    except AttributeError:
        raise ModeError("non-rational value in exact mode; pass Fractions or ints") from None
    den = lcm(*set(dens))
    out = np.array([n * (den // d) for n, d in zip(nums, dens)], dtype=object).reshape(shape)
    out.flags.writeable = False
    return out, den


def _weighted(space: FiniteMeasureSpace, rows: np.ndarray, scale: int = 1) -> list:
    """mu[row] / scale for each row of a (rows x atoms) array: the one weighted
    sum over atoms behind every integral, mass and norm.  Exact rows hold
    integers (numerators over ``scale``, or 0/1 masks) and add their products
    with the space's weight numerators, one Fraction per row.  Float rows add
    left to right from +0.0 (``_float_sums``).  An atom that a row leaves out
    holds 0 and adds a signed zero, which leaves a sum started at +0.0 as it
    is.  A float sum of finite rows past the float range raises ValueError,
    as ``_powers`` does for a power."""
    if space.mode == "exact":
        weights, unit = space._numerators
        weights = weights.tolist()
        return [Fraction(sum(map(mul, weights, row)), unit * scale) for row in rows.tolist()]
    with np.errstate(over="ignore"):  # an overflow raises below, naming itself
        sums = _float_sums(space._weight_vector * rows)
    if not np.isfinite(sums).all() and np.isfinite(rows).all():
        raise ValueError("a weighted sum of finite values overflows a float")
    return sums.tolist()


def _float_sums(terms: np.ndarray) -> np.ndarray:
    """Each row of a float64 array added left to right from +0.0 along the
    last axis, the order of ``_Kernel``'s block sums (``np.sum`` adds
    pairwise).  The running sum starts at the first term, and adding it to
    +0.0 turns a -0.0 into +0.0.  ``.tolist()`` gives Python floats."""
    return 0.0 + np.cumsum(terms, axis=-1)[..., -1]


def _frozen_floats(mode: Mode, rows, shape: tuple) -> np.ndarray:
    """Float ``rows`` as one read-only float64 array of the given shape: the
    derived form that float spaces, processes and function families build at
    most once.  Exact data never gets one."""
    if mode != "float":
        raise ModeError("only float data has a float64 matrix")
    out = np.array(rows, dtype=float).reshape(shape)
    out.flags.writeable = False
    return out


def _threshold(mode: Mode, c: Scalar, scale: int, rounding: Callable) -> Scalar:
    """A level c on the scale of a twin's entries: c itself in float mode, and
    ``rounding(c * scale)`` in exact mode, as an integer n has n/scale <= c
    iff n <= floor(c scale) and n/scale >= c iff n >= ceil(c scale)."""
    return rounding(c * scale) if mode == "exact" else c


def _mask(n: int, s: AtomSet) -> np.ndarray:
    """The atoms of s as a bool vector over atoms 0..n-1."""
    return np.isin(np.arange(n), list(s))


def measure(space: FiniteMeasureSpace, s: AtomSet) -> Scalar:
    """mu(s) = sum of the weights of the atoms in s, in ascending atom order."""
    space.check_atoms(s)
    return _weighted(space, _mask(space.atom_count, s)[None])[0]


# ---------------------------------------------------------------------------
# Random variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomVariable:
    """A function atoms -> scalars, stored densely."""

    values: tuple
    mode: Mode

    @staticmethod
    def from_values(values: Iterable[Scalar], mode: Mode) -> "RandomVariable":
        return RandomVariable(coerce_values(values, mode), mode)

    @staticmethod
    def exact(values: Iterable[Scalar]) -> "RandomVariable":
        return RandomVariable.from_values(values, "exact")

    @staticmethod
    def constant(c: Scalar, n: int, mode: Mode) -> "RandomVariable":
        return RandomVariable.from_values([c] * integer(n, "n"), mode)

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def _numerators(self) -> tuple:
        """``values`` as integer numerators over one common denominator,
        derived at most once; exact random variables only.  Not a field, so
        equality, hashing and ``repr`` ignore it."""
        return _integer_twin(self.mode, self.values, (len(self.values),))

    def __getitem__(self, i: int) -> Scalar:
        return self.values[i]

    def _binop(self, other: "RandomVariable", op: Callable) -> "RandomVariable":
        check_same_mode(self.mode, other.mode)
        if len(self) != len(other):
            raise ValueError("random variables over different atom counts")
        return RandomVariable(tuple(op(a, b) for a, b in zip(self.values, other.values)), self.mode)

    def __add__(self, other: "RandomVariable") -> "RandomVariable":
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other: "RandomVariable") -> "RandomVariable":
        return self._binop(other, lambda a, b: a - b)

    def scale(self, c: Scalar) -> "RandomVariable":
        c = coerce_values([c], self.mode)[0]
        return RandomVariable(tuple(c * v for v in self.values), self.mode)

    def __abs__(self) -> "RandomVariable":
        return RandomVariable(tuple(abs(v) for v in self.values), self.mode)

    def positive_part(self) -> "RandomVariable":
        z = zero(self.mode)
        return RandomVariable(tuple(v if v > z else z for v in self.values), self.mode)


def indicator(s: AtomSet, n: int, mode: Mode) -> RandomVariable:
    n = integer(n, "n")
    s = _atoms(s, n)
    one = Fraction(1) if mode == "exact" else 1.0
    z = zero(mode)
    return RandomVariable(tuple(one if i in s else z for i in range(n)), mode)


def _check_rv(space: FiniteMeasureSpace, f: RandomVariable) -> None:
    check_same_mode(space.mode, f.mode)
    if len(f) != space.atom_count:
        raise ValueError(
            f"random variable has {len(f)} values but the space has {space.atom_count} atoms"
        )


def _twin(x) -> tuple:
    """(entries, scale) of a random variable or process: its integer
    numerators and their common denominator in exact mode; in float mode the
    process's ``_matrix``, or a fresh float64 vector of a random variable's
    values, over 1."""
    if x.mode == "exact":
        return x._numerators
    if isinstance(x, RandomVariable):
        return np.array(x.values, dtype=float), 1
    return x._matrix, 1


def _real_exponent(p, name: str = "p"):
    """p as an exponent: inf or a real >= 1.  A bool or a non-real raises
    TypeError, and NaN (which fails every comparison) or a value below 1
    ValueError, both naming the exponent."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise TypeError(f"{name} must be a real >= 1 or inf, got {p!r}")
    if not p >= 1:
        raise ValueError(f"{name} must be >= 1 or inf, got {p!r}")
    return p


def _exponent(mode: Mode, p):
    """p checked for a norm: inf, or else an integer >= 1 in exact mode (a
    whole Fraction as an int) and a real >= 1 in float mode."""
    if _real_exponent(p) != INF and mode == "exact":
        p = int(p) if isinstance(p, Fraction) and p.denominator == 1 else p
        if not isinstance(p, int):
            raise ValueError(f"exact-mode norms require integer p >= 1 or inf, got {p!r}")
    return p


def _powers(mode: Mode, absolute: np.ndarray, scale: int, p) -> tuple:
    """(|f|^p, its scale, p checked by ``_exponent``) from a twin's |f| over
    ``scale``: |f| itself at p = 1 and at p = inf (where norms take the
    essential sup).  Exact mode takes integer powers over scale^p.  Float
    mode takes p as a float and Python's ``**`` value by value, which
    numpy's ``**`` misses in the last bit on some values; a power past the
    float range raises ValueError naming p, as a non-finite input would."""
    p = _exponent(mode, p)
    if p == 1 or p == INF:
        return absolute, scale, p
    if mode == "exact":
        return absolute**p, scale**p, p
    p = float(p)
    try:
        out = np.array([x**p for x in absolute.ravel().tolist()]).reshape(absolute.shape)
    except OverflowError:
        raise ValueError(f"|f|^p overflows a float at p = {p}") from None
    out.flags.writeable = False
    return out, scale, p


def _lp_norms(space: FiniteMeasureSpace, powered: np.ndarray, scale: int, p, pick=None) -> list:
    """``snorm`` of each row of an array from ``_powers``: the p-th root of the
    row's ``_weighted`` sum, as a float, a rational Fraction or a RootValue.
    At p = inf the essential sup over positive-weight atoms: a float row's
    largest entry, or ``pick(row, atom)`` at an exact row's first largest
    atom, so a stored value keeps its type; 0 without such atoms."""
    if p != INF:
        totals = _weighted(space, powered, scale)
        if space.mode == "float":
            return [total ** (1.0 / p) for total in totals]
        roots = [RootValue.of(total, p) for total in totals]
        return [root.as_fraction() if root.is_rational() else root for root in roots]
    if space.mode == "float":
        return np.where(space._weight_vector > 0, powered, 0.0).max(axis=-1, initial=0.0).tolist()
    positive = np.flatnonzero(space._numerators[0] > 0)
    if not positive.size:
        return [Fraction(0)] * len(powered)
    firsts = positive[[row.index(max(row)) for row in powered[:, positive].tolist()]]
    return [pick(r, a) for r, a in enumerate(firsts.tolist())]


def integral(space: FiniteMeasureSpace, f: RandomVariable) -> Scalar:
    """Integral of f over the whole space."""
    _check_rv(space, f)
    values, scale = _twin(f)
    return _weighted(space, values[None], scale)[0]


def set_integral(space: FiniteMeasureSpace, f: RandomVariable, s: AtomSet) -> Scalar:
    """Integral of f over the atom set s, summed in ascending atom order."""
    _check_rv(space, f)
    space.check_atoms(s)
    values, scale = _twin(f)
    return _weighted(space, np.where(_mask(space.atom_count, s), values, 0)[None], scale)[0]


def snorm(space: FiniteMeasureSpace, f: RandomVariable, p) -> Scalar | RootValue:
    """L^p norm of f: ``(integral |f|^p)^(1/p)``, or the essential sup at p=inf.

    Zero-weight atoms never contribute; in particular the essential supremum
    ignores them entirely.  Exact mode requires p to be a positive integer or
    inf and returns a Fraction when the norm is rational, otherwise an exact
    :class:`RootValue` in root form.  Float mode accepts any real p >= 1.
    """
    _check_rv(space, f)
    values, scale = _twin(f)
    powered, scale, p = _powers(space.mode, abs(values), scale, p)
    return _lp_norms(space, powered[None], scale, p, lambda _, a: abs(f.values[a]))[0]


# ---------------------------------------------------------------------------
# Almost-everywhere comparisons
# ---------------------------------------------------------------------------


def ae_witness(
    space: FiniteMeasureSpace,
    f: RandomVariable,
    g: RandomVariable,
    relation: str = "eq",
) -> int | None:
    """First positive-weight atom violating f <relation> g, or None.

    relation is one of "eq", "le", "ge", decided on d = f - g by the mode's
    rule ``scalars.at_most``: at_most(d, 0) for "le", at_most(-d, 0) for "ge", both for "eq".
    """
    if relation not in ("eq", "le", "ge"):
        raise ValueError(f"unknown relation {relation!r}; expected 'eq', 'le' or 'ge'")
    _check_rv(space, f)
    _check_rv(space, g)
    for i, w in enumerate(space.weights):
        if w == 0:
            continue
        d = f.values[i] - g.values[i]
        if not ((relation == "ge" or at_most(d, 0, space.mode))
                and (relation == "le" or at_most(-d, 0, space.mode))):
            return i
    return None


def ae_equal(space, f, g) -> bool:
    return ae_witness(space, f, g, "eq") is None


def ae_le(space, f, g) -> bool:
    return ae_witness(space, f, g, "le") is None


# ---------------------------------------------------------------------------
# Partitions (sigma-algebras)
# ---------------------------------------------------------------------------


def _first_appearance(keys: Iterable) -> tuple:
    """Hashable keys numbered by first appearance: 0 for the first key, then
    one more for each new key.  The one relabel rule of the partition lattice."""
    seen: dict = {}
    return tuple([seen.setdefault(k, len(seen)) for k in keys])


@dataclass(frozen=True)
class Partition:
    """Partition of atoms 0..n-1; blocks are numbered by first appearance.

    The partial order used throughout: P <= Q iff every block of Q is
    contained in a block of P, i.e. Q refines P, i.e. the sigma-algebra
    generated by P is contained in the one generated by Q.

    ``block_of`` is a tuple of ints already in that canonical form;
    ``Partition.of`` and ``from_blocks`` number any hashable labels.  Building
    a partition derives its block table once: ``_of``, each atom's block as a
    read-only intp array, and ``_first``, each block's first atom.  They are
    not fields, so equality, hashing and ``repr`` ignore them.  The lattice,
    measurability and ``condexp._Kernel`` read them.
    """

    block_of: tuple

    def __post_init__(self) -> None:
        labels = self.block_of
        if len(labels) < 1:
            raise ValueError("a partition needs at least one atom")
        if type(labels) is not tuple or set(map(type, labels)) != {int}:
            raise TypeError("block_of must be a tuple of ints; use Partition.of for other labels")
        try:
            of = np.array(labels, dtype=np.intp)
        except OverflowError:  # a label far outside 0..n-1
            of = np.array([-1])
        # canonical iff every label is >= 0 and each label that raises the
        # running maximum is the number of blocks opened before it
        first = np.flatnonzero(of > np.concatenate(([-1], np.maximum.accumulate(of)[:-1])))
        if of.min() < 0 or (of[first] != np.arange(len(first))).any():
            raise ValueError("block_of not canonical; use Partition.of or from_blocks")
        of.flags.writeable = first.flags.writeable = False
        object.__setattr__(self, "_of", of)
        object.__setattr__(self, "_first", first)

    @staticmethod
    def of(block_of: Iterable) -> "Partition":
        return Partition(_first_appearance(block_of))

    @staticmethod
    def trivial(n: int) -> "Partition":
        return Partition((0,) * integer(n, "n", 1))

    @staticmethod
    def singletons(n: int) -> "Partition":
        return Partition(tuple(range(integer(n, "n", 1))))

    @staticmethod
    def from_blocks(blocks: Iterable[Iterable[int]], n: int | None = None) -> "Partition":
        blocks = [sorted(b) for b in blocks]
        atoms = [a for b in blocks for a in b]
        n = len(atoms) if n is None else integer(n, "n", 1)
        if sorted(atoms) != list(range(n)):
            raise ValueError("blocks must partition atoms 0..n-1 exactly")
        block_of = [0] * n
        for bi, b in enumerate(blocks):
            if not b:
                raise ValueError("empty block")
            for a in b:
                block_of[a] = bi
        return Partition.of(block_of)

    @property
    def atom_count(self) -> int:
        return len(self.block_of)

    @property
    def block_count(self) -> int:
        return len(self._first)

    def blocks(self) -> tuple:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for a, b in enumerate(self.block_of):
            out[b].append(a)
        return tuple(tuple(b) for b in out)

    def block_sets(self) -> tuple:
        return tuple(frozenset(b) for b in self.blocks())


def _same_atoms(p: Partition, q: Partition) -> None:
    if p.atom_count != q.atom_count:
        raise ValueError("partitions over different atom counts")


def partition_le(p: Partition, q: Partition) -> bool:
    """P <= Q iff every block of Q is contained in a block of P: each atom's
    P-block is the P-block of its Q-block's first atom."""
    _same_atoms(p, q)
    return bool((p._of[q._first][q._of] == p._of).all())


def join(p: Partition, q: Partition) -> Partition:
    """Least upper bound: the common refinement, one block per (P-block,
    Q-block) pair that occurs."""
    _same_atoms(p, q)
    return Partition(_first_appearance((p._of * q.block_count + q._of).tolist()))


def meet(p: Partition, q: Partition) -> Partition:
    """Greatest lower bound: the finest partition coarser than both."""
    _same_atoms(p, q)
    n = p.atom_count
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for part in (p, q):
        for a, head in enumerate(part._first[part._of].tolist()):
            union(head, a)
    return Partition.of([find(a) for a in range(n)])


def _value_keys(values, mode: Mode) -> np.ndarray:
    """One value equality per mode for grouping, measurability and adaptedness:
    float mode compares bit patterns (0.0 != -0.0), exact mode rational values."""
    keys = np.asarray(values, dtype=float if mode == "float" else object)
    return keys.view(np.int64) if mode == "float" else keys


def generated_partition(f: RandomVariable) -> Partition:
    """Partition into the level sets of f, numbered by first appearance."""
    return Partition(_first_appearance(_value_keys(f.values, f.mode).tolist()))


def _unmeasured(values, mode: Mode, of: np.ndarray, first: np.ndarray) -> int | None:
    """First atom of the first block on which ``values`` is not constant, under
    ``_value_keys`` equality, or None.  ``of`` holds each atom's block, ``first``
    each block's first atom."""
    keys = _value_keys(values, mode)
    bad = keys != keys[first][of]
    return int(first[of[bad].min()]) if bad.any() else None


def _measurable(values, mode: Mode, p: Partition) -> bool:
    """True iff ``values`` is constant on every block of P, under ``_value_keys``
    equality."""
    return _unmeasured(values, mode, p._of, p._first) is None


def is_measurable_wrt(f: RandomVariable, p: Partition) -> bool:
    """True iff f is constant on every block of P (same equality as grouping)."""
    if len(f) != p.atom_count:
        raise ValueError("value count does not match partition atom count")
    return _measurable(f.values, f.mode, p)


def set_measurable_wrt(s: AtomSet, p: Partition) -> bool:
    """True iff s is a union of blocks of P."""
    return is_measurable_wrt(indicator(s, p.atom_count, "float"), p)
