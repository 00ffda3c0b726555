"""Dual-mode scalar arithmetic shared by every module.

All quantities in this package live in one of two modes:

* ``"exact"`` -- arbitrary-precision rationals (:class:`fractions.Fraction`).
  No rounding ever happens in this mode; theorem checks assert exact
  (in)equalities.
* ``"float"`` -- IEEE double precision, used by the Monte Carlo engine and
  by float-mode diagnostics.

Mixing modes inside one computation is an error.  Containers (measure
spaces, random variables, processes) carry an explicit ``mode`` tag; the
helpers here coerce raw user values into the canonical representation for a
mode and detect incompatibilities.

Exact p-norms need one extra wrinkle: ``(sum |f|^p d mu)**(1/p)`` is
irrational for most inputs when ``p >= 2``.  :class:`RootValue` keeps such
results in exact root form ``base ** (1/root)`` with rational ``base``,
supports exact comparison and multiplication (by cross-powering), and
collapses to a plain :class:`~fractions.Fraction` whenever the root happens
to be rational.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Optional, Union

Mode = Literal["exact", "float"]

ExactScalar = Union[Fraction, int]
Scalar = Union[Fraction, int, float]

INF = math.inf

# The slack of every float-mode comparison: it absorbs rounding only, so it
# is fixed per mode rather than per call.  Exact mode never consults it.
DEFAULT_FLOAT_TOL = 1e-9


def at_most(x, y, mode: Mode):
    """x <= y as every check decides it: exactly in exact mode (RootValues too), as
    x <= y + DEFAULT_FLOAT_TOL in float mode.  Scalars or numpy arrays."""
    return x <= y if mode == "exact" else x <= y + DEFAULT_FLOAT_TOL


def close(x, y, mode: Mode):
    """x = y as every check decides it: ``at_most(abs(x - y), 0, mode)``."""
    return at_most(abs(x - y), 0, mode)


class ModeError(TypeError):
    """Raised when exact and float quantities meet in one computation."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` / ``"p"`` strings (also accepts plain ints); a zero
    denominator raises ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def coerce_scalar(x: Scalar, mode: Mode) -> Scalar:
    """Coerce one raw value into a mode's canonical scalar type.

    Integers are any ``numbers.Integral``, numpy integers included; booleans,
    Python's or numpy's, are not scalars in either mode.  Exact mode accepts
    integer/Fraction/str("p/q") and rejects floats (silent binary-to-rational
    conversion would launder rounding error into "exact" results).  Float mode
    accepts integer/float/Fraction/str("p/q"), except NaN and +-inf
    (ValueError), whose comparisons would make every check vacuous.
    """
    if isinstance(x, bool):
        raise ModeError("booleans are not scalars")
    if mode == "exact":
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, numbers.Integral)):  # the builtin first: an ABC check is slow
            return Fraction(int(x))
        if isinstance(x, str):
            return parse_rational(x)
        if isinstance(x, float):
            raise ModeError(
                f"float value {x!r} in exact mode; pass a Fraction, int, or 'p/q' string"
            )
        raise ModeError(f"cannot use {type(x).__name__} as an exact scalar")
    if mode == "float":
        if isinstance(x, str):
            x = parse_rational(x)
        elif not isinstance(x, (float, int, Fraction, numbers.Integral)):
            raise ModeError(f"cannot use {type(x).__name__} as a float scalar")
        if isinstance(x, float) and not math.isfinite(x):  # ints and Fractions are finite
            raise ValueError(f"non-finite value {x!r}; float scalars must be finite")
        return float(x)
    raise ValueError(f"unknown mode {mode!r}")


def integer(x, name: str, low: int = 0, high: Optional[int] = None) -> int:
    """The integer argument ``name`` = x as a Python int in low..high (no
    upper end when high is None).

    Every time, bound, horizon, window, count and seed the library takes goes
    through here, as mathlib's are all naturals.  Ints and numpy or other
    ``numbers.Integral`` values pass; bools and non-integers (``2.0``,
    ``Fraction(1)``, ``"2"``) raise TypeError, and a value out of range raises
    ValueError, both naming the argument.
    """
    if type(x) is not int:  # the builtin first: an ABC check is slow
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {x!r}")
        x = int(x)
    if x < low or (high is not None and x > high):
        span = f"be >= {low}" if high is None else f"lie in {low}..{high}"
        raise ValueError(f"{name} must {span}, got {x}")
    return x


def coerce_values(values: Iterable[Scalar], mode: Mode) -> tuple:
    return tuple(coerce_scalar(v, mode) for v in values)


def check_same_mode(*modes: Mode) -> Mode:
    first = modes[0]
    for m in modes[1:]:
        if m != first:
            raise ModeError(f"mixed scalar modes in one computation: {modes}")
    return first


def zero(mode: Mode) -> Scalar:
    return Fraction(0) if mode == "exact" else 0.0


def positive_part(x: Scalar) -> Scalar:
    if type(x) is float:  # before the isinstance test, which runs Fraction's slow ABC check
        return x if x > 0.0 else 0.0
    z = Fraction(0) if isinstance(x, (Fraction, int)) else 0.0
    return x if x > z else z


# ---------------------------------------------------------------------------
# Exact root-form values.
# ---------------------------------------------------------------------------


def _int_nth_root(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of a nonnegative int, plus exactness flag."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n, True
    hi = 1 << (-(-n.bit_length() // k) + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo, lo**k == n


def _rational_nth_root(x: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a nonnegative rational, or None if irrational."""
    num, num_ok = _int_nth_root(x.numerator, k)
    if not num_ok:
        return None
    den, den_ok = _int_nth_root(x.denominator, k)
    if not den_ok:
        return None
    return Fraction(num, den)


@dataclass(frozen=True)
class RootValue:
    """Exact nonnegative value ``base ** (1/root)`` with rational base.

    Construction always normalizes: when the root is exactly rational the
    stored form has ``root == 1``, so equality with plain rationals behaves
    as expected.  Supports ordering against RootValue/Fraction/int, products
    with nonnegative rationals and other RootValues, and float conversion.
    """

    base: Fraction
    root: int

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("RootValue base must be nonnegative")
        if self.root < 1:
            raise ValueError("RootValue root must be >= 1")

    @staticmethod
    def of(base: Scalar, root: int = 1) -> "RootValue":
        base = Fraction(base)
        exact = _rational_nth_root(base, root) if root > 1 else base
        if exact is not None:
            return RootValue(exact, 1)
        return RootValue(base, root)

    def is_rational(self) -> bool:
        return self.root == 1

    def as_fraction(self) -> Fraction:
        if self.root != 1:
            raise ValueError(f"{self!r} is irrational; no exact Fraction form")
        return self.base

    def _raised(self, k: int) -> Fraction:
        # self ** k for k a multiple of self.root
        assert k % self.root == 0
        return self.base ** (k // self.root)

    def _cmp_key(self, other: "RootValue") -> tuple[Fraction, Fraction]:
        k = math.lcm(self.root, other.root)
        return self._raised(k), other._raised(k)

    @staticmethod
    def _coerce(x) -> "RootValue":
        if isinstance(x, RootValue):
            return x
        if isinstance(x, (int, Fraction)):
            if x < 0:
                raise ValueError("RootValue comparisons require nonnegative values")
            return RootValue(Fraction(x), 1)
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        o = RootValue._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._cmp_key(o)
        return a == b

    def __hash__(self) -> int:
        return hash(("RootValue", self.base, self.root))

    def __le__(self, other) -> bool:
        o = RootValue._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._cmp_key(o)
        return a <= b

    def __lt__(self, other) -> bool:
        o = RootValue._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._cmp_key(o)
        return a < b

    def __ge__(self, other) -> bool:
        o = RootValue._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._cmp_key(o)
        return a >= b

    def __gt__(self, other) -> bool:
        o = RootValue._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._cmp_key(o)
        return a > b

    def __mul__(self, other) -> "RootValue":
        o = RootValue._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        k = math.lcm(self.root, o.root)
        return RootValue.of(self._raised(k) * o._raised(k), k)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return float(self.base) ** (1.0 / self.root)

    def __repr__(self) -> str:
        if self.root == 1:
            return f"RootValue({self.base})"
        return f"RootValue({self.base}**(1/{self.root}))"
