import ast
import inspect
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import martkit
from conftest import public_entry_points
from martkit import DEFAULT_FLOAT_TOL, INF, ModeError, RandomVariable, RootValue
from martkit.processes import _violations
from martkit.scalars import at_most, close, coerce_scalar, parse_rational, positive_part


def test_exact_mode_rejects_floats():
    with pytest.raises(ModeError):
        coerce_scalar(0.5, "exact")


def test_exact_mode_accepts_ints_fractions_and_strings():
    assert coerce_scalar(3, "exact") == Fraction(3)
    assert coerce_scalar(Fraction(1, 3), "exact") == Fraction(1, 3)
    assert coerce_scalar("2/7", "exact") == Fraction(2, 7)


def test_float_mode_coerces_to_float():
    v = coerce_scalar(Fraction(1, 4), "float")
    assert isinstance(v, float) and v == 0.25


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_numpy_integers_are_scalars(mode):
    # np.int64 once raised "cannot use int64 as a float scalar"
    values = RandomVariable.from_values(np.arange(3), mode).values
    assert values == (0, 1, 2)
    assert all(type(v) is (Fraction if mode == "exact" else float) for v in values)
    assert coerce_scalar(np.uint8(7), mode) == 7


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_numpy_booleans_are_not_scalars(mode):
    with pytest.raises(ModeError):
        coerce_scalar(np.bool_(True), mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_booleans_are_not_scalars(mode):
    # float mode once turned True into 1.0
    with pytest.raises(ModeError, match="booleans are not scalars"):
        coerce_scalar(True, mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_zero_denominator_is_named(mode):
    # both modes once raised ZeroDivisionError("Fraction(1, 0)")
    with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
        coerce_scalar("1/0", mode)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_float_mode_rejects_non_finite_values(x):
    # every comparison with NaN is false, so a NaN value once passed every check
    with pytest.raises(ValueError, match="finite"):
        coerce_scalar(x, "float")


def test_rational_round_trip():
    for x in (Fraction(0), Fraction(-7, 3), Fraction(5), Fraction(22, 7)):
        assert parse_rational(str(x)) == x


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rational_round_trip_property(num, den):
    x = Fraction(num, den)
    assert parse_rational(str(x)) == x


def test_default_float_tol_is_pinned():
    assert DEFAULT_FLOAT_TOL == 1e-9


def test_the_slack_is_fixed_per_mode():
    # no slack in exact mode, DEFAULT_FLOAT_TOL to the last bit in float mode
    assert not at_most(Fraction(1, 10**30), 0, "exact")
    assert at_most(DEFAULT_FLOAT_TOL, 0, "float")
    assert not at_most(np.nextafter(DEFAULT_FLOAT_TOL, 1.0), 0, "float")


# the functions whose comparisons read the slack; none may take it per call
SLACK_TAKERS = [getattr(martkit, name) for name in (
    "ae_witness", "ae_equal", "ae_le", "check_set_integral_characterization", "condexp_properties",
    "condexp_agreement_witness", "classify", "check_maximal_inequality", "check_l1_convergence_b",
    "check_levy_upward", "fatou_norm_check", "check_upcrossing_estimate",
    "check_upcrossing_estimate_sup", "check_optional_stopping",
)] + [_violations]


@pytest.mark.parametrize("fn", SLACK_TAKERS, ids=lambda fn: fn.__name__)
def test_no_call_overrides_the_slack(fn):
    with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
        inspect.signature(fn).bind_partial(tol=1e-3)


def test_every_public_tol_is_a_required_input():
    # the slack is the mode's; a ``tol`` the caller must give is a
    # theorem's own bound (the limit estimate's oscillation window)
    tols = {
        name: param.default is param.empty
        for name, fn in public_entry_points()
        for param in [inspect.signature(fn).parameters.get("tol")]
        if param is not None
    }
    assert tols == {"limit_process_estimate": True, "check_l1_convergence_a": True}


def test_at_most_and_close_are_the_one_comparison_rule():
    assert at_most(Fraction(1, 3), Fraction(1, 3), "exact")
    assert not at_most(Fraction(10**12 + 1, 10**12), 1, "exact")  # no slack in exact mode
    assert at_most(RootValue.of(2, 2), Fraction(142, 100), "exact")
    assert not at_most(RootValue.of(2, 2), Fraction(141, 100), "exact")
    assert at_most(1.0 + 1e-9, 1.0, "float") and not at_most(1.0 + 2e-9, 1.0, "float")
    assert at_most(-5.0, 0, "float")
    assert at_most(np.array([1.0, 1.0 + 2e-9]), 1.0, "float").tolist() == [True, False]
    assert close(1.0, 1.0 + 5e-10, "float") and close(1.0 + 5e-10, 1.0, "float")
    assert not close(1.0, 1.0 + 2e-9, "float")
    assert close(Fraction(1, 3), Fraction(2, 6), "exact")
    assert not close(Fraction(1, 3), Fraction(10**12 + 1, 3 * 10**12), "exact")


SRC = Path(martkit.__file__).parent


def test_only_scalars_reads_the_slack():
    # every comparison goes through at_most/close, classify's sign test in
    # processes._violations too: no module but scalars reads the slack, and
    # nothing calls a second reader such as the deleted tolerance(mode)
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == "tolerance":
                readers.append(f"{path.name}:{node.lineno} calls tolerance")
            if path.name != "scalars.py" and isinstance(node, (ast.Name, ast.Attribute)) and "DEFAULT_FLOAT_TOL" in (
                    getattr(node, "id", None), getattr(node, "attr", None)):
                readers.append(f"{path.name}:{node.lineno} reads DEFAULT_FLOAT_TOL")
    assert readers == []
    assert not hasattr(martkit.scalars, "tolerance")


def test_inf_sentinel():
    assert INF == float("inf")


class TestRootValue:
    def test_rational_root_collapses(self):
        r = RootValue.of(Fraction(8), 3)
        assert r.is_rational() and r.as_fraction() == Fraction(2)

    def test_irrational_root_stays_symbolic(self):
        r = RootValue.of(Fraction(5), 2)
        assert not r.is_rational()
        assert abs(float(r) - 5 ** 0.5) < 1e-12

    def test_cross_power_comparisons(self):
        # 2^(1/2) vs 3^(1/3): compare 2^3 = 8 against 3^2 = 9
        lo = RootValue.of(Fraction(2), 2)
        hi = RootValue.of(Fraction(3), 3)
        assert lo < hi
        assert hi > lo
        assert lo != hi

    def test_comparison_against_fractions(self):
        r = RootValue.of(Fraction(5), 2)
        assert Fraction(2) < r < Fraction(9, 4)

    @given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 4), st.integers(1, 4))
    def test_order_agrees_with_float(self, b1, b2, k1, k2):
        r1 = RootValue.of(Fraction(b1), k1)
        r2 = RootValue.of(Fraction(b2), k2)
        f1, f2 = b1 ** (1.0 / k1), b2 ** (1.0 / k2)
        if abs(f1 - f2) > 1e-9:
            assert (r1 < r2) == (f1 < f2)


@pytest.mark.parametrize("x, want", [
    (Fraction(3, 2), Fraction(3, 2)),
    (Fraction(-1, 2), Fraction(0)),
    (Fraction(0), Fraction(0)),
    (5, 5),
    (-3, Fraction(0)),
    (0, Fraction(0)),
    (2.5, 2.5),
    (-2.5, 0.0),
    (0.0, 0.0),
    (-0.0, 0.0),
    (np.float64(2.5), np.float64(2.5)),
    (np.float64(-2.5), 0.0),
    (np.float64(-0.0), 0.0),
])
def test_positive_part_values_and_types(x, want):
    got = positive_part(x)
    assert type(got) is type(want) and got == want
    if isinstance(want, float):
        assert math.copysign(1.0, got) == 1.0  # never -0.0
