"""Float families, spaces and processes read one derived float64 matrix.

The UI moduli and the upcrossing estimates take their float results from
read-only matrices that each object derives at most once, summed left to
right.  These tests hold them bit for bit to the per-atom forms in
``oracles.py``, pin the derived data's contract, and check that the float
routes no longer reach the per-atom weighted sum.
"""

import dataclasses
import importlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    INF,
    Band,
    FairWalk,
    FiniteMeasureSpace,
    FunctionFamily,
    ModeError,
    Process,
    RandomVariable,
    check_bridging_inequality,
    check_p_monotonicity,
    check_upcrossing_estimate,
    check_upcrossing_estimate_sup,
    classify,
    exhaustive_space,
    probabilist_modulus,
    shrinking_spike_family,
    snorm,
    vitali_empirical,
)
from oracles import bridging_norms_by_atoms, probabilist_by_atoms, vitali_curves_by_atoms

crossings, measure, processes, uniform_integrability = (
    importlib.import_module(f"martkit.{name}")
    for name in ("crossings", "measure", "processes", "uniform_integrability")
)
_values = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0]), st.floats(-50, 50))
_weights = st.one_of(st.sampled_from([0.0, -0.0, 0.25]), st.floats(0, 10))


def _hex(x):
    """Nested results with every float as its exact bits and its type."""
    if isinstance(x, tuple):
        return tuple(_hex(y) for y in x)
    return (type(x).__name__, x.hex() if isinstance(x, float) else x)


@st.composite
def families(draw, p):
    n = draw(st.integers(1, 12))  # np.sum adds pairwise from 8 terms on
    space = FiniteMeasureSpace(tuple(draw(st.lists(_weights, min_size=n, max_size=n))), "float")
    rows = draw(st.lists(st.lists(_values, min_size=n, max_size=n), min_size=1, max_size=4))
    if draw(st.booleans()):
        rows.append(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)))
    members = tuple(RandomVariable(tuple(r), "float") for r in rows)
    # levels at some member's |value| (ties keep the atom) or anywhere
    C = draw(st.sampled_from(sorted({abs(v) for r in rows for v in r})) | st.floats(0, 60))
    return FunctionFamily(space, members, p), C


@given(data=st.data(), p=st.sampled_from([1, 2, 2.5, INF]))
@settings(max_examples=150, deadline=None)
def test_moduli_are_bitwise_the_per_atom_forms(data, p):
    fam, C = data.draw(families(p))
    space, members = fam.space, fam.members
    assert _hex(probabilist_modulus(fam, C)) == _hex(probabilist_by_atoms(space, members, p, C))
    assert _hex(probabilist_modulus(fam, 0)) == _hex(probabilist_by_atoms(space, members, p, 0.0))
    if p == 1:
        A = frozenset(data.draw(st.sets(st.integers(0, space.atom_count - 1))))
        rep = check_bridging_inequality(fam, C, A)
        want = tuple((lhs, C * rep.set_mass + tail)
                     for lhs, tail in bridging_norms_by_atoms(space, members, C, A))
        assert _hex(rep.rows) == _hex(want)
    if p != INF:
        rep = check_p_monotonicity(fam, 1, p)
        for c, mp, mq, _, _ in rep.rows:
            assert _hex((mp, mq)) == _hex((probabilist_by_atoms(space, members, 1, c),
                                           probabilist_by_atoms(space, members, p, c)))


@given(data=st.data(), p=st.sampled_from([1, 2, 2.5]))
@settings(max_examples=150, deadline=None)
def test_vitali_is_bitwise_the_per_atom_form(data, p):
    fam, _ = data.draw(families(p))
    n = fam.space.atom_count
    g = RandomVariable(tuple(data.draw(st.lists(_values, min_size=n, max_size=n))), "float")
    rep = vitali_empirical(fam.space, fam.members, g, p, len(fam.members))
    got = (rep.in_measure, rep.c_grid, rep.ui_modulus_curve, rep.lp_curve)
    assert _hex(got) == _hex(vitali_curves_by_atoms(fam.space, fam.members, g, p))


def test_the_power_is_pythons_where_numpys_differs():
    # a value whose p-th power numpy rounds differently from Python's **, far
    # enough that the norm's root differs too (0.15625 at p = 2.5 on x86-64)
    p = 2.5
    candidates = [k / 64 for k in range(1, 640)]
    for x, y in zip(candidates, np.power(np.array(candidates), p).tolist()):
        if (0.0 + y) ** (1.0 / p) != (0.0 + x**p) ** (1.0 / p):
            break
    else:
        pytest.skip("numpy's ** gives Python's norm on every candidate here")
    space = FiniteMeasureSpace.from_weights([1.0], "float")
    f = RandomVariable((x,), "float")
    want = (x**p) ** (1.0 / p)
    assert snorm(space, f, p).hex() == want.hex()
    assert probabilist_modulus(FunctionFamily(space, (f,), p), 0.0).hex() == want.hex()
    rep = vitali_empirical(space, [f], RandomVariable((0.0,), "float"), p, 1)
    assert rep.lp_curve[0].hex() == want.hex()


def _float_walk():
    space, f, F = exhaustive_space(FairWalk(), 5, "float")
    return space, f, F, classify(space, f, F)


def test_derived_matrices_are_built_once_and_read_only():
    space, f, F, cls = _float_walk()
    for N in (2, 5):
        check_upcrossing_estimate(space, Band(-1.0, 1.0), f, F, N, classification=cls)
    check_upcrossing_estimate_sup(space, Band(0.0, 2.0), f, F, classification=cls)
    assert f._matrix is f._matrix is vars(f)["_matrix"]
    assert space._weight_vector is vars(space)["_weight_vector"]
    fam = FunctionFamily(space, f.rows(), 2.5)
    probabilist_modulus(fam, 1.0)
    probabilist_modulus(fam, 2.0)
    assert fam._matrices is vars(fam)["_matrices"]
    arrays = (f._matrix, space._weight_vector) + fam._matrices
    assert f._matrix.shape == (6, 32) and all(m.shape == (6, 32) for m in fam._matrices)
    for m in arrays:
        assert m.dtype == np.float64 and not m.flags.writeable
        with pytest.raises(ValueError):
            m[(0,) * m.ndim] = 1.0
    assert f._matrix.tolist() == [list(row) for row in f.values]


def test_exact_data_never_builds_a_matrix(monkeypatch):
    space, f, F = exhaustive_space(FairWalk(), 4, "exact")
    cls = classify(space, f, F)
    for obj, name in ((f, "_matrix"), (space, "_weight_vector")):
        with pytest.raises(ModeError):
            getattr(obj, name)

    def forbidden(*args, **kwargs):
        raise AssertionError("exact data reached the float64 matrices")

    for module in (measure, processes, uniform_integrability):
        monkeypatch.setattr(module, "_frozen_floats", forbidden)
    check_upcrossing_estimate(space, Band(-1, 1), f, F, 3, classification=cls)
    check_upcrossing_estimate_sup(space, Band(0, 2), f, F, classification=cls)
    fam = FunctionFamily(space, f.rows(), 2)
    probabilist_modulus(fam, 1)
    check_p_monotonicity(fam, 1, 2)
    check_bridging_inequality(FunctionFamily(space, f.rows(), 1), 1, frozenset({0, 3}))
    vitali_empirical(space, f.rows(), f.at(4), 1, 5)
    for obj, name in ((f, "_matrix"), (space, "_weight_vector"), (fam, "_matrices")):
        assert name not in vars(obj)


def test_derived_data_leaves_equality_and_hashing_alone():
    rows = [[0.0, -0.0, 1.5], [2.0, 0.25, -3.0]]
    a, b = Process.from_values(rows, "float"), Process.from_values(rows, "float")
    a._matrix
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert [fld.name for fld in dataclasses.fields(Process)] == ["values", "mode"]
    assert a != Process.from_values([[0.0, -0.0, 1.5], [2.0, 0.5, -3.0]], "float")
    space = FiniteMeasureSpace((0.5, 0.5, 0.0), "float")
    space._weight_vector
    assert space == FiniteMeasureSpace((0.5, 0.5, 0.0), "float")
    assert hash(space) == hash(FiniteMeasureSpace((0.5, 0.5, 0.0), "float"))


def test_float_routes_skip_the_per_atom_sum(monkeypatch):
    space, f, F, cls = _float_walk()
    sp, members, limit = shrinking_spike_family(16)

    def forbidden(*args, **kwargs):
        raise AssertionError("a float twin reached the per-atom weighted sum")

    for module in (measure, crossings, uniform_integrability):
        for name in ("_sum", "_mass", "snorm"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert check_upcrossing_estimate(space, Band(-1.0, 1.0), f, F, 5, classification=cls).holds
    assert check_upcrossing_estimate_sup(space, Band(-1.0, 1.0), f, F, classification=cls).holds
    assert probabilist_modulus(FunctionFamily(sp, members, 2), 4.0) == 1.0
    assert vitali_empirical(sp, members, limit, 1, 16).consistent


def test_exact_estimates_sum_the_integer_twins(monkeypatch):
    # exact estimates add the space's and the process's integer numerators,
    # and the exact UI moduli the family's; no random variable derives one
    space, f, F = exhaustive_space(FairWalk(), 3, "exact")
    cls = classify(space, f, F)
    sp, members, _ = shrinking_spike_family(8, mode="exact")
    fam = FunctionFamily(sp, members, 1)

    def forbidden(self):
        raise AssertionError("an exact route derived a random variable's twin")

    monkeypatch.setattr(RandomVariable, "_numerators", property(forbidden))
    check_upcrossing_estimate(space, Band(-1, 1), f, F, 3, classification=cls)
    check_upcrossing_estimate_sup(space, Band(-1, 1), f, F, classification=cls)
    assert "_numerators" in vars(f) and "_numerators" in vars(space)
    assert "_numerators" not in vars(fam)
    assert probabilist_modulus(fam, 4) == Fraction(1, 4)
    assert probabilist_modulus(fam, 0) == 1  # the norm bound: the first spike, height 1 on mass 1
    assert fam._numerators is vars(fam)["_numerators"] and "_numerators" in vars(sp)
