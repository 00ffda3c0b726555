"""Exact spaces, random variables, processes and function families derive
integer numerators once, as their twin.

The twin is a ``cached_property``: nothing builds it until a check first needs
it, it never enters equality, hashing or ``repr``, and deriving it is the one
place that rejects a value that is not an int or a Fraction.  The exact UI
moduli and Vitali diagnostics read a family's twin, and these tests hold them,
value and type, to the per-atom forms in ``oracles.py``.  Importing the
package stays free of the CLI and of the test tools.
"""

import dataclasses
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import martkit
from martkit import (
    INF,
    Band,
    FairWalk,
    Filtration,
    FiniteMeasureSpace,
    FunctionFamily,
    ModeError,
    Partition,
    Process,
    RandomVariable,
    band_translation_identity,
    check_bridging_inequality,
    check_p_monotonicity,
    classify,
    crossing_table,
    exhaustive_space,
    is_adapted,
    is_predictable,
    lower_crossing,
    probabilist_modulus,
    shrinking_spike_family,
    upper_crossing,
    vitali_empirical,
)
from oracles import bridging_norms_by_atoms, probabilist_by_atoms, vitali_curves_by_atoms


def test_importing_martkit_loads_no_cli_serializer_or_test_tools():
    heavy = ("martkit.cli", "argparse", "json", "csv", "hypothesis")
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); import martkit; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    src = str(Path(martkit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def _fresh():
    space, f, F = exhaustive_space(FairWalk(), 4, "exact")
    return (space, f, FiniteMeasureSpace.from_weights([1, Fraction(1, 3), 0]),
            Process.from_values([[1, Fraction(1, 2), 0], [2, Fraction(-3, 4), 5]], "exact"),
            RandomVariable.from_values([Fraction(2, 7), 3, -1], "exact")), F


def test_set_up_leaves_every_twin_underived_and_out_of_equality():
    objs, F = _fresh()
    twins, _ = _fresh()
    assert all("_twin" not in vars(o) for o in objs + twins)
    before = [(repr(o), hash(o)) for o in objs]
    classify(objs[0], objs[1], F)  # derives the space's and the process's twin
    assert "_twin" in vars(objs[0]) and "_twin" in vars(objs[1])
    for o in objs:
        nums, den = o._twin
        assert o._twin is vars(o)["_twin"] and not nums.flags.writeable
        assert all(type(n) is int for n in nums.ravel().tolist()) and den >= 1
    assert [(repr(o), hash(o)) for o in objs] == before
    assert all(o == t for o, t in zip(objs, twins))
    for cls in (FiniteMeasureSpace, Process, RandomVariable):
        assert "_twin" not in [fld.name for fld in dataclasses.fields(cls)]


def test_numerators_share_the_lowest_common_denominator():
    f = Process(((1, Fraction(1, 6)), (Fraction(-3, 4), Fraction(2, 3))), "exact")
    nums, den = f._twin
    assert den == 12 and nums.tolist() == [[12, 2], [-9, 8]]
    assert all(type(n) is int for n in nums.ravel().tolist())
    assert RandomVariable((Fraction(1, 4), Fraction(-5, 6), 3), "exact")._twin[1] == 12


def _float_in_row_two():
    # exact, built directly: row 2 holds the float 2.0 beside Fraction(2)
    rows = ((Fraction(0),) * 4, (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1)),
            (Fraction(2), 2.0, Fraction(0), Fraction(-2)))
    return Process(rows, "exact"), Filtration.constant(Partition.singletons(4), 2)


@pytest.mark.parametrize("check", [
    lambda f, F: band_translation_identity(Band(-1, 1), f),
    lambda f, F: crossing_table(Band(-1, 1), f, 2),
    lambda f, F: upper_crossing(Band(-1, 1), f, 2, 1),
    lambda f, F: lower_crossing(Band(-1, 1), f, 2, 1),
    lambda f, F: is_adapted(f, F),
    lambda f, F: is_predictable(f, F),
    lambda f, F: classify(FiniteMeasureSpace.uniform(4), f, F),
], ids=["band_translation_identity", "crossing_table", "upper_crossing", "lower_crossing",
        "is_adapted", "is_predictable", "classify"])
def test_a_float_in_an_exact_process_raises_mode_error(check):
    # the band translation, the crossing times and adaptedness once compared
    # the float as a value and answered
    f, F = _float_in_row_two()
    with pytest.raises(ModeError):
        check(f, F)



def test_a_family_derives_its_twin_once_and_outside_equality():
    fam = FunctionFamily(FiniteMeasureSpace.from_weights([1, Fraction(1, 3), 0]),
                         (RandomVariable((1, Fraction(1, 6), 0), "exact"),
                          RandomVariable((Fraction(-3, 4), 2, 5), "exact")), 2)
    twin = FunctionFamily(fam.space, fam.members, 2)
    sp, members, limit = shrinking_spike_family(6, mode="exact")
    spikes = FunctionFamily(sp, members, 1)
    assert all("_twin" not in vars(o) for o in (fam, twin, spikes))  # set-up derives none
    before = (repr(fam), hash(fam))
    probabilist_modulus(fam, 1)
    nums, den = fam._twin
    assert den == 12 and nums.tolist() == [[12, 2, 0], [-9, 24, 60]]
    assert all(type(n) is int for n in nums.ravel().tolist()) and not nums.flags.writeable
    with pytest.raises(ValueError):
        nums[0, 0] = 1
    check_p_monotonicity(fam, 1, 2)
    assert fam._twin is vars(fam)["_twin"] and fam._twin[0] is nums
    assert (repr(fam), hash(fam)) == before and fam == twin
    assert "_twin" not in [fld.name for fld in dataclasses.fields(FunctionFamily)]
    vitali_empirical(sp, members, limit, 1, 6)  # builds its own family from the members
    assert all("_twin" not in vars(m) for m in members)


_values = st.one_of(
    st.integers(-6, 6),
    st.fractions(-10, 10, max_denominator=12),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from([7, 11, 13, 10**9 + 7])),
)
_weights = st.one_of(st.sampled_from([0, Fraction(0), 1]), st.fractions(0, 5, max_denominator=12))


def _typed(x):
    """Nested results with every value beside its type."""
    if isinstance(x, tuple):
        return tuple(_typed(y) for y in x)
    return type(x).__name__, x


@st.composite
def families(draw, p):
    # members mix ints, small Fractions and Fractions over large coprime
    # denominators; weights mix ints, Fractions and zeros
    n = draw(st.integers(1, 8))
    space = FiniteMeasureSpace(tuple(draw(st.lists(_weights, min_size=n, max_size=n))), "exact")
    rows = draw(st.lists(st.lists(_values, min_size=n, max_size=n), min_size=1, max_size=4))
    members = tuple(RandomVariable(tuple(r), "exact") for r in rows)
    # levels at some member's |value| (ties keep the atom) or anywhere
    C = draw(st.sampled_from(sorted({abs(v) for r in rows for v in r})) | st.fractions(0, 12, max_denominator=12))
    return FunctionFamily(space, members, p), C


@given(data=st.data(), p=st.sampled_from([1, 2, INF]))
@settings(max_examples=150, deadline=None)
def test_exact_moduli_are_the_per_atom_forms(data, p):
    fam, C = data.draw(families(p))
    space, members = fam.space, fam.members
    assert _typed(probabilist_modulus(fam, C)) == _typed(probabilist_by_atoms(space, members, p, C))
    assert _typed(probabilist_modulus(fam, 0)) == _typed(probabilist_by_atoms(space, members, p, Fraction(0)))
    if p == 1:
        A = frozenset(data.draw(st.sets(st.integers(0, space.atom_count - 1))))
        rep = check_bridging_inequality(fam, C, A)
        want = tuple((lhs, rep.C * rep.set_mass + tail)
                     for lhs, tail in bridging_norms_by_atoms(space, members, C, A))
        assert _typed(rep.rows) == _typed(want)
    if p != INF:
        rep = check_p_monotonicity(fam, 1, p)
        for c, mp, mq, _, _ in rep.rows:
            assert _typed((mp, mq)) == _typed((probabilist_by_atoms(space, members, 1, c),
                                               probabilist_by_atoms(space, members, p, c)))


@given(data=st.data(), p=st.sampled_from([1, 2]))
@settings(max_examples=150, deadline=None)
def test_exact_vitali_is_the_per_atom_form(data, p):
    fam, _ = data.draw(families(p))
    n = fam.space.atom_count
    g = RandomVariable(tuple(data.draw(st.lists(_values, min_size=n, max_size=n))), "exact")
    rep = vitali_empirical(fam.space, fam.members, g, p, len(fam.members))
    got = (rep.in_measure, rep.c_grid, rep.ui_modulus_curve, rep.lp_curve)
    assert _typed(got) == _typed(vitali_curves_by_atoms(fam.space, fam.members, g, p))
