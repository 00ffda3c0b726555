import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    FiniteMeasureSpace,
    FunctionFamily,
    RandomVariable,
    RootValue,
    analyst_modulus,
    check_bridging_inequality,
    check_p_monotonicity,
    fixed_mass_spike_family,
    probabilist_modulus,
    shrinking_spike_family,
    snorm,
    ui_moduli,
    vitali_empirical,
)
from martkit.uniform_integrability import EXHAUSTIVE_ATOM_LIMIT, HARD_ATOM_CAP
from conftest import random_fraction, random_space
from oracles import brute_analyst_power, norm_power_equals

seeds = st.integers(0, 10**9)


def spike_family():
    sp = FiniteMeasureSpace.uniform(4, mode="exact")
    f = RandomVariable.from_values([10, 1, 1, 1], "exact")
    return FunctionFamily(sp, (f,), 1)


def test_analyst_modulus_reference_values():
    mod = ui_moduli(spike_family())
    assert mod.analyst(Fraction(1, 4)) == Fraction(5, 2)
    assert mod.analyst(Fraction(0)) == Fraction(0)
    # delta at or above the total mass admits the whole space
    assert mod.analyst(Fraction(1)) == Fraction(13, 4)
    assert mod.analyst(Fraction(2)) == Fraction(13, 4)
    assert mod.l1_bound == Fraction(13, 4)


def test_probabilist_modulus_reference_values():
    mod = ui_moduli(spike_family())
    assert mod.probabilist(Fraction(5)) == Fraction(5, 2)
    assert mod.probabilist(Fraction(0)) == Fraction(13, 4)
    # the cut keeps atoms with |f| at the threshold
    assert mod.probabilist(Fraction(10)) == Fraction(5, 2)
    assert mod.probabilist(Fraction(11)) == Fraction(0)


def test_bridging_reference_values():
    rep = check_bridging_inequality(spike_family(), Fraction(5), frozenset({0}))
    assert rep.holds
    assert rep.set_mass == Fraction(1, 4)
    assert rep.rows == ((Fraction(5, 2), Fraction(15, 4)),)


def test_p_monotonicity_reference_and_equal_exponents():
    fam = spike_family()
    rep = check_p_monotonicity(fam, 1, 2)
    assert rep.holds
    assert rep.factor == Fraction(1)
    same = check_p_monotonicity(fam, 2, 2)
    assert same.holds and same.factor == Fraction(1)
    for row in same.rows:
        assert row[1] == row[3]


def test_p_monotonicity_on_a_stored_int_maximum():
    # the largest |value| was the stored int 4, and the grid's 4 / 4 a float
    # that exact mode rejected with ModeError
    fam = FunctionFamily(FiniteMeasureSpace.uniform(2), (RandomVariable((0, 4), "exact"),), 1)
    rep = check_p_monotonicity(fam, 1, 2)
    assert rep.holds
    assert [row[0] for row in rep.rows] == [0, 1, 2, 3, 4, 5]
    assert all(type(row[0]) is Fraction for row in rep.rows)
    assert rep.rows[0][1:4] == (Fraction(2), RootValue.of(8, 2), RootValue.of(8, 2))


def test_p_monotonicity_compares_within_the_float_slack():
    # Hoelder's inequality holds with equality on a constant member; the
    # rounded sides once missed it by 2 ulp and the check failed
    sp = FiniteMeasureSpace.from_weights([0.7, 0.1, 0.3], "float")
    fam = FunctionFamily.of(sp, [RandomVariable.from_values([-1, -1, -1], "float")], 1)
    rep = check_p_monotonicity(fam, 1, 2)
    assert any(mp > bound for _, mp, _, bound, _ in rep.rows)  # rounding bites
    assert rep.holds


@given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6), st.floats(-10.0, 10.0),
       st.floats(1.0, 8.0), st.floats(0.0, 8.0))
@settings(max_examples=200, deadline=None)
def test_hoelder_holds_on_constant_members(weights, c, p, extra):
    sp = FiniteMeasureSpace.from_weights(weights, "float")
    fam = FunctionFamily.of(sp, [RandomVariable.from_values([c] * len(weights), "float")], p)
    assert check_p_monotonicity(fam, p, p + extra).holds


def test_bridging_compares_within_the_float_slack():
    # C one ulp above the member's constant 0.9, so both sides are 0.9 mu(A)
    # up to rounding; the left side once came out 1 ulp above the right
    sp = FiniteMeasureSpace.from_weights([0.8, 0.6], "float")
    fam = FunctionFamily.of(sp, [RandomVariable.from_values([0.9, 0.9], "float")], 1)
    rep = check_bridging_inequality(fam, math.nextafter(0.9, math.inf), frozenset({0, 1}))
    ((lhs, rhs),) = rep.rows
    assert lhs > rhs  # rounding bites
    assert rep.holds


FLOAT_SPACE = FiniteMeasureSpace.uniform(4, "float")
FLOAT_MEMBER = RandomVariable.from_values([4.0, 1.0, 0.5, 0.0], "float")
FLOAT_FAMILY = FunctionFamily.of(FLOAT_SPACE, [FLOAT_MEMBER], 2)


@pytest.mark.parametrize("x, error", [(float("nan"), ValueError), (True, TypeError), ("2", TypeError)],
                         ids=["nan", "bool", "str"])
@pytest.mark.parametrize("name, call", [
    ("p", lambda x: snorm(FLOAT_SPACE, FLOAT_MEMBER, x)),
    ("p", lambda x: FunctionFamily.of(FLOAT_SPACE, [FLOAT_MEMBER], x)),
    ("p", lambda x: vitali_empirical(FLOAT_SPACE, [FLOAT_MEMBER], FLOAT_MEMBER, x, 1)),
    ("p", lambda x: check_p_monotonicity(FLOAT_FAMILY, x, 2)),
    ("q", lambda x: check_p_monotonicity(FLOAT_FAMILY, 1, x)),
], ids=["snorm", "FunctionFamily", "vitali_empirical", "check_p_monotonicity-p", "check_p_monotonicity-q"])
def test_nan_and_bool_exponents_raise_naming_the_exponent(name, call, x, error):
    # NaN fails every ``p < 1`` test and True passes as 1: a NaN family once
    # read as uniformly integrable, with moduli and an L1 bound of 0.0; float
    # ``snorm`` took the string "2" as 2.0
    with pytest.raises(error, match=f"^{name} must be "):
        call(x)


@pytest.mark.parametrize("call", [
    lambda fam: snorm(fam.space, fam.members[0], fam.p),
    lambda fam: analyst_modulus(fam, 0.5),
    lambda fam: probabilist_modulus(fam, 0.0),
    lambda fam: ui_moduli(fam).l1_bound,
], ids=["snorm", "analyst_modulus", "probabilist_modulus", "ui_moduli"])
def test_a_float_power_past_the_range_raises_naming_p(call):
    # Python's ** once raised OverflowError: (34, 'Numerical result out of range')
    sp = FiniteMeasureSpace.from_weights([0.5, 0.5], "float")
    member = RandomVariable.from_values([1e300, 1.0], "float")
    with pytest.raises(ValueError, match=r"^\|f\|\^p overflows a float at p = 3"):
        call(FunctionFamily.of(sp, [member], 3))
    assert 5e299 <= call(FunctionFamily.of(sp, [member], 1)) < math.inf  # p = 1 stays finite


@pytest.mark.parametrize("call", [
    lambda fam: snorm(fam.space, fam.members[0], 2),
    lambda fam: ui_moduli(fam).l1_bound,
    lambda fam: check_p_monotonicity(fam, 1, 2),
], ids=["snorm", "ui_moduli", "check_p_monotonicity"])
def test_a_float_sum_past_the_range_raises(call):
    # each square is finite but their sum is not: the norms read inf, and
    # p-monotonicity held on the row (0.0, 2.6e+154, inf, inf, True)
    sp = FiniteMeasureSpace.from_weights([1.0, 1.0], "float")
    member = RandomVariable.from_values([1.3e154, 1.3e154], "float")
    with pytest.raises(ValueError, match="^a weighted sum of finite values overflows a float$"):
        call(FunctionFamily.of(sp, [member], 2))
    assert snorm(sp, member, 1) == 2.6e154  # a finite sum stays as it was


@pytest.mark.parametrize("check", [
    lambda fam: probabilist_modulus(fam, 0),
    lambda fam: ui_moduli(fam),
    lambda fam: vitali_empirical(fam.space, fam.members, fam.members[0], fam.p, 2),
    lambda fam: analyst_modulus(fam, Fraction(1, 2)),
], ids=["probabilist_modulus", "ui_moduli", "vitali_empirical", "analyst_modulus"])
def test_exact_norms_refuse_a_fractional_exponent(check):
    # int ** Fraction(3, 2) silently gives a float; analyst_modulus once
    # raised a TypeError from its knapsack's density sort instead
    sp = FiniteMeasureSpace.uniform(2)
    fam = FunctionFamily(sp, (RandomVariable((1, 4), "exact"), RandomVariable((Fraction(1, 3), 2), "exact")),
                         Fraction(3, 2))
    with pytest.raises(ValueError):
        check(fam)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_analyst_curve_is_nondecreasing(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    members = tuple(
        RandomVariable.from_values([random_fraction(rng) for _ in range(sp.atom_count)], "exact")
        for _ in range(rng.randint(1, 3))
    )
    fam = FunctionFamily(sp, members, 1)
    deltas = sorted(abs(random_fraction(rng)) for _ in range(4))
    vals = [analyst_modulus(fam, d) for d in deltas]
    assert all(x <= y for x, y in zip(vals, vals[1:]))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_probabilist_curve_is_nonincreasing(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    members = tuple(
        RandomVariable.from_values([random_fraction(rng) for _ in range(sp.atom_count)], "exact")
        for _ in range(rng.randint(1, 3))
    )
    fam = FunctionFamily(sp, members, 1)
    cuts = sorted(abs(random_fraction(rng)) for _ in range(4))
    vals = [probabilist_modulus(fam, c) for c in cuts]
    assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_probabilist_zero_above_the_peak():
    fam = spike_family()
    assert probabilist_modulus(fam, Fraction(1000)) == Fraction(0)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_analyst_modulus_matches_subset_enumeration(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=7)
    members = tuple(
        RandomVariable.from_values([random_fraction(rng) for _ in range(sp.atom_count)], "exact")
        for _ in range(rng.randint(1, 2))
    )
    p = rng.choice([1, 2, 3])
    fam = FunctionFamily(sp, members, p)
    delta = abs(random_fraction(rng))
    power = brute_analyst_power(sp, members, delta, p)
    for method in (None, "exhaustive", "branch_bound"):
        got = analyst_modulus(fam, delta, force_method=method)
        assert norm_power_equals(got, p, power), (got, p, power, method)


def test_exact_knapsack_orders_float_ties_exactly():
    # densities 1, 1 and 1 + 2^-70 all read 1.0 as floats; in that order the
    # greedy bound prunes the branch holding the best item
    eps = Fraction(1, 2**70)
    sp = FiniteMeasureSpace.from_weights([1, 1, 1])
    fam = FunctionFamily(sp, (RandomVariable.from_values([1, 1, 1 + eps], "exact"),), 1)
    want = analyst_modulus(fam, 1, force_method="exhaustive")
    assert want == 1 + eps
    assert analyst_modulus(fam, 1) == want
    assert analyst_modulus(fam, 1, force_method="branch_bound") == want


def test_exact_knapsack_handles_values_beyond_float_range():
    # with p = 2 the item values reach 4 * 10^400 / 3, past float's range
    sp = FiniteMeasureSpace.uniform(3)
    fam = FunctionFamily(
        sp, (RandomVariable.from_values([10**200, 2 * 10**200, 3], "exact"),), 2
    )
    delta = Fraction(2, 3)
    want = analyst_modulus(fam, delta, force_method="exhaustive")
    assert analyst_modulus(fam, delta) == want
    assert analyst_modulus(fam, delta, force_method="branch_bound") == want


def test_analyst_modulus_rejects_an_unknown_method():
    # a misspelt method once ran branch-and-bound
    with pytest.raises(ValueError, match="'exhaustive', 'branch_bound'"):
        analyst_modulus(spike_family(), Fraction(1, 4), force_method="exhaustve")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_analyst_modulus_refuses_more_atoms_than_the_cap(mode):
    # the message once offered approximate=True, a search that could stop at a lower bound
    n = HARD_ATOM_CAP + 1
    sp = FiniteMeasureSpace.uniform(n, mode)
    fam = FunctionFamily(sp, (RandomVariable.from_values(range(1, n + 1), mode),), 1)
    with pytest.raises(ValueError, match=rf"^{n} contributing atoms exceed the exact-search cap \({HARD_ATOM_CAP}\)$"):
        analyst_modulus(fam, Fraction(1, 2))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("method", ["branch_bound", "exhaustive"])
def test_forced_methods_obey_the_cap(mode, method):
    # a forced method once skipped the cap: branch_bound returned 630/41 on 41 items
    n = HARD_ATOM_CAP + 1
    sp = FiniteMeasureSpace.uniform(n, mode)
    fam = FunctionFamily(sp, (RandomVariable.from_values(range(1, n + 1), mode),), 1)
    with pytest.raises(ValueError, match=rf"^{n} contributing atoms exceed the exact-search cap"):
        analyst_modulus(fam, Fraction(1, 2), force_method=method)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_forced_subset_search_obeys_its_limit(mode):
    # a forced "exhaustive" once built all 2^n subset sums at any n
    n = EXHAUSTIVE_ATOM_LIMIT + 1
    sp = FiniteMeasureSpace.uniform(n, mode)
    fam = FunctionFamily(sp, (RandomVariable.from_values(range(1, n + 1), mode),), 1)
    with pytest.raises(ValueError, match=rf"^{n} contributing atoms exceed the subset-search limit \({EXHAUSTIVE_ATOM_LIMIT}\)$"):
        analyst_modulus(fam, Fraction(1, 2), force_method="exhaustive")
    assert analyst_modulus(fam, Fraction(1, 2), force_method="branch_bound") == analyst_modulus(fam, Fraction(1, 2))


def test_analyst_modulus_searches_up_to_the_cap_exactly():
    # a zero atom leaves HARD_ATOM_CAP contributing items; the best half is the top 20
    n = HARD_ATOM_CAP + 1
    sp = FiniteMeasureSpace.uniform(n)
    fam = FunctionFamily(sp, (RandomVariable.from_values([0, *range(2, n + 1)], "exact"),), 1)
    assert analyst_modulus(fam, Fraction(20, n)) == Fraction(sum(range(22, n + 1)), n)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_exponent_ordering_on_probability_spaces(seed):
    rng = random.Random(seed)
    raw = random_space(rng, max_atoms=8)
    total = raw.total
    sp = FiniteMeasureSpace.from_weights([w / total for w in raw.weights])
    members = tuple(
        RandomVariable.from_values([random_fraction(rng) for _ in range(sp.atom_count)], "exact")
        for _ in range(rng.randint(1, 2))
    )
    p = rng.choice([1, 2])
    q = p + rng.choice([1, 2])
    rep = check_p_monotonicity(FunctionFamily(sp, members, p), p, q)
    assert rep.holds
    assert rep.factor == Fraction(1)


def test_shrinking_spike_family_norms():
    sp, members, limit = shrinking_spike_family(4, mode="exact")
    assert limit.values == (Fraction(0),) * sp.atom_count
    for n, f in enumerate(members, start=1):
        assert snorm(sp, f, 1) == Fraction(1, n)


def test_fixed_mass_spike_family_norms():
    sp, members, limit = fixed_mass_spike_family(4, mode="exact")
    for f in members:
        assert snorm(sp, f, 1) == Fraction(1)


def test_vitali_positive_case():
    sp, members, limit = shrinking_spike_family(32, mode="float")
    rep = vitali_empirical(sp, members, limit, 1, 32)
    assert rep.consistent
    assert rep.lp_decay
    assert rep.in_measure_decay
    assert rep.ui_small


def test_vitali_negative_case():
    # mass never leaves: converges in measure but not in norm, and the
    # report should recognize the pattern as the non-UI branch
    sp, members, limit = fixed_mass_spike_family(32, mode="float")
    rep = vitali_empirical(sp, members, limit, 1, 32)
    assert rep.consistent
    assert not rep.lp_decay
    assert not rep.ui_small
    assert rep.in_measure_decay
    assert abs(rep.lp_curve[-1] - 1.0) < 1e-12
