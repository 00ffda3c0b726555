import random
import struct
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    INF,
    Band,
    Classification,
    Filtration,
    FiniteMeasureSpace,
    MartingaleClass,
    ModeError,
    Partition,
    Process,
    RandomVariable,
    RootValue,
    ae_equal,
    ae_le,
    ae_witness,
    check_maximal_inequality,
    check_set_integral_characterization,
    check_upcrossing_estimate,
    check_upcrossing_estimate_sup,
    condexp,
    generated_partition,
    indicator,
    integral,
    is_measurable_wrt,
    join,
    measure,
    meet,
    partition_le,
    set_integral,
    set_measurable_wrt,
    snorm,
)
from conftest import nested_partition_pair, random_partition, random_rv, random_space
from oracles import estimate_sides, estimate_sup_sides, left_to_right, lp_norm, maximal_sides

seeds = st.integers(0, 10**9)


def test_uniform_space_totals_one():
    sp = FiniteMeasureSpace.uniform(4, mode="exact")
    assert sp.total == Fraction(1)
    assert sp.is_probability()


def test_float_probability_allows_rounding_in_the_total():
    # ten weights of 0.1 sum to 0.9999999999999999 in IEEE doubles
    sp = FiniteMeasureSpace.from_weights([0.1] * 10, mode="float")
    assert sp.total != 1
    assert sp.is_probability()
    assert not FiniteMeasureSpace.from_weights([0.1] * 9, mode="float").is_probability()
    # exact mode keeps strict equality, even for a deficit far below the float tolerance
    short = [Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**12)]
    assert not FiniteMeasureSpace.from_weights(short, mode="exact").is_probability()
    assert FiniteMeasureSpace.from_weights([float(w) for w in short], mode="float").is_probability()


def test_exact_space_rejects_float_weights():
    # a float weight once made is_probability() True for an "exact" space
    with pytest.raises(ModeError):
        FiniteMeasureSpace((0.5, 0.5), "exact")


def test_exact_sums_reject_floats_in_an_exact_random_variable():
    # RandomVariable is not scanned when built; the exact sum names the mode error
    with pytest.raises(ModeError):
        integral(FiniteMeasureSpace.uniform(2), RandomVariable((1.5, 2), "exact"))


def test_exact_snorm_rejects_floats_in_an_exact_random_variable():
    # its sum once went float and came back as Fraction(7, 4)
    with pytest.raises(ModeError):
        snorm(FiniteMeasureSpace.uniform(2), RandomVariable((1.5, 2), "exact"), 1)


def test_integral_and_measure_basics():
    sp = FiniteMeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    f = RandomVariable.from_values([2, -4, 8], "exact")
    assert integral(sp, f) == Fraction(2)
    assert measure(sp, frozenset({0, 2})) == Fraction(3, 4)
    assert set_integral(sp, f, frozenset({1, 2})) == Fraction(1)


_weights = st.one_of(
    st.just(0), st.integers(0, 50), st.fractions(min_value=0, max_denominator=720)
)
_exact_values = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_exact_sums_equal_the_naive_fraction_sum(data):
    # built directly, not coerced, so int weights and values stay ints
    n = data.draw(st.integers(1, 10))
    weights = data.draw(st.lists(_weights, min_size=n, max_size=n))
    values = data.draw(st.lists(_exact_values, min_size=n, max_size=n))
    s = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    sp = FiniteMeasureSpace(tuple(weights), "exact")
    f = RandomVariable(tuple(values), "exact")
    cases = [
        (integral(sp, f), sum((w * v for w, v in zip(weights, values)), Fraction(0))),
        (set_integral(sp, f, s), sum((weights[a] * values[a] for a in s), Fraction(0))),
        (measure(sp, s), sum((weights[a] for a in s), Fraction(0))),
    ]
    for got, want in cases:
        assert type(got) is Fraction
        assert got == want


def test_exact_sums_over_nothing_are_fraction_zero():
    sp = FiniteMeasureSpace((0, Fraction(0)), "exact")
    f = RandomVariable((3, Fraction(-1, 7)), "exact")
    for got in (integral(sp, f), set_integral(sp, f, frozenset()), measure(sp, frozenset()),
                measure(sp, frozenset({0, 1}))):
        assert type(got) is Fraction
        assert got == 0


def test_snorm_two_norm_is_root_five():
    # uniform pair, values 1 and 3: integral of f^2 is 5, so the norm is 5^(1/2)
    sp = FiniteMeasureSpace.uniform(2, mode="exact")
    f = RandomVariable.from_values([1, 3], "exact")
    v = snorm(sp, f, 2)
    assert isinstance(v, RootValue)
    assert v == RootValue.of(Fraction(5), 2)


def test_snorm_one_norm_exact():
    sp = FiniteMeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 2)])
    f = RandomVariable.from_values([-3, 5], "exact")
    assert snorm(sp, f, 1) == Fraction(4)


def test_snorm_sup_ignores_zero_weight_atoms():
    sp = FiniteMeasureSpace.from_weights([1, 0, 2])
    f = RandomVariable.from_values([2, 100, -3], "exact")
    assert snorm(sp, f, INF) == Fraction(3)


def test_snorm_accepts_integral_fraction_exponent():
    sp = FiniteMeasureSpace.from_weights([1, 1])
    f = RandomVariable.from_values([1, 3], "exact")
    assert snorm(sp, f, Fraction(2, 1)) == snorm(sp, f, 2)


def test_ae_relations_ignore_zero_weight_atoms():
    sp = FiniteMeasureSpace.from_weights([1, 0, 1])
    f = RandomVariable.from_values([1, 99, 3], "exact")
    g = RandomVariable.from_values([1, -99, 3], "exact")
    assert ae_equal(sp, f, g)
    assert ae_le(sp, f, g)
    assert ae_witness(sp, f, g) is None


def test_ae_witness_points_at_a_positive_atom():
    sp = FiniteMeasureSpace.from_weights([1, 1])
    f = RandomVariable.from_values([1, 2], "exact")
    g = RandomVariable.from_values([1, 5], "exact")
    w = ae_witness(sp, f, g)
    assert w == 1
    assert not ae_equal(sp, f, g)


def test_ae_witness_rejects_an_unknown_relation():
    # "bogus" once fell through to the "ge" test
    sp = FiniteMeasureSpace.from_weights([1, 1])
    f = RandomVariable.from_values([1, 2], "exact")
    with pytest.raises(ValueError, match="'eq', 'le' or 'ge'"):
        ae_witness(sp, f, f, relation="bogus")


def test_uniform_space_rejects_an_unknown_mode():
    # "banana" once built a float space
    with pytest.raises(ValueError, match="'exact' or 'float'"):
        FiniteMeasureSpace.uniform(3, "banana")


def test_space_rejects_an_unknown_mode_at_construction():
    # "banana" once built, and failed only at a later coerce_scalar
    with pytest.raises(ValueError, match="unknown mode 'banana'; expected 'exact' or 'float'"):
        FiniteMeasureSpace((0.5, 0.5), "banana")


def test_indicator_and_set_measurability():
    p = Partition.of([0, 0, 1, 1])
    ind = indicator(frozenset({0, 1}), 4, "exact")
    assert ind.values == (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    assert set_measurable_wrt(frozenset({0, 1}), p)
    assert not set_measurable_wrt(frozenset({0, 2}), p)
    assert is_measurable_wrt(ind, p)


def test_generated_partition_groups_equal_values():
    f = RandomVariable.from_values([5, 3, 5, 1], "exact")
    p = generated_partition(f)
    assert set(p.block_sets()) == {frozenset({0, 2}), frozenset({1}), frozenset({3})}


def test_partition_lattice_on_a_worked_pair():
    p = Partition.of([0, 0, 1, 1])
    q = Partition.of([0, 1, 1, 0])
    j = join(p, q)
    m = meet(p, q)
    assert j.block_count == 4
    assert m.block_count == 1
    assert partition_le(p, j) and partition_le(q, j)
    assert partition_le(m, p) and partition_le(m, q)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_partition_order_via_measurability(seed):
    # sigma(p) inside sigma(q) iff every p-measurable rv is q-measurable
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    p = random_partition(rng, n)
    q = random_partition(rng, n)
    le = partition_le(p, q)
    blockwise = all(set_measurable_wrt(b, q) for b in p.block_sets())
    assert le == blockwise


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_join_is_least_upper_bound(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    p = random_partition(rng, n)
    q = random_partition(rng, n)
    j = join(p, q)
    assert partition_le(p, j) and partition_le(q, j)
    r = random_partition(rng, n)
    if partition_le(p, r) and partition_le(q, r):
        assert partition_le(j, r)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_nested_pairs_are_ordered(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    sub, amb = nested_partition_pair(rng, n)
    assert partition_le(sub, amb)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_set_integral_is_additive(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=10)
    f = random_rv(rng, sp.atom_count)
    atoms = list(range(sp.atom_count))
    rng.shuffle(atoms)
    cut = rng.randint(0, len(atoms))
    s, t = frozenset(atoms[:cut]), frozenset(atoms[cut:])
    assert set_integral(sp, f, s) + set_integral(sp, f, t) == integral(sp, f)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_snorm_triangle_inequality(seed):
    # exact p=1 and sup-norm stay rational so the sum is exact; the 2-norm
    # side runs in float mode since exact roots do not add
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    f = random_rv(rng, sp.atom_count)
    g = random_rv(rng, sp.atom_count)
    h = RandomVariable.from_values(
        [a + b for a, b in zip(f.values, g.values)], "exact"
    )
    for p in (1, INF):
        assert snorm(sp, h, p) <= snorm(sp, f, p) + snorm(sp, g, p)
    spf = FiniteMeasureSpace.from_weights([float(w) for w in sp.weights], mode="float")
    ff = RandomVariable.from_values([float(v) for v in f.values], "float")
    gf = RandomVariable.from_values([float(v) for v in g.values], "float")
    hf = RandomVariable.from_values([float(v) for v in h.values], "float")
    assert snorm(spf, hf, 2) <= snorm(spf, ff, 2) + snorm(spf, gf, 2) + 1e-9


def test_snorm_rejects_non_integer_exponent_in_exact_mode():
    sp = FiniteMeasureSpace.from_weights([1, 1])
    f = RandomVariable.from_values([1, 3], "exact")
    with pytest.raises(ValueError):
        snorm(sp, f, Fraction(3, 2))


_float_values = st.one_of(st.sampled_from([0.0, -0.0, 0.1, -0.3, 1.0]), st.floats(-50, 50))
_float_weights = st.one_of(st.sampled_from([0.0, -0.0, 0.1]), st.floats(0, 10))
_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
_nonneg_fractions = st.one_of(st.just(Fraction(0)), st.fractions(0, 5, max_denominator=12))
_large_denominators = st.builds(Fraction, st.integers(-10**13, 10**13),
                                st.sampled_from([10**9 + 7, 10**9 + 9, 998244353, 2**31 - 1]))


def _bitwise(got, want):
    if isinstance(want, float):
        return type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("mode", ["exact", "float"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_every_sum_is_the_left_to_right_sum(mode, data):
    # total, masses, integrals, norms, both sides of both upcrossing estimates,
    # the maximal inequality and the characterization's block gaps, held bit
    # for bit to sums over only the selected atoms, one term at a time; exact
    # rows and band edges mix ints, small and large coprime denominators
    values, weights = (_fractions, _nonneg_fractions) if mode == "exact" else (_float_values, _float_weights)
    n = data.draw(st.integers(1, 8))
    horizon = data.draw(st.integers(0, 4))
    sp = FiniteMeasureSpace.from_weights(data.draw(st.lists(weights, min_size=n, max_size=n)), mode)
    if mode == "exact":  # rows over large coprime denominators, whole numbers as ints
        values = st.one_of(values, _large_denominators).map(lambda v: int(v) if v.denominator == 1 else v)
    rows = data.draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=horizon + 1,
                              max_size=horizon + 1))
    f = Process(tuple(map(tuple, rows)), mode) if mode == "exact" else Process.from_values(rows, mode)
    s = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    fN = f.at(horizon)
    atoms = sorted(s)
    cases = [
        (sp.total, left_to_right(mode, sp.weights)),
        (measure(sp, s), left_to_right(mode, (sp.weights[a] for a in atoms))),
        (integral(sp, fN), left_to_right(mode, map(mul, sp.weights, fN.values))),
        (set_integral(sp, fN, s), left_to_right(mode, (sp.weights[a] * fN.values[a] for a in atoms))),
    ]
    for p in (1, 2, INF) if mode == "exact" else (1, 2, 2.5, INF):
        cases.append((snorm(sp, fN, p), lp_norm(sp, fN, p)))

    edges = st.one_of(_fractions, _large_denominators) if mode == "exact" else values
    a, b = data.draw(edges), data.draw(edges)
    band, F = Band(a, b), Filtration.constant(Partition.trivial(n), horizon)
    passed = Classification(MartingaleClass.MARTINGALE, True, None, None, None)
    for N in range(horizon + 1):
        rep = check_upcrossing_estimate(sp, band, f, F, N, classification=passed)
        cases += zip((rep.lhs, rep.rhs), estimate_sides(sp, a, b, f, N))
    rep = check_upcrossing_estimate_sup(sp, band, f, F, classification=passed)
    cases += zip((rep.coefficient, rep.lhs, rep.rhs), estimate_sup_sides(sp, a, b, f))

    level = data.draw(values.filter(lambda v: v > 0))
    rep = check_maximal_inequality(sp, f, F, horizon, level, classification=passed)
    cases += zip((rep.set_mass, rep.lhs, rep.rhs), maximal_sides(sp, f, horizon, level))

    sub = Partition.of(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    ce = condexp(sp, fN, sub)
    gaps = [abs(left_to_right(mode, (sp.weights[a] * ce.values[a] for a in block))
                - left_to_right(mode, (sp.weights[a] * fN.values[a] for a in block)))
            for block in sub.blocks()]
    cases.append((check_set_integral_characterization(sp, fN, sub).worst_block_gap, max(gaps)))

    for i, (got, want) in enumerate(cases):
        assert _bitwise(got, want), (i, got, want)
