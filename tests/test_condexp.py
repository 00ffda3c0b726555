import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    FairWalk,
    FiniteMeasureSpace,
    MartingaleClass,
    Partition,
    Process,
    RandomVariable,
    ae_equal,
    check_set_integral_characterization,
    condexp,
    condexp_agreement_witness,
    condexp_l2,
    condexp_properties,
    classify,
    exhaustive_space,
    integral,
    natural_filtration,
    set_integral,
)
from conftest import nested_partition_pair, random_rv, random_space
from oracles import condexp_l2_dense

# the package's ``condexp`` function shadows its module of the same name
condexp_module = importlib.import_module("martkit.condexp")
measure_module = importlib.import_module("martkit.measure")

seeds = st.integers(0, 10**9)


def test_blockwise_average_worked_example():
    # weights 1/2, 1/4, 1/4 with blocks {0,1} and {2}:
    # block one averages (2*(1/2) + 6*(1/4)) / (3/4) = 10/3
    sp = FiniteMeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    f = RandomVariable.from_values([2, 6, 5], "exact")
    p = Partition.of([0, 0, 1])
    g = condexp(sp, f, p)
    assert g.values == (Fraction(10, 3), Fraction(10, 3), Fraction(5))


def test_trivial_partition_gives_the_mean():
    sp = FiniteMeasureSpace.from_weights([1, 3])
    f = RandomVariable.from_values([4, 8], "exact")
    g = condexp(sp, f, Partition.trivial(2))
    assert g.values == (Fraction(7), Fraction(7))
    assert integral(sp, g) == integral(sp, f)


def test_zero_mass_blocks_average_to_zero():
    # f not constant on the dead block, so the averaging route runs
    sp = FiniteMeasureSpace.from_weights([1, 0, 0])
    f = RandomVariable.from_values([4, 9, 7], "exact")
    g = condexp(sp, f, Partition.of([0, 1, 1]))
    assert g.values == (Fraction(4), Fraction(0), Fraction(0))
    g2 = condexp_l2(sp, f, Partition.of([0, 1, 1]))
    assert g.values == g2.values


def test_measurable_input_returned_bitwise():
    sp = FiniteMeasureSpace.from_weights([1, 0, 0])
    f = RandomVariable.from_values([4, 9, 9], "exact")
    g = condexp(sp, f, Partition.of([0, 1, 1]))
    assert g.values == f.values


def test_singleton_partition_is_identity():
    sp = FiniteMeasureSpace.from_weights([1, 2, 3])
    f = RandomVariable.from_values([7, -1, 2], "exact")
    assert condexp(sp, f, Partition.singletons(3)).values == f.values


def test_two_routes_agree_on_worked_example():
    sp = FiniteMeasureSpace.from_weights([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0])
    f = RandomVariable.from_values([1, 5, -2, 11], "exact")
    p = Partition.of([0, 0, 1, 1])
    assert condexp(sp, f, p).values == condexp_l2(sp, f, p).values
    assert condexp_agreement_witness(sp, f, p) is None


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_two_routes_agree_everywhere(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=10)
    n = sp.atom_count
    f = random_rv(rng, n)
    sub, amb = nested_partition_pair(rng, n)
    a = condexp(sp, f, sub, amb)
    b = condexp_l2(sp, f, sub, amb)
    assert a.values == b.values
    assert condexp_agreement_witness(sp, f, sub, amb) is None


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_defining_property_on_random_instances(seed):
    # measurable wrt sub, and block integrals match those of f
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=10)
    n = sp.atom_count
    f = random_rv(rng, n)
    sub, amb = nested_partition_pair(rng, n)
    g = condexp(sp, f, sub, amb)
    rep = check_set_integral_characterization(sp, f, sub, amb)
    assert rep.holds
    assert rep.worst_block_gap == 0
    for block in sub.block_sets():
        assert set_integral(sp, g, block) == set_integral(sp, f, block)


def test_characterization_flags_a_perturbed_candidate():
    sp = FiniteMeasureSpace.from_weights([1, 1, 1, 1])
    f = RandomVariable.from_values([1, 3, 5, 7], "exact")
    sub = Partition.of([0, 0, 1, 1])
    g = condexp(sp, f, sub)
    bad = RandomVariable.from_values(
        [g.values[0] + 1, g.values[1] + 1, g.values[2], g.values[3]], "exact"
    )
    assert not ae_equal(sp, bad, g)
    rep = check_set_integral_characterization(sp, f, sub)
    assert rep.holds



@pytest.mark.parametrize("call, finite", [
    (lambda sp, f: condexp(sp, f.at(1), Partition.trivial(2)).values, (0.0, 0.0)),
    (lambda sp, f: classify(sp, f, natural_filtration(f)).kind, MartingaleClass.MARTINGALE),
], ids=["condexp", "classify"])
def test_a_float_block_sum_past_the_range_raises(call, finite):
    # weights 1e10 times values +-1e300 are inf and -inf, whose sum is NaN:
    # condexp once returned (nan, nan), and classify read a martingale only
    # because NaN fails both of its comparisons
    sp = FiniteMeasureSpace.from_weights([1e10, 1e10], "float")
    with pytest.raises(ValueError, match="^a weighted sum of finite values overflows a float$"):
        call(sp, Process.from_values([[0.0, 0.0], [1e300, -1e300]], "float"))
    assert call(sp, Process.from_values([[0.0, 0.0], [1e290, -1e290]], "float")) == finite

def test_non_nested_sub_returns_zero_function():
    # the averaging route's fallback when sub is not below ambient
    sp = FiniteMeasureSpace.from_weights([1, 1, 1])
    f = RandomVariable.from_values([1, 2, 3], "exact")
    sub = Partition.of([0, 0, 1])
    amb = Partition.of([0, 1, 1])
    g = condexp(sp, f, sub, amb)
    assert g.values == (Fraction(0), Fraction(0), Fraction(0))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_tower_linearity_monotonicity_bundle(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    n = sp.atom_count
    f = random_rv(rng, n)
    g = random_rv(rng, n)
    coarse, fine = nested_partition_pair(rng, n)
    rep = condexp_properties(
        sp, f, g, sub_fine=fine, sub_coarse=coarse,
        alpha=Fraction(rng.randint(-3, 3)), beta=Fraction(rng.randint(-3, 3)),
    )
    assert rep.linearity_holds
    assert rep.tower_holds
    assert rep.holds


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_tower_property_directly(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    n = sp.atom_count
    f = random_rv(rng, n)
    coarse, fine = nested_partition_pair(rng, n)
    inner = condexp(sp, f, fine)
    assert condexp(sp, inner, coarse).values == condexp(sp, f, coarse).values


def _bits(rv):
    """Values as compared bitwise: float.hex in float mode, so -0.0 != 0.0."""
    return tuple(float.hex(v) if rv.mode == "float" else v for v in rv.values)


def _assert_l2_matches_dense(space, f, sub, ambient=None):
    got = condexp_l2(space, f, sub, ambient)
    want = condexp_l2_dense(space, f, sub, ambient)
    assert got.mode == want.mode
    assert _bits(got) == _bits(want)


@st.composite
def l2_instances(draw, mode):
    """(space, f, sub, ambient) with many zero weights, so blocks of measure
    zero are common.  Float weights and values include both signed zeros and
    full-mantissa draws, whose sums depend on the order of summation."""
    n = draw(st.integers(1, 12))
    if mode == "float":
        zeros = st.sampled_from([0.0, -0.0])
        generic = st.integers(0, 2**32).map(lambda s: random.Random(s).uniform(-1, 1))
        weight = zeros | generic.map(lambda x: 8 * abs(x)) | st.floats(0, 8)
        value = zeros | generic.map(lambda x: 100 * x) | st.floats(-1e6, 1e6)
    else:
        weight = st.just(Fraction(0)) | st.fractions(0, 8, max_denominator=6)
        value = st.fractions(-4, 4, max_denominator=6)
    space = FiniteMeasureSpace.from_weights(draw(st.lists(weight, min_size=n, max_size=n)), mode)
    f = RandomVariable.from_values(draw(st.lists(value, min_size=n, max_size=n)), mode)
    labels = st.lists(st.integers(0, max(0, n // 3 - 1)), min_size=n, max_size=n)
    sub = draw(st.sampled_from([Partition.trivial(n), Partition.singletons(n), Partition.of(draw(labels))]))
    finer = Partition.of(list(zip(sub.block_of, draw(labels))))
    ambient = draw(st.sampled_from([None, sub, finer]))
    return space, f, sub, ambient


@given(st.sampled_from(["exact", "float"]).flatmap(l2_instances))
@settings(max_examples=300, deadline=None)
def test_sparse_assembly_is_bitwise_the_dense_one(instance):
    _assert_l2_matches_dense(*instance)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_sparse_assembly_edge_cases(mode):
    # a zero-weight block, a signed zero in f, sub == ambient and the trivial partition
    space = FiniteMeasureSpace.from_weights([0, 0, 1, 3, 0], mode)
    f = RandomVariable.from_values([5, -2, -0.0 if mode == "float" else 0, -7, 4], mode)
    sub = Partition.of([0, 0, 1, 1, 2])
    for s, amb in [(sub, None), (sub, sub), (Partition.trivial(5), None), (Partition.singletons(5), None)]:
        _assert_l2_matches_dense(space, f, s, amb)
    assert condexp_l2(space, f, sub).values[:2] == (0, 0)  # the measure-zero block


def test_projection_route_shares_no_blockwise_kernel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("condexp_l2 reached a kernel of the averaging route")

    monkeypatch.setattr(condexp_module, "_Kernel", forbidden)
    for name in ("_integer_twin", "_weighted"):
        monkeypatch.setattr(measure_module, name, forbidden)
    sp = FiniteMeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    f = RandomVariable.from_values([2, 6, 5], "exact")
    assert condexp_l2(sp, f, Partition.of([0, 0, 1])).values == (Fraction(10, 3),) * 2 + (Fraction(5),)


def test_block_size_mutation_of_condexp_is_caught(monkeypatch):
    # route 1 dividing block integrals by block size, not block mass, must
    # disagree with the projection on a non-uniform space
    sp = FiniteMeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    f = RandomVariable.from_values([2, 6, 5], "exact")
    sub = Partition.of([0, 0, 1])
    assert condexp_agreement_witness(sp, f, sub) is None
    init = condexp_module._Kernel.__init__

    def by_size(self, space, steps):
        init(self, space, steps)
        self.mass = [([len(b) for b in p.blocks()], 1) for p in steps]

    monkeypatch.setattr(condexp_module._Kernel, "__init__", by_size)
    assert condexp(sp, f, sub).values[0] == Fraction(5, 4)  # the mutant is live
    assert condexp_agreement_witness(sp, f, sub) == 0


def test_projection_on_a_fine_partition():
    # 128 blocks over 512 atoms: about 0.1 s, where the dense k^2 assembly
    # of tests/oracles.py takes about a minute (2-core Xeon)
    space, walk, F = exhaustive_space(FairWalk(), 9, "exact")
    f, sub = walk.at(9), F.steps[7]
    assert (sub.block_count, space.atom_count) == (128, 512)
    assert condexp_l2(space, f, sub).values == condexp(space, f, sub).values
