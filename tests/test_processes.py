import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    Band,
    BiasedWalk,
    Classification,
    FairWalk,
    Filtration,
    FiniteMeasureSpace,
    MartingaleClass,
    Partition,
    Process,
    StoppingTime,
    check_l1_convergence_a,
    check_l1_convergence_b,
    check_maximal_inequality,
    check_optional_stopping,
    check_upcrossing_estimate,
    check_upcrossing_estimate_sup,
    classify,
    doob_decomposition,
    exhaustive_space,
    integral,
    is_adapted,
    is_predictable,
    natural_filtration,
    stochastic_integral,
)
from conftest import (
    random_filtration,
    random_martingale,
    random_predictable_bounded,
    random_space,
    random_submartingale,
)

seeds = st.integers(0, 10**9)


def fair_walk_two_steps():
    return exhaustive_space(FairWalk(), 2, mode="exact")


def test_fair_walk_exhaustive_is_a_martingale():
    sp, f, F = fair_walk_two_steps()
    assert sp.weights == (Fraction(1, 4),) * 4
    assert f.values[0] == (Fraction(0),) * 4
    assert f.values[1] == (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1))
    assert f.values[2] == (Fraction(2), Fraction(0), Fraction(0), Fraction(-2))
    assert set(F.steps[1].block_sets()) == {frozenset({0, 1}), frozenset({2, 3})}
    c = classify(sp, f, F)
    assert c.kind is MartingaleClass.MARTINGALE
    assert c.adapted


def test_classification_witness_on_a_drifted_walk():
    sp, f, F = fair_walk_two_steps()
    rows = [list(row) for row in f.values]
    rows[2] = [v + 1 for v in rows[2]]
    g = Process.from_values(rows, "exact")
    c = classify(sp, g, F)
    assert c.kind is MartingaleClass.SUBMARTINGALE
    w = c.witness_against(MartingaleClass.MARTINGALE)
    assert w is not None
    i, j, atom = w
    assert i < j and 0 <= atom < 4


def test_classify_rejects_non_adapted_process():
    sp, f, F = fair_walk_two_steps()
    rows = [list(row) for row in f.values]
    rows[0] = [1, 2, 3, 4]
    g = Process.from_values(rows, "exact")
    c = classify(sp, g, F)
    assert not c.adapted
    assert c.kind is MartingaleClass.NONE
    assert c.adapted_witness is not None


def test_signed_zeros_make_a_float_process_non_adapted():
    # float mode tells 0.0 and -0.0 apart, and classify must agree with is_adapted
    sp = FiniteMeasureSpace.uniform(2, mode="float")
    f = Process.from_values([[0.0, -0.0], [0.0, -0.0]], "float")
    F = Filtration.constant(Partition.trivial(2), 1)
    c = classify(sp, f, F)
    assert (c.kind, c.adapted, c.adapted_witness) == (MartingaleClass.NONE, False, (0, 0))
    assert not is_adapted(f, F)


@given(seeds, st.data())
@settings(max_examples=80, deadline=None)
def test_classify_adaptedness_agrees_with_is_adapted(seed, data):
    rng = random.Random(seed)
    n, horizon = rng.randint(1, 5), rng.randint(0, 3)
    F = random_filtration(rng, n, horizon)
    row = st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=horizon + 1, max_size=horizon + 1))
    f = Process.from_values(rows, "float")
    c = classify(FiniteMeasureSpace.uniform(n, mode="float"), f, F)
    assert c.adapted == is_adapted(f, F)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_float_process_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        Process.from_values([[0.0, bad], [0.0, 0.0]], "float")


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_all_pairs_equals_consecutive(seed):
    # tower rule: checking adjacent steps decides the full i <= j family
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
    f = random_submartingale(rng, sp, F) if rng.random() < 0.5 else random_martingale(rng, sp, F)
    a = classify(sp, f, F, pairs="all")
    b = classify(sp, f, F, pairs="consecutive")
    assert a.kind is b.kind


def test_predictability_convention():
    # row 0 is measured at step 0; every later row one step earlier
    F = Filtration.of([Partition.trivial(4), Partition.of([0, 0, 1, 1]), Partition.singletons(4)])
    c = Process.from_values(
        [[0, 0, 0, 0], [1, 1, 1, 1], [2, 2, 3, 3]], "exact"
    )
    assert is_predictable(c, F)
    d = Process.from_values(
        [[0, 0, 0, 0], [1, 1, 1, 1], [2, 3, 3, 3]], "exact"
    )
    assert not is_predictable(d, F)
    e = Process.from_values(
        [[0, 1, 0, 0], [1, 1, 1, 1], [2, 2, 3, 3]], "exact"
    )
    assert not is_predictable(e, F)


def test_stochastic_integral_rows():
    # (c.f)_0 = 0 and c_0 never enters the sum
    f = Process.from_values([[0, 0], [2, -2], [5, 1]], "exact")
    c = Process.from_values([[9, 9], [1, 1], [3, 3]], "exact")
    g = stochastic_integral(c, f)
    assert g.values[0] == (Fraction(0), Fraction(0))
    assert g.values[1] == (Fraction(2), Fraction(-2))
    assert g.values[2] == (Fraction(2) + 9, Fraction(-2) + 9)
    c2 = Process.from_values([[0, 0], [1, 1], [3, 3]], "exact")
    assert stochastic_integral(c2, f).values == g.values


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_unit_bets_telescope(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
    f = random_martingale(rng, sp, F)
    ones = Process.from_values(
        [[1] * sp.atom_count for _ in range(F.horizon + 1)], "exact"
    )
    g = stochastic_integral(ones, f)
    for n in range(F.horizon + 1):
        expect = tuple(fv - f0 for fv, f0 in zip(f.values[n], f.values[0]))
        assert g.values[n] == expect


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_martingale_transform_stays_a_martingale(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
    f = random_martingale(rng, sp, F)
    c = random_predictable_bounded(rng, sp, F, Fraction(3))
    g = stochastic_integral(c, f)
    assert classify(sp, g, F).kind is MartingaleClass.MARTINGALE


def test_doob_decomposition_worked_example():
    # drifted walk: predictable part absorbs the +1 per-step drift
    sp, f, F = fair_walk_two_steps()
    rows = [[v + n for v in row] for n, row in enumerate(f.values)]
    g = Process.from_values(rows, "exact")
    dec = doob_decomposition(sp, g, F)
    assert dec.martingale_part.values == f.values
    for n, row in enumerate(dec.predictable_part.values):
        assert row == (Fraction(n),) * 4


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_doob_decomposition_properties(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
    f = random_submartingale(rng, sp, F)
    dec = doob_decomposition(sp, f, F)
    m, a = dec.martingale_part, dec.predictable_part
    assert classify(sp, m, F).kind is MartingaleClass.MARTINGALE
    assert is_predictable(a, F)
    assert a.values[0] == (Fraction(0),) * sp.atom_count
    # nondecreasing a.e.: zero-weight atoms may dip under the averaging rules
    alive = sp.positive_atoms()
    for n in range(F.horizon):
        assert all(a.values[n][w] <= a.values[n + 1][w] for w in alive)
    for n in range(F.horizon + 1):
        assert tuple(mv + av for mv, av in zip(m.values[n], a.values[n])) == f.values[n]


def test_doob_decomposition_is_unique_by_construction():
    # two decompositions of the same process agree row for row
    sp, f, F = fair_walk_two_steps()
    d1 = doob_decomposition(sp, f, F)
    d2 = doob_decomposition(sp, f, F)
    assert d1.martingale_part.values == d2.martingale_part.values
    assert d1.predictable_part.values == d2.predictable_part.values


def test_natural_filtration_tracks_the_path():
    f = Process.from_values([[0, 0, 0], [1, 1, 2], [1, 3, 2]], "exact")
    F = natural_filtration(f)
    assert F.steps[0].block_count == 1
    assert set(F.steps[1].block_sets()) == {frozenset({0, 1}), frozenset({2})}
    assert F.steps[2].block_count == 3
    assert is_adapted(f, F)


def test_integral_of_martingale_is_flat():
    sp, f, F = fair_walk_two_steps()
    vals = [integral(sp, f.at(n)) for n in range(3)]
    assert vals == [Fraction(0)] * 3


DOWNWARD = exhaustive_space(BiasedWalk(Fraction(1, 4)), 3)  # a strict supermartingale
BAND_0_1 = Band(0, 1)
SUB = "requires a submartingale or martingale"
GATES = [
    (f"the upcrossing estimate {SUB}", lambda sp, f, F, c: check_upcrossing_estimate(sp, BAND_0_1, f, F, 3, c)),
    (f"the upcrossing estimate {SUB}", lambda sp, f, F, c: check_upcrossing_estimate_sup(sp, BAND_0_1, f, F, c)),
    (f"the maximal inequality {SUB}", lambda sp, f, F, c: check_maximal_inequality(sp, f, F, 3, 1, c)),
    (rf"check \(a\) {SUB}", lambda sp, f, F, c: check_l1_convergence_a(sp, f, F, (), 0, 1, c)),
    (f"optional stopping {SUB}", lambda sp, f, F, c: check_optional_stopping(
        sp, f, F, StoppingTime.constant(0, 8), StoppingTime.constant(3, 8), c)),
    (r"check \(b\) is a martingale statement; classification says otherwise",
     lambda sp, f, F, c: check_l1_convergence_b(sp, f, F, classification=c)),
]
GATE_IDS = ["upcrossing_estimate", "upcrossing_estimate_sup", "maximal_inequality", "l1_convergence_a",
            "optional_stopping", "l1_convergence_b"]


@pytest.mark.parametrize("text, check", GATES, ids=GATE_IDS)
def test_each_gate_refuses_a_supermartingale_in_its_own_words(text, check):
    sp, f, F = DOWNWARD
    assert classify(sp, f, F).kind is MartingaleClass.SUPERMARTINGALE
    with pytest.raises(ValueError, match=f"^{text}$"):
        check(sp, f, F, None)
    # a given classification is used as it stands, not recomputed
    check(sp, f, F, Classification(MartingaleClass.MARTINGALE, True, None, None, None))


@pytest.mark.parametrize("check", [check for _, check in GATES], ids=GATE_IDS)
def test_each_gate_refuses_what_is_not_a_classification(check):
    # each once failed inside the gate: "martingale" with AttributeError:
    # 'str' object has no attribute 'is_at_least'
    sp, f, F = DOWNWARD
    for bad in ("martingale", 3, MartingaleClass.MARTINGALE):
        with pytest.raises(TypeError, match=f"^classification must be a Classification or None, got {bad!r}$"):
            check(sp, f, F, bad)


@pytest.mark.parametrize("check, option", [
    (lambda sp, f, F, **kw: check_upcrossing_estimate_sup(sp, BAND_0_1, f, F, **kw), "check_classification"),
    (lambda sp, f, F, **kw: check_l1_convergence_b(sp, f, F, **kw), "allow_non_martingale"),
], ids=["upcrossing_estimate_sup", "l1_convergence_b"])
def test_no_option_skips_the_gate(check, option):
    # ``classification=`` is the one way past the premise
    sp, f, F = DOWNWARD
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{option}'"):
        check(sp, f, F, **{option: option == "allow_non_martingale"})
