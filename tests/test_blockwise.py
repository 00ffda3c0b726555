"""The blockwise kernel against the per-pair atom loops of ``oracles``.

Every routed function must equal its reference bitwise (compared through
``repr``, so float -0.0 and 0.0 differ, atoms must be plain ints and an exact
int must not turn into a Fraction or back), in both modes, on random spaces
with zero-weight atoms, whole blocks of mass zero and ragged refinements.
Exact processes are adapted, adapted to earlier steps, or not adapted, so
both routes of the running sums run; some rows lie over large coprime
denominators, and some are built directly with whole numbers left as ints.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    EventSequence,
    FiniteMeasureSpace,
    Filtration,
    MartingaleClass,
    Partition,
    Process,
    RandomVariable,
    borel_cantelli_martingale,
    check_l1_convergence_b,
    check_levy_upward,
    check_set_integral_characterization,
    classify,
    condexp,
    doob_decomposition,
    doob_witnesses,
    integral,
    measure,
    natural_filtration,
    predictable_sum,
    set_integral,
)
from conftest import (
    ASSUMED_MARTINGALE,
    random_filtration,
    random_fraction,
    random_martingale,
    random_space,
    random_submartingale,
)
from martkit.condexp import _Kernel
import oracles

seeds = st.integers(0, 10**9)


def ascending_order_case():
    # iterating frozenset({3, 21, 27}) visits 27 first, and
    # (0.2 + 0.1) + 3.0 rounds differently from (0.1 + 3.0) + 0.2
    values = [0.0] * 28
    values[3], values[21], values[27] = 0.1, 3.0, 0.2
    block = {3, 21, 27}
    p = Partition.from_blocks([sorted(block), [a for a in range(28) if a not in block]])
    return values, frozenset(block), p


def test_float_block_sums_run_in_ascending_atom_order():
    values, block, p = ascending_order_case()
    sp = FiniteMeasureSpace.from_weights([1.0] * 28, "float")
    g = condexp(sp, RandomVariable.from_values(values, "float"), p)
    assert g.values[3] == g.values[21] == g.values[27] == 1.1
    assert g.values[0] == 0.0


def test_float_set_sums_run_in_ascending_atom_order():
    # the parent summed in frozenset order: 3.3 against integral's
    # 3.3000000000000003, and a characterization gap of 4.44e-16
    values, block, p = ascending_order_case()
    sp = FiniteMeasureSpace.from_weights([1.0] * 28, "float")
    f = RandomVariable.from_values(values, "float")
    assert set_integral(sp, f, block) == integral(sp, f) == 0.1 + 3.0 + 0.2
    assert check_set_integral_characterization(sp, f, p).worst_block_gap == 0.0
    weighted = FiniteMeasureSpace.from_weights([v or 1.0 for v in values], "float")
    assert measure(weighted, block) == 0.1 + 3.0 + 0.2


_PRIMES = (10**9 + 7, 10**9 + 9, 998244353, 2**31 - 1, 4294967291)


def _block_values(rng, space, part, zeros, den=None):
    """One random value per block of ``part``, written to every atom of it;
    over ``den`` when given."""
    out = [Fraction(0)] * space.atom_count
    for block in part.blocks():
        if den is not None:
            v = Fraction(rng.randint(-3 * den, 3 * den), den)
        else:
            v = random_fraction(rng, -3, 3, 2) if zeros else random_fraction(rng)
        for a in block:
            out[a] = v
    return out


def _direct(rng, values):
    """The same values as built directly, not coerced: some whole numbers as ints."""
    return tuple(int(v) if v.denominator == 1 and rng.random() < 0.5 else v for v in values)


def _process(rng, space, F):
    """A martingale, a submartingale, a martingale nudged on a few blocks, a
    process adapted to earlier steps (so f_j is often F_i-measurable, i < j),
    values drawn per atom (rarely adapted), or rows over large coprime
    denominators, drawn per block or per atom."""
    kind = rng.choice(["martingale", "sub", "nudged", "early", "raw", "coprime"])
    if kind == "martingale":
        return random_martingale(rng, space, F), kind
    if kind == "sub":
        return random_submartingale(rng, space, F), kind
    if kind == "nudged":
        rows = [list(r) for r in random_martingale(rng, space, F).values]
        for n in range(1, F.horizon + 1):
            block = rng.choice(F.steps[n].blocks())
            d = Fraction(rng.choice([-1, 1]), rng.randint(1, 3))
            for a in block:
                rows[n][a] += d
        return Process.from_values(rows, "exact"), kind
    if kind == "coprime":
        per_atom = rng.random() < 0.5
        rows = [_block_values(rng, space, Partition.singletons(space.atom_count) if per_atom else p,
                              True, den) for p, den in zip(F.steps, _PRIMES)]
        return Process.from_values(rows, "exact"), kind
    if kind == "early":
        rows = [_block_values(rng, space, F.steps[rng.randint(0, n)], True)
                for n in range(F.horizon + 1)]
        return Process.from_values(rows, "exact"), kind
    rows = [[random_fraction(rng, -2, 2, 1) for _ in range(space.atom_count)]
            for _ in range(F.horizon + 1)]
    return Process.from_values(rows, "exact"), kind


def _signed_zeros(rng, rows):
    """Float rows with some zeros negated, per atom or per whole row."""
    per_atom = rng.random() < 0.5
    out = []
    for row in rows:
        flip = rng.random() < 0.3
        out.append([-0.0 if v == 0 and (rng.random() < 0.3 if per_atom else flip) else float(v)
                    for v in row])
    return out


def _instance(seed, mode):
    rng = random.Random(seed)
    space = random_space(rng, max_atoms=12, zero_prob=0.3)
    F = random_filtration(rng, space.atom_count, rng.randint(1, 4))
    if rng.random() < 0.3:  # a whole block of mass zero at some step
        block = rng.choice(F.steps[rng.randint(0, F.horizon)].blocks())
        weights = [Fraction(0) if a in block else w for a, w in enumerate(space.weights)]
        if any(weights):
            space = FiniteMeasureSpace(tuple(weights), "exact")
    f, kind = _process(rng, space, F)
    g = _block_values(rng, space, F.steps[-1], False)
    if mode == "exact" and rng.random() < 0.5:
        f = Process(tuple(_direct(rng, row) for row in f.values), "exact")
        g = _direct(rng, g)
    sets = []
    for part in F.steps:
        picked = [b for b in part.blocks() if rng.random() < 0.5]
        sets.append(frozenset(a for b in picked for a in b))
    if mode == "float":
        space = FiniteMeasureSpace.from_weights([float(w) for w in space.weights], "float")
        f = Process.from_values(_signed_zeros(rng, f.values), "float")
        g = [float(v) for v in g]
    return space, f, F, RandomVariable(tuple(g), mode), EventSequence(tuple(sets), F), kind


def _same(a, b):
    assert repr(a) == repr(b)


@given(seeds, st.sampled_from(["exact", "float"]))
@settings(max_examples=200, deadline=None)
def test_kernel_gaps_equal_the_condexp_differences(seed, mode):
    # classify reads only the signs of these gaps against the mode's slack, so
    # float gaps are held to condexp(f_j | steps[i]) - f_i bit for bit: a kernel
    # change that moves a block average by less than the slack still shows
    space, f, F = _instance(seed, mode)[:3]
    kernel = _Kernel(space, F.steps)
    rows = kernel.rows(f)
    sign = lambda x: (x > 0) - (x < 0)
    for j in range(f.horizon + 1):
        for i, sums in kernel.tower(rows[j], j, 0):
            got = kernel.gaps(rows[j], sums, i, rows[i], kernel.positive).tolist()
            want = oracles.condexp_gaps(space, f, F, i, j)
            if mode == "float":
                _same(got, want)
            else:  # exact gaps carry a positive factor, so their signs are the facts
                assert [sign(g) for g in got] == [sign(d) for d in want]


@given(seeds, st.sampled_from(["exact", "float"]))
@settings(max_examples=300, deadline=None)
def test_routed_functions_equal_the_per_pair_loops(seed, mode):
    space, f, F, g, S, kind = _instance(seed, mode)
    for pairs in ("all", "consecutive"):
        _same(classify(space, f, F, pairs=pairs), oracles.classify_by_pairs(space, f, F, pairs=pairs))
    dd = doob_decomposition(space, f, F)
    _same((dd.martingale_part.values, dd.predictable_part.values),
          oracles.doob_by_steps(space, f, F))
    _same(check_levy_upward(space, g, F).d, oracles.levy_distances(space, g, F))
    rep = check_l1_convergence_b(space, f, F, classification=ASSUMED_MARTINGALE)
    _same(rep.witness, oracles.l1b_witness(space, f, F))
    _same(predictable_sum(space, S).values, oracles.event_sums(space, S, compensated=False))
    _same(borel_cantelli_martingale(space, S).values,
          oracles.event_sums(space, S, compensated=True))


@given(seeds, st.sampled_from(["exact", "float"]), st.sampled_from([None, 0, -1]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_doob_witnesses_equal_the_entry_loops(seed, mode, constant, large):
    # each witness is its fact's first failing entry in row-major order, so the
    # facts and holds equal the per-entry loops the CLI once ran.  A constant
    # filtration at the finest step keeps f adapted and makes its drift f_n - f_0;
    # float values near 3^20 round m = f - a by more than the slack, so m + a = f fails
    space, f, F = _instance(seed, mode)[:3]
    if constant is not None:
        F = Filtration.constant(F.steps[constant], F.horizon)
    if large and mode == "float":
        f = Process(tuple(tuple(v * 3**20 for v in row) for row in f.values), "float")
    _same(doob_witnesses(space, f, F), oracles.doob_facts_by_entries(space, f, F))


@pytest.mark.parametrize("x, kind", [
    (1e-9, MartingaleClass.MARTINGALE),
    (-1e-9, MartingaleClass.MARTINGALE),
    (np.nextafter(1e-9, 1.0), MartingaleClass.SUBMARTINGALE),
    (np.nextafter(-1e-9, -1.0), MartingaleClass.SUPERMARTINGALE),
], ids=["slack", "-slack", "ulp_past_slack", "ulp_past_-slack"])
def test_the_slack_edge_decides_like_the_per_pair_loops(x, kind):
    # _violations reads the slack through scalars.at_most, the oracle as d < -t
    # and d > t: on one atom the gap of (0, x) is x itself, so the float edge
    # and one ulp past it decide the kind and the witnesses
    space = FiniteMeasureSpace.from_weights([1.0], "float")
    f = Process.from_path([0.0, float(x)], "float")
    F = natural_filtration(f)
    want = oracles.classify_by_pairs(space, f, F)
    assert want.kind is kind
    for pairs in ("all", "consecutive"):
        _same(classify(space, f, F, pairs=pairs), want)
    rep = check_l1_convergence_b(space, f, F, classification=ASSUMED_MARTINGALE)
    _same(rep.witness, oracles.l1b_witness(space, f, F))
    if kind is MartingaleClass.MARTINGALE:
        assert check_l1_convergence_b(space, f, F) == rep
    else:
        assert rep.witness == (0, 0)
        with pytest.raises(ValueError, match="martingale statement"):
            check_l1_convergence_b(space, f, F)
