import gc
import math
import random
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    Band,
    FairWalk,
    Filtration,
    FiniteMeasureSpace,
    ModeError,
    Partition,
    Process,
    band_translation_identity,
    check_upcrossing_estimate,
    check_upcrossing_estimate_sup,
    count_upcrossings_batch,
    crossing_table,
    exhaustive_space,
    lower_crossing,
    upcrossings,
    upcrossings_before,
    upper_crossing,
)
from conftest import ASSUMED_MARTINGALE, random_filtration, random_fraction, random_space, random_submartingale
from oracles import crossing_chain_recursion, upcrossings_by_recursion, upcrossings_state_machine

seeds = st.integers(0, 10**9)

REFERENCE_PATH = [
    Fraction(v)
    for v in ("1/2", "-1/5", "3/10", "4/5", "9/10", "3/2", "3/5",
              "-1/10", "2/5", "9/10", "13/10", "-1/5", "1/2", "7/10")
]
UNIT_BAND = Band(Fraction(0), Fraction(1))


def reference_process():
    return Process.from_path(REFERENCE_PATH, "exact")


def test_crossing_chain_on_the_reference_path():
    f = reference_process()
    tab = crossing_table(UNIT_BAND, f, 13)
    assert tuple(r[0] for r in tab.sigma) == (0, 5, 10, 13, 13)
    assert tuple(r[0] for r in tab.tau) == (1, 7, 11, 13, 13)
    tab.validate()
    assert upcrossings_before(UNIT_BAND, f, 13) == (2,)
    assert upcrossings(UNIT_BAND, f) == (2,)


def test_hit_at_the_horizon_does_not_close_a_crossing():
    # the final climb reaches b exactly at N; sigma_1 = 3 = N here, so the
    # scan ends with the crossing still open and the count stays 0
    f = Process.from_path([0, -1, 0, 1], "exact")
    band = Band(Fraction(-1, 2), Fraction(1, 2))
    assert upcrossings_before(band, f, 3) == (0,)


def test_constant_path_inside_the_band_never_crosses():
    f = Process.from_path([Fraction(1, 4)] * 6, "exact")
    band = Band(Fraction(0), Fraction(1))
    tab = crossing_table(band, f, 5)
    assert all(r[0] == 5 for r in tab.tau)
    assert all(r[0] == 5 for row in tab.sigma[1:] for r in [row])
    assert upcrossings_before(band, f, 5) == (0,)


def test_path_never_below_a_never_crosses():
    f = Process.from_path([2, 3, 2, 4, 2, 5], "exact")
    assert upcrossings_before(Band(Fraction(0), Fraction(1)), f, 5) == (0,)


def test_upcrossing_estimate_on_the_fair_walk():
    sp, f, F = exhaustive_space(FairWalk(), 2, mode="exact")
    rep = check_upcrossing_estimate(sp, Band(Fraction(-1, 2), Fraction(1, 2)), f, F, 2)
    assert rep.holds
    assert rep.lhs == Fraction(0)
    assert rep.rhs == Fraction(7, 8)


def test_estimate_tolerates_a_degenerate_band():
    # a >= b gives a nonpositive left side against a nonnegative right side
    sp, f, F = exhaustive_space(FairWalk(), 2, mode="exact")
    rep = check_upcrossing_estimate(sp, Band(Fraction(1), Fraction(-1)), f, F, 2)
    assert rep.holds
    assert rep.lhs == Fraction(-4)
    assert rep.rhs == Fraction(1, 4)
    assert rep.lhs <= 0 <= rep.rhs


def test_constant_process_fills_the_right_side():
    # band (c-1, c+1) around a constant path: the plus-part integral is mu(Omega)
    sp = FiniteMeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 2)])
    f = Process.from_values([[3, 3], [3, 3], [3, 3]], "exact")
    F = Filtration.constant(Partition.trivial(2), 2)
    rep = check_upcrossing_estimate(sp, Band(Fraction(2), Fraction(4)), f, F, 2)
    assert rep.holds
    assert rep.lhs == Fraction(0)
    assert rep.rhs == sp.total == Fraction(1)


def test_sup_form_fails_without_the_submartingale_premise():
    # single deterministic path: sup of plus-parts 3/2 cannot bound the
    # crossing count 2, which is the point of requiring the premise
    sp = FiniteMeasureSpace.from_weights([1])
    F = Filtration.constant(Partition.trivial(1), 13)
    rep = check_upcrossing_estimate_sup(sp, UNIT_BAND, reference_process(), F, classification=ASSUMED_MARTINGALE)
    assert not rep.holds
    assert rep.lhs == Fraction(2)
    assert rep.rhs == Fraction(3, 2)
    assert rep.argmax_n == 5


def test_band_translation_on_the_reference_path():
    rep = band_translation_identity(UNIT_BAND, reference_process())
    assert rep.holds
    assert rep.first_mismatch is None


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_band_translation_property(seed):
    rng = random.Random(seed)
    length = rng.randint(2, 30)
    f = Process.from_path([random_fraction(rng) for _ in range(length)], "exact")
    a = random_fraction(rng)
    b = a + Fraction(rng.randint(1, 4), rng.randint(1, 4))
    rep = band_translation_identity(Band(a, b), f)
    assert rep.holds, rep.first_mismatch


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_recursion_matches_the_state_machine(seed):
    rng = random.Random(seed)
    length = rng.randint(1, 25)
    path = [random_fraction(rng) for _ in range(length)]
    f = Process.from_path(path, "exact")
    a = random_fraction(rng)
    b = a + Fraction(rng.randint(1, 4), rng.randint(1, 4))
    for N in range(length):
        got = upcrossings_before(Band(a, b), f, N)[0]
        assert got == upcrossings_state_machine(path, a, b, N)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_crossing_chain_invariants(seed):
    # interleaving, hit property, and the ceil(N/2) cap
    rng = random.Random(seed)
    length = rng.randint(2, 20)
    path = [random_fraction(rng) for _ in range(length)]
    f = Process.from_path(path, "exact")
    a = random_fraction(rng)
    b = a + Fraction(rng.randint(1, 4), rng.randint(1, 4))
    N = rng.randint(0, length - 1)
    band = Band(a, b)
    tab = crossing_table(band, f, N)
    tab.validate()
    # sigma_k (k >= 1) completes a climb to b, tau_k is the next drop to a
    assert tab.sigma[0][0] == 0
    prev = 0
    for k in range(len(tab.sigma)):
        s, t = tab.sigma[k][0], tab.tau[k][0]
        assert prev <= s <= t <= N
        if k >= 1 and s < N:
            assert path[s] >= b
        if t < N:
            assert path[t] <= a
        prev = t
    U = upcrossings_before(band, f, N)[0]
    assert U <= math.ceil(N / 2)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_count_is_monotone_in_the_horizon(seed):
    rng = random.Random(seed)
    length = rng.randint(2, 20)
    f = Process.from_path([random_fraction(rng) for _ in range(length)], "exact")
    a = random_fraction(rng)
    b = a + 1
    band = Band(a, b)
    counts = [upcrossings_before(band, f, N)[0] for N in range(length)]
    assert all(x <= y for x, y in zip(counts, counts[1:]))
    assert upcrossings(band, f)[0] == counts[-1]


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_estimate_holds_on_random_submartingales(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
    f = random_submartingale(rng, sp, F)
    a = random_fraction(rng)
    b = a + Fraction(rng.randint(1, 3), rng.randint(1, 3))
    N = rng.randint(0, F.horizon)
    rep = check_upcrossing_estimate(sp, Band(a, b), f, F, N)
    assert rep.holds


def test_single_crossing_legs():
    f = reference_process()
    assert upper_crossing(UNIT_BAND, f, 13, 1) == (5,)
    assert upper_crossing(UNIT_BAND, f, 13, 0) == (0,)
    assert lower_crossing(UNIT_BAND, f, 13, 0) == (1,)
    assert lower_crossing(UNIT_BAND, f, 13, 2) == (11,)


def test_stuck_chain_on_a_reversed_band():
    # a = 1 >= b = 0: at t = 2 the value 1/2 is both <= a and >= b, so the
    # chain closes sigma_1 = 2 and then sticks there
    f = Process.from_path([2, 3, Fraction(1, 2), 3, 4, 5], "exact")
    band = Band(Fraction(1), Fraction(0))
    tab = crossing_table(band, f, 5)
    assert tab.sigma == ((0,), (2,), (2,))
    assert tab.tau == ((2,), (2,), (2,))
    assert [upcrossings_before(band, f, N)[0] for N in range(6)] == [0, 0, 0, 3, 4, 5]
    assert upcrossings(band, f) == (5,)


def _bounded_row(chains, which, k):
    # rows past a recursion's end repeat its last row
    return tuple(c[which][min(k, len(c[which]) - 1)] for c in chains)


def _first_translation_mismatch(paths, a, b, horizon):
    """(N, atom, count on (a, b), count of (f - a)^+ on (0, b - a)) by the recursion."""
    zero = a - a
    for N in range(horizon + 1):
        for w, p in enumerate(paths):
            g = tuple(v - a if v > a else zero for v in p)
            x, y = upcrossings_by_recursion(p, a, b, N), upcrossings_by_recursion(g, zero, b - a, N)
            if x != y:
                return (N, w, x, y)
    return None


@given(seeds, st.sampled_from(["exact", "float"]))
@settings(max_examples=150, deadline=None)
def test_chain_matches_the_bounded_recursion_at_every_bound(seed, mode):
    # half-integer values on a narrow grid make same-time hits common; the
    # band is drawn below, on and above the diagonal so a >= b (stuck
    # chains) is covered as often as a < b
    rng = random.Random(seed)
    horizon = rng.randint(0, 12)
    atoms = rng.randint(1, 4)

    def draw():
        return Fraction(rng.randint(-4, 4), 2)

    rows = [[draw() for _ in range(atoms)] for _ in range(horizon + 1)]
    a = draw()
    b = a + Fraction(rng.choice([-2, -1, 0, 1, 2]), 2)
    f = Process.from_values(rows, mode)
    band = Band(a, b)
    bd = band.coerced(mode)
    paths = [f.path(w) for w in range(atoms)]
    for N in range(horizon + 1):
        chains = [crossing_chain_recursion(p, bd.a, bd.b, N) for p in paths]
        counts = upcrossings_before(band, f, N)
        assert counts == tuple(upcrossings_by_recursion(p, bd.a, bd.b, N) for p in paths)
        if bd.a < bd.b:
            assert counts == tuple(upcrossings_state_machine(p, bd.a, bd.b, N) for p in paths)
        depth = max(len(c[0]) for c in chains)
        tab = crossing_table(band, f, N)
        tab.validate()
        assert tab.N == N
        assert tab.sigma == tuple(_bounded_row(chains, 0, k) for k in range(depth))
        assert tab.tau == tuple(_bounded_row(chains, 1, k) for k in range(depth))
        for n in range(depth + 2):
            assert upper_crossing(band, f, N, n) == _bounded_row(chains, 0, n)
            assert lower_crossing(band, f, N, n) == _bounded_row(chains, 1, n)
    assert upcrossings(band, f) == tuple(
        max(upcrossings_by_recursion(p, bd.a, bd.b, N) for N in range(horizon + 1))
        for p in paths
    )
    if bd.a < bd.b:
        expected = _first_translation_mismatch(paths, bd.a, bd.b, horizon)
        rep = band_translation_identity(band, f)
        assert rep.first_mismatch == expected
        assert rep.holds == (expected is None)


@given(seeds, st.sampled_from(["exact", "float"]))
@settings(max_examples=200, deadline=None)
def test_counter_matches_the_oracles_on_mixed_cells(seed, mode):
    # mixed signs and denominators, exact cells kept as the raw ints and
    # Fractions given (Process does not coerce), band edges drawn from the
    # same values so ties with a and b are common, or p/q with a large q just
    # beside them, and a >= b as often as a < b
    rng = random.Random(seed)
    horizon = rng.randint(0, 10)
    atoms = rng.randint(1, 6)

    def draw():
        v = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6]))
        if mode == "float":
            return float(v)
        return v.numerator if v.denominator == 1 and rng.random() < 0.5 else v

    def edge():
        # a cell value, or one within 1/q of it for a large q, which the exact
        # masks and chains must place on the right side of every cell
        v = draw()
        return v + Fraction(rng.choice([-1, 1]), rng.randint(10**9, 10**12)) if rng.random() < 0.3 else v

    f = Process(tuple(tuple(draw() for _ in range(atoms)) for _ in range(horizon + 1)), mode)
    band = Band(edge(), edge())
    bd = band.coerced(mode)
    paths = [f.path(w) for w in range(atoms)]
    for N in range(horizon + 1):
        counts = upcrossings_before(band, f, N)
        assert counts == tuple(upcrossings_by_recursion(p, bd.a, bd.b, N) for p in paths)
        if bd.a < bd.b:
            assert counts == tuple(upcrossings_state_machine(p, bd.a, bd.b, N) for p in paths)
        if mode == "float":
            batch = count_upcrossings_batch(np.array(f.values).T, bd.a, bd.b, N)
            assert tuple(batch.tolist()) == counts
    assert upcrossings(band, f) == counts


ROUNDING_BAND = (-2.6008966690384145, 0.4187035239425576)


def _rounding_paths():
    # v < b, but v - a rounds up to b - a: the shifted path crosses where f does not
    a, b = ROUNDING_BAND
    v = math.nextafter(b, -math.inf)
    return [a - 1, v, a - 1, v, b], [a - 1, a - 1, a - 1, v, b]


def test_band_translation_names_the_rounding_witness():
    a, b = ROUNDING_BAND
    early, _ = _rounding_paths()
    expected = _first_translation_mismatch([early], a, b, 4)
    assert expected == (2, 0, 0, 1)
    rep = band_translation_identity(Band(a, b), Process.from_path(early, "float"))
    assert not rep.holds
    assert rep.first_mismatch == expected


def test_band_translation_reports_the_first_mismatch_in_row_major_order():
    # atom 1 mismatches at N = 2, atom 0 only at N = 4
    a, b = ROUNDING_BAND
    early, late = _rounding_paths()
    expected = _first_translation_mismatch([late, early], a, b, 4)
    assert expected == (2, 1, 0, 1)
    rep = band_translation_identity(Band(a, b), Process.from_values(list(zip(late, early)), "float"))
    assert not rep.holds
    assert rep.first_mismatch == expected
    assert all(type(v) is int for v in rep.first_mismatch)


@pytest.mark.parametrize("bad", [2.0, True, Fraction(2), "2"])
def test_bounds_must_be_integers(bad):
    f = reference_process()
    for call in (
        lambda: crossing_table(UNIT_BAND, f, bad),
        lambda: upcrossings_before(UNIT_BAND, f, bad),
        lambda: upper_crossing(UNIT_BAND, f, bad, 1),
        lambda: upper_crossing(UNIT_BAND, f, 13, bad),
        lambda: lower_crossing(UNIT_BAND, f, 13, bad),
    ):
        with pytest.raises(TypeError, match="integer"):
            call()


def test_numpy_integer_bounds_give_python_ints():
    f = reference_process()
    tab = crossing_table(UNIT_BAND, f, np.int64(13))
    assert tab == crossing_table(UNIT_BAND, f, 13)
    assert type(tab.N) is int
    assert all(type(v) is int for rows in (tab.sigma, tab.tau) for row in rows for v in row)
    assert upper_crossing(UNIT_BAND, f, np.int32(13), np.int64(1)) == (5,)
    assert upcrossings_before(UNIT_BAND, f, np.uint8(13)) == (2,)


@given(seeds, st.sampled_from(["exact", "float"]))
@settings(max_examples=60, deadline=None)
def test_crossing_times_are_python_ints(seed, mode):
    rng = random.Random(seed)
    horizon = rng.randint(0, 8)
    atoms = rng.randint(1, 4)
    rows = [[Fraction(rng.randint(-4, 4), 2) for _ in range(atoms)] for _ in range(horizon + 1)]
    f = Process.from_values(rows, mode)
    band = Band(Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2))
    N = rng.randint(0, horizon)
    tab = crossing_table(band, f, N)
    values = [v for rows in (tab.sigma, tab.tau) for row in rows for v in row]
    for n in range(len(tab.sigma) + 2):
        values += upper_crossing(band, f, N, n) + lower_crossing(band, f, N, n)
    assert all(type(v) is int for v in values)


def test_a_huge_leg_index_returns_the_clipped_row_at_once():
    sp, f, F = exhaustive_space(FairWalk(), 10, mode="float")
    band = Band(-1, 1)
    start = time.perf_counter()
    for n in (10**9, 10**30):
        assert upper_crossing(band, f, 10, n) == (10,) * f.atom_count
        assert lower_crossing(band, f, 10, n) == (10,) * f.atom_count
    assert time.perf_counter() - start < 2.0


def test_exact_counts_reject_float_cells():
    f = Process(((0.5,), (Fraction(1),)), "exact")
    with pytest.raises(ModeError):
        upcrossings_before(UNIT_BAND, f, 1)


def test_calls_keep_no_reference_to_the_process():
    f = reference_process()
    ref = weakref.ref(f)
    upcrossings_before(UNIT_BAND, f, 13)
    crossing_table(UNIT_BAND, f, 13)
    upcrossings(UNIT_BAND, f)
    del f
    gc.collect()
    assert ref() is None
