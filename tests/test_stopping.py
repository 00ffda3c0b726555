import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    INF,
    FairWalk,
    MartingaleClass,
    ModeError,
    Process,
    StoppingTime,
    ValuePredicate,
    check_hitting_is_stopping_time,
    check_optional_stopping,
    classify,
    exhaustive_space,
    hitting,
    hitting_unbounded,
    is_adapted,
    is_stopping_time,
    stopped_process,
    stopping_max,
    stopping_min,
)
from conftest import random_filtration, random_space, random_submartingale
from oracles import hitting_by_scan, hitting_unbounded_by_scan, stopped_by_atoms, stopping_time_oracle

seeds = st.integers(0, 10**9)


def test_first_entry_inside_the_window():
    f = Process.from_path([5, 2, 8, 1], "exact")
    assert hitting(f, ValuePredicate.at_most(2), 0, 3) == (1,)


def test_miss_returns_the_window_end():
    f = Process.from_path([5, 2, 8], "exact")
    assert hitting(f, ValuePredicate.at_most(0), 0, 2) == (2,)


def test_window_start_skips_earlier_hits():
    f = Process.from_path([5, 2, 8, 1], "exact")
    assert hitting(f, ValuePredicate.at_most(2), 2, 3) == (3,)


def test_unbounded_hit_and_miss():
    f = Process.from_path([0, -1, 3], "exact")
    assert hitting_unbounded(f, ValuePredicate.at_least(1), 0).time_of == (2,)
    assert hitting_unbounded(f, ValuePredicate.at_least(9), 0).time_of == (INF,)


def test_stopped_path_freezes_at_tau():
    f = Process.from_path([0, 5, -3], "exact")
    g = stopped_process(f, StoppingTime.constant(1, 1))
    assert g.path(0) == (Fraction(0), Fraction(5), Fraction(5))


def test_between_predicate():
    f = Process.from_path([5, 0, 3], "exact")
    assert hitting(f, ValuePredicate.between(2, 4), 0, 2) == (2,)


def test_optional_stopping_on_the_fair_walk():
    sp, f, F = exhaustive_space(FairWalk(), 2, mode="exact")
    tau = StoppingTime.constant(1, 4)
    sigma = StoppingTime.constant(2, 4)
    rep = check_optional_stopping(sp, f, F, tau=tau, sigma=sigma)
    assert rep.holds
    assert rep.is_martingale
    assert rep.equality_holds
    assert rep.lhs == Fraction(0) and rep.rhs == Fraction(0)


def test_optional_stopping_spots_drift():
    sp, f, F = exhaustive_space(FairWalk(), 2, mode="exact")
    rows = [[v + n for v in row] for n, row in enumerate(f.values)]
    g = Process.from_values(rows, "exact")
    tau = StoppingTime.constant(1, 4)
    sigma = StoppingTime.constant(2, 4)
    rep = check_optional_stopping(sp, g, F, tau=tau, sigma=sigma)
    assert rep.holds
    assert not rep.is_martingale
    assert rep.lhs == Fraction(1) and rep.rhs == Fraction(2)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_hitting_times_are_stopping_times(seed):
    # random adapted process, random window and threshold
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 5))
    f = random_submartingale(rng, sp, F)
    a = Fraction(rng.randint(-3, 3))
    n = rng.randint(0, F.horizon)
    m = rng.randint(n, F.horizon)
    pred = ValuePredicate.at_most(a) if rng.random() < 0.5 else ValuePredicate.at_least(a)
    assert check_hitting_is_stopping_time(f, pred, n, m, F)
    tau = StoppingTime.of(hitting(f, pred, n, m))
    assert is_stopping_time(tau, F)
    assert stopping_time_oracle(tau.time_of, F)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_hit_property(seed):
    # the predicate holds at the hit unless the window closed first,
    # and fails strictly inside the window before the hit
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 5))
    f = random_submartingale(rng, sp, F)
    a = Fraction(rng.randint(-3, 3))
    pred = ValuePredicate.at_most(a)
    n = rng.randint(0, F.horizon)
    m = rng.randint(n, F.horizon)
    times = hitting(f, pred, n, m)
    for w, t in enumerate(times):
        assert n <= t <= m
        if f.values[t][w] > a:
            assert t == m
        for s in range(n, t):
            assert f.values[s][w] > a


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_stopped_process_is_adapted(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
    f = random_submartingale(rng, sp, F)
    a = Fraction(rng.randint(-3, 3))
    tau = StoppingTime.of(hitting(f, ValuePredicate.at_most(a), 0, F.horizon))
    g = stopped_process(f, tau)
    assert is_adapted(g, F)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_stopped_submartingale_keeps_its_class(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
    f = random_submartingale(rng, sp, F)
    a = Fraction(rng.randint(-3, 3))
    tau = StoppingTime.of(hitting(f, ValuePredicate.at_most(a), 0, F.horizon))
    g = stopped_process(f, tau)
    assert classify(sp, g, F).is_at_least(MartingaleClass.SUBMARTINGALE)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_min_and_max_of_stopping_times(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
    f = random_submartingale(rng, sp, F)
    t1 = StoppingTime.of(hitting(f, ValuePredicate.at_most(Fraction(rng.randint(-2, 2))), 0, F.horizon))
    t2 = StoppingTime.of(hitting(f, ValuePredicate.at_least(Fraction(rng.randint(-2, 2))), 0, F.horizon))
    assert is_stopping_time(stopping_min(t1, t2), F)
    assert is_stopping_time(stopping_max(t1, t2), F)
    lo, hi = stopping_min(t1, t2), stopping_max(t1, t2)
    assert all(a <= b for a, b in zip(lo.time_of, hi.time_of))


def test_non_adapted_threshold_is_not_a_stopping_time():
    # peeking one step ahead breaks measurability
    sp, f, F = exhaustive_space(FairWalk(), 2, mode="exact")
    peek = StoppingTime.of(tuple(0 if f.values[1][w] > 0 else 1 for w in range(4)))
    assert not is_stopping_time(peek, F)
    assert not stopping_time_oracle(peek.time_of, F)


def test_a_target_set_is_its_two_ends():
    assert ValuePredicate.at_most(2) == ValuePredicate(None, 2)
    assert ValuePredicate.at_least(2) == ValuePredicate(2, None)
    assert ValuePredicate.between(1, 2) == ValuePredicate(low=1, high=2)
    assert ValuePredicate.between(1, 2)(2) and not ValuePredicate.between(2, 1)(2)


def test_threshold_coercion_keeps_its_errors():
    with pytest.raises(ModeError):
        hitting(Process.from_path([0, 1], "exact"), ValuePredicate.at_least(0.5), 0, 1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            hitting_unbounded(Process.from_path([0.0, 1.0], "float"), ValuePredicate.at_most(bad), 0)


@pytest.mark.parametrize("n, m, error, text", [
    (True, 2, TypeError, "n must be an integer, got True"),
    (0, 2.0, TypeError, "m must be an integer, got 2.0"),
    (Fraction(1), 2, TypeError, "n must be an integer"),
    (-1, 2, ValueError, r"n must lie in 0\.\.2, got -1$"),
    (0, 3, ValueError, r"m must lie in 0\.\.2, got 3$"),
])
def test_hitting_windows_take_integer_times_within_the_horizon(n, m, error, text):
    # a bool n once ran as 1, and a float m failed inside range() without naming m
    with pytest.raises(error, match=text):
        hitting(Process.from_path([5, 2, 8], "exact"), ValuePredicate.at_most(2), n, m)


@pytest.mark.parametrize("n, error", [(True, TypeError), (1.0, TypeError), (-1, ValueError), (3, ValueError)])
def test_unbounded_hitting_checks_its_start(n, error):
    with pytest.raises(error, match="^n must"):
        hitting_unbounded(Process.from_path([5, 2, 8], "exact"), ValuePredicate.at_most(2), n)


def test_hitting_takes_numpy_integer_times():
    f, s = Process.from_path([5, 2, 8], "exact"), ValuePredicate.at_most(2)
    assert hitting(f, s, np.int64(1), np.int64(2)) == (1,)
    assert hitting_unbounded(f, s, np.int64(2)).time_of == (INF,)


def test_min_max_and_order_refuse_times_on_different_atoms():
    # each once truncated to the shorter time: min gave (0, 2), <= gave True
    long, short = StoppingTime.of([1, 2, 3]), StoppingTime.of([0, 5])
    with pytest.raises(ValueError, match="different atom sets"):
        stopping_min(long, short)
    with pytest.raises(ValueError, match="different atom sets"):
        stopping_max(long, short)
    with pytest.raises(ValueError, match="different atom sets"):
        long <= StoppingTime.of([5, 5])


@given(seeds, st.sampled_from(["exact", "float"]))
@settings(max_examples=200, deadline=None)
def test_hitting_and_stopping_match_the_per_atom_scans(seed, mode):
    # the ends come from the values' own pool, so they tie with path values;
    # low > high is an empty set, n > m an empty window, H = 0 one row
    rng = random.Random(seed)
    horizon, atoms = rng.randint(0, 4), rng.randint(1, 6)
    pool = [Fraction(k, 2) for k in range(-4, 5)]
    if mode == "float":
        pool = [float(x) for x in pool] + [-0.0]
    f = Process.from_values([[rng.choice(pool) for _ in range(atoms)] for _ in range(horizon + 1)], mode)
    low, high = rng.choice(pool + [None]), rng.choice(pool + [None])
    s = ValuePredicate(low, high)
    n, m = rng.randint(0, horizon), rng.randint(0, horizon)
    typed = lambda xs: [(type(x), repr(x)) for x in xs]

    assert typed(hitting(f, s, n, m)) == typed(hitting_by_scan(f, low, high, n, m))
    tau = hitting_unbounded(f, s, n)
    assert typed(tau.time_of) == typed(hitting_unbounded_by_scan(f, low, high, n))
    times = [rng.choice([0, 1, horizon, horizon + 2, INF]) for _ in range(atoms)]
    for t in (StoppingTime.of(times), tau):
        g = stopped_process(f, t)
        assert g.mode == mode
        assert list(map(typed, g.values)) == list(map(typed, stopped_by_atoms(f, t.time_of)))
