import math
import threading
from fractions import Fraction

import pytest

from martkit import (
    EventSequence,
    Filtration,
    IndependentEvents,
    MartingaleClass,
    Partition,
    borel_cantelli_martingale,
    check_borel_cantelli,
    classify,
    doob_decomposition,
    event_sequence_from_counts,
    exhaustive_space,
    predictable_sum,
    trial_rng,
)


def fair_coin(horizon=3):
    sp, counts, F = exhaustive_space(
        IndependentEvents([Fraction(1, 2)] * horizon), horizon, mode="exact"
    )
    return sp, counts, F, event_sequence_from_counts(counts, F)


def test_fair_coin_predictable_sum_is_linear():
    sp, counts, F, S = fair_coin()
    ps = predictable_sum(sp, S)
    for n, row in enumerate(ps.values):
        assert set(row) == {Fraction(n, 2)}


def test_empty_events_accumulate_nothing():
    sp, counts, F, _ = fair_coin()
    n = sp.atom_count
    S = EventSequence(tuple(frozenset() for _ in range(4)), F)
    ps = predictable_sum(sp, S)
    assert all(set(row) == {Fraction(0)} for row in ps.values)
    m = borel_cantelli_martingale(sp, S)
    assert all(set(row) == {Fraction(0)} for row in m.values)


def test_sure_events_accumulate_one_per_step():
    sp, counts, F, _ = fair_coin()
    n = sp.atom_count
    full = frozenset(range(n))
    S = EventSequence((frozenset(), full, full, full), F)
    ps = predictable_sum(sp, S)
    for k, row in enumerate(ps.values):
        assert set(row) == {Fraction(max(k, 0))}


def test_compensated_count_is_a_martingale():
    sp, counts, F, S = fair_coin()
    m = borel_cantelli_martingale(sp, S)
    assert classify(sp, m, F).kind is MartingaleClass.MARTINGALE


def test_compensated_count_matches_the_decomposition():
    sp, counts, F, S = fair_coin()
    m = borel_cantelli_martingale(sp, S)
    dec = doob_decomposition(sp, counts, F)
    assert m.values == dec.martingale_part.values
    ps = predictable_sum(sp, S)
    assert ps.values == dec.predictable_part.values


def test_event_sequence_must_be_adapted():
    sp, counts, F, _ = fair_coin()
    # the first coin's outcome is not known at step 0
    peek = frozenset({0, 1, 2, 3})
    with pytest.raises(ValueError):
        EventSequence((peek, peek, peek, peek), F)


def test_event_sequence_length_must_match_the_horizon():
    sp, counts, F, _ = fair_coin()
    with pytest.raises(ValueError):
        EventSequence((frozenset(), frozenset()), F)


class TestMonteCarloSurrogate:
    def test_constant_half_always_diverges(self):
        rep = check_borel_cantelli(
            IndependentEvents([0.5] * 60), horizon=60, trials=2000, seed=7,
            divergence_cut=15.0, tail_start=30,
        )
        assert rep.match_fraction >= 0.99
        assert abs(rep.p_horizon_mean - 30.0) < 1e-9

    def test_inverse_square_schedule_settles(self):
        probs = [1.0 / (n + 1) ** 2 for n in range(60)]
        rep = check_borel_cantelli(
            IndependentEvents(probs), horizon=60, trials=2000, seed=7,
            divergence_cut=15.0, tail_start=30,
        )
        assert rep.match_fraction >= 0.95
        assert rep.p_horizon_mean < 2.0

    def test_blocking_and_workers_do_not_change_results(self):
        model = IndependentEvents([0.3] * 40)
        a = check_borel_cantelli(model, 40, 1500, 11, 10.0, 20, block_size=1500)
        b = check_borel_cantelli(model, 40, 1500, 11, 10.0, 20, block_size=128)
        assert a.match_fraction == b.match_fraction
        assert a.p_horizon_mean == b.p_horizon_mean

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("block_size", [1, 77, 1024])
    def test_block_fractions_match_trial_rng(self, block_size, seed):
        probs = [0.5 / n for n in range(1, 33)]
        trials, tail_start = 1100, 16
        rep = check_borel_cantelli(IndependentEvents(probs), 32, trials, seed, 1.5, tail_start,
                                   block_size=block_size)
        diverge = sum(probs) >= 1.5
        want = []
        for start in range(0, trials, block_size):
            count = min(block_size, trials - start)
            hits = [(trial_rng(seed, t).random(32) < probs)[tail_start - 1 :].any()
                    for t in range(start, start + count)]
            want.append(sum(h == diverge for h in hits) / count)
        assert [row[1] for row in rep.blocks] == want

    @pytest.mark.parametrize("cut", [1.0, 3.0])
    def test_match_fraction_follows_the_unrolled_law(self, cut):
        # the schedule sums to H_11 - 1 = 2.02, so cut 1.0 makes every trial
        # diverge and cut 3.0 none; the two surrogates then agree exactly on
        # the leaves with (resp. without) an event at n >= tail_start
        horizon, tail_start, trials = 10, 6, 20_000
        model = IndependentEvents([Fraction(1, n + 1) for n in range(1, horizon + 1)])
        sp, counts, _ = exhaustive_space(model, horizon, mode="exact")
        diverge = sum(model.prob(n) for n in range(1, horizon + 1)) >= cut
        p = float(sum(w for w, end, before in zip(sp.weights, counts.values[horizon],
                                                  counts.values[tail_start - 1])
                      if (end > before) == diverge))
        rep = check_borel_cantelli(model, horizon, trials, 29, cut, tail_start)
        # bound fixed before the run: 5 binomial standard deviations
        assert abs(rep.match_fraction * trials - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))

    def test_history_dependent_model_runs(self):
        def prob(n, history):
            return 0.5 if (n == 0 or sum(history) % 2 == 0) else 0.25

        rep = check_borel_cantelli(prob, horizon=30, trials=300, seed=3,
                                   divergence_cut=5.0, tail_start=15)
        assert 0.0 <= rep.match_fraction <= 1.0
        assert rep.p_horizon_mean > 5.0

    def test_history_dependent_model_matches_trial_rng(self):
        def prob(n, history):
            return 0.5 if sum(history) % 2 == 0 else 0.1

        # the cut and the short tail leave both surrogates undecided per trial
        rep = check_borel_cantelli(prob, horizon=30, trials=400, seed=3,
                                   divergence_cut=9.0, tail_start=28, block_size=150)
        totals, matched = [], 0
        for t in range(400):
            u, history, hit = trial_rng(3, t).random(30), (), False
            for n in range(1, 31):
                occ = bool(u[n - 1] < prob(n, history))
                hit = hit or (occ and n >= 28)
                history += (occ,)
            totals.append(sum(prob(n, history[: n - 1]) for n in range(1, 31)))
            matched += hit == (totals[-1] >= 9.0)
        assert 0 < matched < 400 and min(totals) < 9.0 <= max(totals)
        assert rep.match_fraction == matched / 400
        assert rep.p_horizon_mean == pytest.approx(sum(totals) / 400, rel=1e-12)

    def test_history_dependent_model_runs_on_the_calling_thread(self):
        threads = set()

        def prob(n, history):
            threads.add(threading.get_ident())
            return 0.5 if sum(history) % 2 == 0 else 0.25

        check_borel_cantelli(prob, horizon=10, trials=60, seed=2, divergence_cut=3.0,
                             tail_start=5, block_size=7)
        assert threads == {threading.get_ident()}

    def test_other_models_raise_type_error(self):
        with pytest.raises(TypeError, match="IndependentEvents or a prob"):
            check_borel_cantelli([0.5] * 10, 10, 100, 1, 2.0, 5)

    @pytest.mark.parametrize("block_size", [0, -5])
    def test_block_size_must_be_positive(self, block_size):
        # a negative size once produced no blocks and a silent match_fraction of 0
        with pytest.raises(ValueError, match="block_size"):
            check_borel_cantelli(IndependentEvents([0.5] * 10), 10, 100, 1, 2.0, 5,
                                 block_size=block_size)

    def test_tail_start_must_sit_inside_the_horizon(self):
        with pytest.raises(ValueError):
            check_borel_cantelli(IndependentEvents([0.5] * 10), 10, 100, 1, 2.0, 0)
        with pytest.raises(ValueError):
            check_borel_cantelli(IndependentEvents([0.5] * 10), 10, 100, 1, 2.0, 11)

    @pytest.mark.parametrize("horizon", [20, 200])  # Philox kernel and trial_rng paths
    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_must_fit_in_64_bits(self, horizon, seed):
        # the kernel once masked -1 to 2^64 - 1; trial_rng raised OverflowError
        with pytest.raises(ValueError, match="seed"):
            check_borel_cantelli(IndependentEvents([0.5] * horizon), horizon, 10, seed, 2.0, 1)

    @pytest.mark.parametrize("cut", [math.nan, math.inf])
    def test_divergence_cut_must_be_finite(self, cut):
        # a NaN cut once made every trial a silent non-divergence
        with pytest.raises(ValueError, match="non-finite"):
            check_borel_cantelli(IndependentEvents([0.5] * 10), 10, 10, 1, cut, 5)
