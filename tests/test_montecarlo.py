import math
import random
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    Band,
    BettingProcess,
    BiasedWalk,
    CustomSpec,
    FairWalk,
    IndependentEvents,
    MartingaleClass,
    PolyaUrn,
    Process,
    RunConfig,
    classify,
    count_upcrossings_batch,
    exhaustive_space,
    simulate,
    simulate_stats,
    trial_rng,
    upcrossings_before,
)
from martkit import montecarlo
from martkit.crossings import _count_upcrossings
from oracles import (
    polya_sample_by_columns,
    upcrossings_by_recursion,
    upcrossings_state_machine,
    walk_sample_by_select,
)

CUT = montecarlo._VECTOR_RNG_MAX_HORIZON


def reference_uniforms(seed, start, count, horizon):
    """Row i is trial start+i's stream, drawn by its own numpy generator."""
    rows = [trial_rng(seed, start + i).random(horizon) for i in range(count)]
    return np.stack(rows) if rows else np.empty((0, horizon))


class TestExhaustiveUnroll:
    def test_fair_walk_two_steps(self):
        sp, f, F = exhaustive_space(FairWalk(), 2, mode="exact")
        assert sp.weights == (Fraction(1, 4),) * 4
        assert f.values[2] == (Fraction(2), Fraction(0), Fraction(0), Fraction(-2))

    def test_certain_walk_concentrates_the_mass(self):
        sp, f, F = exhaustive_space(BiasedWalk(1), 2, mode="exact")
        assert sp.weights == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        assert f.values[2][0] == Fraction(2)

    def test_biased_walk_is_a_submartingale(self):
        sp, f, F = exhaustive_space(BiasedWalk(Fraction(3, 4)), 2, mode="exact")
        assert classify(sp, f, F).kind is MartingaleClass.SUBMARTINGALE

    def test_urn_proportions_are_an_exact_martingale(self):
        sp, f, F = exhaustive_space(PolyaUrn(1, 1), 2, mode="exact")
        assert sum(sp.weights) == Fraction(1)
        assert f.values[1] == (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3), Fraction(1, 3))
        assert classify(sp, f, F).kind is MartingaleClass.MARTINGALE

    def test_branching_cap_is_enforced(self):
        with pytest.raises(ValueError):
            exhaustive_space(FairWalk(), 17, mode="exact")

    def test_callback_model_unrolls(self):
        spec = CustomSpec(
            initial_state=0,
            transition=lambda n, s: ((Fraction(1, 2), s + 1), (Fraction(1, 2), s - 1)),
            value_of=lambda s: Fraction(s),
        )
        sp, f, F = exhaustive_space(spec, 2, mode="exact")
        assert f.values[2] == (Fraction(2), Fraction(0), Fraction(0), Fraction(-2))


class TestDeterminism:
    def test_single_trial_reproduces_itself(self):
        cfg = RunConfig(seed=9, trials=1, horizon=32)
        a = simulate(FairWalk(), cfg)
        b = simulate(FairWalk(), cfg)
        assert np.array_equal(a.values, b.values)

    def test_trial_streams_depend_only_on_seed_and_index(self):
        x = trial_rng(5, 17).random(8)
        y = trial_rng(5, 17).random(8)
        z = trial_rng(5, 18).random(8)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)

    def test_prefix_stability_across_trial_counts(self):
        # growing the batch never rewrites earlier trials
        a = simulate(FairWalk(), RunConfig(seed=3, trials=10, horizon=16))
        b = simulate(FairWalk(), RunConfig(seed=3, trials=25, horizon=16))
        assert np.array_equal(a.values, b.values[:10])

    def test_stats_ignore_scheduling(self):
        cfg = RunConfig(seed=21, trials=900, horizon=64, checkpoint_schedule=(1, 8, 64))
        band = (-0.5, 0.5)
        base = simulate_stats(FairWalk(), cfg, window=16, bands=[band], block_size=1024)
        alt = simulate_stats(FairWalk(), cfg, window=16, bands=[band], block_size=77)
        par = simulate_stats(FairWalk(), cfg, window=16, bands=[band], block_size=77, workers=4)
        for other in (alt, par):
            assert np.array_equal(base.final, other.final)
            assert np.array_equal(base.sup_abs, other.sup_abs)
            assert np.array_equal(base.window_osc, other.window_osc)
            assert np.array_equal(base.band_counts[band], other.band_counts[band])
            assert np.array_equal(base.checkpoint_values, other.checkpoint_values)


    def test_callbacks_run_on_the_calling_thread(self):
        threads = set()

        def transition(n, s):
            threads.add(threading.get_ident())
            return ((0.5, s + 1), (0.5, s - 1))

        spec = CustomSpec(initial_state=0, transition=transition, value_of=float)
        cfg = RunConfig(seed=4, trials=40, horizon=8)
        simulate_stats(spec, cfg, block_size=5, workers=4)
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block_size", [1, 77, 1024])
    def test_short_horizon_finals_match_trial_rng(self, block_size, workers):
        cfg = RunConfig(seed=21, trials=1100, horizon=CUT)
        steps = np.where(reference_uniforms(21, 0, 1100, cfg.horizon) < 0.5, 1.0, -1.0)
        got = simulate_stats(FairWalk(), cfg, block_size=block_size, workers=workers)
        assert np.array_equal(got.final, steps.sum(axis=1))


class TestVectorPhilox:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.sampled_from([0, 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1),
        start=st.sampled_from([1, 2**40, 2**63]) | st.integers(0, 2**40),
        horizon=st.sampled_from([0, 1, 3, 4, 5, CUT - 1, CUT, CUT + 1, 1000, 4097]),
        count=st.integers(1, 600),
        chunk_blocks=st.sampled_from([montecarlo._PHILOX_CHUNK_BLOCKS, 64, 7]),
    )
    def test_kernel_and_block_reproduce_trial_rng(self, seed, start, horizon, count, chunk_blocks):
        want = reference_uniforms(seed, start, count, horizon).view(np.uint64)
        with mock.patch.object(montecarlo, "_PHILOX_CHUNK_BLOCKS", chunk_blocks):
            kernel = montecarlo._philox_uniforms(seed, start, count, horizon)
            block = montecarlo._uniform_block(seed, start, count, horizon)
        assert np.array_equal(kernel.view(np.uint64), want)
        assert np.array_equal(block.view(np.uint64), want)

    def test_default_chunking_crosses_a_chunk_boundary(self):
        # CUT // 4 counter blocks per trial at the cut (10 at 40), so one pass
        # covers _PHILOX_CHUNK_BLOCKS // (CUT // 4) trials (1638)
        horizon = CUT
        count = 2 * montecarlo._PHILOX_CHUNK_BLOCKS // (horizon // 4) + 3
        want = reference_uniforms(2**64 - 1, 2**40, count, horizon).view(np.uint64)
        got = montecarlo._uniform_block(2**64 - 1, 2**40, count, horizon)
        assert np.array_equal(got.view(np.uint64), want)

    def test_long_horizons_build_one_generator_per_block(self):
        want = reference_uniforms(7, 100, 50, CUT + 1).view(np.uint64)
        with mock.patch.object(np.random, "Philox", wraps=np.random.Philox) as philox:
            got = montecarlo._uniform_block(7, 100, 50, CUT + 1)
        assert philox.call_count == 1
        assert np.array_equal(got.view(np.uint64), want)


def uniforms_with_ties(seed, count, horizon, tie_at):
    """Uniforms of which about a third in column t are replaced by a draw
    from ``tie_at(t, rng, size)``."""
    rng = np.random.default_rng(seed)
    u = rng.random((count, horizon))
    for t in range(horizon):
        tie = rng.random(count) < 1 / 3
        u[tie, t] = tie_at(t, rng, int(tie.sum()))
    return u


class TestBlockSamplers:
    """The time-major urn and the select-free walk, held bit for bit to the
    column-loop and ``np.where`` samplers they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(
        red=st.integers(1, 20),
        black=st.integers(1, 20),
        horizon=st.sampled_from([0, 1, 300]) | st.integers(0, 300),
        count=st.just(1) | st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_urn_matches_the_column_loop(self, red, black, horizon, count, seed):
        # a tie in column t is a proportion r / (red + black + t) the urn can
        # hold there, so u often equals it and the strict u < proportion decides
        u = uniforms_with_ties(seed, count, horizon, lambda t, rng, size:
                               rng.integers(red, red + t + 1, size=size) / (red + black + t))
        got = PolyaUrn(red, black).sample(u)
        want = polya_sample_by_columns(u, red, black)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=80, deadline=None)
    @given(
        p_up=st.sampled_from([0, Fraction(1, 2), 1, 0.3]),
        step=st.sampled_from([0.0, -0.0, 0.1, 1e308, -1e308, Fraction(1, 3), 1, 2.5]),
        horizon=st.sampled_from([0, 1, 300]) | st.integers(0, 300),
        count=st.just(1) | st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_walk_matches_the_select(self, p_up, step, horizon, count, seed):
        u = uniforms_with_ties(seed, count, horizon, lambda t, rng, size: float(p_up))
        with np.errstate(over="ignore"):  # 1e308 steps overflow to inf
            got = BiasedWalk(p_up, step).sample(u)
            want = walk_sample_by_select(u, p_up, step)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_fortran_paths_summarise_like_their_c_copy(self):
        @dataclass(frozen=True)
        class COrderUrn(PolyaUrn):
            def sample(self, u):
                return np.ascontiguousarray(super().sample(u))

        cfg = RunConfig(seed=9, trials=70, horizon=CUT + 30, checkpoint_schedule=(0, 5, CUT + 30))
        bands = [(0.4, 0.6), (0.6, 0.4)]
        f_order = simulate_stats(PolyaUrn(2, 3), cfg, window=20, bands=bands, block_size=32)
        c_order = simulate_stats(COrderUrn(2, 3), cfg, window=20, bands=bands, block_size=32)
        for name in ("final", "sup_abs", "window_osc", "checkpoint_values"):
            assert np.array_equal(getattr(f_order, name), getattr(c_order, name))
        for band in bands:
            assert np.array_equal(f_order.band_counts[band], c_order.band_counts[band])
        paths = simulate(PolyaUrn(2, 3), cfg).values
        assert paths.flags.f_contiguous
        for a, b in bands:
            assert np.array_equal(count_upcrossings_batch(paths, a, b, N=17),
                                  count_upcrossings_batch(np.ascontiguousarray(paths), a, b, N=17))


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
def test_walk_rejects_a_non_finite_step(step):
    # such a walk once simulated NaN finals and counted 0 upcrossings
    with pytest.raises(ValueError, match="non-finite"):
        BiasedWalk(Fraction(1, 2), step)


@pytest.mark.parametrize("red, black", [(1.0, 1), (1, Fraction(3, 2))])
def test_urn_rejects_non_integer_counts(red, black):
    with pytest.raises(TypeError, match="^initial_(red|black) must be an integer, got "):
        PolyaUrn(red, black)


def test_urn_rejects_counts_whose_float_sum_could_round():
    PolyaUrn(2**51, 2**51)
    with pytest.raises(ValueError, match="must total at most"):
        PolyaUrn(2**51, 2**51 + 1)


class TestStatisticalBehavior:
    def test_fair_walk_mean_is_centered(self):
        trials, horizon = 20_000, 100
        batch = simulate(FairWalk(), RunConfig(seed=42, trials=trials, horizon=horizon))
        mean = float(batch.values[:, -1].mean())
        assert abs(mean) <= 4 * math.sqrt(horizon / trials)

    def test_urn_limit_is_uniform(self):
        trials, horizon = 20_000, 200
        batch = simulate(PolyaUrn(1, 1), RunConfig(seed=42, trials=trials, horizon=horizon))
        xs = np.sort(batch.values[:, -1])
        grid = np.arange(1, trials + 1) / trials
        ks = float(np.max(np.maximum(np.abs(xs - grid), np.abs(xs - (grid - 1.0 / trials)))))
        assert ks <= 0.02

    def test_betting_wealth_stays_centered(self):
        model = BettingProcess(stake_rule=lambda n, hist: 1.0 if n % 2 else 2.0, initial_wealth=10.0)
        batch = simulate(model, RunConfig(seed=8, trials=5_000, horizon=30))
        assert abs(float(batch.values[:, -1].mean()) - 10.0) < 0.5


def test_batch_counts_match_the_exact_recursion():
    batch = simulate(FairWalk(), RunConfig(seed=13, trials=40, horizon=24))
    a, b = -0.5, 1.5
    counts = count_upcrossings_batch(batch.values, a, b)
    for i in range(40):
        path = [float(v) for v in batch.values[i]]
        f = Process.from_path(path, "float")
        want = upcrossings_before(Band(a, b), f, 24)[0]
        assert counts[i] == want == upcrossings_state_machine(path, a, b, 24)


def test_batch_counts_honor_a_shorter_horizon():
    batch = simulate(FairWalk(), RunConfig(seed=13, trials=10, horizon=24))
    counts = count_upcrossings_batch(batch.values, -0.5, 0.5, N=10)
    for i in range(10):
        path = [float(v) for v in batch.values[i]]
        assert counts[i] == upcrossings_state_machine(path, -0.5, 0.5, 10)


@pytest.mark.parametrize("N", [-1, 25])
def test_batch_counts_reject_a_bound_outside_the_horizon(N):
    # N = -1 once returned zeros and N = 25 an IndexError
    paths = simulate(FairWalk(), RunConfig(seed=13, trials=3, horizon=24)).values
    with pytest.raises(ValueError, match=r"^N must lie in 0\.\.24, got "):
        count_upcrossings_batch(paths, -0.5, 0.5, N=N)


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (-1.0, math.inf)])
def test_batch_counts_reject_a_non_finite_band(a, b):
    # both once counted 0 upcrossings on every row
    paths = simulate(FairWalk(), RunConfig(seed=13, trials=3, horizon=24)).values
    with pytest.raises(ValueError, match="non-finite"):
        count_upcrossings_batch(paths, a, b)


@pytest.mark.parametrize("band", [(math.nan, 1.0), (0.0, math.inf)])
def test_simulate_stats_rejects_a_non_finite_band(band):
    # a NaN edge once compared False everywhere and counted 0 upcrossings
    with pytest.raises(ValueError, match="non-finite"):
        simulate_stats(FairWalk(), RunConfig(seed=5, trials=4, horizon=6), bands=[band])


def test_simulate_stats_takes_numpy_integer_band_edges():
    # np.int64 edges once raised "cannot use int64 as a float scalar"
    cfg = RunConfig(seed=5, trials=50, horizon=12)
    stats = simulate_stats(FairWalk(), cfg, bands=[(np.int64(-1), 1)])
    want = simulate_stats(FairWalk(), cfg, bands=[(-1.0, 1.0)]).band_counts[(-1.0, 1.0)]
    assert stats.band_counts[(-1.0, 1.0)].tolist() == want.tolist()


@pytest.mark.parametrize("a, b", [(1.0, 0.5), (1.0, 1.0), (0.0, 0.0)])
def test_batch_counts_stick_on_a_reversed_band(a, b):
    # the value 1 (or 0.5, or 0) is both <= a and >= b, so the chain sticks
    # and every bound N past it counts N; the batch once gave 3, 2 and 1
    path = [0.0, 1.0, 0.5, 2.0, 0.0]
    f = Process.from_path(path, "float")
    assert count_upcrossings_batch(np.array([path]), a, b).tolist() == [4]
    assert upcrossings_before(Band(a, b), f, 4) == (4,)


def stepped_counts(paths, a, b, N):
    """The stepped state machine fed one column per time."""
    columns = ((paths[:, t] <= a, paths[:, t] >= b) for t in range(N))
    return _count_upcrossings(columns, paths.shape[0], N, a >= b)


EDGES = st.integers(-3, 3).map(float) | st.just(-0.0)
ENTRIES = EDGES | st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 5), st.integers(0, 9), EDGES, EDGES, st.booleans())
def test_batch_counts_equal_the_stepped_machine_and_the_recursion(data, rows, H, a, b, fortran):
    # small-integer entries tie both band edges; the edges cover a < b, a = b and a > b
    entries = data.draw(st.lists(ENTRIES, min_size=rows * (H + 1), max_size=rows * (H + 1)))
    paths = np.array(entries, dtype=np.float64).reshape(rows, H + 1)
    if fortran:
        paths = np.asfortranarray(paths)
    N = data.draw(st.integers(0, H))
    got = count_upcrossings_batch(paths, a, b, N)
    assert got.dtype == np.int64
    assert np.array_equal(got, stepped_counts(paths, a, b, N))
    assert got.tolist() == [upcrossings_by_recursion(row.tolist(), a, b, N) for row in paths]


def test_batch_counts_equal_the_stepped_machine_on_a_long_walk_block():
    # the block shape and bands of the benchmark's longest walk job
    paths = simulate(FairWalk(), RunConfig(seed=21, trials=1024, horizon=4096)).values
    for a, b in [(-2.0, 2.0), (0.0, 4.0)]:
        got, want = count_upcrossings_batch(paths, a, b), stepped_counts(paths, a, b, 4096)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


@pytest.mark.parametrize("paths", [np.array([0.0, 1.0, 2.0]), [[0.0, 1.0], [1.0, 0.0]],
                                   np.zeros((3, 0)), np.zeros((2, 3, 4))],
                         ids=["one_dimensional", "nested_list", "no_columns", "three_dimensional"])
def test_batch_counts_reject_malformed_paths(paths):
    # a 1-D array once raised IndexError and a nested list AttributeError
    with pytest.raises(ValueError, match=r"\(trials, horizon \+ 1\)"):
        count_upcrossings_batch(paths, -0.5, 0.5)


def test_simulate_stats_counts_a_reversed_band_like_upcrossings_before():
    cfg = RunConfig(seed=5, trials=50, horizon=12)
    stats = simulate_stats(FairWalk(), cfg, bands=[(1.0, 0.0)])
    values = simulate(FairWalk(), cfg).values
    want = [upcrossings_before(Band(1.0, 0.0), Process.from_path(row.tolist(), "float"), 12)[0]
            for row in values]
    assert stats.band_counts[(1.0, 0.0)].tolist() == want


def exact_law(weights, values):
    """Exact probability of each value, keyed by the value as a float."""
    law = Counter()
    for w, v in zip(weights, values):
        law[float(v)] += w
    return law


def assert_draws_follow(law, draws):
    # bound fixed before any run: every cell within 5 binomial standard
    # deviations of its expected count, and no draw outside the support
    n = len(draws)
    got = Counter(draws.tolist())
    assert set(got) <= {v for v, p in law.items() if p > 0}
    for v, p in law.items():
        p = float(p)
        assert abs(got[v] - n * p) <= 5 * math.sqrt(n * p * (1 - p)), (v, got[v], n * p)


def three_way(n, s):
    return ((Fraction(1, 5), s + 2), (Fraction(3, 10), s), (Fraction(1, 2), s - 1))


# model, horizon, band (a, b), seed
EXACT_LAW_CASES = {
    "fair": (FairWalk(), 10, (-1, 1), 101),
    "biased": (BiasedWalk(Fraction(3, 10)), 10, (-3, -1), 102),
    "polya": (PolyaUrn(3, 5), 10, (Fraction(1, 3), Fraction(2, 5)), 103),
    "events": (IndependentEvents([Fraction(1, n + 1) for n in range(1, 11)]), 10, (0, 1), 104),
    "custom": (CustomSpec(0, three_way, lambda s: s), 7, (-1, 1), 105),
}


@pytest.mark.parametrize("name", list(EXACT_LAW_CASES))
def test_samplers_draw_the_unrolled_law(name):
    """The final value and the band's upcrossing count, as simulated, follow
    the law that ``exhaustive_space`` enumerates for the same model."""
    model, horizon, (a, b), seed = EXACT_LAW_CASES[name]
    sp, f, _ = exhaustive_space(model, horizon, mode="exact")
    crossings = upcrossings_before(Band(Fraction(a), Fraction(b)), f, horizon)
    stats = simulate_stats(model, RunConfig(seed=seed, trials=20_000, horizon=horizon),
                           bands=[(a, b)])
    assert_draws_follow(exact_law(sp.weights, f.values[horizon]), stats.final)
    assert_draws_follow(exact_law(sp.weights, crossings), stats.band_counts[(float(a), float(b))])


def betting_path(model, u):
    wealth, hist = float(model.initial_wealth), ()
    path = [wealth]
    for n, x in enumerate(u, 1):
        flip = 1 if x < 0.5 else -1
        wealth += float(model.stake_rule(n, hist)) * flip
        hist += (flip,)
        path.append(wealth)
    return path


def custom_path(model, u):
    state = model.initial_state
    path = [float(model.value_of(state))]
    for n, x in enumerate(u, 1):
        branches = model.transition(n, state)
        cum = list(accumulate(float(p) for p, _ in branches))
        state = branches[next((k for k, c in enumerate(cum) if x < c), len(branches) - 1)][1]
        path.append(float(model.value_of(state)))
    return path


CALLBACK_MODELS = [
    (BettingProcess(lambda n, hist: 1.0 + hist.count(1) / n if hist and hist[-1] == 1 else 0.5,
                    initial_wealth=2.0), betting_path),
    (CustomSpec(0, lambda n, s: ((0.1, s + 3), (0.6, s + n % 2), (0.3, s - 1)), lambda s: s / 7),
     custom_path),
]


@pytest.mark.parametrize("horizon", [40, CUT + 22])
@pytest.mark.parametrize("model, path_of", CALLBACK_MODELS, ids=["betting", "custom"])
def test_callback_paths_match_a_per_trial_recomputation(model, path_of, horizon):
    cfg = RunConfig(seed=17, trials=30, horizon=horizon, checkpoint_schedule=tuple(range(horizon + 1)))
    want = np.array([path_of(model, trial_rng(17, t).random(horizon)) for t in range(30)])
    assert np.array_equal(simulate(model, cfg).values, want)
    for block_size in (1, 7, 1024):
        stats = simulate_stats(model, cfg, block_size=block_size)
        assert np.array_equal(stats.checkpoint_values.T, want)
        assert np.array_equal(stats.final, want[:, -1])


@pytest.mark.parametrize("call", [
    lambda m: exhaustive_space(m, 2),
    lambda m: simulate(m, RunConfig(seed=1, trials=3, horizon=4)),
    lambda m: simulate_stats(m, RunConfig(seed=1, trials=3, horizon=4)),
], ids=["exhaustive_space", "simulate", "simulate_stats"])
@pytest.mark.parametrize("non_model", [object(), lambda n, history: 0.5], ids=["object", "prob_callable"])
def test_non_models_raise_type_error(call, non_model):
    with pytest.raises(TypeError, match="unknown model"):
        call(non_model)


@pytest.mark.parametrize("N", [True, 2.0, Fraction(2), "2"])
def test_batch_counts_take_integer_bounds_only(N):
    # N = True once counted as N = 1
    paths = simulate(FairWalk(), RunConfig(seed=13, trials=3, horizon=24)).values
    with pytest.raises(TypeError):
        count_upcrossings_batch(paths, -0.5, 0.5, N=N)


def test_batch_counts_take_numpy_integer_bounds():
    paths = simulate(FairWalk(), RunConfig(seed=13, trials=10, horizon=24)).values
    want = count_upcrossings_batch(paths, -0.5, 0.5, N=10)
    assert np.array_equal(count_upcrossings_batch(paths, -0.5, 0.5, N=np.int64(10)), want)
    with pytest.raises(ValueError, match=r"^N must lie in 0\.\.24, got "):
        count_upcrossings_batch(paths, -0.5, 0.5, N=np.int64(25))
