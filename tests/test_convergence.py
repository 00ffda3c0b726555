import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    Band,
    FairWalk,
    Filtration,
    FiniteMeasureSpace,
    MartingaleClass,
    Partition,
    Process,
    RandomVariable,
    RootValue,
    ae_convergence_diagnostic,
    check_l1_convergence_a,
    check_l1_convergence_b,
    check_levy_upward,
    check_maximal_inequality,
    condexp,
    exhaustive_space,
    fatou_norm_check,
    geometric_checkpoints,
    limit_process_estimate,
    probabilist_curve,
    snorm,
    FunctionFamily,
    INF,
    classify,
)
from conftest import ASSUMED_MARTINGALE, random_filtration, random_fraction, random_rv, random_space, random_submartingale
from oracles import limit_estimate_by_atoms, norm_curve_by_rows

seeds = st.integers(0, 10**9)


def fair_walk_two_steps():
    return exhaustive_space(FairWalk(), 2, mode="exact")


class TestMaximalInequality:
    def test_fair_walk_attains_equality(self):
        sp, f, F = fair_walk_two_steps()
        rep = check_maximal_inequality(sp, f, F, 2, Fraction(1))
        assert rep.holds
        assert rep.lhs == Fraction(1, 2)
        assert rep.rhs == Fraction(1, 2)
        assert rep.set_mass == Fraction(1, 2)

    @pytest.mark.parametrize("n, error", [(True, TypeError), (2.0, TypeError), (-1, ValueError), (3, ValueError)])
    def test_n_is_an_integer_time_within_the_horizon(self, n, error):
        # a bool n once ran as 1, and a float n failed inside a numpy slice
        sp, f, F = fair_walk_two_steps()
        with pytest.raises(error, match="^n must"):
            check_maximal_inequality(sp, f, F, n, Fraction(1))

    def test_level_above_the_range_is_empty(self):
        sp, f, F = fair_walk_two_steps()
        rep = check_maximal_inequality(sp, f, F, 2, Fraction(5))
        assert rep.holds
        assert rep.lhs == Fraction(0) and rep.rhs == Fraction(0)
        assert rep.set_mass == Fraction(0)

    def test_constant_process_is_tight(self):
        sp = FiniteMeasureSpace.from_weights([Fraction(1, 3), Fraction(2, 3)])
        f = Process.from_values([[4, 4], [4, 4]], "exact")
        F = Filtration.constant(Partition.trivial(2), 1)
        rep = check_maximal_inequality(sp, f, F, 1, Fraction(4))
        assert rep.holds
        assert rep.lhs == Fraction(4) == rep.rhs

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_holds_on_random_nonnegative_submartingales(self, seed):
        from conftest import random_submartingale

        rng = random.Random(seed)
        sp = random_space(rng, max_atoms=8)
        F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
        f = random_submartingale(rng, sp, F)
        shift = min(v for row in f.values for v in row)
        rows = [[v - shift for v in row] for row in f.values]
        g = Process.from_values(rows, "exact")
        level = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        n = rng.randint(0, F.horizon)
        assert check_maximal_inequality(sp, g, F, n, level).holds


class TestTowerDistances:
    def test_constant_target_gives_zero_distances(self):
        sp, _, F = fair_walk_two_steps()
        g = RandomVariable.constant(7, 4, "exact")
        rep = check_levy_upward(sp, g, F)
        assert rep.d == (Fraction(0),) * 3
        assert rep.holds

    def test_worked_four_atom_chain(self):
        sp = FiniteMeasureSpace.uniform(4, mode="exact")
        g = RandomVariable.from_values([1, 2, 3, 4], "exact")
        F = Filtration.of(
            [Partition.trivial(4), Partition.of([0, 0, 1, 1]), Partition.singletons(4)]
        )
        rep = check_levy_upward(sp, g, F)
        assert rep.d == (Fraction(1), Fraction(1, 2), Fraction(0))
        assert rep.monotone and rep.final_zero and rep.holds

    def test_target_measurable_midway_zeroes_the_tail(self):
        sp = FiniteMeasureSpace.uniform(4, mode="exact")
        g = RandomVariable.from_values([1, 1, 4, 4], "exact")
        F = Filtration.of(
            [Partition.trivial(4), Partition.of([0, 0, 1, 1]), Partition.singletons(4)]
        )
        rep = check_levy_upward(sp, g, F)
        assert rep.d[1] == Fraction(0) and rep.d[2] == Fraction(0)

    def test_distances_can_rise_before_they_vanish(self):
        # refining the partition can move the blockwise average further
        # from the target in L1; only the endpoint is forced to zero
        sp = FiniteMeasureSpace.uniform(6, mode="exact")
        g = RandomVariable.from_values([0, 0, 3, -3, 0, 0], "exact")
        F = Filtration.of(
            [Partition.trivial(6), Partition.of([0, 0, 0, 1, 1, 1]), Partition.singletons(6)]
        )
        rep = check_levy_upward(sp, g, F)
        assert rep.d == (Fraction(1), Fraction(4, 3), Fraction(0))
        assert not rep.monotone
        assert rep.final_zero
        assert not rep.holds

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_final_distance_vanishes_on_full_refinement(self, seed):
        rng = random.Random(seed)
        sp = random_space(rng, max_atoms=8)
        F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4), to_singletons=True)
        g = random_rv(rng, sp.atom_count)
        rep = check_levy_upward(sp, g, F)
        assert rep.final_zero
        assert rep.d[-1] == Fraction(0)


class TestL1Criteria:
    def test_martingale_is_its_own_closure(self):
        sp, f, F = fair_walk_two_steps()
        rep = check_l1_convergence_b(sp, f, F)
        assert rep.holds
        assert rep.witness is None
        assert rep.kind is MartingaleClass.MARTINGALE

    def test_a_positional_slack_is_refused(self):
        # a stale fourth argument would otherwise land in ``classification``
        sp, f, F = fair_walk_two_steps()
        with pytest.raises(TypeError, match="positional argument"):
            check_l1_convergence_b(sp, f, F, 1e-9)

    def test_drift_breaks_closure_with_a_witness(self):
        sp, f, F = fair_walk_two_steps()
        rows = [[v + n for v in row] for n, row in enumerate(f.values)]
        g = Process.from_values(rows, "exact")
        rep = check_l1_convergence_b(sp, g, F, classification=ASSUMED_MARTINGALE)
        assert not rep.holds
        assert rep.witness == (0, 0)
        assert rep.kind is MartingaleClass.MARTINGALE  # the kind passed in
        assert classify(sp, g, F).kind is MartingaleClass.SUBMARTINGALE

    def test_conditional_criterion_on_a_settled_process(self):
        sp, f, F = fair_walk_two_steps()
        fam = FunctionFamily(sp, tuple(f.at(n) for n in range(3)), 1)
        curve = probabilist_curve(fam, [Fraction(0), Fraction(1), Fraction(3)])
        rep = check_l1_convergence_a(
            sp, f, F, ui_modulus_curve=curve, tol=Fraction(3), window=1
        )
        assert rep.holds

    def test_conditional_criterion_allows_the_gaps_to_rise(self):
        # the README's 6-atom witness: f_n = condexp(g | F_n) is a martingale
        # reaching g, and its L1 gaps rise before they vanish; holds was once
        # False because it also required the gaps never to rise
        sp = FiniteMeasureSpace.uniform(6, mode="exact")
        g = RandomVariable.from_values([0, 0, 3, -3, 0, 0], "exact")
        steps = [Partition.trivial(6), Partition.trivial(6), Partition.of([0, 0, 0, 1, 1, 1]),
                 Partition.singletons(6)]
        F = Filtration.of(steps)
        f = Process.from_rvs([condexp(sp, g, p) for p in steps])
        fam = FunctionFamily(sp, f.rows(), 1)
        rep = check_l1_convergence_a(sp, f, F, probabilist_curve(fam, [0, 1, 2, 4]), tol=0, window=1)
        assert rep.gaps == (Fraction(1), Fraction(4, 3), Fraction(0))
        assert rep.ui_small and rep.final_below_tol and not rep.trend_ok
        assert rep.holds


class TestFatou:
    def test_constant_process_attains_equality(self):
        sp = FiniteMeasureSpace.uniform(2, mode="exact")
        f = Process.from_values([[1, 3], [1, 3], [1, 3]], "exact")
        g = RandomVariable.from_values([1, 3], "exact")
        rep = fatou_norm_check(sp, f, g, 2)
        assert rep.holds
        assert rep.limit_norm == RootValue.of(Fraction(5), 2)
        assert rep.surrogate == RootValue.of(Fraction(5), 2)

    def test_inflated_early_rows_keep_the_bound_strict(self):
        sp = FiniteMeasureSpace.uniform(2, mode="exact")
        f = Process.from_values([[9, 9], [5, 3], [1, 3]], "exact")
        g = RandomVariable.from_values([1, 3], "exact")
        rep = fatou_norm_check(sp, f, g, 1, tail_start=1)
        assert rep.holds
        assert rep.limit_norm == Fraction(2)
        assert rep.surrogate == Fraction(2)

    def test_sup_norm_variant(self):
        sp = FiniteMeasureSpace.uniform(2, mode="exact")
        f = Process.from_values([[2, -7], [1, -4]], "exact")
        g = RandomVariable.from_values([1, -4], "exact")
        from martkit import INF

        rep = fatou_norm_check(sp, f, g, INF)
        assert rep.holds
        assert rep.limit_norm == Fraction(4)

    @pytest.mark.parametrize("start, error", [(True, TypeError), (1.0, TypeError), (3, ValueError)])
    def test_tail_start_is_an_integer_time_within_the_horizon(self, start, error):
        sp = FiniteMeasureSpace.uniform(2, mode="exact")
        f = Process.from_values([[9, 9], [5, 3], [1, 3]], "exact")
        with pytest.raises(error, match="^tail_start must"):
            fatou_norm_check(sp, f, RandomVariable.from_values([1, 3], "exact"), 1, tail_start=start)

    def test_rejects_a_process_that_misses_its_limit(self):
        sp = FiniteMeasureSpace.uniform(2, mode="exact")
        f = Process.from_values([[1, 3], [1, 3], [2, 3]], "exact")
        g = RandomVariable.from_values([1, 3], "exact")
        with pytest.raises(ValueError):
            fatou_norm_check(sp, f, g, 2)


class TestLimitEstimate:
    def test_settled_process_converges_everywhere(self):
        sp = FiniteMeasureSpace.uniform(2, mode="exact")
        f = Process.from_values([[5, 5], [5, 5], [5, 5]], "exact")
        F = Filtration.of([Partition.trivial(2)] * 3)
        est = limit_process_estimate(sp, f, F, Fraction(0), 1)
        assert est.values.values == (Fraction(5), Fraction(5))
        assert est.converged_mask == frozenset({0, 1})

    def test_oscillation_empties_the_mask(self):
        sp = FiniteMeasureSpace.from_weights([1])
        f = Process.from_path([0, 1, 0, 1, 0], "exact")
        F = Filtration.constant(Partition.trivial(1), 4)
        est = limit_process_estimate(sp, f, F, Fraction(1, 2), 2)
        assert est.converged_mask == frozenset()


@given(seeds, st.sampled_from(["exact", "float"]), st.sampled_from([1, 2, 3, INF]))
@settings(max_examples=100, deadline=None)
def test_estimate_and_norm_curves_match_the_per_atom_and_per_row_forms(seed, mode, p):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
    f = random_submartingale(rng, sp, F)
    cls = classify(sp, f, F)
    tol = random_fraction(rng, 0, 2)
    if mode == "float":
        sp = FiniteMeasureSpace.from_weights([float(w) for w in sp.weights], mode="float")
        f = Process.from_values([[float(v) for v in row] for row in f.values], "float")
        tol = float(tol)
    window = rng.randint(1, f.horizon + 1)
    typed = lambda xs: [(type(x), x) for x in xs]

    est = limit_process_estimate(sp, f, F, tol, window)
    values, converged = limit_estimate_by_atoms(f, tol, window)
    assert typed(est.values.values) == typed(values) and est.converged_mask == converged
    rep = fatou_norm_check(sp, f, f.at(f.horizon), p)
    assert typed(rep.curve) == typed(norm_curve_by_rows(sp, f, p))
    rep = check_l1_convergence_a(sp, f, F, [(0, 0.0)], tol, window, classification=cls)
    gaps = norm_curve_by_rows(sp, f, 1, values)
    assert typed(rep.gaps) == typed(gaps[n] for n in geometric_checkpoints(f.horizon))


class TestDiagnostic:
    def test_bounded_walk_with_chain_bound(self):
        sp, f, F = fair_walk_two_steps()
        band = Band(Fraction(-1, 2), Fraction(1, 2))
        d = ae_convergence_diagnostic(sp, f, F, Fraction(2), [band], l1_bound=Fraction(1))
        assert d.bounded_fraction == Fraction(1)
        assert d.unbounded_measure == Fraction(0)
        assert d.chain_bounds == ((band, Fraction(0), Fraction(3, 2), True),)

    @staticmethod
    def _rise(weights, top, mode):
        # every atom goes 0 -> top -> top: one upcrossing of (0, top) each, so
        # mu[U] = mu(Omega) = ||f_2||_1 / top and the chain bound is an equality
        sp = FiniteMeasureSpace.from_weights(weights, mode)
        f = Process.from_values([[0] * len(weights), [top] * len(weights), [top] * len(weights)], mode)
        return sp, f, Filtration.constant(Partition.trivial(len(weights)), 2), Band(0, top)

    def test_chain_bound_compares_within_the_float_slack(self):
        sp, f, F, band = self._rise([0.5, 0.4], 0.7, "float")
        d = ae_convergence_diagnostic(sp, f, F, 1.0, [band], l1_bound=snorm(sp, f.at(2), 1))
        ((_, mu_u, bound, holds),) = d.chain_bounds
        assert mu_u > bound  # rounding bites: the bound once failed by 1 ulp
        assert holds

    def test_exact_chain_bound_takes_no_slack(self):
        sp, f, F, band = self._rise([Fraction(1, 2), Fraction(2, 5)], Fraction(7, 10), "exact")
        R = snorm(sp, f.at(2), 1)
        assert R == Fraction(63, 100)
        for bound, holds in ((R, True), (R - Fraction(1, 10**12), False)):
            d = ae_convergence_diagnostic(sp, f, F, 1, [band], l1_bound=bound)
            assert d.chain_bounds[0][1:] == (Fraction(9, 10), bound / Fraction(7, 10), holds)

    def test_tight_cutoff_halves_the_mass(self):
        sp, f, F = fair_walk_two_steps()
        d = ae_convergence_diagnostic(sp, f, F, Fraction(1), [Band(Fraction(-1, 2), Fraction(1, 2))])
        assert d.bounded_fraction == Fraction(1, 2)
        assert d.unbounded_measure == Fraction(1, 2)
        assert d.chain_bounds is None


def test_geometric_checkpoints_double_up_to_the_horizon():
    assert geometric_checkpoints(100) == (1, 2, 4, 8, 16, 32, 64, 100)
    assert geometric_checkpoints(8) == (1, 2, 4, 8)
    assert geometric_checkpoints(1) == (1,)
