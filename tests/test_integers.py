"""One integer rule: every time, bound, horizon, window, count, seed and atom
that the library takes goes through ``scalars.integer``.

``RULE`` lists each (entry point, integer argument) pair with a call that
varies only that argument, a valid value and an out-of-range one.  Every pair
must reject a bool and ``2.0`` with a TypeError naming the argument, give the
same result for ``np.int64`` as for the int (in value and stored type), and
reject the out-of-range value with a ValueError naming the argument and its
range.  The guard below keeps every integer-named parameter of
``martkit.__all__`` in the table.
"""

import dataclasses
import inspect
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import public_entry_points
from martkit import (
    Band,
    EventSequence,
    FairWalk,
    FiniteMeasureSpace,
    Filtration,
    IndependentEvents,
    Partition,
    PolyaUrn,
    RandomVariable,
    RunConfig,
    StoppingTime,
    ValuePredicate,
    check_borel_cantelli,
    check_hitting_is_stopping_time,
    check_l1_convergence_a,
    check_maximal_inequality,
    check_upcrossing_estimate,
    count_upcrossings_batch,
    crossing_table,
    exhaustive_space,
    fatou_norm_check,
    fixed_mass_spike_family,
    geometric_checkpoints,
    hitting,
    hitting_unbounded,
    indicator,
    limit_process_estimate,
    lower_crossing,
    measure,
    set_integral,
    set_measurable_wrt,
    shrinking_spike_family,
    simulate,
    simulate_stats,
    trial_rng,
    upcrossings_before,
    upper_crossing,
    vitali_empirical,
)
from martkit.scalars import integer

SPACE, F_, FILT = exhaustive_space(FairWalk(), 3)  # horizon 3, 8 atoms
BAND = Band(Fraction(-1, 2), Fraction(1, 2))
AT_LEAST_1 = ValuePredicate.at_least(1)
PATHS = simulate(FairWalk(), RunConfig(seed=1, trials=4, horizon=6)).values
SPIKES, SPIKE_MEMBERS, SPIKE_LIMIT = shrinking_spike_family(4, "exact")
EVENTS = IndependentEvents(lambda n: 0.5)
SPACE_4 = FiniteMeasureSpace.uniform(4)
TRIVIAL_TO_SINGLETONS = Filtration.of([Partition.trivial(4), Partition.singletons(4)])


def _bc(**kw):
    args = dict(horizon=4, trials=8, seed=3, divergence_cut=1.0, tail_start=2, block_size=3)
    return check_borel_cantelli(EVENTS, **{**args, **kw})


# (entry point, argument, call of the argument, valid value, out-of-range value)
RULE = [
    ("FiniteMeasureSpace.uniform", "n", lambda x: FiniteMeasureSpace.uniform(x), 3, 0),
    ("Partition.trivial", "n", lambda x: Partition.trivial(x), 3, 0),
    ("Partition.singletons", "n", lambda x: Partition.singletons(x), 3, 0),
    ("Partition.from_blocks", "n", lambda x: Partition.from_blocks([[0, 1], [2]], x), 3, 0),
    ("RandomVariable.constant", "n", lambda x: RandomVariable.constant(Fraction(1), x, "exact"), 3, -1),
    ("indicator", "n", lambda x: indicator(frozenset({0}), x, "exact"), 3, -1),
    ("indicator", "atom", lambda x: indicator({x}, 4, "exact"), 1, 7),
    ("measure", "atom", lambda x: measure(SPACE_4, {x}), 1, 4),
    ("set_integral", "atom", lambda x: set_integral(SPACE_4, RandomVariable.exact([1, 2, 3, 4]), {x}), 1, -1),
    ("set_measurable_wrt", "atom", lambda x: set_measurable_wrt({x}, Partition.trivial(4)), 1, 5),
    ("EventSequence", "atom",
     lambda x: EventSequence((frozenset(), frozenset({x})), TRIVIAL_TO_SINGLETONS), 1, 99),
    ("Filtration.constant", "horizon", lambda x: Filtration.constant(Partition.trivial(2), x), 2, -1),
    ("StoppingTime", "stopping time value", lambda x: StoppingTime.of([0, x]), 2, -1),
    ("StoppingTime.constant", "n", lambda x: StoppingTime.constant(x, 3), 2, -1),
    ("StoppingTime.constant", "atom_count", lambda x: StoppingTime.constant(1, x), 3, -1),
    ("hitting", "n", lambda x: hitting(F_, AT_LEAST_1, x, 3), 1, -1),
    ("hitting", "m", lambda x: hitting(F_, AT_LEAST_1, 0, x), 2, 4),
    ("hitting_unbounded", "n", lambda x: hitting_unbounded(F_, AT_LEAST_1, x), 1, 4),
    ("check_hitting_is_stopping_time", "n",
     lambda x: check_hitting_is_stopping_time(F_, AT_LEAST_1, x, 3, FILT), 1, -1),
    ("check_hitting_is_stopping_time", "m",
     lambda x: check_hitting_is_stopping_time(F_, AT_LEAST_1, 0, x, FILT), 2, 4),
    ("crossing_table", "N", lambda x: crossing_table(BAND, F_, x), 2, 4),
    ("upper_crossing", "N", lambda x: upper_crossing(BAND, F_, x, 1), 2, 4),
    ("upper_crossing", "n", lambda x: upper_crossing(BAND, F_, 3, x), 2, -1),
    ("lower_crossing", "N", lambda x: lower_crossing(BAND, F_, x, 1), 2, 4),
    ("lower_crossing", "n", lambda x: lower_crossing(BAND, F_, 3, x), 2, -1),
    ("upcrossings_before", "N", lambda x: upcrossings_before(BAND, F_, x), 2, 4),
    ("check_upcrossing_estimate", "N", lambda x: check_upcrossing_estimate(SPACE, BAND, F_, FILT, x), 2, 4),
    ("count_upcrossings_batch", "N", lambda x: count_upcrossings_batch(PATHS, -0.5, 0.5, x), 3, 7),
    ("check_maximal_inequality", "n", lambda x: check_maximal_inequality(SPACE, F_, FILT, x, 1), 2, 4),
    ("fatou_norm_check", "tail_start",
     lambda x: fatou_norm_check(SPACE, F_, F_.at(3), 1, tail_start=x), 2, 4),
    ("limit_process_estimate", "window", lambda x: limit_process_estimate(SPACE, F_, FILT, 0, x), 2, 5),
    ("check_l1_convergence_a", "window", lambda x: check_l1_convergence_a(SPACE, F_, FILT, (), 0, x), 2, 5),
    ("geometric_checkpoints", "horizon", lambda x: geometric_checkpoints(x), 5, -1),
    ("shrinking_spike_family", "horizon", lambda x: shrinking_spike_family(x, "exact"), 3, 0),
    ("fixed_mass_spike_family", "horizon", lambda x: fixed_mass_spike_family(x, "exact"), 3, 0),
    ("vitali_empirical", "horizon",
     lambda x: vitali_empirical(SPIKES, SPIKE_MEMBERS, SPIKE_LIMIT, 1, x), 2, 0),
    ("exhaustive_space", "horizon", lambda x: exhaustive_space(FairWalk(), x), 2, -1),
    ("PolyaUrn", "initial_red", lambda x: exhaustive_space(PolyaUrn(x, 3), 2), 2, 0),
    ("PolyaUrn", "initial_black", lambda x: exhaustive_space(PolyaUrn(2, x), 2), 3, 0),
    ("RunConfig", "seed", lambda x: RunConfig(x, 2, 4), 7, 1 << 64),
    ("RunConfig", "trials", lambda x: RunConfig(7, x, 4), 2, 0),
    ("RunConfig", "horizon", lambda x: RunConfig(7, 2, x), 4, -1),
    ("RunConfig", "checkpoint_schedule", lambda x: RunConfig(7, 2, 4, (x,)), 2, 5),
    ("trial_rng", "seed", lambda x: trial_rng(x, 0).random(4), 7, -1),
    ("trial_rng", "trial", lambda x: trial_rng(7, x).random(4), 3, 1 << 64),
    ("simulate_stats", "window", lambda x: simulate_stats(FairWalk(), RunConfig(1, 4, 6), window=x), 3, 8),
    ("simulate_stats", "block_size",
     lambda x: simulate_stats(FairWalk(), RunConfig(1, 4, 6), block_size=x), 3, 0),
    ("check_borel_cantelli", "horizon", lambda x: _bc(horizon=x), 4, 0),
    ("check_borel_cantelli", "trials", lambda x: _bc(trials=x), 8, 0),
    ("check_borel_cantelli", "seed", lambda x: _bc(seed=x), 3, -1),
    ("check_borel_cantelli", "tail_start", lambda x: _bc(tail_start=x), 2, 5),
    ("check_borel_cantelli", "block_size", lambda x: _bc(block_size=x), 3, 0),
]

# Integer-named parameters that do not take the rule, and why.
EXEMPT = {
    ("simulate_stats", "workers"): "accepted for compatibility and ignored; no value is read",
    # records the library returns, filled from arguments that already took the rule
    ("CrossingTable", "N"): "result record",
    ("UpcrossingEstimateReport", "N"): "result record",
    ("MaximalInequalityReport", "n"): "result record",
    ("FatouReport", "tail_start"): "result record",
    ("BorelCantelliReport", "horizon"): "result record",
    ("BorelCantelliReport", "trials"): "result record",
    ("BorelCantelliReport", "tail_start"): "result record",
    ("TrajectoryStats", "window"): "result record",
}

INTEGER_NAMES = {"N", "n", "m", "horizon", "window", "trials", "seed", "tail_start", "block_size",
                 "atom_count", "workers"}


def _same(a, b) -> bool:
    """Equal values of the same types all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


IDS = [f"{entry}-{arg}" for entry, arg, *_ in RULE]


@pytest.mark.parametrize("entry, arg, call, good, bad", RULE, ids=IDS)
@pytest.mark.parametrize("x", [True, 2.0], ids=["bool", "float"])
def test_non_integers_raise_a_type_error_naming_the_argument(entry, arg, call, good, bad, x):
    with pytest.raises(TypeError, match=f"^{re.escape(arg)} must be an integer, got {x!r}$"):
        call(x)


@pytest.mark.parametrize("entry, arg, call, good, bad", RULE, ids=IDS)
def test_numpy_integers_give_what_the_int_gives(entry, arg, call, good, bad):
    assert _same(call(np.int64(good)), call(good))


@pytest.mark.parametrize("entry, arg, call, good, bad", RULE, ids=IDS)
def test_out_of_range_values_raise_a_value_error_naming_the_argument(entry, arg, call, good, bad):
    span = r"(be >= -?\d+|lie in -?\d+\.\.\d+)"
    with pytest.raises(ValueError, match=f"^{re.escape(arg)} must {span}, got {bad}$"):
        call(bad)


def test_every_integer_parameter_of_the_public_api_takes_the_rule():
    covered = {(entry, arg) for entry, arg, *_ in RULE}
    found = {
        (name, param)
        for name, fn in public_entry_points()
        for param in inspect.signature(fn).parameters
        if param in INTEGER_NAMES
    }
    assert found - covered - EXEMPT.keys() == set()
    assert EXEMPT.keys() <= found  # no stale exemption


@pytest.mark.parametrize("x, low, high, want", [
    (3, 0, None, 3), (np.int64(3), 0, 3, 3), (np.uint64(1 << 63), 0, None, 1 << 63), (-2, -5, 0, -2),
])
def test_integer_returns_a_python_int(x, low, high, want):
    got = integer(x, "x", low, high)
    assert type(got) is int and got == want


@pytest.mark.parametrize("x", [True, np.bool_(False), 2.0, np.float64(2.0), Fraction(2), "2", None])
def test_integer_rejects_bools_and_non_integers(x):
    with pytest.raises(TypeError, match="^x must be an integer"):
        integer(x, "x")


@pytest.mark.parametrize("x, low, high, text", [
    (-1, 0, None, "x must be >= 0, got -1"), (5, 1, 4, r"x must lie in 1\.\.4, got 5"),
    (np.int64(0), 1, None, "x must be >= 1, got 0"),
])
def test_integer_names_the_range(x, low, high, text):
    with pytest.raises(ValueError, match=f"^{text}$"):
        integer(x, "x", low, high)
