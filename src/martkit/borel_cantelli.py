"""Generalized Borel-Cantelli: predictable sums, the underlying martingale,
and the Monte Carlo surrogate check.

The exact side works on adapted event sequences over a finite filtered
space: ``predictable_sum`` accumulates conditional occurrence probabilities,
``borel_cantelli_martingale`` is the compensated occurrence count (bitwise
the martingale part of the Doob decomposition of the raw count).

The statistical side simulates event streams and compares two finite-horizon
surrogates: "an event occurs in the tail window" against "the predictable
sum at the horizon clears a divergence cut".  The lemma says the two agree
almost surely in the limit; the check reports how often they agree at the
truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .condexp import _Kernel
from .measure import FiniteMeasureSpace, set_measurable_wrt
from .montecarlo import _SEED_MAX, IndependentEvents, _run_blocks, _uniform_block
from .processes import Filtration, Process, _running_sums
from .scalars import coerce_scalar, integer

__all__ = [
    "EventSequence",
    "event_sequence_from_counts",
    "predictable_sum",
    "borel_cantelli_martingale",
    "BorelCantelliReport",
    "check_borel_cantelli",
]


@dataclass(frozen=True)
class EventSequence:
    """Time-indexed atom sets with sets[n] measurable at filtration step n."""

    sets: tuple  # frozenset per time 0..horizon
    adapted_to: Filtration

    def __post_init__(self) -> None:
        if len(self.sets) != self.adapted_to.horizon + 1:
            raise ValueError("need one event set per filtration step")
        for n, s in enumerate(self.sets):
            if not set_measurable_wrt(frozenset(s), self.adapted_to.steps[n]):
                raise ValueError(f"event set at time {n} is not measurable at step {n}")

    @property
    def horizon(self) -> int:
        return self.adapted_to.horizon


def event_sequence_from_counts(counts: Process, F: Filtration) -> EventSequence:
    """Recover event sets from a cumulative occurrence-count process:
    S_n = {count jumped at n}, S_0 = atoms already counted at time 0."""
    sets = [frozenset(w for w, v in enumerate(counts.values[0]) if v >= 1)]
    for n in range(1, counts.horizon + 1):
        sets.append(
            frozenset(
                w
                for w in range(counts.atom_count)
                if counts.values[n][w] - counts.values[n - 1][w] >= 1
            )
        )
    return EventSequence(sets=tuple(sets), adapted_to=F)


def _event_sums(space: FiniteMeasureSpace, S: EventSequence, lag) -> Process:
    """``processes._running_sums`` over the indicators of the event sets."""
    F = S.adapted_to
    if F.atom_count != space.atom_count:
        raise ValueError("atom counts differ between space and filtration")
    # 0/1 ints: the indicators' values, read through either mode's derived form
    atoms = range(F.atom_count)
    rows = Process(tuple(tuple(int(a in s) for a in atoms) for s in map(frozenset, S.sets)), space.mode)
    return Process(_running_sums(_Kernel(space, F.steps), rows, lag)[0], space.mode)


def predictable_sum(space: FiniteMeasureSpace, S: EventSequence) -> Process:
    """p_n = sum_{k<n} condexp(1_{S_{k+1}} | steps[k]); predictable and
    nondecreasing per atom."""
    return _event_sums(space, S, None)


def borel_cantelli_martingale(space: FiniteMeasureSpace, S: EventSequence) -> Process:
    """f_n = sum_{k<n} (1_{S_{k+1}} - condexp(1_{S_{k+1}} | steps[k])).

    This is the compensated occurrence count: raw count minus predictable
    sum, the martingale part of the count's Doob decomposition.
    """
    return _event_sums(space, S, 1)


# ---------------------------------------------------------------------------
# Monte Carlo surrogate check
# ---------------------------------------------------------------------------

EventModel = Union[IndependentEvents, Callable[[int, tuple], float]]


@dataclass(frozen=True)
class BorelCantelliReport:
    horizon: int
    trials: int
    tail_start: int
    divergence_cut: float
    match_fraction: float
    p_horizon_mean: float
    blocks: tuple  # (block_index, match_fraction, p_horizon_mean)


def check_borel_cantelli(
    model: EventModel,
    horizon: int,
    trials: int,
    seed: int,
    divergence_cut: float,
    tail_start: int,
    block_size: int = 1000,
) -> BorelCantelliReport:
    """Tail-occurrence vs predictable-sum-divergence agreement rate.

    Per trial: events n = 1..horizon occur with the model's conditional
    probability given the occurrence history; surrogate limsup membership is
    "some event with n >= tail_start occurred", surrogate divergence is
    "sum of conditional probabilities >= divergence_cut".  The lemma makes
    these agree a.e. in the limit; match_fraction measures the truncation.
    Blocks, and a callable model, run on the calling thread.
    """
    horizon = integer(horizon, "horizon", 1)
    trials = integer(trials, "trials", 1)
    seed = integer(seed, "seed", 0, _SEED_MAX)
    tail_start = integer(tail_start, "tail_start", 1, horizon)
    divergence_cut = coerce_scalar(divergence_cut, "float")
    independent = isinstance(model, IndependentEvents)
    if independent:
        probs = model.probs(horizon)
    elif not callable(model):
        raise TypeError("event model must be IndependentEvents or a prob(n, history) callable")

    def work(start, count):
        u = _uniform_block(seed, start, count, horizon)
        if independent:
            occurred = u < probs[None, :]
            p_sum = np.full(count, float(probs.sum()))
            tail_hit = occurred[:, tail_start - 1 :].any(axis=1)
        else:
            p_sum = np.empty(count)
            tail_hit = np.empty(count, dtype=bool)
            for i in range(count):
                history: tuple = ()
                total = 0.0
                for n in range(1, horizon + 1):
                    p = float(model(n, history))
                    if not 0.0 <= p <= 1.0:
                        raise ValueError(f"conditional probability {p} outside [0, 1]")
                    total += p
                    history = history + (bool(u[i, n - 1] < p),)
                p_sum[i] = total
                tail_hit[i] = any(history[tail_start - 1 :])
        diverge = p_sum >= divergence_cut
        match = tail_hit == diverge
        return int(match.sum()), float(p_sum.sum()), count

    results = _run_blocks(work, trials, block_size)
    rows = []
    matched = 0
    p_total = 0.0
    for idx, (m, p_sum_total, count) in enumerate(results):
        rows.append((idx, m / count, p_sum_total / count))
        matched += m
        p_total += p_sum_total
    return BorelCantelliReport(
        horizon=horizon,
        trials=trials,
        tail_start=tail_start,
        divergence_cut=divergence_cut,
        match_fraction=matched / trials,
        p_horizon_mean=p_total / trials,
        blocks=tuple(rows),
    )
