"""Seeded trajectory models: exact path-space enumeration and Monte Carlo.

Each model dataclass below states its law once per face:

* ``start(mode)``, ``transitions(n, mode)`` (step n >= 1's map from a state
  to its (probability, next state) pairs, up / red / occur first; a model's
  constant parameters are coerced to the mode once per step, not once per
  node) and ``value(state, mode)``, which ``exhaustive_space`` unrolls into a
  finite measure space (atom = path, weight = path probability, exact
  Fractions in exact mode), the coordinate value process, and its natural
  filtration.
* ``sample(u)``, which turns a (trials, horizon) block of uniforms into
  float64 paths: the walks, the urn and IndependentEvents with array
  operations over the block, BettingProcess and CustomSpec by calling their
  callbacks per trial and step.  ``simulate`` / ``simulate_stats`` draw trial
  t's uniforms from its own counter-based stream keyed by (seed, t), so a
  trial's values do not depend on which block draws it; blocks run in trial
  order on the calling thread and aggregates are assembled in trial order,
  making reports bitwise reproducible at any block size.

``simulate`` materializes the full trials x (horizon+1) array and is meant
for moderate sizes; ``simulate_stats`` processes trials in blocks and keeps
only summaries (final value, sup |value|, tail-window oscillation,
band-crossing counts), each written block by block into one preallocated
trial-indexed array, which is how the 1e4 x 1e4 runs stay in memory.

The stream of trial t is ``trial_rng(seed, t)``, numpy's Philox4x64-10 keyed
by [seed, t].  Philox is counter-based, so the stream depends only on the key
and the counter, and a block draws it by one of two routes that reproduce
``trial_rng(seed, t).random(horizon)`` bit for bit.  Horizons <= 40 go to an
in-house numpy Philox4x64-10 that computes every (trial, counter-block) pair
of the block in one pass of array operations; its cost grows with the
horizon (about 45 ns per uniform against about 4 ns in C).  Longer horizons
build one numpy generator per block and, for each trial, reset its key to
[seed, t], its counter to 0 and its buffer to empty, then draw in C straight
into the trial's row: about 2 us per trial instead of the 12-20 us that
building a generator per trial costs.  Per 1024-trial block on a 2-core
Xeon (ms, medians of 15 in three series):

    horizon   kernel      one generator per trial   re-keyed
    32        2.7-3.1     21-23                     2.9-3.1
    64        3.8-5.3     14-23                     1.9-3.5
    200       8.3-13.3    13-26                     2.6-5.5
    4096      -           56-75                     38-52

In paired runs the re-keyed route took 1.09-1.25 times the kernel's time at
horizon 32, 0.88-1.02 at 40 and 0.72-0.96 at 48, hence the cut at 40.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, ClassVar, Optional, Sequence, Union

import numpy as np

from .crossings import _count_upcrossings_runs
from .measure import FiniteMeasureSpace, Partition, _first_appearance, _value_keys
from .processes import Filtration, Process
from .scalars import Mode, Scalar, coerce_scalar, integer

__all__ = [
    "FairWalk",
    "BiasedWalk",
    "PolyaUrn",
    "BettingProcess",
    "IndependentEvents",
    "CustomSpec",
    "TrajectoryModel",
    "RunConfig",
    "EXHAUSTIVE_LEAF_CAP",
    "exhaustive_space",
    "TrajectoryBatch",
    "simulate",
    "TrajectoryStats",
    "simulate_stats",
    "trial_rng",
    "count_upcrossings_batch",
]

EXHAUSTIVE_LEAF_CAP = 1 << 16
_URN_MAX_BALLS = 1 << 52


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiasedWalk:
    """Walk from 0 that steps +step with probability p_up, else -step."""

    p_up: Scalar
    step: Scalar = 1

    def __post_init__(self) -> None:
        if not 0 <= self.p_up <= 1:
            raise ValueError("p_up must lie in [0, 1]")
        coerce_scalar(self.step, "float")  # a NaN or infinite step raises

    def start(self, mode: Mode):
        return coerce_scalar(0, mode)

    def transitions(self, n: int, mode: Mode) -> Callable:
        p, s = coerce_scalar(self.p_up, mode), coerce_scalar(self.step, mode)
        q = 1 - p
        return lambda state: [(p, state + s), (q, state - s)]

    def value(self, state, mode: Mode) -> Scalar:
        return state

    def sample(self, u: np.ndarray) -> np.ndarray:
        step = float(self.step)
        out = np.empty((u.shape[0], u.shape[1] + 1), dtype=np.float64)
        out[:, 0] = 0.0
        # +-1.0 from the mask, then times step: exactly np.where(up, step, -step)
        # for every finite step, -0.0 and 1e308 included, without the select
        steps = np.multiply(u < float(self.p_up), 2.0, dtype=np.float64)
        steps -= 1.0
        steps *= step
        np.cumsum(steps, axis=1, out=out[:, 1:])
        return out


@dataclass(frozen=True)
class FairWalk(BiasedWalk):
    """Symmetric +/-step random walk started at 0 (p_up fixed at 1/2)."""

    p_up: ClassVar[Fraction] = Fraction(1, 2)


@dataclass(frozen=True)
class PolyaUrn:
    """Polya urn; the tracked value is the proportion of red balls."""

    initial_red: int = 1
    initial_black: int = 1

    def __post_init__(self) -> None:
        for name in ("initial_red", "initial_black"):
            object.__setattr__(self, name, integer(getattr(self, name), name, 1))
        # sample() divides by the ball count n0 + t as a float, which is exact
        # while it stays below 2**53; no path array is long enough to climb
        # from 2**52 to there
        if self.initial_red + self.initial_black > _URN_MAX_BALLS:
            raise ValueError(f"urn counts must total at most {_URN_MAX_BALLS}")

    def start(self, mode: Mode):
        return (self.initial_red, self.initial_black)

    def transitions(self, n: int, mode: Mode) -> Callable:
        def branches(state) -> list:
            r, b = state
            p_red = self.value(state, mode)
            return [(p_red, (r + 1, b)), (1 - p_red, (r, b + 1))]
        return branches

    def value(self, state, mode: Mode) -> Scalar:
        r, b = state
        return Fraction(r, r + b) if mode == "exact" else r / (r + b)

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Paths in Fortran order: the loop runs over time on contiguous rows
        of the transposed block, and step t draws red when u < proportion."""
        count, horizon = u.shape
        ut = np.ascontiguousarray(u.T)
        out = np.empty((horizon + 1, count), dtype=np.float64)
        n0 = self.initial_red + self.initial_black
        r = np.full(count, float(self.initial_red))
        np.divide(r, n0, out=out[0])
        for t in range(horizon):
            r += ut[t] < out[t]
            np.divide(r, n0 + t + 1, out=out[t + 1])
        return out.T


@dataclass(frozen=True)
class BettingProcess:
    """Wealth of a player betting ``stake_rule(n, history)`` on fair flips.

    ``history`` is the tuple of +/-1 outcomes of rounds 1..n-1, so the stake
    for round n is predictable.  Not JSON-serializable (callback)."""

    stake_rule: Callable[[int, tuple], Scalar]
    initial_wealth: Scalar = 0

    def start(self, mode: Mode):
        return (coerce_scalar(self.initial_wealth, mode), ())

    def transitions(self, n: int, mode: Mode) -> Callable:
        half = Fraction(1, 2) if mode == "exact" else 0.5

        def branches(state) -> list:
            wealth, hist = state
            stake = coerce_scalar(self.stake_rule(n, hist), mode)
            return [(half, (wealth + stake, hist + (1,))), (half, (wealth - stake, hist + (-1,)))]
        return branches

    def value(self, state, mode: Mode) -> Scalar:
        return state[0]

    def sample(self, u: np.ndarray) -> np.ndarray:
        out = np.empty((u.shape[0], u.shape[1] + 1), dtype=np.float64)
        for i, row in enumerate(u):
            wealth = float(self.initial_wealth)
            hist: tuple = ()
            out[i, 0] = wealth
            for n in range(1, u.shape[1] + 1):
                stake = float(self.stake_rule(n, hist))
                flip = 1 if row[n - 1] < 0.5 else -1
                wealth += stake * flip
                hist = hist + (flip,)
                out[i, n] = wealth
        return out


@dataclass(frozen=True)
class IndependentEvents:
    """Independent events with P(event n) = schedule(n) for n = 1..horizon.

    ``prob_schedule`` is a callable n -> probability or a sequence indexed
    n-1.  The coordinate value process counts occurrences so far."""

    prob_schedule: Union[Callable[[int], Scalar], Sequence[Scalar]]

    def prob(self, n: int) -> Scalar:
        if callable(self.prob_schedule):
            p = self.prob_schedule(n)
        else:
            p = self.prob_schedule[n - 1]
        if not 0 <= p <= 1:
            raise ValueError(f"schedule produced probability {p!r} outside [0, 1]")
        return p

    def probs(self, horizon: int) -> np.ndarray:
        """Float P(event n) for n = 1..horizon."""
        return np.array([float(self.prob(n)) for n in range(1, horizon + 1)])

    def start(self, mode: Mode):
        return 0  # occurrences so far

    def transitions(self, n: int, mode: Mode) -> Callable:
        p = coerce_scalar(self.prob(n), mode)
        q = 1 - p
        return lambda state: [(p, state + 1), (q, state)]

    def value(self, state, mode: Mode) -> Scalar:
        return coerce_scalar(state, mode)

    def sample(self, u: np.ndarray) -> np.ndarray:
        out = np.empty((u.shape[0], u.shape[1] + 1), dtype=np.float64)
        out[:, 0] = 0.0
        np.cumsum((u < self.probs(u.shape[1])[None, :]).astype(np.float64), axis=1, out=out[:, 1:])
        return out


@dataclass(frozen=True)
class CustomSpec:
    """Arbitrary finite-branching model via callbacks (in-process only).

    ``transition(n, state)`` lists (probability, next_state) branches for
    step n >= 1; ``value_of(state)`` reads the tracked scalar."""

    initial_state: object
    transition: Callable[[int, object], Sequence[tuple]]
    value_of: Callable[[object], Scalar]

    def start(self, mode: Mode):
        return self.initial_state

    def transitions(self, n: int, mode: Mode) -> Callable:
        def branches(state) -> list:
            out = [(coerce_scalar(p, mode), s) for p, s in self.transition(n, state)]
            if not out:
                raise ValueError("CustomSpec transition produced no branches")
            return out
        return branches

    def value(self, state, mode: Mode) -> Scalar:
        return coerce_scalar(self.value_of(state), mode)

    def sample(self, u: np.ndarray) -> np.ndarray:
        out = np.empty((u.shape[0], u.shape[1] + 1), dtype=np.float64)
        for i, row in enumerate(u):
            state = self.initial_state
            out[i, 0] = float(self.value_of(state))
            for n in range(1, u.shape[1] + 1):
                branches = self.transition(n, state)
                x = row[n - 1]
                acc = 0.0
                state = branches[-1][1]
                for p, s2 in branches:
                    acc += float(p)
                    if x < acc:
                        state = s2
                        break
                out[i, n] = float(self.value_of(state))
        return out


TrajectoryModel = Union[FairWalk, BiasedWalk, PolyaUrn, BettingProcess, IndependentEvents, CustomSpec]


def _require_model(model) -> None:
    if not isinstance(model, TrajectoryModel):
        raise TypeError(f"unknown model {model!r}")


# Philox keys are uint64: the vectorised kernel would wrap where numpy raises
_SEED_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class RunConfig:
    seed: int
    trials: int
    horizon: int
    # no longer settable and always (): kept, with TrajectoryStats's
    # checkpoint_values, only because the digests recorded in
    # perfbench/digests.json hash every field; goes at their next re-record
    checkpoint_schedule: tuple = field(default=(), init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", integer(self.seed, "seed", 0, _SEED_MAX))
        object.__setattr__(self, "trials", integer(self.trials, "trials", 1))
        object.__setattr__(self, "horizon", integer(self.horizon, "horizon"))


# ---------------------------------------------------------------------------
# Exact path-space enumeration
# ---------------------------------------------------------------------------


def exhaustive_space(
    model: TrajectoryModel,
    horizon: int,
    mode: Mode = "exact",
) -> tuple:
    """(space, process, filtration) for the full path tree up to ``horizon``.

    Atoms are leaves in depth-first branch order (first-listed branch first),
    weights are products of branch probabilities (summing to 1 exactly in
    exact mode), the process tracks each path's value history, and the
    filtration is the natural one generated by those histories, read off the
    tree: F_n is generated by (f_0, ..., f_n), which on a path tree is a
    function of the level-n node.  So each level-n node gets a class, the
    first-appearance number over the level of (its parent's class,
    ``_value_keys`` of its value), and leaf w's block in F_n is the class of
    its level-n ancestor.  Each node covers a contiguous run of leaves, in
    node order, so these labels are canonical as they stand.  It equals
    ``natural_filtration(process)``, the generic route, without a join.
    """
    horizon = integer(horizon, "horizon")
    _require_model(model)
    # level-by-level unroll in branch-digit order: per level the node values
    # and classes, and below the root each node's parent index
    states, weights = [model.start(mode)], [coerce_scalar(1, mode)]
    values, classes, parents = [[model.value(states[0], mode)]], [(0,)], []
    for n in range(1, horizon + 1):
        branches = model.transitions(n, mode)
        nxt, wgts, vals, parent = [], [], [], []
        for i, (state, wgt) in enumerate(zip(states, weights)):
            for p, s2 in branches(state):
                nxt.append(s2)
                wgts.append(wgt * p)
                vals.append(model.value(s2, mode))
                parent.append(i)
            if len(nxt) > EXHAUSTIVE_LEAF_CAP:
                raise ValueError(
                    f"path tree exceeds the {EXHAUSTIVE_LEAF_CAP}-leaf cap at depth {n}"
                )
        keys = _value_keys(vals, mode).tolist()
        classes.append(_first_appearance(zip(map(classes[-1].__getitem__, parent), keys)))
        values.append(vals)
        parents.append(np.array(parent, dtype=np.intp))
        states, weights = nxt, wgts
    # leaf w's level-n ancestor, from the leaves upward: one gather per level
    # for the row (an object array keeps each value as it is) and the labels
    ancestor = np.arange(len(weights))
    rows, steps = [None] * (horizon + 1), [None] * (horizon + 1)
    for n in range(horizon, -1, -1):
        rows[n] = tuple(np.array(values[n], dtype=object)[ancestor].tolist())
        steps[n] = Partition(tuple(np.array(classes[n])[ancestor].tolist()))
        if n:
            ancestor = parents[n - 1][ancestor]
    # products of coerced probabilities are already the mode's scalars
    space = FiniteMeasureSpace(tuple(weights), mode)
    f = Process(values=tuple(rows), mode=mode)
    return space, f, Filtration(tuple(steps), Partition.singletons(len(weights)))


# ---------------------------------------------------------------------------
# Seeded simulation
# ---------------------------------------------------------------------------


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial; independent of scheduling."""
    key = [integer(seed, "seed", 0, _SEED_MAX), integer(trial, "trial", 0, _SEED_MAX)]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


# Philox4x64-10 (Salmon et al., SC'11) as numpy implements it: round
# multipliers, Weyl key increments, and the 53-bit double conversion.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Horizons up to this cut are drawn by ``_philox_uniforms``, longer ones by
# the re-keyed C generator (see the module docstring for why 40).
_VECTOR_RNG_MAX_HORIZON = 40
# Counter blocks per pass of the array kernel, bounding its temporaries.
_PHILOX_CHUNK_BLOCKS = 1 << 14


def _mulhilo(m: int, x: np.ndarray) -> tuple:
    """(low, high) 64-bit words of the 128-bit product m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    t = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
    w = (t & _LO32) + x_lo * m_hi
    return x * np.uint64(m), x_hi * m_hi + (t >> _SHIFT32) + (w >> _SHIFT32)


def _philox_uniforms(seed: int, start: int, count: int, horizon: int) -> np.ndarray:
    """``trial_rng(seed, start+i).random(horizon)`` for every i, as one array.

    The stream of trial t is Philox4x64-10 with key [seed, t] run over the
    counters (1, 0, 0, 0), (2, 0, 0, 0), ...; each counter block yields four
    64-bit words, and word u becomes the double (u >> 11) * 2**-53.
    """
    out = np.empty((count, horizon), dtype=np.float64)
    n_blocks = -(-horizon // 4)
    if n_blocks == 0:
        return out
    rows = max(1, _PHILOX_CHUNK_BLOCKS // n_blocks)
    ctr = np.arange(1, n_blocks + 1, dtype=np.uint64)[None, :]
    for r0 in range(0, count, rows):
        n = min(rows, count - r0)
        trial_key = (np.arange(n, dtype=np.uint64) + np.uint64(start + r0))[:, None]
        zero = np.zeros((n, 1), dtype=np.uint64)
        x0, x1, x2, x3 = ctr, zero, zero, zero
        for r in range(10):
            k0 = np.uint64((seed + r * _PHILOX_W[0]) & _U64)
            k1 = trial_key + np.uint64((r * _PHILOX_W[1]) & _U64)
            lo0, hi0 = _mulhilo(_PHILOX_M[0], x0)
            lo1, hi1 = _mulhilo(_PHILOX_M[1], x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        words = np.stack((x0, x1, x2, x3), axis=-1).reshape(n, 4 * n_blocks)[:, :horizon]
        out[r0 : r0 + n] = (words >> np.uint64(11)) * (1.0 / (1 << 53))
    return out


def _uniform_block(seed: int, start: int, count: int, horizon: int) -> np.ndarray:
    """U[i, t] = t-th uniform of trial start+i, drawn from its own stream.

    Row i equals ``trial_rng(seed, start + i).random(horizon)`` bit for bit.
    Horizons <= ``_VECTOR_RNG_MAX_HORIZON`` are drawn for the whole block at
    once by the in-house Philox4x64-10 ``_philox_uniforms``.  Longer horizons
    build one ``trial_rng(seed, start)`` per call and re-key it for each
    trial: key [seed, start + i], counter 0 and an empty buffer are the state
    of a freshly built ``trial_rng(seed, start + i)``, so ``random(out=row)``
    then draws that trial's stream without building a generator.  The
    generator is local to the call, so concurrent callers share nothing.
    Per 1024-trial block (ms, 2-core Xeon; see the module docstring):

        horizon   kernel      one generator per trial   re-keyed
        32        2.7-3.1     21-23                     2.9-3.1
        200       8.3-13.3    13-26                     2.6-5.5
        4096      -           56-75                     38-52
    """
    if horizon <= _VECTOR_RNG_MAX_HORIZON:
        return _philox_uniforms(seed, start, count, horizon)
    out = np.empty((count, horizon), dtype=np.float64)
    gen = trial_rng(seed, start)
    key = [seed, start]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in range(count):
        key[1] = start + i
        gen.bit_generator.state = fresh
        gen.random(out=out[i])
    return out


def _run_blocks(work: Callable[[int, int], object], trials: int, block_size: int) -> list:
    """``work(start, count)`` for consecutive blocks of ``block_size`` trials,
    run in trial order on the calling thread."""
    block_size = integer(block_size, "block_size", 1)
    return [work(s, min(block_size, trials - s)) for s in range(0, trials, block_size)]


@dataclass(frozen=True)
class TrajectoryBatch:
    values: np.ndarray  # (trials, horizon + 1) float64
    config: RunConfig

    @property
    def trials(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[1] - 1


def simulate(model: TrajectoryModel, config: RunConfig) -> TrajectoryBatch:
    """Full trajectory array; per-trial streams keyed by (seed, trial)."""
    _require_model(model)
    values = model.sample(_uniform_block(config.seed, 0, config.trials, config.horizon))
    return TrajectoryBatch(values=values, config=config)


def count_upcrossings_batch(paths: np.ndarray, a: float, b: float, N: Optional[int] = None) -> np.ndarray:
    """Upcrossings of (a, b) completed strictly before N, per trajectory row.

    ``paths`` is a 2-D numpy array of shape (trials, horizon + 1); anything
    else raises ValueError.  The counts equal ``upcrossings_before`` on each
    row, for a >= b too, and are read from run starts of the masks "value <=
    a" and "value >= b" in one pass over the block, with no loop over time.
    Besides the counts, the pass holds at most 3 bytes per entry of
    ``paths[:, :N]`` (the bool and int8 masks), then 14 bytes per run start
    (an int64 index, its label and its pair masks).  A run start at every
    entry is the worst case, so the count stays below the 24 bytes per entry
    (uniforms, steps and output) that the sampler holds for a block; on a
    ``FairWalk`` block it peaks at the masks' 3.  Band edges are float
    scalars: NaN and +-inf raise, where their comparisons would count no
    upcrossing at all.  N goes through ``scalars.integer`` in 0..horizon, as
    ``upcrossings_before``'s does.
    """
    if not (isinstance(paths, np.ndarray) and paths.ndim == 2 and paths.shape[1] >= 1):
        shape = getattr(paths, "shape", type(paths).__name__)
        raise ValueError(f"paths must be a 2-D array of shape (trials, horizon + 1), got {shape}")
    a, b = coerce_scalar(a, "float"), coerce_scalar(b, "float")
    horizon = paths.shape[1] - 1
    N = integer(horizon if N is None else N, "N", 0, horizon)
    return _count_upcrossings_runs(paths, a, b, N)


@dataclass(frozen=True)
class TrajectoryStats:
    """Per-trial summaries, trial-indexed arrays in trial order."""

    config: RunConfig
    final: np.ndarray  # value at the horizon
    sup_abs: np.ndarray  # sup_n |f_n|
    window: Optional[int]
    window_osc: Optional[np.ndarray]  # max - min over the last `window` values
    bands: tuple
    band_counts: dict  # (a, b) -> int64 array of upcrossing counts
    checkpoint_values: None = field(default=None, init=False)  # see RunConfig.checkpoint_schedule


def simulate_stats(
    model: TrajectoryModel,
    config: RunConfig,
    window: Optional[int] = None,
    bands: Sequence[tuple] = (),
    block_size: int = 1024,
    workers: int = 1,
) -> TrajectoryStats:
    """Blockwise simulation keeping only summaries.

    Equal results for every ``block_size``: each trial's stream depends only
    on (seed, trial index), and each block writes its trials' summaries into
    their slice of one preallocated trial-indexed array per summary.  Blocks,
    and any model callbacks, run on the calling thread; ``workers`` is
    accepted for compatibility and ignored.
    """
    trials, horizon = config.trials, config.horizon
    if window is not None:
        window = integer(window, "window", 1, horizon + 1)
    _require_model(model)
    bands = tuple((coerce_scalar(a, "float"), coerce_scalar(b, "float")) for a, b in bands)
    final, sup_abs = np.empty(trials), np.empty(trials)
    window_osc = None if window is None else np.empty(trials)
    band_counts = {band: np.empty(trials, dtype=np.int64) for band in bands}

    def work(start, count):
        paths = model.sample(_uniform_block(config.seed, start, count, horizon))
        block = slice(start, start + count)
        final[block] = paths[:, -1]
        sup_abs[block] = np.abs(paths).max(axis=1)
        if window is not None:
            tail = paths[:, horizon + 1 - window :]
            window_osc[block] = tail.max(axis=1) - tail.min(axis=1)
        for (a, b), counts in band_counts.items():
            counts[block] = count_upcrossings_batch(paths, a, b)

    _run_blocks(work, trials, block_size)
    return TrajectoryStats(
        config=config,
        final=final,
        sup_abs=sup_abs,
        window=window,
        window_osc=window_osc,
        bands=bands,
        band_counts=band_counts,
    )
