"""Independent reference implementations used to cross-check the package.

These deliberately share no code with ``martkit`` internals: the upcrossing
counter is a two-state scanner, the sigma/tau chain is the N-bounded
recursion that rescans the path for every bound (the package ranks the times
its vectorised state machine records and clips them at N), the analyst modulus is plain subset enumeration, and the
stopping-time check walks partition blocks by hand.

The filtration-wide references below are the per-pair atom loops that
``classify``, ``doob_decomposition``, ``check_levy_upward``,
``check_l1_convergence_b``, ``predictable_sum`` and
``borel_cantelli_martingale`` ran before their blockwise kernel: one public
``condexp`` call per time pair, then one subtraction and comparison per atom.

The summation references (``left_to_right`` and the sides built on it) add
one term at a time from zero, in ascending atom order and over only the
atoms a set or condition selects, as ``martkit`` did before every integral,
mass and norm went through one weighted-sum helper that sums 0/1 masks over
all atoms.

``probabilist_by_atoms``, ``bridging_norms_by_atoms`` and ``vitali_curves_by_atoms``
are the per-member, per-atom forms that the uniform integrability checks took
before float families read one (members x atoms) matrix: each member is
truncated or restricted value by value and normed by ``lp_norm``.

``limit_estimate_by_atoms`` and ``norm_curve_by_rows`` are the forms that
``limit_process_estimate`` and the norm curves of ``fatou_norm_check`` and
``check_l1_convergence_a`` took before they read the process's twin: each
atom's tail compared value by value, and one random variable per time normed
by ``lp_norm``.

``hitting_by_scan``, ``hitting_unbounded_by_scan`` and ``stopped_by_atoms``
are the forms the stopping layer took before it read the process's twin:
each atom's path scanned time by time against the ends of the target set,
compared as stored values, and each stopped value looked up one atom and one
time at a time.

``polya_sample_by_columns`` and ``walk_sample_by_select`` are the Monte Carlo
samplers that ``PolyaUrn`` and ``BiasedWalk`` used before their time-major
and select-free forms: the urn keeps float red and black counts and divides
by their sum one strided column at a time, and the walk picks each step with
``np.where``.

The lattice references work on sets of atom sets, grouped by hand from the
labels, never on a block table: ``join_blocks`` keeps the nonempty pairwise
intersections, ``meet_blocks`` the connected components of the overlapping
blocks, ``refines`` asks whether every Q-block lies inside a P-block, and
``canonical_labels`` numbers the blocks by their least atom.

``doob_facts_by_entries`` is the check the CLI ran on Doob's decomposition
before ``doob_witnesses`` decided it in the library: the martingale part
classified by the per-pair loops, the drift's blocks at step max(n - 1, 0)
grouped by hand, then one ``at_most`` per (time, positive-weight atom) and
one ``close`` per (time, atom), each scan stopping at its first failing
entry in row-major order.

``condexp_l2_dense`` is the dense Gram assembly that ``condexp_l2`` used
before it walked each atom's nonzero basis entries: k dense indicator
vectors and k^2 + k inner products over every atom.  It shares only
``_solve_linear`` with the package, so the two can be held bitwise equal.
"""

import struct
from fractions import Fraction
from itertools import combinations

import numpy as np

from martkit import (
    DEFAULT_FLOAT_TOL,
    INF,
    Classification,
    MartingaleClass,
    Partition,
    RandomVariable,
    RootValue,
    ae_witness,
    condexp,
    doob_decomposition,
    indicator,
    partition_le,
    snorm,
)
from martkit.condexp import _solve_linear
from martkit.scalars import at_most, close, zero


def upcrossings_state_machine(values, a, b, N):
    """Count completed a-to-b upcrossings watching only times 0..N-1.

    armed once the path is at or below a; a visit at or above b while armed
    completes one crossing and disarms.
    """
    count = 0
    armed = False
    for t in range(N):
        v = values[t]
        if not armed:
            if v <= a:
                armed = True
        elif v >= b:
            count += 1
            armed = False
    return count


def crossing_chain_recursion(values, a, b, N):
    """(sigmas, taus) of the N-bounded recursion on one path, by row until
    the sigma row repeats.

    sigma_0 = 0; tau_k is the first time in [sigma_k, N] with a value <= a,
    sigma_{k+1} the first time in [tau_k, N] with a value >= b, and each scan
    falls back to N.  Rows past the returned ones repeat the last.
    """

    def scan(hit, start):
        for j in range(start, N + 1):
            if hit(values[j]):
                return j
        return N

    sigmas, taus = [0], []
    while True:
        taus.append(scan(lambda v: v <= a, sigmas[-1]))
        sigmas.append(scan(lambda v: v >= b, taus[-1]))
        if sigmas[-1] == sigmas[-2]:
            return tuple(sigmas), tuple(taus)


def upcrossings_by_recursion(values, a, b, N):
    """Largest n in 0..N with sigma_n < N on the bounded chain (0 at N = 0)."""
    if N == 0:
        return 0
    sigmas, _ = crossing_chain_recursion(values, a, b, N)
    if sigmas[-1] < N:
        # stuck below N: every row stays below N (only when a >= b)
        return N
    return next(r for r, s in enumerate(sigmas) if s >= N) - 1


def brute_analyst_power(space, members, delta, p):
    """max over members and subsets A with mu(A) <= delta of integral |f|^p on A.

    Returns the p-th power of the modulus (exact Fraction), so callers
    compare without taking roots. Finite integer p only.
    """
    atoms = [w for w in range(space.atom_count) if space.weights[w] > 0]
    best = Fraction(0)
    for f in members:
        for r in range(len(atoms) + 1):
            for subset in combinations(atoms, r):
                mass = sum((space.weights[w] for w in subset), Fraction(0))
                if mass > delta:
                    continue
                total = sum(
                    (abs(Fraction(f.values[w])) ** p * space.weights[w] for w in subset),
                    Fraction(0),
                )
                if total > best:
                    best = total
    return best


def norm_power_equals(value, p, power):
    """Exact check that value**p == power for Fraction or RootValue values."""
    if isinstance(value, RootValue):
        # value = base**(1/root), so value**p == power iff base**p == power**root
        return Fraction(value.base) ** p == Fraction(power) ** value.root
    return Fraction(value) ** p == Fraction(power)


def stopping_time_oracle(tau_values, filtration):
    """{tau <= i} must be decided by step i, checked block by block."""
    for i in range(filtration.horizon + 1):
        for block in filtration.steps[i].blocks():
            hits = {tau_values[w] <= i for w in block}
            if len(hits) > 1:
                return False
    return True


def _in_target(v, low, high):
    return (low is None or low <= v) and (high is None or v <= high)


def hitting_by_scan(f, low, high, n, m):
    """Per atom the first j in n..m with low <= f_j <= high (a None end
    unbounded), else m."""
    out = []
    for w in range(f.atom_count):
        hits = [j for j in range(n, m + 1) if _in_target(f.values[j][w], low, high)]
        out.append(hits[0] if hits else m)
    return tuple(out)


def hitting_unbounded_by_scan(f, low, high, n):
    """Per atom the first j >= n with low <= f_j <= high, else INF."""
    out = []
    for w in range(f.atom_count):
        hits = [j for j in range(n, f.horizon + 1) if _in_target(f.values[j][w], low, high)]
        out.append(hits[0] if hits else INF)
    return tuple(out)


def stopped_by_atoms(f, times):
    """Rows k = 0..horizon of f_{min(tau, k)}, one atom at a time."""
    return tuple(
        tuple(f.values[min(t, k)][w] for w, t in enumerate(times)) for k in range(f.horizon + 1)
    )


def _key(v, mode):
    """Value equality: bit patterns in float mode (0.0 != -0.0), values in exact."""
    return struct.pack("<d", v) if mode == "float" else v


def condexp_gaps(space, f, F, i, j):
    """condexp(f_j | steps[i]) - f_i at every positive-weight atom, ascending."""
    ce = condexp(space, f.at(j), F.steps[i], F.ambient)
    return [c - v for c, v, w in zip(ce.values, f.values[i], space.weights) if w != 0]


def classify_by_pairs(space, f, F, pairs="all"):
    """Adaptedness block by block, then condexp(f_j | steps[i]) against f_i at
    every positive-weight atom, pairs in (i, j) order."""
    for n in range(f.horizon + 1):
        for block in F.steps[n].blocks():
            if len({_key(f.values[n][a], f.mode) for a in block}) > 1:
                return Classification(MartingaleClass.NONE, False, (n, block[0]), None, None)
    t = 0 if space.mode == "exact" else DEFAULT_FLOAT_TOL
    live = [atom for atom, w in enumerate(space.weights) if w != 0]
    sub = sup = None
    for i in range(f.horizon + 1):
        for j in range(i, f.horizon + 1 if pairs == "all" else min(i + 2, f.horizon + 1)):
            for atom, d in zip(live, condexp_gaps(space, f, F, i, j)):
                if sub is None and d < -t:
                    sub = (i, j, atom)
                if sup is None and d > t:
                    sup = (i, j, atom)
    kind = {
        (False, False): MartingaleClass.MARTINGALE,
        (False, True): MartingaleClass.SUBMARTINGALE,
        (True, False): MartingaleClass.SUPERMARTINGALE,
        (True, True): MartingaleClass.NONE,
    }[sub is not None, sup is not None]
    return Classification(kind, True, None, sub, sup)


def doob_by_steps(space, f, F):
    """(martingale rows, predictable rows): p_{n+1} = p_n + condexp(f_{n+1} | steps[n]) - f_n
    atom by atom, m = f - p."""
    acc = [Fraction(0) if f.mode == "exact" else 0.0] * f.atom_count
    pred = [tuple(acc)]
    for k in range(f.horizon):
        ce = condexp(space, f.at(k + 1), F.steps[k], F.ambient)
        acc = [a + c - v for a, c, v in zip(acc, ce.values, f.values[k])]
        pred.append(tuple(acc))
    mart = tuple(tuple(v - p for v, p in zip(fr, pr)) for fr, pr in zip(f.values, pred))
    return mart, tuple(pred)


def doob_facts_by_entries(space, f, F):
    """The four Doob facts of ``doob_decomposition(space, f, F) = (m, a)``, each
    as its first failing place or None: m's martingale witness, the first
    (n, first atom of a block) where a_n is not constant on a block of
    steps[max(n - 1, 0)], the first (n, positive-weight atom) with a_n below
    a_{n-1}, and the first (n, atom) where m + a and f differ."""
    dd = doob_decomposition(space, f, F)
    m, a = dd.martingale_part, dd.predictable_part
    live = space.positive_atoms()
    mart = classify_by_pairs(space, m, F).witness_against(MartingaleClass.MARTINGALE)
    pred = next(((n, block[0]) for n in range(a.horizon + 1) for block in F.steps[max(n - 1, 0)].blocks()
                 if len({_key(a.values[n][w], a.mode) for w in block}) > 1), None)
    falls = next(((n + 1, w) for n in range(a.horizon) for w in live
                  if not at_most(a.values[n][w], a.values[n + 1][w], f.mode)), None)
    differs = next(((n, w) for n in range(f.horizon + 1) for w in range(f.atom_count)
                    if not close(m.values[n][w] + a.values[n][w], f.values[n][w], f.mode)), None)
    return mart, pred, falls, differs


def levy_distances(space, g, F):
    """d_n = snorm(condexp(g | steps[n]) - g, 1) for n = 0..horizon."""
    return tuple(
        snorm(space, condexp(space, g, F.steps[n], F.ambient) - g, 1)
        for n in range(F.horizon + 1)
    )


def l1b_witness(space, f, F):
    """First (n, atom) where f_n and condexp(f_N | steps[n]) differ a.e."""
    last = f.at(f.horizon)
    for n in range(f.horizon + 1):
        w = ae_witness(space, f.at(n), condexp(space, last, F.steps[n], F.ambient), "eq")
        if w is not None:
            return (n, w)
    return None


def event_sums(space, S, compensated):
    """Running sums of condexp(1_{S_{k+1}} | steps[k]) (the predictable sum), or
    of the indicator minus it (the compensated count), atom by atom."""
    F = S.adapted_to
    n = F.atom_count
    acc = list(indicator(frozenset(), n, space.mode).values)
    rows = [tuple(acc)]
    for k in range(F.horizon):
        ind = indicator(frozenset(S.sets[k + 1]), n, space.mode)
        ce = condexp(space, ind, F.steps[k], F.ambient)
        if compensated:
            acc = [r + i - c for r, i, c in zip(acc, ind.values, ce.values)]
        else:
            acc = [r + c for r, c in zip(acc, ce.values)]
        rows.append(tuple(acc))
    return tuple(rows)


def condexp_l2_dense(space, f, sub, ambient=None):
    """condexp_l2 by dense normal equations: one indicator tuple per block of
    ``sub``, every Gram entry and right side summed over all atoms."""
    n = space.atom_count
    if len(f) != n:
        raise ValueError("f does not live on the space")
    if not partition_le(sub, Partition.singletons(n) if ambient is None else ambient):
        raise ValueError("sub is not a sub-sigma-algebra of ambient")
    basis = [indicator(b, n, space.mode) for b in sub.block_sets()]
    k = len(basis)

    def inner(u, v):
        return sum((w * a * b for w, a, b in zip(space.weights, u.values, v.values)), zero(space.mode))

    gram = [[inner(basis[i], basis[j]) for j in range(k)] for i in range(k)]
    rhs = [inner(f, basis[i]) for i in range(k)]
    coeff = _solve_linear(gram, rhs, space.mode)
    out = [zero(space.mode)] * n
    for c, b in zip(coeff, sub.blocks()):
        for a in b:
            out[a] = c
    return RandomVariable(tuple(out), space.mode)


def left_to_right(mode, terms):
    """The terms added one at a time from zero, in the order given."""
    acc = zero(mode)
    for t in terms:
        acc = acc + t
    return acc


def lp_norm(space, f, p):
    """snorm by its definition: the essential sup at p = inf, else the p-th
    root of the left-to-right sum of w * |v|^p."""
    mode = space.mode
    if p == INF:
        return max((abs(v) for w, v in zip(space.weights, f.values) if w > 0), default=zero(mode))
    if mode == "float":
        p = float(p)
    total = left_to_right(mode, (w * abs(v) ** p for w, v in zip(space.weights, f.values)))
    if mode == "float":
        return total ** (1.0 / p)
    root = RootValue.of(total, p)
    return root.as_fraction() if root.is_rational() else root


def limit_estimate_by_atoms(f, tol, window):
    """(values, converged atoms) of the windowed-oscillation estimator: an
    atom whose last ``window`` values span at most ``tol`` keeps its final
    value, every other atom gets 0."""
    values, converged = [], set()
    for w in range(f.atom_count):
        tail = [f.values[n][w] for n in range(f.horizon + 1 - window, f.horizon + 1)]
        if max(tail) - min(tail) <= tol:
            values.append(f.values[f.horizon][w])
            converged.add(w)
        else:
            values.append(zero(f.mode))
    return tuple(values), frozenset(converged)


def norm_curve_by_rows(space, f, p, limit=None):
    """``lp_norm`` of f_n - limit at every time n, with limit 0 when None."""
    rows = [f.at(n) for n in range(f.horizon + 1)]
    if limit is not None:
        rows = [RandomVariable(tuple(x - y for x, y in zip(r.values, limit)), f.mode) for r in rows]
    return tuple(lp_norm(space, r, p) for r in rows)


def estimate_sides(space, a, b, f, N):
    """(lhs, rhs) of the upcrossing estimate at N: (b - a) times the integral
    of the recursion's counts, and the integral of (f_N - a)^+."""
    mode, w = space.mode, space.weights
    counts = [upcrossings_by_recursion(path, a, b, N) for path in zip(*f.values)]
    lhs = (b - a) * left_to_right(mode, (x * c for x, c in zip(w, counts)))
    rhs = left_to_right(mode, (x * max(v - a, zero(mode)) for x, v in zip(w, f.values[N])))
    return lhs, rhs


def estimate_sup_sides(space, a, b, f):
    """(coefficient, lhs, rhs) of the sup form: (b - a)^+, its product with
    the integral of the counts at the horizon, and the largest right side."""
    H = f.horizon
    coeff = b - a if b > a else zero(space.mode)
    counts = [upcrossings_by_recursion(path, a, b, H) for path in zip(*f.values)]
    counts_integral = left_to_right(space.mode, (x * c for x, c in zip(space.weights, counts)))
    rhs = max(estimate_sides(space, a, b, f, N)[1] for N in range(H + 1))
    return coeff, coeff * counts_integral, rhs


def maximal_sides(space, f, n, level):
    """(mass, lhs, rhs) of the maximal inequality, summing over the atoms
    whose running maximum up to n reaches the level, in ascending order."""
    hit = [w for w in range(f.atom_count) if max(f.values[k][w] for k in range(n + 1)) >= level]
    mass = left_to_right(space.mode, (space.weights[w] for w in hit))
    rhs = left_to_right(space.mode, (space.weights[w] * f.values[n][w] for w in hit))
    return mass, level * mass, rhs


def probabilist_by_atoms(space, members, p, C):
    """The largest norm of a member truncated to {|f| >= C}, each truncated
    value by value and normed by ``lp_norm``; 0 when there is no member."""
    mode = space.mode
    best = zero(mode)
    for f in members:
        cut = RandomVariable(tuple(v if abs(v) >= C else zero(mode) for v in f.values), mode)
        norm = lp_norm(space, cut, p)
        if norm > best:
            best = norm
    return best


def bridging_norms_by_atoms(space, members, C, A):
    """(||f 1_A||_1, ||f 1_{|f| >= C}||_1) per member, each restricted or
    truncated value by value and normed by ``lp_norm``."""
    mode = space.mode
    rows = []
    for f in members:
        inside = RandomVariable(tuple(v if w in A else zero(mode) for w, v in enumerate(f.values)), mode)
        cut = RandomVariable(tuple(v if abs(v) >= C else zero(mode) for v in f.values), mode)
        rows.append((lp_norm(space, inside, 1), lp_norm(space, cut, 1)))
    return tuple(rows)


def vitali_curves_by_atoms(space, members, g, p):
    """(in_measure, c_grid, ui_modulus_curve, lp_curve) of ``vitali_empirical``
    at eps = 1/2: the differences f - g value by value, the mass of
    {|f - g| > eps} summed over only the atoms it holds, and the UI curve over
    C = 0, 1, 2, 4, ... up to the largest |value| of any member."""
    mode = space.mode
    one = Fraction(1) if mode == "exact" else 1.0
    eps = one / 2
    diffs = [RandomVariable(tuple(x - y for x, y in zip(f.values, g.values)), mode) for f in members]
    in_measure = tuple(
        left_to_right(mode, (w for w, v in zip(space.weights, d.values) if abs(v) > eps)) for d in diffs
    )
    largest = max([abs(v) for f in members for v in f.values] + [zero(mode)])
    grid, c = [zero(mode)], one
    while c <= largest and len(grid) < 40:
        grid.append(c)
        c = c * 2
    ui = tuple((c, probabilist_by_atoms(space, members, p, c)) for c in grid)
    return (in_measure,), tuple(grid), ui, tuple(lp_norm(space, d, p) for d in diffs)


def polya_sample_by_columns(u, initial_red, initial_black):
    """Polya urn proportions, (trials, horizon + 1), one column per step."""
    count, horizon = u.shape
    out = np.empty((count, horizon + 1), dtype=np.float64)
    r = np.full(count, float(initial_red))
    b = np.full(count, float(initial_black))
    out[:, 0] = r / (r + b)
    for t in range(horizon):
        red = u[:, t] < r / (r + b)
        r += red
        b += ~red
        out[:, t + 1] = r / (r + b)
    return out


def walk_sample_by_select(u, p_up, step):
    """Walk paths from 0 whose step t is +step where u < p_up, else -step."""
    step = float(step)
    out = np.empty((u.shape[0], u.shape[1] + 1), dtype=np.float64)
    out[:, 0] = 0.0
    np.cumsum(np.where(u < float(p_up), step, -step), axis=1, out=out[:, 1:])
    return out


def blocks_of_labels(labels):
    """The blocks of a labelling: the sets of atoms that share a label."""
    groups = {}
    for a, label in enumerate(labels):
        groups.setdefault(label, set()).add(a)
    return {frozenset(g) for g in groups.values()}


def level_sets(values, mode):
    """The blocks on which values are equal, under ``_key`` equality."""
    return blocks_of_labels([_key(v, mode) for v in values])


def canonical_labels(blocks, n):
    """Each atom's block index, the blocks numbered by their least atom."""
    out = [None] * n
    for i, block in enumerate(sorted(blocks, key=min)):
        for a in block:
            out[a] = i
    return tuple(out)


def join_blocks(P, Q):
    """The common refinement: the nonempty intersections of a P-block and a Q-block."""
    return {b & c for b in P for c in Q if b & c}


def meet_blocks(P, Q):
    """The finest common coarsening: the connected components of the blocks
    of P and Q, two blocks linked when they share an atom."""
    components = []
    for block in P | Q:
        merged = set(block)
        apart = []
        for c in components:
            if c & merged:
                merged |= c
            else:
                apart.append(c)
        components = apart + [merged]
    return {frozenset(c) for c in components}


def refines(P, Q):
    """P <= Q: every Q-block lies inside a P-block."""
    return all(any(c <= b for b in P) for c in Q)


def natural_filtration_blocks(rows, mode, ambient):
    """Per time n, the level sets of rows 0..n joined, then met with ambient."""
    current, steps = {frozenset(range(len(rows[0])))}, []
    for row in rows:
        current = join_blocks(current, level_sets(row, mode))
        steps.append(meet_blocks(current, ambient))
    return steps
