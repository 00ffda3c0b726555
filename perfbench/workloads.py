"""The benchmark's four workloads, as job lists rebuilt for every pass.

``build(workload, seed, pass_idx, tracer, workdir)`` makes one pass's inputs
(that is the set-up the benchmark times) and returns its jobs.  A job's
``run`` makes the timed public-API calls, through ``tracer.call`` so that a
traced run records a span around each one; its ``check`` verifies the output
against the independent references in ``checks`` outside the timed region.
Inputs derive from (seed, pass index) only, and every parameter a pass draws
is distinct from the other passes of the run, so no pass reuses another's
inputs through a memo.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import martkit as mk
import numpy as np
from martkit import cli

import checks

# nproc on the reference box; the one thread-pool job never asks for more
POOL_WORKERS = 2


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]  # previous outputs by job name -> output
    check: Callable[[object, dict], list]  # output, all outputs -> problems
    steps: int  # atom-steps (path-space workloads) or trial-steps (Monte Carlo)
    float_fmt: str | None = None  # rounding applied before digesting


class Draw:
    """Per-pass parameters.  ``pick`` walks a per-run permutation, so passes
    of one run never repeat a value; ``rng`` varies freely inside a pass."""

    def __init__(self, seed: int, workload: str, pass_idx: int) -> None:
        self.seed, self.workload, self.pass_idx = seed, workload, pass_idx
        self.rng = random.Random(f"{seed}:{workload}:{pass_idx}")

    def pick(self, key: str, n: int) -> int:
        perm = random.Random(f"{self.seed}:{self.workload}:{key}").sample(range(n), n)
        return perm[self.pass_idx % n]

    def stream_seed(self) -> int:
        return self.rng.getrandbits(63)


def _problems(*pairs) -> list:
    """``(ok, message)`` pairs -> messages of the failed ones."""
    return [msg for ok, msg in pairs if not ok]


# ---------------------------------------------------------------------------
# Path-space workloads: exact_paths and float_paths
# ---------------------------------------------------------------------------


class PathSpace:
    """One exhaustive path space with what its checks need to know."""

    def __init__(self, tracer, label, model, horizon, mode, drift, kind) -> None:
        self.label, self.horizon, self.drift, self.kind = label, horizon, drift, kind
        self.space, self.f, self.F = tracer.call(
            "montecarlo.exhaustive_space", mk.exhaustive_space, model, horizon, mode,
            work={"leaves": 2**horizon},
        )
        self.atoms = self.space.atom_count
        self.steps = self.atoms * (horizon + 1)

    def row(self, n: int) -> tuple:
        return self.f.values[n]


def _path_space_jobs(d: Draw, tracer, workdir: Path, exact: bool) -> list:
    mode = "exact" if exact else "float"
    num = Fraction if exact else (lambda a, b: a / b)
    fmt = None if exact else "%.6g"
    call = tracer.call
    horizon = 9 if exact else 12  # 512 or 4096 atoms per space

    step = num(2 * d.pick("step", 64) + 1, 16)
    p_up = num(2 * (256 + d.pick("p_up", 128)) + 1, 1024)  # in (1/2, 3/4)
    red = 1 + d.pick("urn", 63)
    spaces = {
        "fair": PathSpace(tracer, "fair", mk.FairWalk(step=step), horizon, mode, 0,
                          mk.MartingaleClass.MARTINGALE),
        "biased": PathSpace(tracer, "biased", mk.BiasedWalk(p_up=p_up), horizon, mode,
                            2 * p_up - 1, mk.MartingaleClass.SUBMARTINGALE),
        "polya": PathSpace(tracer, "polya", mk.PolyaUrn(red, 64 - red), horizon, mode, 0,
                           mk.MartingaleClass.MARTINGALE),
    }
    fair, biased = spaces["fair"], spaces["biased"]
    rng = d.rng
    jobs: list[Job] = []

    # condexp and its projection twin, on the step-3 partition (8 blocks)
    for key, ps in spaces.items():
        def run_ce(outs, ps=ps):
            args = (ps.space, ps.f.at(ps.horizon), ps.F.steps[3])
            return (call("condexp.condexp", mk.condexp, *args, work={"atoms": ps.atoms}),
                    call("condexp.condexp_l2", mk.condexp_l2, *args, work={"atoms": ps.atoms}))

        def check_ce(out, outs):
            return _problems((checks.all_close(out[0].values, out[1].values, exact),
                              "condexp differs from condexp_l2"))

        jobs.append(Job(f"condexp_{key}", run_ce, check_ce, ps.steps, fmt))

    # classification: all pairs on the fair walk, consecutive pairs on each space
    def run_all(outs):
        return call("processes.classify_all", mk.classify, fair.space, fair.f, fair.F,
                  pairs="all", work={"atom_steps": fair.steps})

    def check_all(out, outs):
        cons = outs.get("classify_consecutive_fair")
        return _problems((out.kind is fair.kind, f"fair walk classified {out.kind}"),
                         (cons is not None and cons.kind is out.kind,
                          "pairs='all' and pairs='consecutive' disagree"))

    for key, ps in spaces.items():
        def run_cons(outs, ps=ps):
            return call("processes.classify_consecutive", mk.classify, ps.space, ps.f, ps.F,
                      pairs="consecutive", work={"atom_steps": ps.steps})

        def check_cons(out, outs, ps=ps):
            return _problems((out.kind is ps.kind, f"{ps.label} classified {out.kind}"))

        jobs.append(Job(f"classify_consecutive_{key}", run_cons, check_cons, ps.steps, fmt))
    jobs.append(Job("classify_all_fair", run_all, check_all, fair.steps, fmt))

    # Doob decomposition: f = m + p, and p_n = n * drift
    for key, ps in spaces.items():
        def run_doob(outs, ps=ps):
            return call("processes.doob_decomposition", mk.doob_decomposition, ps.space,
                      ps.f, ps.F, work={"atom_steps": ps.steps})

        def check_doob(out, outs, ps=ps):
            m, p = out.martingale_part.values, out.predictable_part.values
            rebuilt = all(
                (mv + pv == fv) if exact else checks.close(mv + pv, fv, False)
                for mrow, prow, frow in zip(m, p, ps.f.values)
                for mv, pv, fv in zip(mrow, prow, frow)
            )
            drift = all(checks.close(pv, n * ps.drift, exact)
                        for n, prow in enumerate(p) for pv in prow)
            return _problems((rebuilt, "f != m + p"), (drift, "predictable part off its drift"))

        jobs.append(Job(f"doob_{key}", run_doob, check_doob, ps.steps, fmt))

    # optional stopping on the fair walk: tau = first hit of +step by H//2
    level = step
    tau = tuple(
        next((n for n in range(fair.horizon // 2 + 1) if fair.row(n)[w] >= level),
             fair.horizon // 2)
        for w in range(fair.atoms)
    )
    tau_st = mk.StoppingTime.of(tau)
    sigma_st = mk.StoppingTime.constant(fair.horizon, fair.atoms)

    def run_stop(outs):
        return call("stopping.optional_stopping", mk.check_optional_stopping, fair.space,
                  fair.f, fair.F, tau_st, sigma_st,
                  classification=outs["classify_consecutive_fair"])

    def check_stop(out, outs):
        w = fair.space.weights
        lhs = checks.weighted_sum(w, [fair.row(tau[a])[a] for a in range(fair.atoms)])
        rhs = checks.weighted_sum(w, fair.row(fair.horizon))
        return _problems((out.holds and out.equality_holds, "optional stopping fails"),
                         (checks.close(out.lhs, lhs, exact) and checks.close(out.rhs, rhs, exact),
                          "stopped expectations differ from direct sums"))

    jobs.append(Job("optional_stopping_fair", run_stop, check_stop, fair.steps, fmt))

    # maximal inequality on the biased walk (a submartingale)
    lam = 1 + rng.randrange(3)
    n_max = biased.horizon

    def run_max(outs):
        return call("convergence.maximal_inequality", mk.check_maximal_inequality,
                  biased.space, biased.f, biased.F, n_max, lam,
                  classification=outs["classify_consecutive_biased"])

    def check_max(out, outs):
        w = biased.space.weights
        hit = [max(biased.row(k)[a] for k in range(n_max + 1)) >= lam
               for a in range(biased.atoms)]
        mass = checks.weighted_sum(w, [1 if h else 0 for h in hit])
        rhs = checks.weighted_sum(w, [v if h else 0 for v, h in zip(biased.row(n_max), hit)])
        return _problems((out.holds, "maximal inequality fails"),
                         (checks.close(out.lhs, lam * mass, exact)
                          and checks.close(out.rhs, rhs, exact),
                          "maximal inequality sides differ from direct sums"))

    jobs.append(Job("maximal_inequality_biased", run_max, check_max, biased.steps, fmt))

    # Levy upward on a random g over the fair walk's atoms
    g_vals = [num(rng.randrange(-64, 65), 8) for _ in range(fair.atoms)]
    g = mk.RandomVariable.from_values(g_vals, mode)

    def run_levy(outs):
        return call("convergence.levy_upward", mk.check_levy_upward, fair.space, g, fair.F)

    def check_levy(out, outs):
        w = fair.space.weights
        mean = checks.weighted_sum(w, g_vals)
        d0 = checks.weighted_sum(w, [abs(v - mean) for v in g_vals])
        return _problems((out.final_zero, "d_horizon is not 0"),
                         (checks.close(out.d[0], d0, exact), "d_0 differs from E|g - E g|"))

    jobs.append(Job("levy_upward_fair", run_levy, check_levy, fair.steps, fmt))

    # predictable sum of the biased walk's up-step events: p_n = n * p_up
    ups = [frozenset()] + [
        frozenset(a for a in range(biased.atoms) if biased.row(n)[a] > biased.row(n - 1)[a])
        for n in range(1, biased.horizon + 1)
    ]
    events = mk.EventSequence(tuple(ups), biased.F)

    def run_psum(outs):
        return call("borel_cantelli.predictable_sum", mk.predictable_sum, biased.space, events)

    def check_psum(out, outs):
        ok = all(checks.close(v, n * p_up, exact) for n, row in enumerate(out.values) for v in row)
        return _problems((ok, "predictable sum differs from n * p_up"))

    jobs.append(Job("predictable_sum_biased", run_psum, check_psum, biased.steps, fmt))

    # crossings, shared input: one space, a band grid, every N
    bands = [mk.Band(-x * step, y * step)
             for x, y in ((num(1, 2), num(1, 2)), (num(1, 2), num(3, 2)),
                          (num(3, 2), num(1, 2)), (num(3, 2), num(5, 2)))]
    grid = [(band, N) for band in bands for N in range(fair.horizon + 1)]
    sample = rng.sample(range(len(grid)), 3)

    def run_shared(outs):
        cls = outs["classify_consecutive_fair"]
        return [
            call("crossings.upcrossing_estimate", mk.check_upcrossing_estimate, fair.space,
               band, fair.f, fair.F, N, classification=cls,
               work={"path_steps": fair.steps})
            for band, N in grid
        ]

    def check_shared(out, outs):
        problems = _problems((all(r.holds for r in out), "upcrossing estimate fails"))
        w = fair.space.weights
        paths = [fair.f.path(a) for a in range(fair.atoms)]
        for i in sample:
            band, N = grid[i]
            counts = [checks.upcrossings_before(p, band.a, band.b, N) for p in paths]
            lhs = (band.b - band.a) * checks.weighted_sum(w, counts)
            rhs = checks.weighted_sum(w, [max(p[N] - band.a, 0) for p in paths])
            problems += _problems(
                (tuple(counts) == mk.upcrossings_before(band, fair.f, N),
                 f"upcrossings_before differs from the state machine at N={N}"),
                (checks.close(out[i].lhs, lhs, exact) and checks.close(out[i].rhs, rhs, exact),
                 f"estimate sides differ from direct sums at N={N}"),
            )
        return problems

    jobs.append(Job("crossings_shared_fair", run_shared, check_shared,
                    fair.steps, fmt))

    def run_table(outs):
        return call("crossings.crossing_table", mk.crossing_table, bands[1], fair.f,
                  fair.horizon, work={"path_steps": fair.steps})

    def check_table(out, outs):
        band, N = bands[1], fair.horizon
        try:
            out.validate()
        except AssertionError as e:
            return [f"crossing table invalid: {e}"]
        counts = [sum(1 for k in range(1, len(out.sigma)) if out.sigma[k][a] < N)
                  for a in range(fair.atoms)]
        want = [checks.upcrossings_before(fair.f.path(a), band.a, band.b, N)
                for a in range(fair.atoms)]
        return _problems((counts == want, "crossing table counts differ from the state machine"))

    jobs.append(Job("crossing_table_fair", run_table, check_table, fair.steps, fmt))

    # crossings, fresh input: band translation on random paths
    fresh_h = 30
    moves = [num(k, 8) for k in (-3, -1, 1, 3)]
    fresh_paths = []
    for _ in range(200 if exact else 400):  # float: keep it clear of the classify jobs
        v = num(0, 1)
        path = [v]
        for _ in range(fresh_h):
            v = v + rng.choice(moves)
            path.append(v)
        fresh_paths.append(mk.Process.from_path(path, mode))
    fresh_band = mk.Band(num(-1, 8), num(3, 8))
    fresh_sample = rng.sample(range(len(fresh_paths)), 10)

    def run_fresh(outs):
        return [
            call("crossings.band_translation", mk.band_translation_identity, fresh_band, p,
               work={"path_steps": fresh_h + 1})
            for p in fresh_paths
        ]

    def check_fresh(out, outs):
        problems = _problems((all(r.holds for r in out), "band translation identity fails"))
        for i in fresh_sample:
            p = fresh_paths[i]
            want = checks.upcrossings_before(p.path(0), fresh_band.a, fresh_band.b, fresh_h)
            problems += _problems(
                (mk.upcrossings_before(fresh_band, p, fresh_h) == (want,),
                 f"upcrossings_before differs from the state machine on path {i}"))
        return problems

    jobs.append(Job("crossings_fresh_paths", run_fresh, check_fresh,
                    len(fresh_paths) * (fresh_h + 1), fmt))

    # analyst's modulus: exhaustive subset search, cross-checked by branch-and-bound
    items = 16 if exact else 20
    ui_space = mk.FiniteMeasureSpace.from_weights([num(1, items)] * items, mode)
    # odd numerators keep every w * |f| at denominator 128, so the Fraction
    # sums cost the same on every seed
    member = mk.RandomVariable.from_values(
        [num(2 * rng.randrange(128) + 1, 8) for _ in range(items)], mode)
    family = mk.FunctionFamily.of(ui_space, [member], 1)
    delta = num(rng.randrange(items // 4, items // 2), items)

    def run_analyst(outs):
        return call("uniform_integrability.analyst_modulus", mk.analyst_modulus, family, delta,
                  work={"items": items})

    def check_analyst(out, outs):
        bb = mk.analyst_modulus(family, delta, force_method="branch_bound")
        return _problems((checks.close(out, bb, exact, 1e-12),
                          "exhaustive analyst modulus differs from branch-and-bound"))

    jobs.append(Job("analyst_modulus", run_analyst, check_analyst, items, fmt))

    if exact:
        jobs.append(_cli_check_job(d, tracer, workdir))
    return jobs


def _read_csvs(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def _cli_job(tracer, name: str, argv: list, out_dir: Path, steps: int) -> Job:
    """One in-process ``martkit <argv>`` call; its output is (exit code, CSVs)."""

    def run(outs):
        work: dict = {}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = tracer.call(name, cli.main, argv, work=work)
        csvs = _read_csvs(out_dir)
        work["csv_bytes"] = sum(len(b) for b in csvs.values())
        return code, csvs

    def check(out, outs):
        code, csvs = out
        return _problems((code == 0, f"martkit {argv[0]} exited {code}"),
                         (bool(csvs), f"martkit {argv[0]} wrote no CSV"))

    return Job(name.replace(".", "_"), run, check, steps)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _cli_check_job(d: Draw, tracer, workdir: Path) -> Job:
    """``martkit check`` on the shipped exact suite, its walk step drawn per pass."""
    doc = json.loads((Path(cli.__file__).parent / "scenarios" / "exact_suite.json").read_text())
    doc["model"]["step"] = f"{2 * d.pick('suite_step', 32) + 1}/8"
    base = _fresh_dir(workdir / "check")
    scenario = base / "exact_suite.json"
    scenario.write_text(json.dumps(doc))
    out_dir = base / "out"
    horizon = doc["model"]["horizon"]
    return _cli_job(tracer, "cli.check", ["check", str(scenario), "--out-dir", str(out_dir)],
                    out_dir, 2**horizon * (horizon + 1))


def exact_paths(d: Draw, tracer, workdir: Path) -> list:
    return _path_space_jobs(d, tracer, workdir, exact=True)


def float_paths(d: Draw, tracer, workdir: Path) -> list:
    return _path_space_jobs(d, tracer, workdir, exact=False)


# ---------------------------------------------------------------------------
# Monte Carlo workloads: mc_short and mc_long
# ---------------------------------------------------------------------------


def _sampled_trials(rng: random.Random, trials: int) -> list:
    return sorted({0, trials - 1, *rng.sample(range(trials), 3)})


def _stats_job(tracer, name, model, config, path_of, rng, span="montecarlo.simulate_stats",
               **kwargs) -> Job:
    """simulate_stats, checked on sampled trials redrawn from their Philox streams."""
    sampled = _sampled_trials(rng, config.trials)
    work = {"rng_streams": config.trials, "trial_steps": config.trials * config.horizon}

    def run(outs):
        return tracer.call(span, mk.simulate_stats, model, config, work=work, **kwargs)

    def check(out, outs):
        problems = []
        window = kwargs.get("window")
        for t in sampled:
            path = path_of(checks.philox_uniforms(config.seed, t, config.horizon))
            ok = out.final[t] == path[-1] and out.sup_abs[t] == max(abs(v) for v in path)
            if window is not None:
                tail = path[-window:]
                ok = ok and out.window_osc[t] == max(tail) - min(tail)
            for (a, b), counts in out.band_counts.items():
                ok = ok and counts[t] == checks.upcrossings_before(path, a, b, config.horizon)
            if not ok:
                problems.append(f"trial {t} differs from its redrawn Philox stream")
        return problems

    return Job(name, run, check, config.trials * config.horizon)


def _bc_job(tracer, name, probs, trials, seed, cut, tail_start) -> Job:
    """check_borel_cantelli on independent events; block 0 is recomputed."""
    horizon = len(probs)
    model = mk.IndependentEvents(prob_schedule=tuple(probs))

    def run(outs):
        return tracer.call("borel_cantelli.check_borel_cantelli", mk.check_borel_cantelli,
                           model, horizon, trials, seed, cut, tail_start,
                           work={"rng_streams": trials})

    def check(out, outs):
        p = np.array(probs, dtype=np.float64)
        count = min(1000, trials)
        u = np.stack([checks.philox_uniforms(seed, t, horizon) for t in range(count)])
        tail_hit = (u < p[None, :])[:, tail_start - 1:].any(axis=1)
        matched = int((tail_hit == (float(p.sum()) >= cut)).sum())
        return _problems((out.trials == trials and out.blocks[0][1] == matched / count,
                          "block 0 match fraction differs from the redrawn streams"))

    return Job(name, run, check, trials * horizon)


def mc_short(d: Draw, tracer, workdir: Path) -> list:
    rng = d.rng
    trials = 50_000
    p_up = (2 * (64 + d.pick("p_up", 64)) + 1) / 256  # in (1/2, 3/4)
    walk = partial(checks.walk_path, p_up=0.5, step=1.0)
    biased = partial(checks.walk_path, p_up=p_up, step=1.0)
    jobs = [
        _stats_job(tracer, "stats_fair_bands", mk.FairWalk(),
                   mk.RunConfig(d.stream_seed(), trials, 32), walk, rng,
                   bands=[(-1.5, 1.5), (-0.5, 2.5)]),
        _stats_job(tracer, "stats_biased_window", mk.BiasedWalk(p_up=p_up),
                   mk.RunConfig(d.stream_seed(), trials, 32), biased, rng, window=8),
    ]

    sim_cfg = mk.RunConfig(d.stream_seed(), trials, 24)
    sim_rows = _sampled_trials(rng, trials)

    def run_sim(outs):
        batch = tracer.call("montecarlo.simulate", mk.simulate, mk.FairWalk(), sim_cfg)
        counts = tracer.call("montecarlo.count_upcrossings_batch", mk.count_upcrossings_batch,
                             batch.values, -1.0, 1.0)
        return batch.values, counts

    def check_sim(out, outs):
        values, counts = out
        problems = []
        for t in sim_rows:
            path = walk(checks.philox_uniforms(sim_cfg.seed, t, sim_cfg.horizon))
            if list(values[t]) != path or counts[t] != checks.upcrossings_before(
                    path, -1.0, 1.0, sim_cfg.horizon):
                problems.append(f"trial {t} differs from its redrawn Philox stream")
        return problems

    jobs.append(Job("simulate_and_count", run_sim, check_sim, trials * sim_cfg.horizon))
    prob = (1 + d.pick("bc_prob", 64)) / 128  # constant in (0, 1/2]
    jobs.append(_bc_job(tracer, "borel_cantelli_constant", [prob] * 32, trials,
                        d.stream_seed(), 32 * prob, 16))
    return jobs


def mc_long(d: Draw, tracer, workdir: Path) -> list:
    rng = d.rng
    red = 1 + d.pick("urn", 15)
    black = 16 - red
    urn = partial(checks.polya_path, red=float(red), black=float(black))
    walk = partial(checks.walk_path, p_up=0.5, step=1.0)
    polya_cfg = mk.RunConfig(d.stream_seed(), 1000, 10_000)
    polya = _stats_job(tracer, "polya_window", mk.PolyaUrn(red, black), polya_cfg, urn, rng,
                       window=500, block_size=250)
    workers = min(POOL_WORKERS, len(os.sched_getaffinity(0)))
    pooled = _stats_job(tracer, "polya_window_workers2", mk.PolyaUrn(red, black), polya_cfg,
                        urn, rng, span="montecarlo.simulate_stats_workers2", window=500,
                        block_size=250, workers=workers)
    pooled_check = pooled.check

    def check_pooled(out, outs):
        single = outs.get("polya_window")
        same = single is not None and all(
            np.array_equal(getattr(out, k), getattr(single, k))
            for k in ("final", "sup_abs", "window_osc"))
        return pooled_check(out, outs) + _problems(
            (same, f"workers={workers} differs from workers=1"))

    pooled.check = check_pooled
    jobs = [
        polya,
        pooled,
        _stats_job(tracer, "fair_bands_long", mk.FairWalk(),
                   mk.RunConfig(d.stream_seed(), 2000, 4096), walk, rng,
                   bands=[(-2.0, 2.0), (0.0, 4.0)]),
    ]
    scale = 0.5 + d.pick("bc_scale", 64) / 128  # P(event n) = scale / n^2
    jobs.append(_bc_job(tracer, "borel_cantelli_inverse_square",
                        [scale / (n * n) for n in range(1, 4001)], 2000, d.stream_seed(),
                        1.0, 2000))

    # Vitali: spikes scaled by a per-pass factor (decay verdicts are scale-free)
    spike = 1 + d.pick("spike_scale", 64) / 64
    for name, family, decays in (("vitali_shrinking_spike", mk.shrinking_spike_family, True),
                                 ("vitali_fixed_mass_spike", mk.fixed_mass_spike_family, False)):
        space, members, limit = family(400)
        members = [mk.RandomVariable(tuple(spike * v for v in m.values), "float")
                   for m in members]

        def run_vitali(outs, space=space, members=members, limit=limit):
            return tracer.call("uniform_integrability.vitali_empirical", mk.vitali_empirical,
                               space, members, limit, 1, len(members))

        def check_vitali(out, outs, space=space, members=members, decays=decays):
            lp = [checks.weighted_sum(space.weights, [abs(v) for v in m.values])
                  for m in members]
            return _problems(
                (out.lp_decay is decays and out.consistent, "Vitali verdict wrong"),
                (checks.all_close(out.lp_curve, lp, False, 1e-12),
                 "L1 curve differs from direct sums"))

        jobs.append(Job(name, run_vitali, check_vitali, len(members) * space.atom_count))

    suite = Path(cli.__file__).parent / "scenarios" / "mc_suite.json"
    doc = json.loads(suite.read_text())
    steps = sum(c.get("trials", 0) * c.get("horizon", 0) for c in doc["checks"])
    out_dir = _fresh_dir(workdir / "run")
    jobs.append(_cli_job(tracer, "cli.run", ["run", str(suite), "--seed", str(d.stream_seed()),
                                             "--out-dir", str(out_dir)], out_dir, steps))
    return jobs


WORKLOADS = {
    "exact_paths": exact_paths,
    "float_paths": float_paths,
    "mc_short": mc_short,
    "mc_long": mc_long,
}


def build(workload: str, seed: int, pass_idx: int, tracer, workdir: Path) -> list:
    return WORKLOADS[workload](Draw(seed, workload, pass_idx), tracer, workdir)
