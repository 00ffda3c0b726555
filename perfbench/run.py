"""martkit benchmark: four closed-loop workloads, end-to-end and per layer.

Usage, from the root of a martkit checkout:

    python3 perfbench/run.py --workload exact_paths --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --record-digests

One client runs one workload's job list pass after pass, each public-API call
issued after the previous one returned, until ``--seconds`` have passed.
Every pass builds fresh inputs from (seed, pass index); that build is the
set-up.  Outputs are verified after each pass, outside the timed region, and
for the default seed the first passes are also compared with the committed
digests in ``digests.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, taken from
spans the benchmark records around its own calls into each martkit module.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# pin BLAS / OpenMP pools before numpy loads: the only threads are the
# single workers=2 Monte Carlo job's
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / "_work"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 1
DIGEST_PASSES = 2

# passes every run makes at least, whatever --seconds says.  The tail
# percentile is 1 - 10 / (jobs per pass x MIN_PASSES): at least ten jobs lie
# beyond it, and it sits 10 / MIN_PASSES = 2.5 jobs below the top of one
# pass's sorted latencies, mid-way inside a job type rather than on the edge
# between two, on every run
MIN_PASSES = 4
STEP_KIND = {"exact_paths": "atom", "float_paths": "atom", "mc_short": "trial", "mc_long": "trial"}

# the JSON result's end-to-end metrics; "ref" is one reference-kernel time
END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "steps_per_ref": "1/ref", "job_p50_ref": "ref",
    "job_tail_ref": "ref", "peak_rss_mb": "MiB",
}

# per-layer metrics: (name, unit, how) where how is ("busy", span names),
# ("calls", span-name prefix) or ("work", span names, counter)
PER_LAYER = [
    ("montecarlo.exhaustive_space.busy_s", "s", ("busy", ["montecarlo.exhaustive_space"])),
    ("montecarlo.exhaustive_space.calls", "count", ("calls", "montecarlo.exhaustive_space")),
    ("montecarlo.exhaustive_space.leaves", "count",
     ("work", ["montecarlo.exhaustive_space"], "leaves")),
    ("condexp.condexp.busy_s", "s", ("busy", ["condexp.condexp"])),
    ("condexp.condexp.calls", "count", ("calls", "condexp.condexp")),
    ("condexp.condexp.atoms", "count", ("work", ["condexp.condexp"], "atoms")),
    ("condexp.condexp_l2.busy_s", "s", ("busy", ["condexp.condexp_l2"])),
    ("processes.classify_all.busy_s", "s", ("busy", ["processes.classify_all"])),
    ("processes.classify_consecutive.busy_s", "s", ("busy", ["processes.classify_consecutive"])),
    ("processes.doob_decomposition.busy_s", "s", ("busy", ["processes.doob_decomposition"])),
    ("processes.calls", "count", ("calls", "processes.")),
    ("processes.atom_steps", "count",
     ("work", ["processes.classify_all", "processes.classify_consecutive",
               "processes.doob_decomposition"], "atom_steps")),
    ("crossings.upcrossing_estimate.busy_s", "s", ("busy", ["crossings.upcrossing_estimate"])),
    ("crossings.band_translation.busy_s", "s", ("busy", ["crossings.band_translation"])),
    ("crossings.crossing_table.busy_s", "s", ("busy", ["crossings.crossing_table"])),
    ("crossings.calls", "count", ("calls", "crossings.")),
    ("crossings.path_steps", "count",
     ("work", ["crossings.upcrossing_estimate", "crossings.band_translation",
               "crossings.crossing_table"], "path_steps")),
    ("stopping.optional_stopping.busy_s", "s", ("busy", ["stopping.optional_stopping"])),
    ("stopping.calls", "count", ("calls", "stopping.")),
    ("convergence.maximal_inequality.busy_s", "s", ("busy", ["convergence.maximal_inequality"])),
    ("convergence.levy_upward.busy_s", "s", ("busy", ["convergence.levy_upward"])),
    ("convergence.calls", "count", ("calls", "convergence.")),
    ("uniform_integrability.analyst_modulus.busy_s", "s",
     ("busy", ["uniform_integrability.analyst_modulus"])),
    ("uniform_integrability.analyst_modulus.items", "count",
     ("work", ["uniform_integrability.analyst_modulus"], "items")),
    ("uniform_integrability.vitali_empirical.busy_s", "s",
     ("busy", ["uniform_integrability.vitali_empirical"])),
    ("borel_cantelli.check_borel_cantelli.busy_s", "s",
     ("busy", ["borel_cantelli.check_borel_cantelli"])),
    ("borel_cantelli.check_borel_cantelli.rng_streams", "count",
     ("work", ["borel_cantelli.check_borel_cantelli"], "rng_streams")),
    ("borel_cantelli.predictable_sum.busy_s", "s", ("busy", ["borel_cantelli.predictable_sum"])),
    ("montecarlo.simulate_stats.busy_s", "s", ("busy", ["montecarlo.simulate_stats"])),
    ("montecarlo.simulate_stats.calls", "count", ("calls", "montecarlo.simulate_stats")),
    ("montecarlo.simulate_stats.rng_streams", "count",
     ("work", ["montecarlo.simulate_stats", "montecarlo.simulate_stats_workers2"],
      "rng_streams")),
    ("montecarlo.simulate_stats.trial_steps", "count",
     ("work", ["montecarlo.simulate_stats", "montecarlo.simulate_stats_workers2"],
      "trial_steps")),
    ("montecarlo.simulate_stats_workers2.busy_s", "s",
     ("busy", ["montecarlo.simulate_stats_workers2"])),
    ("montecarlo.simulate.busy_s", "s", ("busy", ["montecarlo.simulate"])),
    ("montecarlo.count_upcrossings_batch.busy_s", "s",
     ("busy", ["montecarlo.count_upcrossings_batch"])),
    ("cli.check.busy_s", "s", ("busy", ["cli.check"])),
    ("cli.run.busy_s", "s", ("busy", ["cli.run"])),
    ("cli.csv_bytes", "count", ("work", ["cli.check", "cli.run"], "csv_bytes")),
]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(STEP_KIND))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help=f"run {DIGEST_PASSES} passes of every workload on the default "
                         "seed and write digests.json")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record_digests:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def _import_martkit():
    """Import martkit from this checkout's src/, never from elsewhere."""
    if not (SRC / "martkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no martkit sources at {SRC}; run from a martkit checkout")
    sys.path.insert(0, str(SRC))
    import martkit

    if Path(martkit.__file__).resolve().parent != (SRC / "martkit").resolve():
        raise SystemExit(f"perfbench: martkit imported from {martkit.__file__}, not {SRC}")
    return martkit


def _import_seconds() -> float:
    """Median over three fresh interpreters of the time to import martkit."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import martkit; print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _stamp(seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "seed": seed,
    }


class Reference:
    """A fixed kernel that uses no martkit code; its time is the unit of the
    ``*_ref`` metrics.  The box's speed drifts by a quarter within minutes,
    and dividing each pass's latencies by a reference time sampled between
    that pass's jobs cancels most of the drift.  The kernel mixes the kinds
    of work the workloads do: Fraction arithmetic, reads scattered over a
    heap larger than the caches, per-trial Philox streams and numpy path
    sums."""

    HEAP = 300_000

    def __init__(self) -> None:
        rnd = random.Random(5)
        self.heap = [rnd.random() for _ in range(self.HEAP)]
        for _ in range(3):  # the first calls run slow while caches warm up
            self.seconds()

    def seconds(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 800):
            acc += Fraction(k % 7 + 1, k % 11 + 3) * Fraction(3, 8)
        total = 0.0
        for i in range(33_000):
            total += self.heap[(i * 7919) % self.HEAP]
        for t in range(200):
            np.random.Generator(np.random.Philox(key=np.array([5, t], dtype=np.uint64))).random(32)
        u = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64))).random(
            (200, 500))
        for _ in range(3):
            np.cumsum(np.where(u < 0.5, 1.0, -1.0), axis=1)
        return time.perf_counter() - t0


def _run_pass(workloads, checks, reference, workload, seed, idx, tracer, want_digests=False):
    """Build, run and verify one pass.  Returns its record and, when asked
    for, the digest of every job's output.  The reference kernel runs before
    the first job and after every job; the pass's reference time is the
    median of those samples."""
    tracer.pass_idx = idx
    gc.collect()
    t0 = time.perf_counter()
    jobs = workloads.build(workload, seed, idx, tracer, WORKDIR)
    setup = time.perf_counter() - t0
    outs, latency, problems = {}, {}, {}
    ref = [reference.seconds()]
    for job in jobs:
        start = tracer.open_job(f"{idx}:{job.name}")
        try:
            outs[job.name] = job.run(outs)
        except Exception:
            problems[job.name] = ["raised: " + traceback.format_exc(limit=3)]
        latency[job.name] = tracer.close_job(start)
        ref.append(reference.seconds())
    digests = {}
    for job in jobs:
        if job.name in problems:
            continue
        try:
            found = job.check(outs[job.name], outs)
            if want_digests:
                digests[job.name] = checks.digest(outs[job.name], job.float_fmt)
        except Exception:
            found = ["check raised: " + traceback.format_exc(limit=3)]
        if found:
            problems[job.name] = found
    record = {
        "idx": idx, "traced": tracer.enabled, "setup": setup, "latency": latency,
        "ref": statistics.median(ref), "problems": problems,
        "steps": sum(j.steps for j in jobs), "jobs": len(jobs),
    }
    return record, digests


def _layer_metrics(spans, idx) -> dict:
    mine = [s for s in spans if s.pass_idx == idx and s.name != "bench.job"]
    out = {}
    for name, _unit, how in PER_LAYER:
        if how[0] == "busy":
            out[name] = sum(s.duration for s in mine if s.name in how[1])
        elif how[0] == "calls":
            out[name] = sum(1 for s in mine if s.name.startswith(how[1]))
        else:
            out[name] = sum(s.work.get(how[2], 0) for s in mine if s.name in how[1])
    return out


def _pass_time(records, unit=lambda r: 1.0) -> float:
    """One pass's time, as the sum over its jobs of each job's median
    latency across the passes, each latency divided by ``unit(pass)``.
    Steadier than the median pass on a box whose speed drifts within a run."""
    names = records[0]["latency"]
    return sum(statistics.median(r["latency"][n] / unit(r) for r in records) for n in names)


def _nearest_rank(sorted_values, q: float) -> float:
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def main(argv=None) -> int:
    args = _parse(argv)
    _import_martkit()
    sys.path.insert(0, str(BENCH))
    import checks
    import workloads
    from spans import Tracer

    WORKDIR.mkdir(exist_ok=True)
    reference = Reference()
    if args.record_digests:
        return _record_digests(workloads, checks, reference, Tracer)

    stamp = _stamp(args.seed)
    expected = {}
    if args.seed == DEFAULT_SEED and DIGESTS.is_file():
        expected = json.loads(DIGESTS.read_text())["workloads"].get(args.workload, [])

    import_s = _import_seconds()
    tracer = Tracer()
    records = []
    deadline = time.perf_counter() + args.seconds
    while len(records) < MIN_PASSES or time.perf_counter() < deadline:
        idx = len(records)
        tracer.enabled = bool(args.trace) and idx % 2 == 1
        record, digests = _run_pass(workloads, checks, reference, args.workload, args.seed, idx,
                                    tracer, want_digests=idx < len(expected))
        if idx < len(expected):
            for name, want in expected[idx].items():
                if name not in record["problems"] and digests.get(name) != want:
                    record["problems"][name] = [f"digest {digests.get(name)} != committed {want}"]
        records.append(record)
        if len(records) == MIN_PASSES:
            # later passes only add allocator drift, and their number varies
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    attempted = sum(r["jobs"] for r in records)
    failed = sum(len(r["problems"]) for r in records)
    steps = plain[0]["steps"]
    n_nominal = plain[0]["jobs"] * MIN_PASSES
    seconds = sorted(v for r in plain for v in r["latency"].values())
    in_ref = sorted(v / r["ref"] for r in plain for v in r["latency"].values())
    q_tail = max(0.5, 1 - 10 / min(n_nominal, len(seconds)))
    wall = _pass_time(plain)
    wall_ref = _pass_time(plain, lambda r: r["ref"])
    e2e = {
        "setup_s": import_s + statistics.median(r["setup"] for r in records),
        "wall_ref": wall_ref,
        "steps_per_ref": steps / wall_ref,
        "job_p50_ref": _nearest_rank(in_ref, 0.5),
        "job_tail_ref": _nearest_rank(in_ref, q_tail),
        "peak_rss_mb": peak_rss,
    }

    print(f"# perfbench workload={args.workload} trace={args.trace} passes={len(records)} "
          + " ".join(f"{k}={json.dumps(v)}" for k, v in stamp.items()))
    for r in records:
        for name, found in r["problems"].items():
            print(f"FAILED pass {r['idx']} job {name}: {'; '.join(found)}")
    n_note = f"n={len(seconds)}"
    tail_note = f"p{100 * q_tail:.1f}, n={len(seconds)}"
    rows = [
        ("setup_s", e2e["setup_s"], "s", f"import {import_s:.4f} s + median pass set-up"),
        ("wall_s", wall, "s", f"sum of job medians over {len(plain)} untraced passes"),
        (f"{STEP_KIND[args.workload]}_steps_per_s", steps / wall, "1/s", f"{steps} steps per pass"),
        ("job_p50_ms", 1e3 * _nearest_rank(seconds, 0.5), "ms", n_note),
        ("job_tail_ms", 1e3 * _nearest_rank(seconds, q_tail), "ms", tail_note),
        ("peak_rss_mb", peak_rss, "MiB", f"ru_maxrss after {MIN_PASSES} passes"),
        ("fail_ratio", failed / attempted, "-", f"{failed}/{attempted} jobs"),
        ("ref_ms", 1e3 * statistics.median(r["ref"] for r in plain), "ms",
         "median reference-kernel time, the unit of the *_ref metrics"),
        ("wall_ref", wall_ref, "ref", "wall_s in reference-kernel times"),
        ("steps_per_ref", e2e["steps_per_ref"], "1/ref", ""),
        ("job_p50_ref", e2e["job_p50_ref"], "ref", n_note),
        ("job_tail_ref", e2e["job_tail_ref"], "ref", tail_note),
    ]
    for name, value, unit, note in rows:
        print(f"{name:22s} {value:14.6g} {unit:5s} {note}")

    if args.trace:
        layer = {name: statistics.median(_layer_metrics(tracer.spans, r["idx"])[name]
                                         for r in traced)
                 for name, _u, _h in PER_LAYER}
        layer["bench.trace_overhead_ratio"] = _pass_time(traced, lambda r: r["ref"]) / wall_ref
        units = {name: unit for name, unit, _h in PER_LAYER}
        units["bench.trace_overhead_ratio"] = "ratio"
        trace_file = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file, {**stamp, "workload": args.workload, "metrics": layer})
        for name, value in layer.items():
            print(f"{name:50s} {value:14.6g} {units[name]}")
        print(f"# spans: {trace_file.relative_to(ROOT)}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _record_digests(workloads, checks, reference, Tracer) -> int:
    table = {}
    for workload in sorted(STEP_KIND):
        table[workload] = []
        for idx in range(DIGEST_PASSES):
            record, digests = _run_pass(workloads, checks, reference, workload, DEFAULT_SEED,
                                        idx, Tracer(), want_digests=True)
            if record["problems"]:
                print(f"{workload} pass {idx}: {record['problems']}", file=sys.stderr)
                return 1
            table[workload].append(digests)
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "passes": DIGEST_PASSES,
                                   "workloads": table}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
