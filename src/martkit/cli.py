"""Scenario-driven command line front end.

Scenarios are JSON files naming a mode, an instance (a trajectory model to
unroll, or explicit space/process/filtration documents), and a list of check
descriptors.  Each descriptor maps to exactly one library operation; the
runner executes them in order, writes one CSV per check plus a summary, and
exits 0 only when every check passes.  Exit 1 means a check failed; exit 2
means the scenario or flags were malformed.

All CSV output is deterministic for a fixed scenario and seed: header row,
'.' decimal separator, rationals as p/q strings in exact mode, no
timestamps, LF line endings.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import io
import json
import os
import re
import sys
from fractions import Fraction
from importlib import resources
from typing import Optional

import numpy as np

from .borel_cantelli import check_borel_cantelli
from .condexp import check_set_integral_characterization, condexp_agreement_witness
from .convergence import (
    ae_convergence_diagnostic,
    check_l1_convergence_b,
    check_levy_upward,
    check_maximal_inequality,
)
from .crossings import (
    Band,
    band_translation_identity,
    check_upcrossing_estimate,
    check_upcrossing_estimate_sup,
    crossing_table,
    upcrossings_before,
)
from .measure import FiniteMeasureSpace, Partition, RandomVariable
from .montecarlo import (
    BiasedWalk,
    FairWalk,
    IndependentEvents,
    PolyaUrn,
    RunConfig,
    _VECTOR_RNG_MAX_HORIZON,
    _philox_uniforms,
    exhaustive_space,
    simulate_stats,
    trial_rng,
)
from .processes import (
    Filtration,
    MartingaleClass,
    Process,
    classify,
    doob_decomposition,
    is_predictable,
    natural_filtration,
)
from .scalars import Mode
from .serialize import (
    SerializationError,
    decode_scalar,
    filtration_from_json,
    partition_from_json,
    process_from_json,
    rv_from_json,
    space_from_json,
    stopping_from_json,
)
from .stopping import check_optional_stopping
from .uniform_integrability import (
    FunctionFamily,
    check_bridging_inequality,
    check_p_monotonicity,
    fixed_mass_spike_family,
    shrinking_spike_family,
    ui_moduli,
    vitali_empirical,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_-]*$")


class ConfigError(Exception):
    """Scenario or flag problem; maps to exit code 2."""


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (Fraction, int)):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if x is None:
        return ""
    if isinstance(x, (np.floating, np.integer)):
        return repr(x.item())
    try:
        return repr(float(x))  # root values and other exact irrationals
    except (TypeError, ValueError):
        return str(x)


def _write_csv(dest, header, rows) -> None:
    """Write header and formatted rows to ``dest``, a path or an open text stream."""
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            return _write_csv(fh, header, rows)
    w = csv.writer(dest, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(c) for c in row])


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None


# ---------------------------------------------------------------------------
# scenario context: mode, seed, and lazily built instances
# ---------------------------------------------------------------------------


def _build_model(doc, mode: Mode, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: model must be an object")
    kind = doc.get("kind")
    try:
        if kind == "fair_walk":
            return FairWalk(step=decode_scalar(doc.get("step", 1), mode, f"{path}.step"))
        if kind == "biased_walk":
            if "p_up" not in doc:
                raise ConfigError(f"{path}: biased_walk requires 'p_up'")
            return BiasedWalk(
                p_up=decode_scalar(doc["p_up"], mode, f"{path}.p_up"),
                step=decode_scalar(doc.get("step", 1), mode, f"{path}.step"),
            )
        if kind == "polya":
            return PolyaUrn(
                initial_red=int(doc.get("initial_red", 1)),
                initial_black=int(doc.get("initial_black", 1)),
            )
        if kind == "independent":
            if "schedule" in doc:
                name = doc["schedule"]
                if name == "inverse_square":
                    return IndependentEvents(prob_schedule=lambda n: 1.0 / (n * n))
                raise ConfigError(f"{path}.schedule: unknown schedule {name!r}")
            if "prob" not in doc:
                raise ConfigError(f"{path}: independent requires 'prob' or 'schedule'")
            p = decode_scalar(doc["prob"], mode, f"{path}.prob")
            return IndependentEvents(prob_schedule=lambda n: p)
    except SerializationError as e:
        raise ConfigError(str(e)) from None
    raise ConfigError(f"{path}.kind: unknown model kind {kind!r}")


class _Context:
    """Scenario-wide instance store; exhaustive unrolls happen on demand."""

    def __init__(self, doc: dict, src: str, mode: Mode, seed) -> None:
        self.doc = doc
        self.src = src
        self.mode = mode
        self.seed = seed
        self._built = None

    def model(self, doc=None, mode: Mode = "float"):
        d = doc if doc is not None else self.doc.get("model")
        if d is None:
            raise ConfigError(f"{self.src}: $.model: no model given")
        return _build_model(d, mode, "$.model")

    def instances(self):
        """(space, process, filtration), built from explicit docs or by
        unrolling the scenario model."""
        if self._built is not None:
            return self._built
        doc = self.doc
        try:
            if "space" in doc:
                space = space_from_json(doc["space"], "$.space")
                if space.mode != self.mode:
                    raise ConfigError(f"{self.src}: $.space.mode: does not match scenario mode")
                process = None
                if "process" in doc:
                    process = process_from_json(doc["process"], self.mode, "$.process")
                filtration = None
                if "filtration" in doc:
                    filtration = filtration_from_json(doc["filtration"], "$.filtration")
                elif process is not None:
                    filtration = natural_filtration(process)
            elif "model" in doc:
                model = self.model(mode=self.mode)
                horizon = doc["model"].get("horizon")
                if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
                    raise ConfigError(f"{self.src}: $.model.horizon: need a natural horizon")
                space, process, filtration = exhaustive_space(model, horizon, mode=self.mode)
            else:
                raise ConfigError(f"{self.src}: scenario gives neither 'space' nor 'model'")
        except SerializationError as e:
            raise ConfigError(f"{self.src}: {e}") from None
        except ValueError as e:
            raise ConfigError(f"{self.src}: {e}") from None
        self._built = (space, process, filtration)
        return self._built

    def space(self) -> FiniteMeasureSpace:
        return self.instances()[0]

    def process(self) -> Process:
        p = self.instances()[1]
        if p is None:
            raise ConfigError(f"{self.src}: this check needs a process")
        return p

    def filtration(self) -> Filtration:
        F = self.instances()[2]
        if F is None:
            raise ConfigError(f"{self.src}: this check needs a filtration")
        return F


# parameter resolution helpers; all raise ConfigError with a JSON path


def _resolve_rv(ctx: _Context, params: dict, key: str, path: str) -> RandomVariable:
    if key in params:
        try:
            return rv_from_json(params[key], ctx.mode, f"{path}.{key}")
        except SerializationError as e:
            raise ConfigError(str(e)) from None
    at_key = f"{key}_at"
    if at_key in params:
        n = params[at_key]
        proc = ctx.process()
        if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= proc.horizon:
            raise ConfigError(f"{path}.{at_key}: time out of range 0..{proc.horizon}")
        return proc.at(n)
    raise ConfigError(f"{path}: needs '{key}' or '{at_key}'")


def _resolve_process(ctx: _Context, params: dict, path: str) -> Process:
    if "process" in params:
        try:
            return process_from_json(params["process"], ctx.mode, f"{path}.process")
        except SerializationError as e:
            raise ConfigError(str(e)) from None
    return ctx.process()


def _resolve_filtration(ctx: _Context, params: dict, path: str) -> Filtration:
    if "filtration" in params:
        try:
            return filtration_from_json(params["filtration"], f"{path}.filtration")
        except SerializationError as e:
            raise ConfigError(str(e)) from None
    if "process" in params:
        return natural_filtration(_resolve_process(ctx, params, path))
    return ctx.filtration()


def _resolve_sub(ctx: _Context, params: dict, path: str) -> Partition:
    if "sub" in params:
        try:
            return partition_from_json(params["sub"], f"{path}.sub")
        except SerializationError as e:
            raise ConfigError(str(e)) from None
    if "sub_step" in params:
        k = params["sub_step"]
        F = ctx.filtration()
        if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= F.horizon:
            raise ConfigError(f"{path}.sub_step: step out of range 0..{F.horizon}")
        return F.steps[k]
    raise ConfigError(f"{path}: needs 'sub' or 'sub_step'")


def _resolve_band(ctx: _Context, params: dict, path: str) -> Band:
    doc = params.get("band")
    if doc is None:
        raise ConfigError(f"{path}: needs 'band'")
    if isinstance(doc, list) and len(doc) == 2:
        doc = {"a": doc[0], "b": doc[1]}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}.band: expected [a, b] or {{'a':, 'b':}}")
    try:
        a = decode_scalar(doc.get("a"), ctx.mode, f"{path}.band.a")
        b = decode_scalar(doc.get("b"), ctx.mode, f"{path}.band.b")
    except SerializationError as e:
        raise ConfigError(str(e)) from None
    return Band(a=a, b=b)


def _resolve_scalar(ctx: _Context, params: dict, key: str, path: str, default=None):
    if key not in params:
        if default is None:
            raise ConfigError(f"{path}: needs '{key}'")
        return default
    try:
        return decode_scalar(params[key], ctx.mode, f"{path}.{key}")
    except SerializationError as e:
        raise ConfigError(str(e)) from None


def _resolve_int(params: dict, key: str, path: str, default=None, minimum=0) -> int:
    if key not in params:
        if default is None:
            raise ConfigError(f"{path}: needs '{key}'")
        return default
    v = params[key]
    if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
        raise ConfigError(f"{path}.{key}: expected an integer >= {minimum}")
    return v


_BUILTIN_FAMILIES = {
    "shrinking_spike": shrinking_spike_family,
    "fixed_mass_spike": fixed_mass_spike_family,
}


def _resolve_family(ctx: _Context, params: dict, path: str):
    """FunctionFamily plus the builtin's limit rv (None for inline families)."""
    doc = params.get("family")
    if doc is None:
        raise ConfigError(f"{path}: needs 'family'")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}.family: expected an object")
    p = _resolve_scalar(ctx, doc, "p", f"{path}.family", default=1)
    if "builtin" in doc:
        name = doc["builtin"]
        if name not in _BUILTIN_FAMILIES:
            raise ConfigError(f"{path}.family.builtin: unknown family {name!r}")
        horizon = _resolve_int(doc, "horizon", f"{path}.family", minimum=1)
        space, members, limit = _BUILTIN_FAMILIES[name](horizon, mode=ctx.mode)
        return FunctionFamily.of(space, members, p=p), limit
    if "members" not in doc:
        raise ConfigError(f"{path}.family: needs 'builtin' or 'members'")
    rows = doc["members"]
    if not isinstance(rows, list):
        raise ConfigError(f"{path}.family.members: expected an array of value rows")
    space = ctx.space()
    members = []
    for i, row in enumerate(rows):
        members.append(
            rv_from_json({"values": row}, ctx.mode, f"{path}.family.members[{i}]")
        )
    try:
        return FunctionFamily.of(space, members, p=p), None
    except ValueError as e:
        raise ConfigError(f"{path}.family: {e}") from None


# ---------------------------------------------------------------------------
# check registry: op name -> handler binding one library operation
# ---------------------------------------------------------------------------


class CheckResult:
    def __init__(self, holds: bool, detail: str, header, rows) -> None:
        self.holds = holds
        self.detail = detail
        self.header = header
        self.rows = rows


_KIND_NAMES = {
    "martingale": MartingaleClass.MARTINGALE,
    "submartingale": MartingaleClass.SUBMARTINGALE,
    "supermartingale": MartingaleClass.SUPERMARTINGALE,
}


def _check_classify(ctx, params, path):
    asserted_name = params.get("assert")
    if asserted_name not in _KIND_NAMES:
        raise ConfigError(f"{path}.assert: expected one of {sorted(_KIND_NAMES)}")
    asserted = _KIND_NAMES[asserted_name]
    f = _resolve_process(ctx, params, path)
    F = _resolve_filtration(ctx, params, path)
    c = classify(ctx.space(), f, F)
    holds = c.is_at_least(asserted)
    rows = [("kind", c.kind.name.lower()), ("adapted", c.adapted), ("holds", holds)]
    detail = f"kind={c.kind.name.lower()}"
    if not holds:
        w = c.witness_against(asserted)
        if w is not None:
            rows.append(("witness", f"i={w[0]} j={w[1]} atom={w[2]}"))
            detail += f" witness=(i={w[0]}, j={w[1]}, atom={w[2]})"
    return CheckResult(holds, detail, ("field", "value"), rows)


def _check_condexp_agreement(ctx, params, path):
    f = _resolve_rv(ctx, params, "f", path)
    sub = _resolve_sub(ctx, params, path)
    w = condexp_agreement_witness(ctx.space(), f, sub)
    holds = w is None
    rows = [("holds", holds), ("witness_atom", w)]
    return CheckResult(holds, "agree a.e." if holds else f"disagree at atom {w}", ("field", "value"), rows)


def _check_set_integral(ctx, params, path):
    f = _resolve_rv(ctx, params, "f", path)
    sub = _resolve_sub(ctx, params, path)
    rep = check_set_integral_characterization(ctx.space(), f, sub)
    rows = [("holds", rep.holds), ("worst_block_gap", rep.worst_block_gap)]
    return CheckResult(rep.holds, f"worst_gap={_fmt(rep.worst_block_gap)}", ("field", "value"), rows)


def _check_upcrossing_estimate(ctx, params, path):
    band = _resolve_band(ctx, params, path)
    f = _resolve_process(ctx, params, path)
    F = _resolve_filtration(ctx, params, path)
    N = _resolve_int(params, "N", path, default=f.horizon)
    rep = check_upcrossing_estimate(ctx.space(), band, f, F, N)
    rows = [
        ("a", rep.a), ("b", rep.b), ("N", rep.N),
        ("lhs", rep.lhs), ("rhs", rep.rhs), ("holds", rep.holds),
    ]
    return CheckResult(rep.holds, f"lhs={_fmt(rep.lhs)} rhs={_fmt(rep.rhs)}", ("field", "value"), rows)


def _check_upcrossing_estimate_sup(ctx, params, path):
    band = _resolve_band(ctx, params, path)
    f = _resolve_process(ctx, params, path)
    F = _resolve_filtration(ctx, params, path)
    rep = check_upcrossing_estimate_sup(
        ctx.space(), band, f, F,
        check_classification=bool(params.get("check_classification", True)),
    )
    rows = [
        ("a", rep.a), ("b", rep.b), ("coefficient", rep.coefficient),
        ("lhs", rep.lhs), ("rhs", rep.rhs), ("argmax_n", rep.argmax_n), ("holds", rep.holds),
    ]
    return CheckResult(rep.holds, f"lhs={_fmt(rep.lhs)} rhs={_fmt(rep.rhs)}", ("field", "value"), rows)


def _check_band_translation(ctx, params, path):
    band = _resolve_band(ctx, params, path)
    f = _resolve_process(ctx, params, path)
    rep = band_translation_identity(band, f)
    rows = [("holds", rep.holds)]
    detail = "identity holds"
    if not rep.holds:
        N, w, x, y = rep.first_mismatch
        rows.append(("first_mismatch", f"N={N} atom={w} lhs={x} rhs={y}"))
        detail = f"mismatch at N={N}, atom {w}"
    return CheckResult(rep.holds, detail, ("field", "value"), rows)


_CROSSING_HEADER = ("atom", "n", "sigma", "tau")


def _crossings(band: Band, f: Process, N: int) -> tuple:
    """Validated crossing-table rows (atom, n, sigma_n, tau_n), atom by atom,
    and the per-atom upcrossing counts before N."""
    table = crossing_table(band, f, N)
    table.validate()
    rows = [
        (w, k, table.sigma[k][w], table.tau[k][w])
        for w in range(len(table.sigma[0]))
        for k in range(len(table.sigma))
    ]
    return rows, upcrossings_before(band, f, N)


def _check_crossing_table(ctx, params, path):
    band = _resolve_band(ctx, params, path)
    f = _resolve_process(ctx, params, path)
    N = _resolve_int(params, "N", path, default=f.horizon)
    rows, counts = _crossings(band, f, N)
    detail = "upcrossings=" + ",".join(str(c) for c in counts)
    return CheckResult(True, detail, _CROSSING_HEADER, rows)


def _check_optional_stopping(ctx, params, path):
    f = _resolve_process(ctx, params, path)
    F = _resolve_filtration(ctx, params, path)
    try:
        tau = stopping_from_json(params.get("tau"), f"{path}.tau")
        sigma = stopping_from_json(params.get("sigma"), f"{path}.sigma")
    except SerializationError as e:
        raise ConfigError(str(e)) from None
    rep = check_optional_stopping(ctx.space(), f, F, tau, sigma)
    rows = [
        ("lhs", rep.lhs), ("rhs", rep.rhs), ("holds", rep.holds),
        ("is_martingale", rep.is_martingale), ("equality_holds", rep.equality_holds),
    ]
    return CheckResult(rep.holds, f"lhs={_fmt(rep.lhs)} rhs={_fmt(rep.rhs)}", ("field", "value"), rows)


def _check_maximal_inequality(ctx, params, path):
    f = _resolve_process(ctx, params, path)
    F = _resolve_filtration(ctx, params, path)
    n = _resolve_int(params, "n", path, default=f.horizon)
    level = _resolve_scalar(ctx, params, "level", path)
    rep = check_maximal_inequality(ctx.space(), f, F, n, level)
    rows = [
        ("n", rep.n), ("level", rep.level), ("set_mass", rep.set_mass),
        ("lhs", rep.lhs), ("rhs", rep.rhs), ("holds", rep.holds),
    ]
    return CheckResult(rep.holds, f"lhs={_fmt(rep.lhs)} rhs={_fmt(rep.rhs)}", ("field", "value"), rows)


def _check_doob(ctx, params, path):
    f = _resolve_process(ctx, params, path)
    F = _resolve_filtration(ctx, params, path)
    dd = doob_decomposition(ctx.space(), f, F)
    m, a = dd.martingale_part, dd.predictable_part
    is_mart = classify(ctx.space(), m, F).kind == MartingaleClass.MARTINGALE
    pred = is_predictable(a, F)
    nondec = all(
        a.values[n][w] <= a.values[n + 1][w]
        for n in range(a.horizon)
        for w in range(a.atom_count)
    )
    recon = all(
        m.values[n][w] + a.values[n][w] == f.values[n][w]
        for n in range(f.horizon + 1)
        for w in range(f.atom_count)
    )
    holds = is_mart and pred and nondec and recon
    rows = [
        ("martingale_part_is_martingale", is_mart),
        ("predictable_part_is_predictable", pred),
        ("predictable_part_nondecreasing", nondec),
        ("reconstruction_exact", recon),
        ("holds", holds),
    ]
    return CheckResult(holds, "decomposition valid" if holds else "postcondition failed", ("field", "value"), rows)


def _check_levy_upward(ctx, params, path):
    g = _resolve_rv(ctx, params, "g", path)
    F = _resolve_filtration(ctx, params, path)
    rep = check_levy_upward(ctx.space(), g, F)
    rows = [(n, d) for n, d in enumerate(rep.d)]
    rows.append(("monotone", rep.monotone))
    rows.append(("final_zero", rep.final_zero))
    return CheckResult(
        rep.holds,
        f"monotone={rep.monotone} final_zero={rep.final_zero}",
        ("n", "d"),
        rows,
    )


def _check_l1_convergence_b(ctx, params, path):
    f = _resolve_process(ctx, params, path)
    F = _resolve_filtration(ctx, params, path)
    rep = check_l1_convergence_b(ctx.space(), f, F)
    rows = [("holds", rep.holds), ("kind", rep.kind)]
    detail = "closed by final value" if rep.holds else f"witness={rep.witness}"
    if rep.witness is not None:
        rows.append(("witness", f"n={rep.witness[0]} atom={rep.witness[1]}"))
    return CheckResult(rep.holds, detail, ("field", "value"), rows)


def _check_bridging(ctx, params, path):
    fam, _ = _resolve_family(ctx, params, path)
    C = _resolve_scalar(ctx, params, "C", path)
    A_raw = params.get("A")
    if not isinstance(A_raw, list) or any(isinstance(a, bool) or not isinstance(a, int) for a in A_raw):
        raise ConfigError(f"{path}.A: expected an array of atom indices")
    rep = check_bridging_inequality(fam, C, frozenset(A_raw))
    rows = [("C", rep.C), ("set_mass", rep.set_mass), ("holds", rep.holds)]
    return CheckResult(rep.holds, f"C={_fmt(rep.C)} mass={_fmt(rep.set_mass)}", ("field", "value"), rows)


def _check_p_monotonicity(ctx, params, path):
    fam, _ = _resolve_family(ctx, params, path)
    p = _resolve_scalar(ctx, params, "p", path)
    q = _resolve_scalar(ctx, params, "q", path)
    rep = check_p_monotonicity(fam, p, q)
    rows = [("p", rep.p), ("q", rep.q), ("factor", rep.factor), ("holds", rep.holds)]
    return CheckResult(rep.holds, f"factor={_fmt(rep.factor)}", ("field", "value"), rows)


def _check_ui_curves(ctx, params, path):
    fam, _ = _resolve_family(ctx, params, path)
    moduli = ui_moduli(fam)
    deltas = [
        _resolve_scalar(ctx, {"x": d}, "x", f"{path}.deltas[{i}]")
        for i, d in enumerate(params.get("deltas", []))
    ]
    cs = [
        _resolve_scalar(ctx, {"x": c}, "x", f"{path}.cs[{i}]")
        for i, c in enumerate(params.get("cs", []))
    ]
    rows = [("l1_bound", "", moduli.l1_bound)]
    for d in deltas:
        rows.append(("analyst", d, moduli.analyst(d)))
    for c in cs:
        rows.append(("probabilist", c, moduli.probabilist(c)))
    holds = True
    if "analyst_final_at_most" in params and deltas:
        cap = _resolve_scalar(ctx, params, "analyst_final_at_most", path)
        holds = holds and not (moduli.analyst(deltas[-1]) > cap)
    if "probabilist_final_at_most" in params and cs:
        cap = _resolve_scalar(ctx, params, "probabilist_final_at_most", path)
        holds = holds and not (moduli.probabilist(cs[-1]) > cap)
    return CheckResult(holds, f"l1_bound={_fmt(moduli.l1_bound)}", ("kind", "x", "modulus"), rows)


def _check_vitali(ctx, params, path):
    if ctx.mode != "float":
        raise ConfigError(f"{path}: vitali diagnostics run in float mode only")
    doc = params.get("family")
    if not isinstance(doc, dict) or "builtin" not in doc:
        raise ConfigError(f"{path}.family: vitali check takes a builtin family")
    name = doc["builtin"]
    if name not in _BUILTIN_FAMILIES:
        raise ConfigError(f"{path}.family.builtin: unknown family {name!r}")
    horizon = _resolve_int(doc, "horizon", f"{path}.family", minimum=2)
    space, members, limit = _BUILTIN_FAMILIES[name](horizon, mode="float")
    rep = vitali_empirical(space, members, limit, 1, horizon)
    expect_lp = params.get("expect_lp_decay")
    expect_consistent = params.get("expect_consistent", True)
    holds = rep.consistent == expect_consistent
    if expect_lp is not None:
        holds = holds and rep.lp_decay == expect_lp
    rows = [("lp", n + 1, v) for n, v in enumerate(rep.lp_curve)]
    rows += [("ui", c, v) for c, v in rep.ui_modulus_curve]
    for eps, curve in zip(rep.eps_grid, rep.in_measure):
        rows += [(f"in_measure_eps={_fmt(eps)}", n + 1, v) for n, v in enumerate(curve)]
    rows.append(("flags", "lp_decay", rep.lp_decay))
    rows.append(("flags", "in_measure_decay", rep.in_measure_decay))
    rows.append(("flags", "ui_small", rep.ui_small))
    rows.append(("flags", "consistent", rep.consistent))
    detail = f"lp_decay={rep.lp_decay} ui_small={rep.ui_small} consistent={rep.consistent}"
    return CheckResult(holds, detail, ("kind", "x", "value"), rows)


def _check_mc_stats(ctx, params, path):
    if ctx.mode != "float":
        raise ConfigError(f"{path}: exact mode rejects Monte Carlo checks")
    model = ctx.model(params.get("model"), mode="float")
    seed = params.get("seed", ctx.seed)
    if seed is None:
        raise ConfigError(f"{path}: needs a seed (check or scenario level)")
    trials = _resolve_int(params, "trials", path, minimum=1)
    horizon = _resolve_int(params, "horizon", path, minimum=0)
    window = params.get("window")
    if window is not None:
        window = _resolve_int(params, "window", path, minimum=1)
    bands = []
    for i, pair in enumerate(params.get("bands", [])):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}.bands[{i}]: expected [a, b]")
        bands.append((float(pair[0]), float(pair[1])))
    _resolve_int(params, "workers", path, default=1, minimum=1)  # validated, then ignored
    block_size = _resolve_int(params, "block_size", path, default=1024, minimum=1)
    config = RunConfig(seed=seed, trials=trials, horizon=horizon)
    stats = simulate_stats(model, config, window=window, bands=tuple(bands), block_size=block_size)
    rows = [
        ("trials", "", trials), ("horizon", "", horizon), ("seed", "", seed),
        ("final_mean", "", float(stats.final.mean())),
        ("sup_abs_max", "", float(stats.sup_abs.max())),
    ]
    holds = True
    detail_bits = []
    if window is not None:
        osc_tol = float(params.get("osc_tol", 1e-2))
        frac = float((stats.window_osc <= osc_tol).mean())
        rows.append(("osc_fraction_within_tol", osc_tol, frac))
        detail_bits.append(f"osc_frac={frac}")
        if "min_osc_fraction" in params:
            holds = holds and frac >= float(params["min_osc_fraction"])
    if "final_mean_abs_max" in params:
        cap = float(params["final_mean_abs_max"])
        ok = abs(float(stats.final.mean())) <= cap
        rows.append(("final_mean_within", cap, ok))
        holds = holds and ok
    ks = params.get("violation_ks", [])
    for a, b in bands:
        counts = stats.band_counts[(a, b)]
        fractions = []
        for k in ks:
            frac = float((counts >= k).mean())
            fractions.append(frac)
            rows.append((f"band=({a},{b}) k={k}", "", frac))
        if "decay_factor_min" in params and len(fractions) >= 2:
            factor = float(params["decay_factor_min"])
            # zero tail already decayed past measurement
            ok = all(
                nxt == 0.0 or prev / max(nxt, 1e-300) >= factor
                for prev, nxt in zip(fractions, fractions[1:])
            )
            rows.append((f"band=({a},{b}) decay_ok", factor, ok))
            holds = holds and ok
            detail_bits.append(f"decay_ok={ok}")
    detail = " ".join(detail_bits) if detail_bits else f"final_mean={float(stats.final.mean())}"
    return CheckResult(holds, detail, ("stat", "param", "value"), rows)


def _check_borel_cantelli(ctx, params, path):
    if ctx.mode != "float":
        raise ConfigError(f"{path}: exact mode rejects Monte Carlo checks")
    model = ctx.model(params.get("model"), mode="float")
    if not isinstance(model, IndependentEvents):
        raise ConfigError(f"{path}.model: borel_cantelli takes an independent events model")
    seed = params.get("seed", ctx.seed)
    if seed is None:
        raise ConfigError(f"{path}: needs a seed (check or scenario level)")
    horizon = _resolve_int(params, "horizon", path, minimum=1)
    trials = _resolve_int(params, "trials", path, default=10_000, minimum=1)
    tail_start = _resolve_int(params, "tail_start", path, default=max(1, horizon // 2), minimum=1)
    cut = float(params.get("divergence_cut", horizon / 4))
    _resolve_int(params, "workers", path, default=1, minimum=1)  # validated, then ignored
    block_size = _resolve_int(params, "block_size", path, default=1000, minimum=1)
    rep = check_borel_cantelli(model, horizon, trials, seed, cut, tail_start, block_size=block_size)
    min_match = float(params.get("min_match", 0.0))
    holds = rep.match_fraction >= min_match
    rows = list(rep.blocks)
    detail = f"match_fraction={rep.match_fraction} p_horizon_mean={rep.p_horizon_mean}"
    return CheckResult(holds, detail, ("trial_block", "match_fraction", "p_horizon_mean"), rows)


CHECK_OPS = {
    "classify": (_check_classify, "processes.classify"),
    "condexp_agreement": (_check_condexp_agreement, "condexp.condexp_agreement_witness"),
    "set_integral_characterization": (_check_set_integral, "condexp.check_set_integral_characterization"),
    "upcrossing_estimate": (_check_upcrossing_estimate, "crossings.check_upcrossing_estimate"),
    "upcrossing_estimate_sup": (_check_upcrossing_estimate_sup, "crossings.check_upcrossing_estimate_sup"),
    "band_translation": (_check_band_translation, "crossings.band_translation_identity"),
    "crossing_table": (_check_crossing_table, "crossings.crossing_table"),
    "optional_stopping": (_check_optional_stopping, "stopping.check_optional_stopping"),
    "maximal_inequality": (_check_maximal_inequality, "convergence.check_maximal_inequality"),
    "doob_decomposition": (_check_doob, "processes.doob_decomposition"),
    "levy_upward": (_check_levy_upward, "convergence.check_levy_upward"),
    "l1_convergence_b": (_check_l1_convergence_b, "convergence.check_l1_convergence_b"),
    "bridging": (_check_bridging, "uniform_integrability.check_bridging_inequality"),
    "p_monotonicity": (_check_p_monotonicity, "uniform_integrability.check_p_monotonicity"),
    "ui_curves": (_check_ui_curves, "uniform_integrability.ui_moduli"),
    "vitali": (_check_vitali, "uniform_integrability.vitali_empirical"),
    "mc_stats": (_check_mc_stats, "montecarlo.simulate_stats"),
    "borel_cantelli": (_check_borel_cantelli, "borel_cantelli.check_borel_cantelli"),
}

_MC_OPS = {"mc_stats", "borel_cantelli", "vitali"}


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------


def run_scenario(
    doc,
    src: str,
    out_dir: str,
    seed_override: Optional[int] = None,
    mode_override: Optional[str] = None,
    require_exact: bool = False,
    stream=None,
) -> int:
    if stream is None:
        stream = sys.stdout
    if not isinstance(doc, dict):
        raise ConfigError(f"{src}: $: scenario must be an object")
    name = doc.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ConfigError(f"{src}: $.name: need a [A-Za-z0-9_-] name")
    mode = mode_override or doc.get("mode")
    if mode not in ("exact", "float"):
        raise ConfigError(f"{src}: $.mode: must be 'exact' or 'float'")
    if require_exact and mode != "exact":
        raise ConfigError(f"{src}: $.mode: this command runs exact scenarios only")
    seed = seed_override if seed_override is not None else doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise ConfigError(f"{src}: $.seed: expected a nonnegative integer")
    checks = doc.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ConfigError(f"{src}: $.checks: need a nonempty array")

    # validate all descriptors before running anything
    seen = set()
    for i, c in enumerate(checks):
        if not isinstance(c, dict):
            raise ConfigError(f"{src}: $.checks[{i}]: expected an object")
        cname = c.get("name")
        if not isinstance(cname, str) or not _NAME_RE.match(cname):
            raise ConfigError(f"{src}: $.checks[{i}].name: need a [A-Za-z0-9_-] name")
        if cname in seen:
            raise ConfigError(f"{src}: $.checks[{i}].name: duplicate check name {cname!r}")
        seen.add(cname)
        op = c.get("op")
        if op not in CHECK_OPS:
            raise ConfigError(f"{src}: $.checks[{i}].op: unknown op {op!r}")
        if mode == "exact" and op in _MC_OPS:
            raise ConfigError(
                f"{src}: $.checks[{i}].op: exact mode rejects Monte Carlo checks ({op})"
            )

    os.makedirs(out_dir, exist_ok=True)
    ctx = _Context(doc, src, mode, seed)
    summary = []
    failures = 0
    for i, c in enumerate(checks):
        handler, _ = CHECK_OPS[c["op"]]
        try:
            result = handler(ctx, c, f"{src}: $.checks[{i}]")
        except ConfigError:
            raise
        except SerializationError as e:
            raise ConfigError(f"{src}: $.checks[{i}]: {e}") from None
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{src}: $.checks[{i}]: {e}") from None
        csv_path = os.path.join(out_dir, f"{name}__{c['name']}.csv")
        _write_csv(csv_path, result.header, result.rows)
        status = "PASS" if result.holds else "FAIL"
        print(f"[{status}] {c['name']}: {result.detail}", file=stream)
        summary.append((c["name"], c["op"], result.holds, result.detail))
        if not result.holds:
            failures += 1
    _write_csv(
        os.path.join(out_dir, f"{name}__summary.csv"),
        ("check", "op", "holds", "detail"),
        summary,
    )
    print(f"{name}: {len(checks) - failures}/{len(checks)} checks passed", file=stream)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _parse_band_flag(text: str, mode: Mode) -> Band:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--band: expected 'a,b', got {text!r}")
    try:
        a = decode_scalar(parts[0].strip(), mode, "--band.a")
        b = decode_scalar(parts[1].strip(), mode, "--band.b")
    except SerializationError as e:
        raise ConfigError(str(e)) from None
    if mode == "float":
        a, b = float(a), float(b)
    return Band(a=a, b=b)


def cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers: expected an integer >= 1")
    doc = _load_json(args.scenario)
    return run_scenario(
        doc, args.scenario, args.out_dir,
        seed_override=args.seed, mode_override=args.mode,
    )


def cmd_check(args) -> int:
    doc = _load_json(args.scenario)
    return run_scenario(
        doc, args.scenario, args.out_dir,
        seed_override=args.seed, mode_override=args.mode,
        require_exact=True,
    )


def cmd_crossings(args) -> int:
    doc = _load_json(args.path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.path}: $: expected an object")
    mode = doc.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ConfigError(f"{args.path}: $.mode: must be 'exact' or 'float'")
    raw = doc.get("values")
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{args.path}: $.values: need a nonempty array")
    if raw and isinstance(raw[0], list):
        try:
            f = process_from_json({"values": raw}, mode, "$")
        except SerializationError as e:
            raise ConfigError(f"{args.path}: {e}") from None
    else:
        try:
            values = [decode_scalar(v, mode, f"$.values[{i}]") for i, v in enumerate(raw)]
        except SerializationError as e:
            raise ConfigError(f"{args.path}: {e}") from None
        f = Process.from_path(values, mode)
    band = _parse_band_flag(args.band, mode)
    N = args.n if args.n is not None else f.horizon
    if not 0 <= N <= f.horizon:
        raise ConfigError(f"--n: out of range 0..{f.horizon}")
    rows, counts = _crossings(band, f, N)
    _write_csv(sys.stdout, _CROSSING_HEADER, rows)
    print("upcrossings_before," + ",".join(str(c) for c in counts))
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        _write_csv(os.path.join(args.out_dir, "crossings.csv"), _CROSSING_HEADER, rows)
    return 0


def cmd_converge(args) -> int:
    mode: Mode = args.mode or "exact"
    model_doc = {"kind": args.model}
    if args.p_up is not None:
        model_doc["p_up"] = args.p_up
    model = _build_model(model_doc, mode, "--model")
    try:
        space, f, F = exhaustive_space(model, args.horizon, mode=mode)
    except ValueError as e:
        raise ConfigError(f"--horizon: {e}") from None
    bands = []
    for part in (args.bands.split(";") if args.bands else []):
        bands.append(_parse_band_flag(part, mode))
    cutoff = decode_scalar(args.cutoff, mode, "--cutoff")
    l1_bound = decode_scalar(args.l1_bound, mode, "--l1-bound") if args.l1_bound else None
    diag = ae_convergence_diagnostic(space, f, F, cutoff, bands, l1_bound=l1_bound)
    rows = [("bounded_fraction", "", diag.bounded_fraction)]
    rows.append(("unbounded_measure", "", diag.unbounded_measure))
    for band, curve in diag.band_violations:
        for k, m in curve:
            rows.append((f"violations a={_fmt(band.a)} b={_fmt(band.b)}", k, m))
    for n, m, gap in diag.cauchy_gap:
        rows.append(("cauchy_gap", f"{n}->{m}", gap))
    if diag.chain_bounds:
        for band, mu_u, bound, ok in diag.chain_bounds:
            rows.append((f"chain_bound a={_fmt(band.a)} b={_fmt(band.b)}", _fmt(mu_u), ok))
    for kind, x, v in rows:
        print(f"{kind},{x},{_fmt(v)}")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        _write_csv(os.path.join(args.out_dir, "converge.csv"), ("kind", "x", "value"), rows)
    return 0


def cmd_bc(args) -> int:
    for name in ("trials", "block_size", "workers"):
        if getattr(args, name) < 1:
            raise ConfigError(f"--{name.replace('_', '-')}: expected an integer >= 1")
    if args.model != "independent":
        raise ConfigError("--model: only 'independent' event streams are supported")
    if args.schedule:
        model_doc = {"kind": "independent", "schedule": args.schedule}
    elif args.prob is not None:
        model_doc = {"kind": "independent", "prob": args.prob}
    else:
        raise ConfigError("--prob or --schedule is required")
    model = _build_model(model_doc, "float", "--model")
    horizon = args.horizon
    tail_start = args.tail_start if args.tail_start is not None else max(1, horizon // 2)
    cut = args.cut if args.cut is not None else horizon / 4
    rep = check_borel_cantelli(
        model, horizon, args.trials, args.seed, cut, tail_start, block_size=args.block_size
    )
    print(f"match_fraction = {rep.match_fraction}")
    print(f"p_horizon_mean = {rep.p_horizon_mean}")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        _write_csv(
            os.path.join(args.out_dir, "bc.csv"),
            ("trial_block", "match_fraction", "p_horizon_mean"),
            rep.blocks,
        )
    return 0 if rep.match_fraction >= args.min_match else 1


def cmd_ui(args) -> int:
    mode: Mode = args.mode or "exact"
    if args.family not in _BUILTIN_FAMILIES:
        raise ConfigError(f"--family: unknown family {args.family!r}")
    space, members, _ = _BUILTIN_FAMILIES[args.family](args.horizon, mode=mode)
    p = decode_scalar(args.p, mode, "--p")
    fam = FunctionFamily.of(space, members, p=p)
    moduli = ui_moduli(fam)
    rows = [("l1_bound", "", moduli.l1_bound)]
    for text in (args.deltas.split(",") if args.deltas else []):
        d = decode_scalar(text.strip(), mode, "--deltas")
        rows.append(("analyst", d, moduli.analyst(d)))
    for text in (args.cs.split(",") if args.cs else []):
        c = decode_scalar(text.strip(), mode, "--cs")
        rows.append(("probabilist", c, moduli.probabilist(c)))
    for kind, x, v in rows:
        print(f"{kind},{_fmt(x)},{_fmt(v)}")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        _write_csv(os.path.join(args.out_dir, "ui.csv"), ("kind", "x", "modulus"), rows)
    return 0


_REFERENCE_PATH_EXPECT = {
    "sigma": (0, 5, 10, 13, 13),
    "tau": (1, 7, 11, 13, 13),
    "upcrossings": 2,
}


def _scenario_text(filename: str) -> str:
    return resources.files("martkit").joinpath("scenarios", filename).read_text()


def _rng_streams_mismatch() -> Optional[int]:
    """First horizon at which the in-house Philox kernel differs from numpy's
    own ``trial_rng`` streams, testing one block at the vectorised-horizon
    cut and one just above it; None when both agree bit for bit.  A numpy
    whose Philox stream or double conversion changed is caught here."""
    seed, start, count = (1 << 63) + 12345, (1 << 40) + 7, 5
    for horizon in (_VECTOR_RNG_MAX_HORIZON, _VECTOR_RNG_MAX_HORIZON + 1):
        want = np.stack([trial_rng(seed, start + i).random(horizon) for i in range(count)])
        got = _philox_uniforms(seed, start, count, horizon)
        if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            return horizon
    return None


def cmd_selftest(args) -> int:
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    failures = 0

    bad_horizon = _rng_streams_mismatch()
    if bad_horizon is None:
        print(
            "[PASS] rng-streams: vectorised Philox4x64-10 matches trial_rng at horizons "
            f"{_VECTOR_RNG_MAX_HORIZON} and {_VECTOR_RNG_MAX_HORIZON + 1}"
        )
    else:
        print(f"[FAIL] rng-streams: vectorised Philox4x64-10 differs from trial_rng at horizon {bad_horizon}")
        failures += 1

    exact_doc = json.loads(_scenario_text("exact_suite.json"))
    code = run_scenario(exact_doc, "exact_suite.json", os.path.join(out, "exact"))
    failures += code != 0

    mc_doc = json.loads(_scenario_text("mc_suite.json"))
    code = run_scenario(
        mc_doc, "mc_suite.json", os.path.join(out, "mc"), seed_override=args.seed
    )
    failures += code != 0

    # Replaying the suite in this process must give byte-identical CSVs.  Monte
    # Carlo blocks run sequentially, so this check tests run-to-run
    # determinism; it keeps its "parallel-determinism" name and output line.
    buf = io.StringIO()
    code = run_scenario(
        json.loads(_scenario_text("mc_suite.json")),
        "mc_suite.json",
        os.path.join(out, "mc_parallel"),
        seed_override=args.seed,
        stream=buf,
    )
    failures += code != 0
    seq_dir, par_dir = os.path.join(out, "mc"), os.path.join(out, "mc_parallel")
    mismatched = [
        fname for fname in sorted(os.listdir(seq_dir))
        if not filecmp.cmp(os.path.join(seq_dir, fname), os.path.join(par_dir, fname), shallow=False)
    ]
    if mismatched:
        print(f"[FAIL] parallel-determinism: {','.join(mismatched)} differ")
        failures += len(mismatched)
    else:
        print("[PASS] parallel-determinism: sequential and parallel CSVs identical")

    ref_doc = json.loads(_scenario_text("reference_path.json"))
    values = [decode_scalar(v, "exact", "$.values") for v in ref_doc["values"]]
    f = Process.from_path(values, "exact")
    band = Band(a=Fraction(0), b=Fraction(1))
    rows, counts = _crossings(band, f, f.horizon)
    sigma = tuple(r[2] for r in rows)
    tau = tuple(r[3] for r in rows)
    count = counts[0]
    ref_ok = (
        sigma == _REFERENCE_PATH_EXPECT["sigma"]
        and tau == _REFERENCE_PATH_EXPECT["tau"]
        and count == _REFERENCE_PATH_EXPECT["upcrossings"]
    )
    _write_csv(os.path.join(out, "reference_path.csv"), _CROSSING_HEADER, rows)
    print(f"[{'PASS' if ref_ok else 'FAIL'}] reference_path: sigma={sigma} tau={tau} upcrossings={count}")
    failures += not ref_ok

    print(f"selftest: {'ok' if failures == 0 else f'{failures} failure(s)'}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors, exit 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="martkit", description="Exact and Monte Carlo checks for finite-space stochastic processes.")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--out-dir", default="martkit_out", help="directory for CSV output")

    run = sub.add_parser("run", help="run a scenario file (exact or float)")
    run.add_argument("scenario")
    run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    run.add_argument("--mode", choices=["exact", "float"], default=None, help="override scenario mode")
    run.add_argument("--workers", type=int, default=1, help="accepted for compatibility and ignored (>= 1)")
    common(run)
    run.set_defaults(fn=cmd_run)

    chk = sub.add_parser("check", help="run an exact theorem-suite scenario")
    chk.add_argument("scenario")
    chk.add_argument("--seed", type=int, default=None)
    chk.add_argument("--mode", choices=["exact"], default=None)
    common(chk)
    chk.set_defaults(fn=cmd_check)

    cr = sub.add_parser("crossings", help="crossing table and upcrossing count for a path file")
    cr.add_argument("--band", required=True, help="a,b")
    cr.add_argument("--path", required=True, help="JSON file with 'mode' and 'values'")
    cr.add_argument("--n", type=int, default=None, help="time bound N (default: path horizon)")
    cr.add_argument("--out-dir", default=None)
    cr.set_defaults(fn=cmd_crossings)

    cv = sub.add_parser("converge", help="exact convergence diagnostics on an unrolled model")
    cv.add_argument("--model", choices=["fair_walk", "biased_walk", "polya"], required=True)
    cv.add_argument("--p-up", default=None, help="biased walk up-probability")
    cv.add_argument("--horizon", type=int, required=True)
    cv.add_argument("--cutoff", required=True, help="sup-bound cutoff")
    cv.add_argument("--bands", default=None, help="semicolon-separated a,b pairs")
    cv.add_argument("--l1-bound", default=None)
    cv.add_argument("--mode", choices=["exact", "float"], default=None)
    cv.add_argument("--out-dir", default=None)
    cv.set_defaults(fn=cmd_converge)

    bc = sub.add_parser("bc", help="Borel-Cantelli tail-vs-divergence agreement")
    bc.add_argument("--model", default="independent")
    bc.add_argument("--prob", type=float, default=None, help="constant event probability")
    bc.add_argument("--schedule", choices=["inverse_square"], default=None)
    bc.add_argument("--horizon", type=int, required=True)
    bc.add_argument("--trials", type=int, default=10_000)
    bc.add_argument("--tail-start", type=int, default=None, help="default horizon//2")
    bc.add_argument("--cut", type=float, default=None, help="default horizon/4")
    bc.add_argument("--seed", type=int, default=42)
    bc.add_argument("--min-match", type=float, default=0.0)
    bc.add_argument("--workers", type=int, default=1, help="accepted for compatibility and ignored (>= 1)")
    bc.add_argument("--block-size", type=int, default=1000)
    bc.add_argument("--out-dir", default=None)
    bc.set_defaults(fn=cmd_bc)

    ui = sub.add_parser("ui", help="uniform integrability modulus curves for builtin families")
    ui.add_argument("--family", required=True, help="shrinking_spike or fixed_mass_spike")
    ui.add_argument("--horizon", type=int, required=True)
    ui.add_argument("--p", default="1")
    ui.add_argument("--deltas", default=None, help="comma-separated small-set sizes")
    ui.add_argument("--cs", default=None, help="comma-separated truncation levels")
    ui.add_argument("--mode", choices=["exact", "float"], default=None)
    ui.add_argument("--out-dir", default=None)
    ui.set_defaults(fn=cmd_ui)

    st = sub.add_parser("selftest", help="run the shipped scenarios deterministically")
    st.add_argument("--seed", type=int, default=42)
    common(st)
    st.set_defaults(fn=cmd_selftest)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 2
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
