"""Scenario-driven command line front end.

Scenarios are JSON files naming a mode, an instance (a trajectory model to
unroll, or explicit space/process/filtration documents), and a list of check
descriptors.  Each descriptor maps to exactly one library operation, and each
op declares its keys in ``CHECK_OPS``: every key has a kind (how its JSON value
is decoded and checked) and a default or "required".  One resolver checks each
descriptor against its keys before any check runs and hands the handler the
decoded values.  Model and family documents go through the same resolver, and
so do the instance documents: space, process, filtration, random variable,
partition and stopping time.  The runner executes the checks in order,
writes one CSV per check plus a summary, and exits 0 only when every check
passes.  The ``crossings``, ``converge``, ``bc`` and ``ui`` subcommands each
build one descriptor from their flags and run it through the same resolver and
handler.  Exit 1 means a check failed; exit 2 means the scenario or flags were
malformed (an unknown or missing key, a non-finite float, a non-bool flag, a
non-integer count, ...), and the error names the offending JSON path or flag.

All CSV output is deterministic for a fixed scenario and seed: header row,
'.' decimal separator, rationals as p/q strings in exact mode, no
timestamps, LF line endings.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import filecmp
import io
import json
import os
import re
import sys
from fractions import Fraction
from importlib import resources
from typing import Callable, NamedTuple, Optional

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
    _uniform_block,
    exhaustive_space,
    simulate_stats,
    trial_rng,
)
from .processes import (
    Filtration,
    MartingaleClass,
    Process,
    classify,
    doob_witnesses,
    natural_filtration,
)
from .scalars import INF, Mode, at_most, coerce_scalar
from .stopping import StoppingTime, check_optional_stopping
from .uniform_integrability import (
    FunctionFamily,
    analyst_modulus,
    check_bridging_inequality,
    check_p_monotonicity,
    fixed_mass_spike_family,
    probabilist_modulus,
    shrinking_spike_family,
    vitali_empirical,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_-]*$")


class ConfigError(Exception):
    """Scenario or flag problem; maps to exit code 2."""


def _fmt(x) -> str:
    if isinstance(x, str):  # already formatted
        return x
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
# declared keys: one resolver decodes every descriptor, model and family
# ---------------------------------------------------------------------------

_REQUIRED = object()


class _Key(NamedTuple):
    """One declared key.  ``kind(ctx, value, path)`` decodes a given value.
    ``default`` is _REQUIRED, None (an absent key stays None), a JSON value
    decoded like a given one, or ``fn(ctx, decoded, doc)`` computed from the
    keys decoded before it.  ``alt`` is ``(key, kind)``: a second key that may
    stand in for this one, but not appear beside it.  ``check(value, decoded)``
    is None, or the error for a value out of range given the keys before it."""

    kind: Callable
    default: object = _REQUIRED
    alt: Optional[tuple] = None
    check: Optional[Callable] = None


class _Flags(dict):
    """Flag names for errors in a descriptor built from flags: key -> flag or
    nested _Flags, else ``--key-with-dashes``; ``text`` names the document."""

    def __init__(self, text: str, **flags) -> None:
        super().__init__(flags)
        self.text = text

    def __str__(self) -> str:
        return self.text


def _join(path, key: str):
    """The path of ``key`` in the document at ``path``: a JSON path or a flag."""
    if isinstance(path, _Flags):
        return path.get(key, "--" + key.replace("_", "-"))
    return f"{path}.{key}"


def _decode(kind, ctx, value, path: str):
    try:
        return kind(ctx, value, path)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _resolve(ctx, keys: dict, doc, path, skip=()) -> dict:
    """Check ``doc`` against its declared ``keys`` and return the decoded
    values by key; ``skip`` names keys the caller has read already."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    known = set(keys) | {k.alt[0] for k in keys.values() if k.alt}
    for name in doc:
        if name not in known and name not in skip:
            raise ConfigError(f"{_join(path, name)}: unknown key; expected one of {sorted(known)}")
    out = {}
    for key, k in keys.items():
        choices = [(key, k.kind)] + ([k.alt] if k.alt else [])
        given = [(name, kind) for name, kind in choices if name in doc]
        if len(given) > 1:
            raise ConfigError(f"{path}: give '{key}' or '{k.alt[0]}', not both")
        name, kind = given[0] if given else (key, k.kind)
        if given:
            out[key] = _decode(kind, ctx, doc[name], _join(path, name))
        elif callable(k.default):
            out[key] = k.default(ctx, out, doc)
        elif k.default is None or k.default is _REQUIRED:
            out[key] = k.default
        else:
            out[key] = _decode(kind, ctx, k.default, _join(path, key))
        if out[key] is _REQUIRED:
            raise ConfigError(f"{path}: needs " + " or ".join(f"'{name}'" for name, _ in choices))
        if k.check and (problem := k.check(out[key], out)):
            raise ConfigError(f"{_join(path, name)}: {problem}")
    return out


# kinds: each decodes one JSON value at ``path`` or raises


def _count(v, path: str, low: int = 0, high: Optional[int] = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < low or (high is not None and v > high):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ConfigError(f"{path}: expected an integer {span}")
    return v


def _int(low: int):
    return lambda ctx, v, path: _count(v, path, low)


def _at_most(bound):
    """A key check: an integer no larger than ``bound(decoded)``."""
    return lambda n, out: f"expected an integer <= {bound(out)}" if n > bound(out) else None


def _seed(ctx, v, path) -> int:
    """A seed: every key and flag that takes one accepts exactly 64 bits."""
    return _count(v, path, 0, (1 << 64) - 1)


def _float(ctx, v, path):
    """A finite float in either mode."""
    return coerce_scalar(v, "float")


def _scalar(ctx, v, path):
    return coerce_scalar(v, ctx.mode)


def _bool(ctx, v, path):
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true or false")
    return v


def _choice(table: dict):
    def parse(ctx, v, path):
        if not isinstance(v, str) or v not in table:
            raise ConfigError(f"{path}: expected one of {sorted(table)}")
        return table[v]
    return parse


def _name(ctx, v, path):
    if not isinstance(v, str) or not _NAME_RE.match(v):
        raise ConfigError(f"{path}: need a [A-Za-z0-9_-] name")
    return v


def _nonempty(ctx, v, path):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path}: need a nonempty array")
    return v


def _list(kind):
    def parse(ctx, v, path):
        if not isinstance(v, list):
            raise ConfigError(f"{path}: expected an array")
        return [_decode(kind, ctx, x, f"{path}[{i}]") for i, x in enumerate(v)]
    return parse


_BAND_KEYS = {"a": _Key(_scalar), "b": _Key(_scalar)}


def _band(ctx, v, path) -> Band:
    if isinstance(v, list) and len(v) == 2:
        v = dict(zip("ab", v))
    if not isinstance(v, dict):
        raise ConfigError(f"{path}: expected [a, b] or {{'a':, 'b':}}")
    return Band(**_resolve(ctx, _BAND_KEYS, v, path))


_MODE = _choice({"exact": "exact", "float": "float"})


# instance documents: each object is built under the key that holds its
# data, so an error the library raises names that key's path


def _same_mode(ctx, v, path) -> Mode:
    if _MODE(ctx, v, path) != ctx.mode:
        raise ConfigError(f"{path}: does not match scenario mode")
    return v


def _field(key: str, kind, **keys):
    """A kind for an object with ``keys`` and then ``key``, whose decoded value it returns."""
    table = {**keys, key: _Key(kind)}
    return lambda ctx, v, path: _resolve(ctx, table, v, path)[key]


def _into(make, kind):
    """A kind that builds ``make(value, mode)`` from the value ``kind`` decodes."""
    return lambda ctx, v, path: make(kind(ctx, v, path), ctx.mode)


_SCALARS = _list(_scalar)
_space = _field("weights", _into(FiniteMeasureSpace.from_weights, _SCALARS), mode=_Key(_same_mode))
_rv = _field("values", _into(RandomVariable.from_values, _SCALARS))
_process = _field("values", _into(Process.from_values, _list(_SCALARS)))
_BLOCKS = _list(_list(_int(0)))  # blocks of atom indices
_PARTITION_KEYS = {"atoms": _Key(_int(0)), "blocks": _Key(_BLOCKS)}
_FILTRATION_KEYS = {"atoms": _Key(_int(0)), "steps": _Key(_list(_BLOCKS)), "ambient": _Key(_BLOCKS, None)}


def _blocks_of(atoms: int):
    """A kind for checked blocks: the partition of ``atoms`` atoms into them."""
    return lambda ctx, blocks, path: Partition.from_blocks(blocks, atoms)


def _partition(ctx, v, path) -> Partition:
    p = _resolve(ctx, _PARTITION_KEYS, v, path)
    return _decode(_blocks_of(p["atoms"]), ctx, p["blocks"], _join(path, "blocks"))


def _filtration(ctx, v, path) -> Filtration:
    p = _resolve(ctx, _FILTRATION_KEYS, v, path)
    partition = _blocks_of(p["atoms"])
    steps = _decode(_list(partition), ctx, p["steps"], _join(path, "steps"))
    ambient = None if p["ambient"] is None else _decode(partition, ctx, p["ambient"], _join(path, "ambient"))
    return _decode(lambda ctx, steps, path: Filtration.of(steps, ambient), ctx, steps, _join(path, "steps"))


def _time(ctx, v, path):
    """One atom's stopping time: a natural, or "inf" for never."""
    if v != "inf" and (isinstance(v, bool) or not isinstance(v, int) or v < 0):
        raise ConfigError(f"{path}: expected an integer >= 0 or 'inf'")
    return INF if v == "inf" else v


def _stopping(ctx, v, path) -> StoppingTime:
    return StoppingTime.of(_list(_time)(ctx, v, path))


def _bounded(t: StoppingTime, out):
    """A key check for optional stopping's times: one finite time in
    0..horizon per atom of the process, each at or after tau's (as tau's are)."""
    f = out["process"]
    if t.atom_count != f.atom_count:
        return f"expected {f.atom_count} times, one per atom"
    if any(s > f.horizon for s in t.time_of):  # INF > horizon
        return f"expected finite times <= {f.horizon}"
    return None if out["tau"] <= t else "expected each time >= tau's"


def _at(ctx, n, path) -> RandomVariable:
    """``x_at``: the scenario process at time n."""
    f = ctx.process()
    return f.at(_count(n, path, 0, f.horizon))


def _sub_step(ctx, k, path) -> Partition:
    """``sub_step``: step k of the scenario filtration."""
    F = ctx.filtration()
    return F.steps[_count(k, path, 0, F.horizon)]


def _constant_schedule(ctx, v, path):
    p = _scalar(ctx, v, path)
    if not 0 <= p <= 1:
        raise ConfigError(f"{path}: expected a probability in [0, 1]")
    return lambda n: p


_SCHEDULES = {"inverse_square": lambda n: 1.0 / (n * n)}

_MODELS = {  # kind -> (constructor, keys besides 'kind')
    "fair_walk": (FairWalk, {"step": _Key(_scalar, 1)}),
    "biased_walk": (BiasedWalk, {"p_up": _Key(_scalar), "step": _Key(_scalar, 1)}),
    "polya": (PolyaUrn, {"initial_red": _Key(_int(1), 1), "initial_black": _Key(_int(1), 1)}),
    "independent": (
        lambda prob: IndependentEvents(prob_schedule=prob),
        {"prob": _Key(_constant_schedule, alt=("schedule", _choice(_SCHEDULES)))},
    ),
}


def _model(ctx, doc, path, kinds=tuple(_MODELS), extra=None) -> tuple:
    """(model, decoded keys) of a model document; its 'kind' picks the
    constructor and the keys it takes, ``extra`` declares keys read besides."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    if doc.get("kind") not in kinds:
        raise ConfigError(f"{_join(path, 'kind')}: expected one of {sorted(kinds)}")
    make, keys = _MODELS[doc["kind"]]
    p = _resolve(ctx, {**keys, **(extra or {})}, doc, path, skip=("kind",))
    try:
        return make(**{k: p[k] for k in keys}), p
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _model_key(*kinds) -> _Key:
    """A check's own model document, or else the scenario-level one."""
    kinds = kinds or tuple(_MODELS)
    return _Key(lambda ctx, v, path: _model(ctx, v, path, kinds)[0],
                lambda ctx, out, doc: ctx.model(kinds)[0])


_BUILTIN_FAMILIES = {
    "shrinking_spike": shrinking_spike_family,
    "fixed_mass_spike": fixed_mass_spike_family,
}
_BUILTIN = _Key(_choice(_BUILTIN_FAMILIES))
_BUILTIN_FAMILY_KEYS = {"builtin": _BUILTIN, "horizon": _Key(_int(1)), "p": _Key(_scalar, 1)}
_INLINE_FAMILY_KEYS = {
    "members": _Key(_list(lambda ctx, row, path: _rv(ctx, {"values": row}, path))),
    "p": _Key(_scalar, 1),
}


def _family(ctx, doc, path) -> FunctionFamily:
    """A builtin family (name and horizon) or inline member rows on the
    scenario space."""
    if isinstance(doc, dict) and "builtin" in doc:
        p = _resolve(ctx, _BUILTIN_FAMILY_KEYS, doc, path)
        space, members, _ = p["builtin"](p["horizon"], mode=ctx.mode)
    else:
        p = _resolve(ctx, _INLINE_FAMILY_KEYS, doc, path)
        space, members = ctx.space(), p["members"]
    return FunctionFamily.of(space, members, p=p["p"])


def _builtin_family(ctx, doc, path) -> tuple:
    """(space, members, limit) of a builtin family of at least two members,
    as the Vitali check needs them."""
    p = _resolve(ctx, {"builtin": _BUILTIN, "horizon": _Key(_int(2))}, doc, path)
    return p["builtin"](p["horizon"], mode=ctx.mode)


# a scenario's own keys; the instance documents are decoded on demand by _Context
_SCENARIO_KEYS = {
    "name": _Key(_name), "mode": _Key(_MODE, None), "seed": _Key(_seed, None),
    "checks": _Key(_nonempty),
    **dict.fromkeys(("model", "space", "process", "filtration"), _Key(lambda ctx, v, path: v, None)),
}
_PATH_KEYS = {"mode": _Key(_MODE, "exact"), "values": _Key(_nonempty)}  # a ``crossings`` path file


# ---------------------------------------------------------------------------
# scenario context: mode, seed, and lazily built instances
# ---------------------------------------------------------------------------


class _Context:
    """Scenario-wide instance store; exhaustive unrolls happen on demand.
    ``root`` is the path of the scenario document: ``"<file>: $"``, or the
    _Flags of a subcommand."""

    def __init__(self, doc: dict, root, mode: Mode, seed=None) -> None:
        self.doc = doc
        self.root = root
        self.mode = mode
        self.seed = seed
        self._built = None

    def model(self, kinds=tuple(_MODELS)) -> tuple:
        """(model, decoded keys) of the scenario-level model document, which
        may also carry the unroll ``horizon``."""
        path = _join(self.root, "model")
        if "model" not in self.doc:
            raise ConfigError(f"{path}: no model given")
        return _model(self, self.doc["model"], path, kinds, {"horizon": _Key(_int(0), None)})

    def instances(self):
        """(space, process, filtration), built from explicit docs or by
        unrolling the scenario model."""
        if self._built is not None:
            return self._built
        doc, root = self.doc, self.root
        decode = lambda kind, key: _decode(kind, self, doc[key], _join(root, key)) if key in doc else None
        if "space" in doc:
            space = decode(_space, "space")
            process = decode(_process, "process")
            filtration = decode(_filtration, "filtration")
            if filtration is None and process is not None:
                filtration = natural_filtration(process)
        elif "model" in doc:
            model, keys = self.model()
            if keys["horizon"] is None:
                raise ConfigError(f"{_join(root, 'model')}: needs 'horizon' to unroll")
            unroll = lambda ctx, horizon, path: exhaustive_space(model, horizon, mode=self.mode)
            space, process, filtration = _decode(
                unroll, self, keys["horizon"], _join(_join(root, "model"), "horizon"))
        else:
            raise ConfigError(f"{root}: scenario gives neither 'space' nor 'model'")
        self._built = (space, process, filtration)
        return self._built

    def space(self) -> FiniteMeasureSpace:
        return self.instances()[0]

    def process(self) -> Process:
        p = self.instances()[1]
        if p is None:
            raise ConfigError(f"{self.root}: this check needs a process")
        return p

    def filtration(self) -> Filtration:
        F = self.instances()[2]
        if F is None:
            raise ConfigError(f"{self.root}: this check needs a filtration")
        return F


# keys shared by several ops
_PROCESS = _Key(_process, lambda ctx, out, doc: ctx.process())
_FILTRATION = _Key(
    _filtration,
    lambda ctx, out, doc: natural_filtration(out["process"]) if "process" in doc else ctx.filtration(),
)
_HORIZON = _Key(_int(0), lambda ctx, out, doc: out["process"].horizon,
               check=_at_most(lambda out: out["process"].horizon))
_BAND = _Key(_band)
_POSITIVE = _Key(_scalar, check=lambda x, out: None if x > 0 else "expected a value > 0")
_F = _Key(_rv, alt=("f_at", _at))
_SUB = _Key(_partition, alt=("sub_step", _sub_step))
_FAMILY = _Key(_family)
_SEED = _Key(_seed, lambda ctx, out, doc: _REQUIRED if ctx.seed is None else ctx.seed)


# ---------------------------------------------------------------------------
# check registry: op name -> (handler binding one library operation, keys)
# ---------------------------------------------------------------------------

CHECK_OPS: dict = {}


def _op(name: str, keys: dict):
    def register(handler):
        CHECK_OPS[name] = (handler, keys)
        return handler
    return register


class CheckResult(NamedTuple):
    """What a check prints and writes; ``report`` is the library's own result,
    for a subcommand that prints more than the CSV rows."""

    holds: bool
    detail: str
    header: tuple
    rows: list
    report: object = None


def _fields(rep, skip=()) -> list:
    """(name, value) rows for a report's fields in declaration order, but those in ``skip``."""
    return [(f.name, getattr(rep, f.name)) for f in dataclasses.fields(rep) if f.name not in skip]


def _sides(rep) -> CheckResult:
    """The result of a check whose report compares ``lhs`` with ``rhs``."""
    detail = f"lhs={_fmt(rep.lhs)} rhs={_fmt(rep.rhs)}"
    return CheckResult(rep.holds, detail, ("field", "value"), _fields(rep))


def _place(w: tuple, sep: str = " ") -> str:
    """A witness as key=value pairs: (i, j, atom) of a time pair, or (n, atom)."""
    return sep.join(f"{k}={v}" for k, v in zip(("i", "j", "atom") if len(w) == 3 else ("n", "atom"), w))


_KIND_NAMES = {
    "martingale": MartingaleClass.MARTINGALE,
    "submartingale": MartingaleClass.SUBMARTINGALE,
    "supermartingale": MartingaleClass.SUPERMARTINGALE,
}


@_op("classify", {"assert": _Key(_choice(_KIND_NAMES)), "process": _PROCESS, "filtration": _FILTRATION})
def _check_classify(ctx, p):
    c = classify(ctx.space(), p["process"], p["filtration"])
    holds = c.is_at_least(p["assert"])
    rows = [("kind", c.kind.name.lower()), ("adapted", c.adapted), ("holds", holds)]
    detail = f"kind={c.kind.name.lower()}"
    if not holds:  # an unadapted f, or a pair against the asserted class
        w = c.witness_against(p["assert"])
        rows.append(("witness", _place(w)))
        detail += f" witness=({_place(w, ', ')})"
    return CheckResult(holds, detail, ("field", "value"), rows)


@_op("condexp_agreement", {"f": _F, "sub": _SUB})
def _check_condexp_agreement(ctx, p):
    w = condexp_agreement_witness(ctx.space(), p["f"], p["sub"])
    holds = w is None
    rows = [("holds", holds), ("witness_atom", w)]
    return CheckResult(holds, "agree a.e." if holds else f"disagree at atom {w}", ("field", "value"), rows)


@_op("set_integral_characterization", {"f": _F, "sub": _SUB})
def _check_set_integral(ctx, p):
    rep = check_set_integral_characterization(ctx.space(), p["f"], p["sub"])
    return CheckResult(rep.holds, f"worst_gap={_fmt(rep.worst_block_gap)}", ("field", "value"), _fields(rep))


@_op("upcrossing_estimate",
     {"band": _BAND, "process": _PROCESS, "filtration": _FILTRATION, "N": _HORIZON})
def _check_upcrossing_estimate(ctx, p):
    return _sides(check_upcrossing_estimate(ctx.space(), p["band"], p["process"], p["filtration"], p["N"]))


@_op("upcrossing_estimate_sup", {"band": _BAND, "process": _PROCESS, "filtration": _FILTRATION})
def _check_upcrossing_estimate_sup(ctx, p):
    return _sides(check_upcrossing_estimate_sup(ctx.space(), p["band"], p["process"], p["filtration"]))


@_op("band_translation", {"band": _BAND, "process": _PROCESS})
def _check_band_translation(ctx, p):
    rep = band_translation_identity(p["band"], p["process"])
    rows = [("holds", rep.holds)]
    detail = "identity holds"
    if not rep.holds:
        N, w, x, y = rep.first_mismatch
        rows.append(("first_mismatch", f"N={N} atom={w} lhs={x} rhs={y}"))
        detail = f"mismatch at N={N}, atom {w}"
    return CheckResult(rep.holds, detail, ("field", "value"), rows)


@_op("crossing_table", {"band": _BAND, "process": _PROCESS, "N": _HORIZON})
def _check_crossing_table(ctx, p):
    """Validated rows (atom, n, sigma_n, tau_n), atom by atom; the report is
    the per-atom upcrossing counts before N."""
    band, f, N = p["band"], p["process"], p["N"]
    table = crossing_table(band, f, N)
    table.validate()
    rows = [
        (w, k, table.sigma[k][w], table.tau[k][w])
        for w in range(len(table.sigma[0]))
        for k in range(len(table.sigma))
    ]
    counts = upcrossings_before(band, f, N)
    detail = "upcrossings=" + ",".join(str(c) for c in counts)
    return CheckResult(True, detail, ("atom", "n", "sigma", "tau"), rows, counts)


@_op("optional_stopping", {"process": _PROCESS, "filtration": _FILTRATION,
                           "tau": _Key(_stopping, check=_bounded), "sigma": _Key(_stopping, check=_bounded)})
def _check_optional_stopping(ctx, p):
    return _sides(check_optional_stopping(ctx.space(), p["process"], p["filtration"], p["tau"], p["sigma"]))


@_op("maximal_inequality", {"process": _PROCESS, "filtration": _FILTRATION,
                            "n": _HORIZON, "level": _POSITIVE})
def _check_maximal_inequality(ctx, p):
    return _sides(check_maximal_inequality(ctx.space(), p["process"], p["filtration"], p["n"], p["level"]))


@_op("doob_decomposition", {"process": _PROCESS, "filtration": _FILTRATION})
def _check_doob(ctx, p):
    names = ("martingale_part_is_martingale", "predictable_part_is_predictable",
             "predictable_part_nondecreasing", "reconstruction_exact")
    witnesses = doob_witnesses(ctx.space(), p["process"], p["filtration"])
    failed = [(name, w) for name, w in zip(names, witnesses) if w is not None]
    rows = [(name, w is None) for name, w in zip(names, witnesses)] + [("holds", not failed)]
    if not failed:
        return CheckResult(True, "decomposition valid", ("field", "value"), rows)
    name, w = failed[0]
    rows.append(("witness", _place(w)))
    return CheckResult(False, f"{name} fails: witness=({_place(w, ', ')})", ("field", "value"), rows)


@_op("levy_upward", {"g": _Key(_rv, alt=("g_at", _at)), "filtration": _FILTRATION})
def _check_levy_upward(ctx, p):
    rep = check_levy_upward(ctx.space(), p["g"], p["filtration"])
    rows = [(n, d) for n, d in enumerate(rep.d)]
    rows.append(("monotone", rep.monotone))
    rows.append(("final_zero", rep.final_zero))
    return CheckResult(
        rep.holds,
        f"monotone={rep.monotone} final_zero={rep.final_zero}",
        ("n", "d"),
        rows,
    )


@_op("l1_convergence_b", {"process": _PROCESS, "filtration": _FILTRATION})
def _check_l1_convergence_b(ctx, p):
    rep = check_l1_convergence_b(ctx.space(), p["process"], p["filtration"])
    rows = [("holds", rep.holds), ("kind", rep.kind)]
    detail = "closed by final value" if rep.holds else f"witness={rep.witness}"
    if rep.witness is not None:
        rows.append(("witness", _place(rep.witness)))
    return CheckResult(rep.holds, detail, ("field", "value"), rows)


@_op("ae_convergence", {"process": _PROCESS, "filtration": _FILTRATION, "cutoff": _Key(_scalar),
                        "bands": _Key(_list(_band), []), "l1_bound": _Key(_scalar, None)})
def _check_ae_convergence(ctx, p):
    """Doob's a.e. convergence diagnostics; with an L1 bound it holds when
    every band's chain bound does, and names the first that fails."""
    diag = ae_convergence_diagnostic(ctx.space(), p["process"], p["filtration"], p["cutoff"],
                                     p["bands"], l1_bound=p["l1_bound"])
    band_name = lambda band: f"a={_fmt(band.a)} b={_fmt(band.b)}"
    rows = [("bounded_fraction", "", diag.bounded_fraction), ("unbounded_measure", "", diag.unbounded_measure)]
    for band, curve in diag.band_violations:
        rows += [(f"violations {band_name(band)}", k, m) for k, m in curve]
    rows += [("cauchy_gap", f"{n}->{m}", gap) for n, m, gap in diag.cauchy_gap]
    chain = diag.chain_bounds or ()
    rows += [(f"chain_bound {band_name(band)}", mu_u, ok) for band, mu_u, _, ok in chain]
    failed = [(band, mu_u, bound) for band, mu_u, bound, ok in chain if not ok]
    detail = f"bounded_fraction={_fmt(diag.bounded_fraction)}"
    if failed:
        band, mu_u, bound = failed[0]
        detail += f" chain bound fails at {band_name(band)}: mu[U]={_fmt(mu_u)} > {_fmt(bound)}"
    return CheckResult(not failed, detail, ("kind", "x", "value"), rows)


@_op("bridging", {"family": _FAMILY, "C": _Key(_scalar), "A": _Key(_list(_int(0)))})
def _check_bridging(ctx, p):
    rep = check_bridging_inequality(p["family"], p["C"], frozenset(p["A"]))
    detail = f"C={_fmt(rep.C)} mass={_fmt(rep.set_mass)}"
    return CheckResult(rep.holds, detail, ("field", "value"), _fields(rep, skip=("rows",)))


@_op("p_monotonicity", {"family": _FAMILY, "p": _Key(_scalar), "q": _Key(_scalar)})
def _check_p_monotonicity(ctx, p):
    rep = check_p_monotonicity(p["family"], p["p"], p["q"])
    rows = _fields(rep, skip=("rows",))
    return CheckResult(rep.holds, f"factor={_fmt(rep.factor)}", ("field", "value"), rows)


@_op("ui_curves", {"family": _FAMILY, "deltas": _Key(_list(_scalar), []), "cs": _Key(_list(_scalar), []),
                   "analyst_final_at_most": _Key(_scalar, None),
                   "probabilist_final_at_most": _Key(_scalar, None)})
def _check_ui_curves(ctx, p):
    fam = p["family"]
    l1_bound = probabilist_modulus(fam, 0)  # the norm bound, first: its errors come first
    analyst = [("analyst", d, analyst_modulus(fam, d)) for d in p["deltas"]]
    probabilist = [("probabilist", c, probabilist_modulus(fam, c)) for c in p["cs"]]
    detail = [f"l1_bound={_fmt(l1_bound)}"]
    for curve, x_name, bound in ((analyst, "delta", p["analyst_final_at_most"]),
                                 (probabilist, "C", p["probabilist_final_at_most"])):
        if curve and bound is not None and not at_most(curve[-1][2], bound, ctx.mode):
            kind, x, value = curve[-1]
            detail.append(f"{kind}({x_name}={_fmt(x)})={_fmt(value)} > {_fmt(bound)}")
    rows = [("l1_bound", "", l1_bound), *analyst, *probabilist]
    return CheckResult(len(detail) == 1, " ".join(detail), ("kind", "x", "modulus"), rows)


@_op("vitali", {"family": _Key(_builtin_family), "expect_lp_decay": _Key(_bool, None),
                "expect_consistent": _Key(_bool, True)})
def _check_vitali(ctx, p):
    space, members, limit = p["family"]
    rep = vitali_empirical(space, members, limit, 1, len(members))
    holds = rep.consistent == p["expect_consistent"]
    if p["expect_lp_decay"] is not None:
        holds = holds and rep.lp_decay == p["expect_lp_decay"]
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


@_op("mc_stats", {
    "model": _model_key(), "seed": _SEED, "trials": _Key(_int(1)), "horizon": _Key(_int(0)),
    "window": _Key(_int(1), None), "osc_tol": _Key(_float, 1e-2), "min_osc_fraction": _Key(_float, None),
    "final_mean_abs_max": _Key(_float, None), "bands": _Key(_list(_band), []),
    "violation_ks": _Key(_list(_int(0)), []), "decay_factor_min": _Key(_float, None),
    "block_size": _Key(_int(1), 1024),
})
def _check_mc_stats(ctx, p):
    bands = tuple((band.a, band.b) for band in p["bands"])
    config = RunConfig(seed=p["seed"], trials=p["trials"], horizon=p["horizon"])
    stats = simulate_stats(p["model"], config, window=p["window"], bands=bands, block_size=p["block_size"])
    final_mean = float(stats.final.mean())
    rows = [
        ("trials", "", p["trials"]), ("horizon", "", p["horizon"]), ("seed", "", p["seed"]),
        ("final_mean", "", final_mean),
        ("sup_abs_max", "", float(stats.sup_abs.max())),
    ]
    holds = True
    detail_bits = []
    if p["window"] is not None:
        frac = float((stats.window_osc <= p["osc_tol"]).mean())
        rows.append(("osc_fraction_within_tol", p["osc_tol"], frac))
        detail_bits.append(f"osc_frac={frac}")
        if p["min_osc_fraction"] is not None:
            holds = holds and frac >= p["min_osc_fraction"]
    if p["final_mean_abs_max"] is not None:
        ok = abs(final_mean) <= p["final_mean_abs_max"]
        rows.append(("final_mean_within", p["final_mean_abs_max"], ok))
        holds = holds and ok
    for a, b in bands:
        counts = stats.band_counts[(a, b)]
        fractions = [float((counts >= k).mean()) for k in p["violation_ks"]]
        rows += [(f"band=({a},{b}) k={k}", "", frac) for k, frac in zip(p["violation_ks"], fractions)]
        factor = p["decay_factor_min"]
        if factor is not None and len(fractions) >= 2:
            # zero tail already decayed past measurement
            ks = p["violation_ks"]
            broken = next((f" at band=({a},{b}) k={k}->{k2}"
                           for k, k2, prev, nxt in zip(ks, ks[1:], fractions, fractions[1:])
                           if not (nxt == 0.0 or prev / max(nxt, 1e-300) >= factor)), "")
            ok = not broken
            rows.append((f"band=({a},{b}) decay_ok", factor, ok))
            holds = holds and ok
            detail_bits.append(f"decay_ok={ok}{broken}")
    detail = " ".join(detail_bits) if detail_bits else f"final_mean={final_mean}"
    return CheckResult(holds, detail, ("stat", "param", "value"), rows)


@_op("borel_cantelli", {
    "model": _model_key("independent"), "seed": _SEED, "horizon": _Key(_int(1)),
    "trials": _Key(_int(1), 10_000),
    "tail_start": _Key(_int(1), lambda ctx, out, doc: max(1, out["horizon"] // 2),
                       check=_at_most(lambda out: out["horizon"])),
    "divergence_cut": _Key(_float, lambda ctx, out, doc: out["horizon"] / 4),
    "min_match": _Key(_float, 0.0), "block_size": _Key(_int(1), 1000),
})
def _check_borel_cantelli(ctx, p):
    rep = check_borel_cantelli(
        p["model"], p["horizon"], p["trials"], p["seed"], p["divergence_cut"], p["tail_start"],
        block_size=p["block_size"],
    )
    holds = rep.match_fraction >= p["min_match"]
    detail = f"match_fraction={rep.match_fraction} p_horizon_mean={rep.p_horizon_mean}"
    return CheckResult(holds, detail, ("trial_block", "match_fraction", "p_horizon_mean"), list(rep.blocks), rep)


_MC_OPS = {"mc_stats", "borel_cantelli", "vitali"}


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------


def _run_check(ctx, op: str, p: dict, where) -> CheckResult:
    """Run one resolved check; a value the library rejects is a ConfigError."""
    try:
        return CHECK_OPS[op][0](ctx, p)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{where}: {e}") from None


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
    top = _resolve(None, _SCENARIO_KEYS, doc, f"{src}: $")
    mode = mode_override or top["mode"]
    if mode is None:
        raise ConfigError(f"{src}: $.mode: must be 'exact' or 'float'")
    if require_exact and mode != "exact":
        raise ConfigError(f"{src}: $.mode: this command runs exact scenarios only")
    seed = top["seed"] if seed_override is None else _seed(None, seed_override, "--seed")
    name, checks = top["name"], top["checks"]

    # validate all descriptors before running anything
    seen = set()
    for i, c in enumerate(checks):
        if not isinstance(c, dict):
            raise ConfigError(f"{src}: $.checks[{i}]: expected an object")
        cname = _name(None, c.get("name"), f"{src}: $.checks[{i}].name")
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

    ctx = _Context(doc, f"{src}: $", mode, seed)
    params = [
        _resolve(ctx, CHECK_OPS[c["op"]][1], c, f"{src}: $.checks[{i}]", skip=("name", "op"))
        for i, c in enumerate(checks)
    ]

    # run every check before printing or writing, so an exit 2 leaves nothing
    results = [
        _run_check(ctx, c["op"], p, f"{src}: $.checks[{i}]")
        for i, (c, p) in enumerate(zip(checks, params))
    ]
    os.makedirs(out_dir, exist_ok=True)
    summary = []
    failures = 0
    for c, result in zip(checks, results):
        _write_csv(os.path.join(out_dir, f"{name}__{c['name']}.csv"), result.header, result.rows)
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
# subcommands: each runs one op on a descriptor built from its flags
# ---------------------------------------------------------------------------


def _run_one(op: str, descriptor: dict, root, mode: Mode, out_dir, csv_name: str, doc=None) -> CheckResult:
    """Resolve ``descriptor`` against ``op``'s keys, run it on the instances
    of ``doc`` and write ``csv_name`` into ``out_dir`` when one is given.
    ``root`` names the descriptor's keys in errors: a _Flags or a JSON path."""
    ctx = _Context(doc or {}, root, mode)
    p = _resolve(ctx, CHECK_OPS[op][1], descriptor, root)
    result = _run_check(ctx, op, p, root)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, csv_name), result.header, result.rows)
    return result


def _given(**keys) -> dict:
    """The keys whose flag was given; the op's key table supplies the rest."""
    return {k: v for k, v in keys.items() if v is not None}


def _split(text: Optional[str], sep: str = ","):
    return [t.strip() for t in text.split(sep)] if text else None


def _print_rows(result: CheckResult) -> None:
    for kind, x, v in result.rows:
        print(f"{kind},{_fmt(x)},{_fmt(v)}")


def _path_file(doc, src: str) -> tuple:
    """(mode, process document) of a path file, whose 'values' are one path
    or one row of atom values per time."""
    top = _resolve(None, _PATH_KEYS, doc, f"{src}: $")
    raw = top["values"]
    return top["mode"], {"values": raw if isinstance(raw[0], list) else [[v] for v in raw]}


def cmd_run(args) -> int:
    doc = _load_json(args.scenario)
    return run_scenario(
        doc, args.scenario, args.out_dir, seed_override=args.seed, mode_override=args.mode
    )


def cmd_check(args) -> int:
    doc = _load_json(args.scenario)
    return run_scenario(doc, args.scenario, args.out_dir, require_exact=True)


def cmd_crossings(args) -> int:
    """The ``crossing_table`` check on a path file."""
    mode, process = _path_file(_load_json(args.path), args.path)
    flags = _Flags("martkit crossings", process=f"{args.path}: $", N="--n")
    descriptor = _given(band=_split(args.band), process=process, N=args.n)
    result = _run_one("crossing_table", descriptor, flags, mode, args.out_dir, "crossings.csv")
    _write_csv(sys.stdout, result.header, result.rows)
    print("upcrossings_before," + ",".join(str(c) for c in result.report))
    return 0


def cmd_converge(args) -> int:
    """The ``ae_convergence`` check on a model unrolled to ``--horizon``."""
    flags = _Flags("martkit converge", model=_Flags("--model/--p-up", kind="--model"))
    model = _given(kind=args.model, p_up=args.p_up, horizon=args.horizon)
    bands = [_split(t) for t in args.bands.split(";")] if args.bands else None
    descriptor = _given(cutoff=args.cutoff, bands=bands, l1_bound=args.l1_bound)
    _print_rows(_run_one("ae_convergence", descriptor, flags, args.mode, args.out_dir, "converge.csv",
                         doc={"model": model}))
    return 0


def cmd_bc(args) -> int:
    """The ``borel_cantelli`` check; exits 1 below ``--min-match``."""
    flags = _Flags("martkit bc", model=_Flags("--prob/--schedule", kind="--model"), divergence_cut="--cut")
    model = _given(kind=args.model, schedule=args.schedule, prob=args.prob)
    descriptor = _given(model=model, horizon=args.horizon, trials=args.trials, tail_start=args.tail_start,
                        divergence_cut=args.cut, seed=args.seed, min_match=args.min_match,
                        block_size=args.block_size)
    result = _run_one("borel_cantelli", descriptor, flags, "float", args.out_dir, "bc.csv")
    print(f"match_fraction = {result.report.match_fraction}")
    print(f"p_horizon_mean = {result.report.p_horizon_mean}")
    return 0 if result.holds else 1


def cmd_ui(args) -> int:
    """The ``ui_curves`` check on a builtin family."""
    flags = _Flags("martkit ui", family=_Flags("--family", builtin="--family"))
    family = _given(builtin=args.family, horizon=args.horizon, p=args.p)
    descriptor = _given(family=family, deltas=_split(args.deltas), cs=_split(args.cs))
    _print_rows(_run_one("ui_curves", descriptor, flags, args.mode, args.out_dir, "ui.csv"))
    return 0


_REFERENCE_PATH_EXPECT = ((0, 5, 10, 13, 13), (1, 7, 11, 13, 13), 2)  # sigma, tau, upcrossings


def _scenario_text(filename: str) -> str:
    return resources.files("martkit").joinpath("scenarios", filename).read_text()


# Drawn by the re-keyed route; not a multiple of 4, so its last counter block
# is part-used.
_RNG_LONG_HORIZON = 1001


def _rng_streams_mismatch() -> Optional[tuple]:
    """First (route, horizon) at which a block draw differs from generators
    built per trial by ``trial_rng``; None when all agree bit for bit.  The
    vectorised kernel is tested at the cut and just above it, and
    ``_uniform_block``'s re-keyed generator just above the cut and at a long
    horizon.  A numpy whose Philox stream, double conversion or state layout
    changed is caught here."""
    seed, start, count = (1 << 63) + 12345, (1 << 40) + 7, 5
    cut = _VECTOR_RNG_MAX_HORIZON
    for route, draw, horizon in (("vectorised", _philox_uniforms, cut),
                                 ("vectorised", _philox_uniforms, cut + 1),
                                 ("re-keyed", _uniform_block, cut + 1),
                                 ("re-keyed", _uniform_block, _RNG_LONG_HORIZON)):
        want = np.stack([trial_rng(seed, start + i).random(horizon) for i in range(count)])
        got = draw(seed, start, count, horizon)
        if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            return route, horizon
    return None


def cmd_selftest(args) -> int:
    _seed(None, args.seed, "--seed")  # before the exact suite runs
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    failures = 0

    mismatch = _rng_streams_mismatch()
    if mismatch is None:
        cut = _VECTOR_RNG_MAX_HORIZON
        print(
            "[PASS] rng-streams: vectorised Philox4x64-10 matches trial_rng at horizons "
            f"{cut} and {cut + 1}, re-keyed at {cut + 1} and {_RNG_LONG_HORIZON}"
        )
    else:
        route, horizon = mismatch
        print(f"[FAIL] rng-streams: {route} Philox4x64-10 differs from trial_rng at horizon {horizon}")
        failures += 1

    # replaying the Monte Carlo suite in this process (quietly, into
    # mc_replay) must give byte-identical CSVs
    for name, sub, seed, stream in (("exact_suite.json", "exact", None, None),
                                    ("mc_suite.json", "mc", args.seed, None),
                                    ("mc_suite.json", "mc_replay", args.seed, io.StringIO())):
        doc = json.loads(_scenario_text(name))
        failures += run_scenario(doc, name, os.path.join(out, sub), seed_override=seed, stream=stream) != 0
    first_dir, replay_dir = os.path.join(out, "mc"), os.path.join(out, "mc_replay")
    mismatched = [
        fname for fname in sorted(os.listdir(first_dir))
        if not filecmp.cmp(os.path.join(first_dir, fname), os.path.join(replay_dir, fname), shallow=False)
    ]
    if mismatched:
        print(f"[FAIL] replay-determinism: {','.join(mismatched)} differ")
        failures += len(mismatched)
    else:
        print("[PASS] replay-determinism: first run and replay CSVs identical")

    mode, process = _path_file(json.loads(_scenario_text("reference_path.json")), "reference_path.json")
    result = _run_one("crossing_table", {"band": [0, 1], "process": process}, "reference_path.json: $",
                      mode, out, "reference_path.csv")
    sigma, tau, count = tuple(r[2] for r in result.rows), tuple(r[3] for r in result.rows), result.report[0]
    ref_ok = (sigma, tau, count) == _REFERENCE_PATH_EXPECT
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
    common(run)
    run.set_defaults(fn=cmd_run)

    chk = sub.add_parser("check", help="run an exact theorem-suite scenario")
    chk.add_argument("scenario")
    common(chk)
    chk.set_defaults(fn=cmd_check)

    cr = sub.add_parser("crossings", help="crossing table and upcrossing count for a path file")
    cr.add_argument("--band", required=True, help="a,b")
    cr.add_argument("--path", required=True, help="JSON file with 'mode' and 'values'")
    cr.add_argument("--n", type=int, default=None, help="time bound N (default: path horizon)")
    cr.add_argument("--out-dir", default=None)
    cr.set_defaults(fn=cmd_crossings)

    cv = sub.add_parser("converge", help="the ae_convergence check on an unrolled model")
    cv.add_argument("--model", choices=["fair_walk", "biased_walk", "polya"], required=True)
    cv.add_argument("--p-up", default=None, help="biased walk up-probability")
    cv.add_argument("--horizon", type=int, required=True)
    cv.add_argument("--cutoff", required=True, help="sup-bound cutoff")
    cv.add_argument("--bands", default=None, help="semicolon-separated a,b pairs")
    cv.add_argument("--l1-bound", default=None)
    cv.add_argument("--mode", choices=["exact", "float"], default="exact")
    cv.add_argument("--out-dir", default=None)
    cv.set_defaults(fn=cmd_converge)

    bc = sub.add_parser("bc", help="the borel_cantelli check (tail-vs-divergence agreement)")
    bc.add_argument("--model", default="independent")
    bc.add_argument("--prob", type=float, default=None, help="constant event probability")
    bc.add_argument("--schedule", choices=sorted(_SCHEDULES), default=None)
    bc.add_argument("--horizon", type=int, required=True)
    bc.add_argument("--trials", type=int, default=None)
    bc.add_argument("--tail-start", type=int, default=None, help="default horizon//2")
    bc.add_argument("--cut", default=None, help="default horizon/4")
    bc.add_argument("--seed", type=int, default=42)
    bc.add_argument("--min-match", default=None)
    bc.add_argument("--block-size", type=int, default=None)
    bc.add_argument("--out-dir", default=None)
    bc.set_defaults(fn=cmd_bc)

    ui = sub.add_parser("ui", help="the ui_curves check on a builtin family")
    ui.add_argument("--family", choices=sorted(_BUILTIN_FAMILIES), required=True)
    ui.add_argument("--horizon", type=int, required=True)
    ui.add_argument("--p", default=None)
    ui.add_argument("--deltas", default=None, help="comma-separated small-set sizes")
    ui.add_argument("--cs", default=None, help="comma-separated truncation levels")
    ui.add_argument("--mode", choices=["exact", "float"], default="exact")
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
