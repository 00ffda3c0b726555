"""JSON round-trips for the core value types.

Documents use plain containers: a measure space is ``{"mode", "weights"}``,
a partition ``{"atoms", "blocks"}``, a random variable ``{"values"}``, a
process a 2-D ``values`` array, a filtration ``{"atoms", "steps"}`` and an
optional ``"ambient"``.  Exact rationals travel as ``"p/q"`` strings; floats
as JSON numbers.  Stopping times are arrays of naturals with ``"inf"`` for
never.  Decode errors, unknown keys included, name the offending JSON path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .crossings import Band
from .measure import FiniteMeasureSpace, Partition, RandomVariable
from .processes import Filtration, Process
from .scalars import INF, Mode, ModeError, Scalar, coerce_scalar, format_rational
from .stopping import StoppingTime, ValuePredicate

__all__ = [
    "SerializationError",
    "encode_scalar",
    "decode_scalar",
    "space_to_json",
    "space_from_json",
    "rv_to_json",
    "rv_from_json",
    "partition_to_json",
    "partition_from_json",
    "process_to_json",
    "process_from_json",
    "filtration_to_json",
    "filtration_from_json",
    "stopping_to_json",
    "stopping_from_json",
    "predicate_to_json",
    "predicate_from_json",
    "band_to_json",
    "band_from_json",
]


class SerializationError(ValueError):
    """Decode failure; ``path`` locates the offending JSON element."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


def encode_scalar(x: Scalar, mode: Mode):
    if mode == "exact":
        return format_rational(Fraction(x))
    return float(x)


def decode_scalar(obj, mode: Mode, path: str) -> Scalar:
    if isinstance(obj, bool):
        raise SerializationError(path, "booleans are not scalars")
    try:
        return coerce_scalar(obj, mode)
    except (ModeError, ValueError, TypeError, ZeroDivisionError) as e:
        raise SerializationError(path, str(e)) from None


def _require_list(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise SerializationError(path, f"expected an array, got {type(obj).__name__}")
    return obj


def _require_dict(obj, path: str, keys: tuple) -> dict:
    if not isinstance(obj, dict):
        raise SerializationError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise SerializationError(f"{path}.{key}", f"unknown key; expected one of {list(keys)}")
    return obj


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise SerializationError(path, f"missing required field '{key}'")
    return obj[key]


def _decode_mode(obj, path: str) -> Mode:
    if obj not in ("exact", "float"):
        raise SerializationError(path, f"mode must be 'exact' or 'float', got {obj!r}")
    return obj


# ---------------------------------------------------------------------------
# spaces and random variables
# ---------------------------------------------------------------------------


def space_to_json(space: FiniteMeasureSpace) -> dict:
    return {
        "mode": space.mode,
        "weights": [encode_scalar(w, space.mode) for w in space.weights],
    }


def space_from_json(obj, path: str = "$") -> FiniteMeasureSpace:
    doc = _require_dict(obj, path, ("mode", "weights"))
    mode = _decode_mode(_get(doc, "mode", path), f"{path}.mode")
    raw = _require_list(_get(doc, "weights", path), f"{path}.weights")
    weights = [decode_scalar(w, mode, f"{path}.weights[{i}]") for i, w in enumerate(raw)]
    try:
        return FiniteMeasureSpace.from_weights(weights, mode=mode)
    except (ValueError, ModeError) as e:
        raise SerializationError(f"{path}.weights", str(e)) from None


def rv_to_json(f: RandomVariable) -> dict:
    return {"values": [encode_scalar(v, f.mode) for v in f.values]}


def rv_from_json(obj, mode: Mode, path: str = "$") -> RandomVariable:
    doc = _require_dict(obj, path, ("values",))
    raw = _require_list(_get(doc, "values", path), f"{path}.values")
    values = [decode_scalar(v, mode, f"{path}.values[{i}]") for i, v in enumerate(raw)]
    return RandomVariable.from_values(values, mode)


# ---------------------------------------------------------------------------
# partitions and filtrations
# ---------------------------------------------------------------------------


def partition_to_json(p: Partition) -> dict:
    return {"atoms": p.atom_count, "blocks": [sorted(b) for b in p.blocks()]}


def _decode_blocks(obj, path: str) -> list:
    rows = _require_list(obj, path)
    blocks = []
    for i, row in enumerate(rows):
        cells = _require_list(row, f"{path}[{i}]")
        for j, a in enumerate(cells):
            if isinstance(a, bool) or not isinstance(a, int):
                raise SerializationError(f"{path}[{i}][{j}]", "atom indices must be integers")
        blocks.append(cells)
    return blocks


def partition_from_json(obj, path: str = "$") -> Partition:
    doc = _require_dict(obj, path, ("atoms", "blocks"))
    atoms = _get(doc, "atoms", path)
    if isinstance(atoms, bool) or not isinstance(atoms, int):
        raise SerializationError(f"{path}.atoms", "atom count must be an integer")
    blocks = _decode_blocks(_get(doc, "blocks", path), f"{path}.blocks")
    try:
        return Partition.from_blocks(blocks, atoms)
    except ValueError as e:
        raise SerializationError(f"{path}.blocks", str(e)) from None


def process_to_json(f: Process) -> dict:
    return {
        "values": [[encode_scalar(v, f.mode) for v in row] for row in f.values]
    }


def process_from_json(obj, mode: Mode, path: str = "$") -> Process:
    doc = _require_dict(obj, path, ("values",))
    raw = _require_list(_get(doc, "values", path), f"{path}.values")
    rows = []
    for n, row in enumerate(raw):
        cells = _require_list(row, f"{path}.values[{n}]")
        rows.append(
            [decode_scalar(v, mode, f"{path}.values[{n}][{i}]") for i, v in enumerate(cells)]
        )
    try:
        return Process.from_values(rows, mode)
    except ValueError as e:
        raise SerializationError(f"{path}.values", str(e)) from None


def filtration_to_json(F: Filtration) -> dict:
    return {
        "atoms": F.atom_count,
        "steps": [[sorted(b) for b in p.blocks()] for p in F.steps],
        "ambient": [sorted(b) for b in F.ambient.blocks()],
    }


def filtration_from_json(obj, path: str = "$") -> Filtration:
    doc = _require_dict(obj, path, ("atoms", "steps", "ambient"))
    atoms = _get(doc, "atoms", path)
    if isinstance(atoms, bool) or not isinstance(atoms, int):
        raise SerializationError(f"{path}.atoms", "atom count must be an integer")
    raw_steps = _require_list(_get(doc, "steps", path), f"{path}.steps")
    steps = []
    for n, blocks in enumerate(raw_steps):
        decoded = _decode_blocks(blocks, f"{path}.steps[{n}]")
        try:
            steps.append(Partition.from_blocks(decoded, atoms))
        except ValueError as e:
            raise SerializationError(f"{path}.steps[{n}]", str(e)) from None
    ambient = None
    if doc.get("ambient") is not None:
        decoded = _decode_blocks(doc["ambient"], f"{path}.ambient")
        try:
            ambient = Partition.from_blocks(decoded, atoms)
        except ValueError as e:
            raise SerializationError(f"{path}.ambient", str(e)) from None
    try:
        return Filtration.of(steps, ambient)
    except ValueError as e:
        raise SerializationError(f"{path}.steps", str(e)) from None


# ---------------------------------------------------------------------------
# stopping times, predicates, bands
# ---------------------------------------------------------------------------


def stopping_to_json(tau: StoppingTime) -> list:
    return ["inf" if t == INF else t for t in tau.time_of]


def stopping_from_json(obj, path: str = "$") -> StoppingTime:
    raw = _require_list(obj, path)
    times = []
    for i, t in enumerate(raw):
        if t == "inf":
            times.append(INF)
        elif isinstance(t, int) and not isinstance(t, bool) and t >= 0:
            times.append(t)
        else:
            raise SerializationError(f"{path}[{i}]", f"expected a natural or 'inf', got {t!r}")
    return StoppingTime.of(times)


def predicate_to_json(s: ValuePredicate, mode: Mode) -> dict:
    if s.kind == "custom":
        raise SerializationError("$", "custom predicates do not serialize; use a closed form")
    doc = {"kind": s.kind}
    if s.a is not None:
        doc["a"] = encode_scalar(s.a, mode)
    if s.b is not None:
        doc["b"] = encode_scalar(s.b, mode)
    return doc


_PREDICATE_FORMS = {
    "at_most": (ValuePredicate.at_most, ("a",)),
    "at_least": (ValuePredicate.at_least, ("b",)),
    "between": (ValuePredicate.between, ("a", "b")),
}


def predicate_from_json(obj, mode: Mode, path: str = "$") -> ValuePredicate:
    """Each kind takes only the bounds it uses: a stray one is an unknown key."""
    doc = _require_dict(obj, path, ("kind", "a", "b"))
    kind = _get(doc, "kind", path)
    if not isinstance(kind, str) or kind not in _PREDICATE_FORMS:
        raise SerializationError(
            f"{path}.kind", f"expected 'at_most', 'at_least' or 'between', got {kind!r}"
        )
    make, bounds = _PREDICATE_FORMS[kind]
    _require_dict(doc, path, ("kind",) + bounds)
    return make(*(decode_scalar(_get(doc, k, path), mode, f"{path}.{k}") for k in bounds))


def band_to_json(band: Band, mode: Mode) -> dict:
    return {"a": encode_scalar(band.a, mode), "b": encode_scalar(band.b, mode)}


def band_from_json(obj, mode: Mode, path: str = "$") -> Band:
    doc = _require_dict(obj, path, ("a", "b"))
    a = decode_scalar(_get(doc, "a", path), mode, f"{path}.a")
    b = decode_scalar(_get(doc, "b", path), mode, f"{path}.b")
    return Band(a=a, b=b)
