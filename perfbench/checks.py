"""Independent references the benchmark verifies martkit's outputs against,
and the canonical form its output digests are taken over.

Nothing here calls martkit: the upcrossing counter is a single-pass state
machine, Monte Carlo paths are redrawn from ``np.random.Philox(key=[seed, t])``
directly, and integrals are plain weighted sums.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9


def close(x, y, exact: bool, tol: float = FLOAT_TOL) -> bool:
    """Bitwise equality in exact mode, a relative tolerance in float mode."""
    if exact:
        return x == y
    return abs(float(x) - float(y)) <= tol * max(1.0, abs(float(x)), abs(float(y)))


def all_close(xs, ys, exact: bool, tol: float = FLOAT_TOL) -> bool:
    xs, ys = tuple(xs), tuple(ys)
    return len(xs) == len(ys) and all(close(x, y, exact, tol) for x, y in zip(xs, ys))


def upcrossings_before(path, a, b, N: int) -> int:
    """Upcrossings of (a, b) completed at a time < N, for a < b: the path
    arms at or below a, and a visit at or above b while armed completes one."""
    count = 0
    armed = False
    for t in range(N):
        v = path[t]
        if armed and v >= b:
            count += 1
            armed = False
        if v <= a:
            armed = True
    return count


def weighted_sum(weights, values):
    total = 0 * weights[0]
    for w, v in zip(weights, values):
        total = total + w * v
    return total


def philox_uniforms(seed: int, trial: int, horizon: int) -> np.ndarray:
    """The uniforms of one trial's stream, drawn without martkit."""
    bits = np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
    return np.random.Generator(bits).random(horizon)


def walk_path(u, p_up: float, step: float) -> list:
    out = [0.0]
    for x in u:
        out.append(out[-1] + (step if x < p_up else -step))
    return out


def polya_path(u, red: float, black: float) -> list:
    out = [red / (red + black)]
    for x in u:
        if x < red / (red + black):
            red += 1.0
        else:
            black += 1.0
        out.append(red / (red + black))
    return out


def canon(obj, float_fmt: str | None = None):
    """JSON-ready canonical form of an output.  ``float_fmt`` rounds floats
    (for float path-space results, whose last digits a reordered sum may
    move); without it floats and arrays are kept bit for bit."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, bytes):
        return hashlib.sha256(obj).hexdigest()
    if isinstance(obj, (float, np.floating)):
        return float_fmt % obj if float_fmt else float(obj).hex()
    if isinstance(obj, np.ndarray):
        if float_fmt and obj.dtype.kind == "f":
            return [canon(float(x), float_fmt) for x in obj.ravel()]
        arr = np.ascontiguousarray(obj)
        return [str(arr.dtype), list(arr.shape), hashlib.sha256(arr.tobytes()).hexdigest()]
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return {
            f.name: canon(getattr(obj, f.name), float_fmt)
            for f in dataclasses.fields(obj)
            if not callable(getattr(obj, f.name))
        }
    if isinstance(obj, dict):
        return {str(canon(k, float_fmt)): canon(v, float_fmt) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [canon(x, float_fmt) for x in obj]
    return repr(obj)


def digest(obj, float_fmt: str | None = None) -> str:
    text = json.dumps(canon(obj, float_fmt), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]
