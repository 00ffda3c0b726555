"""Shared random-instance generators.

Everything takes a ``random.Random`` so hypothesis can drive instance
generation through integer seeds while the acceptance suite uses plain
seeded loops.  All exact-mode values are small Fractions to keep
denominators bounded.
"""

import inspect
import random
from fractions import Fraction

import martkit
from martkit import (
    Classification,
    FiniteMeasureSpace,
    Filtration,
    MartingaleClass,
    Partition,
    Process,
    RandomVariable,
    condexp,
)

# Passed as ``classification=``, this asserts the martingale premise without
# computing it, so a check's arithmetic runs on a process the gate would refuse.
ASSUMED_MARTINGALE = Classification(MartingaleClass.MARTINGALE, True, None, None, None)


def random_fraction(rng: random.Random, lo: int = -4, hi: int = 4, max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_space(rng: random.Random, max_atoms: int = 16, zero_prob: float = 0.2):
    """Rational weights, a sprinkling of zero-weight atoms, at least one positive."""
    n = rng.randint(2, max_atoms)
    weights = []
    for _ in range(n):
        if rng.random() < zero_prob:
            weights.append(Fraction(0))
        else:
            weights.append(Fraction(rng.randint(1, 8), rng.randint(1, 4)))
    if all(w == 0 for w in weights):
        weights[rng.randrange(n)] = Fraction(1)
    return FiniteMeasureSpace.from_weights(weights, mode="exact")


def random_rv(rng: random.Random, n: int) -> RandomVariable:
    return RandomVariable.from_values([random_fraction(rng) for _ in range(n)], "exact")


def random_partition(rng: random.Random, n: int) -> Partition:
    block_of = [rng.randrange(max(1, n // 2)) for _ in range(n)]
    # renumbering is canonical inside Partition.of
    return Partition.of(block_of)


def refine(rng: random.Random, p: Partition) -> Partition:
    """Split each block of p independently into one or two pieces."""
    n = p.atom_count
    block_of = [0] * n
    label = 0
    for block in p.blocks():
        atoms = sorted(block)
        if len(atoms) > 1 and rng.random() < 0.6:
            cut = rng.randint(1, len(atoms) - 1)
            for a in atoms[:cut]:
                block_of[a] = label
            for a in atoms[cut:]:
                block_of[a] = label + 1
            label += 2
        else:
            for a in atoms:
                block_of[a] = label
            label += 1
    return Partition.of(block_of)


def nested_partition_pair(rng: random.Random, n: int):
    """(sub, ambient) with sigma(sub) contained in sigma(ambient)."""
    sub = random_partition(rng, n)
    ambient = sub
    for _ in range(rng.randint(1, 3)):
        ambient = refine(rng, ambient)
    return sub, ambient


def random_filtration(rng: random.Random, n: int, horizon: int, to_singletons: bool = False) -> Filtration:
    steps = [Partition.trivial(n) if rng.random() < 0.5 else random_partition(rng, n)]
    for _ in range(horizon):
        steps.append(refine(rng, steps[-1]))
    if to_singletons:
        steps[-1] = Partition.singletons(n)
    return Filtration.of(steps)


def random_martingale(rng: random.Random, space, F: Filtration) -> Process:
    """Backward construction: arbitrary terminal slice, then tower averages."""
    n = space.atom_count
    terminal_blocks = F.steps[F.horizon].blocks()
    values = [Fraction(0)] * n
    for block in terminal_blocks:
        v = random_fraction(rng)
        for a in block:
            values[a] = v
    rows = [RandomVariable.from_values(values, "exact")]
    for k in range(F.horizon - 1, -1, -1):
        rows.append(condexp(space, rows[-1], F.steps[k]))
    rows.reverse()
    return Process.from_rvs(rows)


def random_predictable_drift(rng: random.Random, space, F: Filtration) -> Process:
    """Nondecreasing predictable process starting at 0 (a Doob drift)."""
    n = space.atom_count
    rows = [[Fraction(0)] * n]
    for k in range(F.horizon):
        inc = [Fraction(0)] * n
        for block in F.steps[k].blocks():
            d = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            for a in block:
                inc[a] = d
        rows.append([x + d_ for x, d_ in zip(rows[-1], inc)])
    return Process.from_values(rows, "exact")


def random_submartingale(rng: random.Random, space, F: Filtration) -> Process:
    m = random_martingale(rng, space, F)
    a = random_predictable_drift(rng, space, F)
    rows = [
        [mv + av for mv, av in zip(m.values[k], a.values[k])]
        for k in range(F.horizon + 1)
    ]
    return Process.from_values(rows, "exact")


def random_predictable_bounded(rng: random.Random, space, F: Filtration, R: Fraction) -> Process:
    """Predictable c with 0 <= c <= R pointwise."""
    n = space.atom_count
    rows = []
    for k in range(F.horizon + 1):
        step = F.steps[0] if k == 0 else F.steps[k - 1]
        row = [Fraction(0)] * n
        for block in step.blocks():
            den = rng.randint(1, 4)
            c = Fraction(rng.randint(0, int(R * den)), den)
            c = min(c, R)
            for a in block:
                row[a] = c
        rows.append(row)
    return Process.from_values(rows, "exact")


def public_entry_points():
    """(name, callable) for every callable of ``martkit.__all__``, with each
    class's constructor and static methods."""
    for name in martkit.__all__:
        obj = getattr(martkit, name)
        if inspect.isclass(obj):
            if not issubclass(obj, BaseException):
                yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, staticmethod):
                    yield f"{name}.{attr}", member.__func__
        elif callable(obj):
            yield name, obj
