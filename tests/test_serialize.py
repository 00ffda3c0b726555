"""Instance documents decode through the CLI's key resolver.

A scenario spells out a space ``{"mode", "weights"}``, a random variable
``{"values"}``, a process ``{"values"}`` (one row per time), a partition
``{"atoms", "blocks"}``, a filtration ``{"atoms", "steps", "ambient"}``, a
stopping time (naturals, ``"inf"`` for never) and a band.  The round trips
below write instances with the test-side writers here and read them back
with the CLI's kinds; errors are ConfigErrors that name the JSON path.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import INF, Band, FiniteMeasureSpace, Partition, Process, RandomVariable, StoppingTime
from martkit import cli
from martkit.cli import ConfigError
from conftest import random_filtration, random_space

seeds = st.integers(0, 10**9)


def decode(kind, doc, mode="exact"):
    return cli._decode(kind, cli._Context({}, "$", mode), doc, "$")


def scalars(values, mode):
    return [str(v) if mode == "exact" else float(v) for v in values]


def blocks(p):
    return [sorted(b) for b in p.blocks()]


def test_scalar_codec_exact_mode():
    assert decode(cli._scalar, "-3/7") == Fraction(-3, 7)
    assert decode(cli._scalar, 4) == Fraction(4)
    assert decode(cli._scalar, "1/4", "float") == 0.25


def test_scalar_codec_rejects_bools_and_junk():
    for bad in (True, "not-a-number", 0.5, "1/0"):
        with pytest.raises(ConfigError, match=r"^\$\.x: "):
            cli._decode(cli._scalar, cli._Context({}, "$", "exact"), bad, "$.x")


def test_error_messages_carry_the_path():
    with pytest.raises(ConfigError, match=r"^\$\.weights\[2\]: Invalid literal"):
        decode(cli._space, {"mode": "exact", "weights": ["1", "1", "junk"]})


def test_space_round_trip():
    for mode in ("exact", "float"):
        sp = FiniteMeasureSpace.from_weights([Fraction(1, 3), 0, Fraction(2)], mode=mode)
        back = decode(cli._space, {"mode": mode, "weights": scalars(sp.weights, mode)}, mode)
        assert back.mode == mode and back.weights == sp.weights


def test_rv_and_process_round_trip():
    f = RandomVariable.from_values([Fraction(1, 2), -3], "exact")
    assert decode(cli._rv, {"values": scalars(f.values, "exact")}) == f
    p = Process.from_values([[0, 0], [1, -1]], "exact")
    assert decode(cli._process, {"values": [scalars(row, "exact") for row in p.values]}) == p


def test_partition_round_trip_is_canonical():
    p = Partition.of([1, 1, 0, 2])
    assert decode(cli._partition, {"atoms": 4, "blocks": blocks(p)[::-1]}) == p


def test_stopping_round_trip_with_infinite_times():
    tau = StoppingTime.of((0, 3, INF))
    back = decode(cli._stopping, ["inf" if t == INF else t for t in tau.time_of])
    assert back == tau and back.time_of[2] == INF


def test_band_round_trip():
    band = Band(Fraction(-1, 2), Fraction(1, 2))
    assert decode(cli._band, {"a": "-1/2", "b": "1/2"}) == band
    assert decode(cli._band, ["-1/2", "1/2"]) == band


def test_process_rejects_ragged_rows():
    with pytest.raises(ConfigError, match=r"^\$\.values: ragged process rows"):
        decode(cli._process, {"values": [["1", "2"], ["3"]]})


@pytest.mark.parametrize("kind, doc", [
    (cli._space, {"mode": "exact", "weights": ["1/2", "1/2"]}),
    (cli._rv, {"values": ["1", "2"]}),
    (cli._partition, {"atoms": 2, "blocks": [[0, 1]]}),
    (cli._process, {"values": [["0", "0"], ["1", "-1"]]}),
    (cli._filtration, {"atoms": 2, "steps": [[[0, 1]], [[0], [1]]]}),
    (cli._band, {"a": "0", "b": "1"}),
], ids=["space", "rv", "partition", "process", "filtration", "band"])
def test_unknown_keys_are_rejected_with_their_path(kind, doc):
    # a misspelt key such as "ambiant" was once ignored
    decode(kind, doc)
    with pytest.raises(ConfigError, match=r"^\$\.ambiant: unknown key"):
        decode(kind, dict(doc, ambiant=[[0, 1]]))


def test_filtration_rejects_non_nested_steps():
    doc = {"atoms": 3, "steps": [[[0, 1, 2]], [[0, 1], [2]], [[0, 2], [1]]]}
    with pytest.raises(ConfigError, match=r"^\$\.steps: filtration not monotone at step 1"):
        decode(cli._filtration, doc)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_filtration_round_trip(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
    doc = {"atoms": F.atom_count, "steps": [blocks(p) for p in F.steps], "ambient": blocks(F.ambient)}
    assert decode(cli._filtration, doc) == F
