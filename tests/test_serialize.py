import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    Band,
    Filtration,
    FiniteMeasureSpace,
    Partition,
    Process,
    RandomVariable,
    StoppingTime,
    ValuePredicate,
)
from martkit.serialize import (
    SerializationError,
    band_from_json,
    band_to_json,
    decode_scalar,
    encode_scalar,
    filtration_from_json,
    filtration_to_json,
    partition_from_json,
    partition_to_json,
    predicate_from_json,
    predicate_to_json,
    process_from_json,
    process_to_json,
    rv_from_json,
    rv_to_json,
    space_from_json,
    space_to_json,
    stopping_from_json,
    stopping_to_json,
)
from conftest import random_filtration, random_space

seeds = st.integers(0, 10**9)


def test_scalar_codec_exact_mode():
    assert encode_scalar(Fraction(-3, 7), "exact") == "-3/7"
    assert decode_scalar("-3/7", "exact", "$") == Fraction(-3, 7)
    assert decode_scalar(4, "exact", "$") == Fraction(4)


def test_scalar_codec_rejects_bools_and_junk():
    with pytest.raises(SerializationError):
        decode_scalar(True, "exact", "$.x")
    with pytest.raises(SerializationError):
        decode_scalar("not-a-number", "exact", "$.x")
    with pytest.raises(SerializationError):
        decode_scalar(0.5, "exact", "$.x")


def test_error_messages_carry_the_path():
    with pytest.raises(SerializationError) as exc:
        decode_scalar("junk", "exact", "$.weights[2]")
    assert "$.weights[2]" in str(exc.value)
    assert exc.value.path == "$.weights[2]"


def test_space_round_trip():
    sp = FiniteMeasureSpace.from_weights([Fraction(1, 3), 0, Fraction(2)], mode="exact")
    assert space_from_json(space_to_json(sp)).weights == sp.weights
    spf = FiniteMeasureSpace.from_weights([0.25, 0.75], mode="float")
    back = space_from_json(space_to_json(spf))
    assert back.mode == "float" and back.weights == spf.weights


def test_rv_and_process_round_trip():
    f = RandomVariable.from_values([Fraction(1, 2), -3], "exact")
    assert rv_from_json(rv_to_json(f), "exact").values == f.values
    p = Process.from_values([[0, 0], [1, -1]], "exact")
    assert process_from_json(process_to_json(p), "exact").values == p.values


def test_partition_round_trip_is_canonical():
    p = Partition.of([1, 1, 0, 2])
    back = partition_from_json(partition_to_json(p))
    assert set(back.block_sets()) == set(p.block_sets())


def test_stopping_round_trip_with_infinite_times():
    tau = StoppingTime.of((0, 3, float("inf")))
    doc = stopping_to_json(tau)
    assert doc[2] == "inf"
    assert stopping_from_json(doc).time_of == tau.time_of


def test_band_and_predicate_round_trip():
    band = Band(Fraction(-1, 2), Fraction(1, 2))
    assert band_from_json(band_to_json(band, "exact"), "exact") == band
    for pred in (ValuePredicate.at_most(Fraction(2)),
                 ValuePredicate.at_least(Fraction(-1)),
                 ValuePredicate.between(Fraction(0), Fraction(1))):
        back = predicate_from_json(predicate_to_json(pred, "exact"), "exact")
        assert back.kind == pred.kind and back.a == pred.a and back.b == pred.b


def test_custom_predicates_do_not_serialize():
    pred = ValuePredicate.custom(lambda v: v > 0, label="positive")
    with pytest.raises(SerializationError):
        predicate_to_json(pred, "exact")


def test_process_rejects_ragged_rows():
    with pytest.raises(SerializationError):
        process_from_json({"values": [["1", "2"], ["3"]]}, "exact")


@pytest.mark.parametrize("decode, doc", [
    (space_from_json, {"mode": "exact", "weights": ["1/2", "1/2"]}),
    (lambda d: rv_from_json(d, "exact"), {"values": ["1", "2"]}),
    (partition_from_json, {"atoms": 2, "blocks": [[0, 1]]}),
    (lambda d: process_from_json(d, "exact"), {"values": [["0", "0"], ["1", "-1"]]}),
    (filtration_from_json, {"atoms": 2, "steps": [[[0, 1]], [[0], [1]]]}),
    (lambda d: predicate_from_json(d, "exact"), {"kind": "at_most", "a": "1"}),
    (lambda d: band_from_json(d, "exact"), {"a": "0", "b": "1"}),
], ids=["space", "rv", "partition", "process", "filtration", "predicate", "band"])
def test_unknown_keys_are_rejected_with_their_path(decode, doc):
    # a misspelt key such as "ambiant" was once ignored
    decode(doc)
    with pytest.raises(SerializationError) as exc:
        decode(dict(doc, ambiant=[[0, 1]]))
    assert exc.value.path == "$.ambiant" and "unknown key" in str(exc.value)


@pytest.mark.parametrize("doc, stray", [
    ({"kind": "at_most", "a": "1", "b": "5"}, "b"),
    ({"kind": "at_least", "a": "1", "b": "5"}, "a"),
])
def test_predicate_rejects_the_bound_its_kind_does_not_use(doc, stray):
    # at_most(1) once came back with the "b" silently dropped
    with pytest.raises(SerializationError) as exc:
        predicate_from_json(doc, "exact")
    assert exc.value.path == f"$.{stray}" and "unknown key" in str(exc.value)


def test_filtration_rejects_non_nested_steps():
    doc = {
        "atoms": 3,
        "steps": [
            {"atoms": 3, "blocks": [[0, 1, 2]]},
            {"atoms": 3, "blocks": [[0, 1], [2]]},
            {"atoms": 3, "blocks": [[0, 2], [1]]},
        ],
    }
    with pytest.raises((SerializationError, ValueError)):
        filtration_from_json(doc)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_filtration_round_trip(seed):
    rng = random.Random(seed)
    sp = random_space(rng, max_atoms=8)
    F = random_filtration(rng, sp.atom_count, horizon=rng.randint(1, 4))
    back = filtration_from_json(filtration_to_json(F))
    assert back.horizon == F.horizon
    for a, b in zip(back.steps, F.steps):
        assert set(a.block_sets()) == set(b.block_sets())
