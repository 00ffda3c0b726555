"""The partition lattice against set-based references, and the block table
each partition derives once."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martkit import (
    Partition,
    Process,
    generated_partition,
    join,
    meet,
    natural_filtration,
    partition_le,
)
from oracles import (
    blocks_of_labels,
    canonical_labels,
    join_blocks,
    level_sets,
    meet_blocks,
    natural_filtration_blocks,
    refines,
)

# hashable labels of several types; 0.0 and -0.0 are one dict key, as 0 and 0.0
LABELS = st.integers(0, 3) | st.tuples(st.integers(0, 1), st.integers(0, 1)) | st.sampled_from(["x", 0.0, -0.0])
VALUES = {
    "float": st.sampled_from([0.0, -0.0, 1.5, -2.0, 1e-300]),
    "exact": st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-2), 1]),
}


@st.composite
def lattice_cases(draw, mode):
    n = draw(st.integers(1, 9))
    labels = st.lists(LABELS, min_size=n, max_size=n)
    rows = draw(st.lists(st.lists(VALUES[mode], min_size=n, max_size=n), min_size=1, max_size=4))
    return n, draw(labels), draw(labels), rows, draw(labels)


@given(st.sampled_from(["exact", "float"]).flatmap(lambda mode: st.tuples(st.just(mode), lattice_cases(mode))))
@settings(max_examples=300, deadline=None)
def test_lattice_matches_the_set_references(case):
    mode, (n, p_labels, q_labels, rows, ambient_labels) = case
    p, q, ambient = (Partition.of(labels) for labels in (p_labels, q_labels, ambient_labels))
    P, Q, A = (blocks_of_labels(labels) for labels in (p_labels, q_labels, ambient_labels))
    assert (p.block_of, q.block_of) == (canonical_labels(P, n), canonical_labels(Q, n))
    assert join(p, q).block_of == canonical_labels(join_blocks(P, Q), n)
    assert meet(p, q).block_of == canonical_labels(meet_blocks(P, Q), n)
    assert partition_le(p, q) == refines(P, Q) and partition_le(q, p) == refines(Q, P)
    assert p.block_count == len(P)
    f = Process.from_values(rows, mode)
    for row in f.rows():
        assert generated_partition(row).block_of == canonical_labels(level_sets(row.values, mode), n)
    for amb, blocks in ((None, {frozenset({a}) for a in range(n)}), (ambient, A)):
        want = [canonical_labels(step, n) for step in natural_filtration_blocks(f.values, mode, blocks)]
        assert [step.block_of for step in natural_filtration(f, amb).steps] == want


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_coarse_ambient_bounds_the_natural_filtration(mode):
    # every row separates all four atoms, so each step meets the ambient
    f = Process.from_values([[0, 1, 2, 3], [4, 5, 6, 7]], mode)
    F = natural_filtration(f, Partition.of([0, 1, 0, 1]))
    assert [step.block_of for step in F.steps] == [(0, 1, 0, 1)] * 2
    assert natural_filtration(f).steps == (Partition.singletons(4),) * 2


@pytest.mark.parametrize("labels", [[0], [3, 3, 1, 3, 0], ["a", (1, 2), "a", 0.5, 7]])
def test_the_block_table_stays_out_of_equality_hashing_and_repr(labels):
    p = Partition.of(labels)
    twin = Partition(p.block_of)
    assert [fld.name for fld in dataclasses.fields(Partition)] == ["block_of"]
    assert p == twin and hash(p) == hash(twin) == hash((p.block_of,))
    assert repr(p) == f"Partition(block_of={p.block_of!r})"
    assert p._of.dtype == np.intp and p._of.tolist() == list(p.block_of)
    assert p._first.tolist() == [p.block_of.index(b) for b in range(p.block_count)]
    for table in (p._of, p._first):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


@pytest.mark.parametrize("block_of", [(0.0, 1.0), (False, True), (0, np.int64(1)), (Fraction(0),), ("0",), [0, 1]])
def test_block_labels_must_be_a_tuple_of_ints(block_of):
    # (0.0, 1.0) and (False, True) were once accepted as canonical
    with pytest.raises(TypeError, match="tuple of ints"):
        Partition(block_of)


@pytest.mark.parametrize("block_of", [(1, 0), (0, 2), (0, -1), (-1,), (0, 0, 2, 1), (0, 10**30), (0, -10**30)])
def test_non_canonical_labels_raise_value_error(block_of):
    with pytest.raises(ValueError, match="not canonical"):
        Partition(block_of)


def test_partition_of_numbers_any_hashable_labels():
    assert Partition.of([0.0, 1.0, 0.0]).block_of == (0, 1, 0)
    assert Partition.of([False, True, True]).block_of == (0, 1, 1)
    assert Partition.of([(1, 2), "x", (1, 2)]).block_of == (0, 1, 0)
    assert Partition.of(np.array([5, 5, 2])).block_of == (0, 0, 1)
    assert all(type(b) is int for b in Partition.of(np.array([5, 2])).block_of)
