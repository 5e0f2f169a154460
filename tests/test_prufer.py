"""Sequence codec for rooted labeled trees."""

import itertools
import re

import pytest
import reference_prufer

from scmlab import RootedTree, enumerate_trees, prufer_decode, prufer_encode
from scmlab.errors import InvalidSequenceError


def test_path_example():
    tree = RootedTree(3, 1, {2: 1, 3: 2})
    assert prufer_encode(tree) == ((2,), 1)
    assert prufer_decode((2,), 1, 3) == tree


def test_star_example():
    tree = RootedTree(4, 1, {2: 1, 3: 1, 4: 1})
    assert prufer_encode(tree) == ((1, 1), 1)
    assert prufer_decode((1, 1), 1, 4) == tree


def test_tiny_trees_round_trip():
    single = RootedTree(1, 1, {})
    assert prufer_encode(single) == ((), 1)
    assert prufer_decode((), 1, 1) == single
    for root in (1, 2):
        pair = RootedTree(2, root, {3 - root: root})
        assert prufer_encode(pair) == ((), root)
        assert prufer_decode((), root, 2) == pair


def test_rooting_changes_only_orientation():
    # same underlying path, rooted at each end
    left = prufer_decode((2,), 1, 3)
    right = prufer_decode((2,), 3, 3)
    assert left.edges() == right.edges()
    assert left.parent != right.parent


def test_round_trip_all_trees_n5():
    seen = set()
    for tree in enumerate_trees(5):
        sequence, root = prufer_encode(tree)
        assert len(sequence) == 3
        assert prufer_decode(sequence, root, 5) == tree
        seen.add((sequence, root))
    assert len(seen) == 5**4


def test_decode_then_encode_is_identity_n5():
    for root in range(1, 6):
        for sequence in itertools.product(range(1, 6), repeat=3):
            tree = prufer_decode(sequence, root, 5)
            assert prufer_encode(tree) == (sequence, root)


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidSequenceError):
        prufer_decode((1,), 1, 2)  # wrong length
    with pytest.raises(InvalidSequenceError):
        prufer_decode((5,), 1, 3)  # label out of range
    with pytest.raises(InvalidSequenceError):
        prufer_decode((), 3, 2)  # root out of range
    with pytest.raises(InvalidSequenceError):
        prufer_decode((), 1, 0)  # no nodes


@pytest.mark.parametrize(
    "sequence, root, n",
    [
        pytest.param((2.7,), 1, 3, id="float-label"),
        pytest.param(("2",), 1, 3, id="str-label"),
        pytest.param((), True, 2, id="bool-root"),
        pytest.param((), 1.5, 2, id="float-root"),
        pytest.param((2,), 1, 3.0, id="float-n"),
    ],
)
def test_a_value_that_is_not_an_int_is_refused_first(sequence, root, n):
    with pytest.raises(InvalidSequenceError, match="must be ints"):
        prufer_decode(sequence, root, n)
    # before the length check too
    with pytest.raises(InvalidSequenceError, match="must be ints"):
        prufer_decode((*sequence, 1), root, n)


@pytest.mark.parametrize(
    "sequence, root, n",
    [((1,), 1, 2), ((5,), 1, 3), ((), 3, 2), ((), 1, 0), ((), 0, 0), ((9, 9), 9, 3), ((0, 1), 1, 4)],
)
def test_int_inputs_get_the_reference_error(sequence, root, n):
    with pytest.raises(InvalidSequenceError) as expected:
        reference_prufer.prufer_decode(sequence, root, n)
    with pytest.raises(InvalidSequenceError, match=f"^{re.escape(str(expected.value))}$"):
        prufer_decode(sequence, root, n)


def test_codec_matches_reference_on_every_tree_up_to_n6():
    trees = 0
    for n in range(1, 7):
        for root in range(1, n + 1):
            for sequence in itertools.product(range(1, n + 1), repeat=max(n - 2, 0)):
                tree = prufer_decode(sequence, root, n)
                assert tree.parent == reference_prufer.prufer_decode(sequence, root, n).parent
                assert prufer_encode(tree) == reference_prufer.prufer_encode(tree) == (sequence, root)
                trees += 1
    assert trees == 8477
