"""Decoders must invert the family builders exactly and reject outsiders."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmlab import (
    CF1,
    INT1,
    OBS,
    BipartiteGraph,
    ExactDist,
    Family,
    HiddenString,
    Mechanism,
    NoiseDist,
    RootedTree,
    Scm,
    build_tree_scm,
    build_xor_scm,
    compute_oracle,
    descendants_from_int1,
    parse,
    serialize,
    graph_from_int1,
    string_from_cf1,
    tree_from_int1,
)
from scmlab import gates
from scmlab.decoders import _check_exact_match
from scmlab.errors import (
    AmbiguousParentError,
    KindMismatchError,
    OracleDecodeError,
    NotBipartiteLikeError,
    NotTreeLikeError,
    NotXorLikeError,
)

from conftest import small_scms

HALF = Fraction(1, 2)
FAIR = NoiseDist.bernoulli(HALF)


def int1_of_tree(tree: RootedTree):
    return compute_oracle(build_tree_scm(tree), INT1)


def corrupt_component(oracle, index, dist):
    """Swap one component's distribution, keeping the oracle well formed."""
    components = list(oracle.components)
    components[index] = (components[index][0], dist)
    return dataclasses.replace(oracle, components=tuple(components))


class TestDescendantSets:
    def test_chain(self):
        ds = descendants_from_int1(int1_of_tree(RootedTree(3, 1, {2: 1, 3: 2})))
        assert ds.sets == {
            1: frozenset({1, 2, 3}),
            2: frozenset({2, 3}),
            3: frozenset({3}),
        }

    def test_star(self):
        ds = descendants_from_int1(
            int1_of_tree(RootedTree(4, 1, {2: 1, 3: 1, 4: 1}))
        )
        assert ds.sets[1] == frozenset({1, 2, 3, 4})
        for leaf in (2, 3, 4):
            assert ds.sets[leaf] == frozenset({leaf})

    def test_sets_are_laminar_across_family(self):
        family = Family("tree", 4)
        for tree in family.parameters():
            ds = descendants_from_int1(int1_of_tree(tree))
            for a, b in itertools.combinations(ds.sets.values(), 2):
                assert a <= b or b <= a or not (a & b)

    def test_requires_int1(self):
        oracle = compute_oracle(build_tree_scm(RootedTree(2, 1, {2: 1})), OBS)
        with pytest.raises(KindMismatchError):
            descendants_from_int1(oracle)


class TestTreeDecoder:
    def test_round_trip_all_small_trees(self):
        for n in (1, 2, 3, 4):
            for tree in Family("tree", n).parameters():
                assert tree_from_int1(int1_of_tree(tree)) == tree

    def test_recovers_noncanonical_root(self):
        tree = RootedTree(4, 3, {1: 3, 2: 1, 4: 1})
        assert tree_from_int1(int1_of_tree(tree)) == tree

    def test_rejects_rootless_oracle(self):
        oracle = compute_oracle(build_xor_scm(HiddenString(1, "0")), INT1)
        with pytest.raises(NotTreeLikeError):
            tree_from_int1(oracle)

    def test_rejects_off_dichotomy_probability(self):
        scm = Scm(
            2,
            (
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 3))),
            ),
        )
        with pytest.raises(NotTreeLikeError):
            tree_from_int1(compute_oracle(scm, INT1))

    def test_rejects_corrupted_unprobed_component(self):
        # the descendant probes only read do(=0) components, so corrupt a
        # do(=1) one: the recovered chain's own oracle then differs
        oracle = int1_of_tree(RootedTree(2, 1, {2: 1}))
        assert oracle.components[2][0] == "do i=0 b=1"
        bad = corrupt_component(oracle, 2, ExactDist(2, {"10": Fraction(1)}))
        with pytest.raises(NotTreeLikeError):
            tree_from_int1(bad)

    def test_rejects_ambiguous_parent(self):
        # two COPY paths from the root rejoin at an AND sink, so the sink
        # has two minimal ancestors
        scm = Scm(
            4,
            (
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.COPY, (0,), NoiseDist.constant()),
                Mechanism(gates.COPY, (0,), NoiseDist.constant()),
                Mechanism(gates.AND, (1, 2), NoiseDist.constant()),
            ),
        )
        with pytest.raises(AmbiguousParentError):
            tree_from_int1(compute_oracle(scm, INT1))

    def test_requires_int1(self):
        oracle = compute_oracle(build_tree_scm(RootedTree(2, 1, {2: 1})), CF1)
        with pytest.raises(KindMismatchError):
            tree_from_int1(oracle)


class TestGraphDecoder:
    def test_round_trip_all_small_graphs(self):
        for m in (1, 2):
            for graph in Family("bipartite", m).parameters():
                oracle = compute_oracle(Family("bipartite", m).build(graph), INT1)
                assert graph_from_int1(oracle) == graph

    def test_round_trip_specific_edge_sets(self):
        for edges in (frozenset(), frozenset({(0, 1), (1, 0)})):
            graph = BipartiteGraph(2, edges)
            oracle = compute_oracle(Family("bipartite", 2).build(graph), INT1)
            assert graph_from_int1(oracle) == graph

    def test_rejects_even_variable_count(self):
        oracle = compute_oracle(build_xor_scm(HiddenString(2, "00")), INT1)
        with pytest.raises(NotBipartiteLikeError):
            graph_from_int1(oracle)

    def test_rejects_off_dichotomy_probability(self):
        scm = Scm(
            3,
            (
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 3))),
            ),
        )
        with pytest.raises(NotBipartiteLikeError):
            graph_from_int1(compute_oracle(scm, INT1))

    def test_rejects_tree_oracle_that_passes_the_probes(self):
        # a 3-node copy chain rooted at node 2 pins every probed
        # P(b_j=0 | do(a_i=0)) to 1, yet no layer graph has this oracle
        oracle = int1_of_tree(RootedTree(3, 2, {1: 2, 3: 1}))
        with pytest.raises(NotBipartiteLikeError):
            graph_from_int1(oracle)

    def test_requires_int1(self):
        oracle = compute_oracle(build_tree_scm(RootedTree(3, 1, {2: 1, 3: 1})), OBS)
        with pytest.raises(KindMismatchError):
            graph_from_int1(oracle)


class TestStringDecoder:
    def test_round_trip_all_small_strings(self):
        for m in (1, 2, 3):
            for s in Family("xor", m).parameters():
                oracle = compute_oracle(build_xor_scm(s), CF1)
                assert string_from_cf1(oracle) == s

    def test_rejects_odd_variable_count(self):
        oracle = compute_oracle(build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2})), CF1)
        with pytest.raises(NotXorLikeError):
            string_from_cf1(oracle)

    def test_rejects_partial_world_agreement(self):
        # module 1 reads its X through an AND with an outside source, so
        # the two intervened worlds agree on Y with probability 1/2
        scm = Scm(
            4,
            (
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.AND, (0, 2), NoiseDist.constant()),
            ),
        )
        with pytest.raises(NotXorLikeError):
            string_from_cf1(compute_oracle(scm, CF1))

    def test_rejects_corrupted_unprobed_component(self):
        # the agreement probe only reads the X-variable components, so
        # corrupt a Y-variable one
        oracle = compute_oracle(build_xor_scm(HiddenString(1, "0")), CF1)
        assert oracle.components[1][0] == "cf i=1"
        bad = corrupt_component(oracle, 1, ExactDist(6, {"000000": Fraction(1)}))
        with pytest.raises(NotXorLikeError):
            string_from_cf1(bad)

    def test_requires_cf1(self):
        oracle = compute_oracle(build_xor_scm(HiddenString(1, "1")), INT1)
        with pytest.raises(KindMismatchError):
            string_from_cf1(oracle)


def truncated(oracle, keep):
    """The oracle with only its first `keep` components."""
    return dataclasses.replace(oracle, components=oracle.components[:keep])


class TestMalformedOracles:
    """Hand-built oracles with missing or reshaped components fail with a
    typed error, never an IndexError."""

    @pytest.mark.parametrize("keep", [0, 1, 2, 5])
    def test_tree_decoder_on_too_few_components(self, keep):
        oracle = truncated(int1_of_tree(RootedTree(3, 1, {2: 1, 3: 2})), keep)
        with pytest.raises(KindMismatchError):
            tree_from_int1(oracle)
        with pytest.raises(KindMismatchError):
            descendants_from_int1(oracle)

    @pytest.mark.parametrize("keep", [0, 1, 3, 6])
    def test_graph_decoder_on_too_few_components(self, keep):
        oracle = compute_oracle(
            Family("bipartite", 2).build(BipartiteGraph(2, frozenset({(0, 1)}))), INT1
        )
        # with 6 components every probe is present; the rebuild check rejects
        with pytest.raises((KindMismatchError, OracleDecodeError)):
            graph_from_int1(truncated(oracle, keep))

    @pytest.mark.parametrize("keep", [0, 1, 2])
    def test_string_decoder_on_too_few_components(self, keep):
        oracle = compute_oracle(build_xor_scm(HiddenString(2, "10")), CF1)
        with pytest.raises(KindMismatchError):
            string_from_cf1(truncated(oracle, keep))

    def test_component_of_the_wrong_width(self):
        oracle = int1_of_tree(RootedTree(2, 1, {2: 1}))
        narrow = corrupt_component(oracle, 1, ExactDist(1, {"0": Fraction(1)}))
        with pytest.raises(KindMismatchError):
            tree_from_int1(narrow)
        cf = compute_oracle(build_xor_scm(HiddenString(1, "1")), CF1)
        narrow_cf = corrupt_component(cf, 0, ExactDist(2, {"00": Fraction(1)}))
        with pytest.raises(KindMismatchError):
            string_from_cf1(narrow_cf)


def rebuild_matches(oracle, scm) -> bool:
    """The rebuild check's verdict on `oracle` against `scm`'s own oracle."""
    try:
        _check_exact_match(oracle, scm, OracleDecodeError)
    except OracleDecodeError:
        return False
    return True


def byte_verdict(oracle, scm) -> bool:
    return serialize(compute_oracle(scm, oracle.kind)) == serialize(oracle)


TREE2 = build_tree_scm(RootedTree(2, 1, {2: 1}))
XOR1 = build_xor_scm(HiddenString(1, "0"))
XOR1_1 = build_xor_scm(HiddenString(1, "1"))


class TestRebuildVerdict:
    """The rebuild check compares oracles, not their bytes; its verdict is
    the byte comparison's."""

    @pytest.mark.parametrize("oracle, scm", [
        # the corrupted components of the decoder tests above
        (corrupt_component(compute_oracle(TREE2, INT1), 2, ExactDist(2, {"10": Fraction(1)})), TREE2),
        (corrupt_component(compute_oracle(XOR1, CF1), 1, ExactDist(6, {"000000": Fraction(1)})), XOR1),
        (corrupt_component(compute_oracle(TREE2, INT1), 1, ExactDist(1, {"0": Fraction(1)})), TREE2),
        (corrupt_component(compute_oracle(XOR1_1, CF1), 0, ExactDist(2, {"00": Fraction(1)})), XOR1_1),
        # a component swapped for an equal law built from masses matches
        (corrupt_component(compute_oracle(TREE2, INT1), 0,
                           ExactDist(2, {"00": Fraction(1, 2), "11": Fraction(1, 2)})), TREE2),
        # the right laws under the wrong keys, or in the wrong order
        (dataclasses.replace(compute_oracle(TREE2, INT1), components=tuple(
            ("obs" if key == "do i=0 b=0" else key, dist)
            for key, dist in compute_oracle(TREE2, INT1).components)), TREE2),
        (dataclasses.replace(compute_oracle(XOR1, CF1), components=tuple(
            reversed(compute_oracle(XOR1, CF1).components))), XOR1),
        (truncated(compute_oracle(TREE2, INT1), 4), TREE2),
        (dataclasses.replace(compute_oracle(TREE2, INT1), n=3), TREE2),
    ])
    def test_on_corrupted_components(self, oracle, scm):
        assert rebuild_matches(oracle, scm) == byte_verdict(oracle, scm)

    @given(small_scms(max_n=3), small_scms(max_n=3), st.sampled_from([OBS, INT1, CF1]))
    @settings(max_examples=200, deadline=None)
    def test_on_small_models(self, a, b, kind):
        oracle = parse(serialize(compute_oracle(a, kind)))  # as a decoder is given it
        assert rebuild_matches(oracle, a)
        assert rebuild_matches(oracle, b) == byte_verdict(oracle, b)
