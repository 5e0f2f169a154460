"""Family builders, parameter enumerations, and class membership."""

from fractions import Fraction

import pytest

from scmlab import (
    BipartiteGraph,
    ClassSpec,
    Family,
    HiddenString,
    Mechanism,
    NoiseDist,
    RootedTree,
    Scm,
    build_bipartite_scm,
    build_tree_scm,
    build_xor_scm,
    class_membership,
    enumerate_graphs,
    enumerate_strings,
    enumerate_trees,
    observational,
    validate,
)
from scmlab import gates
from scmlab.errors import (
    BadRangeError,
    InvalidTreeError,
    LengthMismatchError,
    MTooLargeError,
    NTooLargeError,
)

HALF = Fraction(1, 2)
FAIR = NoiseDist.bernoulli(HALF)
CONST = NoiseDist.constant()

CHAIN3 = RootedTree(3, 1, {2: 1, 3: 2})
STAR4 = RootedTree(4, 1, {2: 1, 3: 1, 4: 1})


class TestRootedTree:
    def test_check_accepts_valid(self):
        CHAIN3.check()
        STAR4.check()
        RootedTree(1, 1, {}).check()

    def test_check_rejects_bad_root(self):
        with pytest.raises(InvalidTreeError):
            RootedTree(2, 3, {2: 1}).check()
        with pytest.raises(InvalidTreeError):
            RootedTree(2, 1, {1: 2, 2: 1}).check()

    def test_check_rejects_wrong_coverage(self):
        with pytest.raises(InvalidTreeError):
            RootedTree(3, 1, {2: 1}).check()
        with pytest.raises(InvalidTreeError):
            RootedTree(2, 1, {2: 5}).check()
        with pytest.raises(InvalidTreeError, match="covers"):
            RootedTree(3, 1, {2: 1, 5: 1}).check()

    def test_check_refuses_a_huge_n_without_building_its_nodes(self):
        # the map is counted before any set of n nodes is built
        with pytest.raises(InvalidTreeError, match=f"has 0 nodes, expected {10**18 - 1}"):
            RootedTree(10**18, 1, {}).check()

    def test_check_rejects_parent_cycle(self):
        with pytest.raises(InvalidTreeError):
            RootedTree(3, 1, {2: 3, 3: 2}).check()

    def test_children_and_edges(self):
        assert STAR4.children()[1] == [2, 3, 4]
        assert CHAIN3.edges() == [(1, 2), (2, 3)]


class TestBuilders:
    def test_tree_layout(self):
        scm = build_tree_scm(CHAIN3)
        assert validate(scm) == []
        assert scm.mechanisms[0] == Mechanism(gates.BERN_SOURCE, (), FAIR)
        assert scm.mechanisms[1] == Mechanism(gates.COPY, (0,), CONST)
        assert scm.mechanisms[2] == Mechanism(gates.COPY, (1,), CONST)

    def test_tree_root_position_respected(self):
        scm = build_tree_scm(RootedTree(2, 2, {1: 2}))
        assert scm.mechanisms[0] == Mechanism(gates.COPY, (1,), CONST)
        assert scm.mechanisms[1] == Mechanism(gates.BERN_SOURCE, (), FAIR)

    def test_single_node_tree(self):
        scm = build_tree_scm(RootedTree(1, 1, {}))
        assert observational(scm) == observational(
            build_tree_scm(RootedTree(1, 1, {}))
        )
        assert scm.n == 1

    def test_all_trees_share_the_two_point_law(self):
        laws = {
            tuple(sorted(observational(build_tree_scm(t)).mass.items()))
            for t in enumerate_trees(4)
        }
        assert len(laws) == 1
        ((law),) = laws
        assert dict(law) == {"0000": HALF, "1111": HALF}

    def test_bipartite_layout(self):
        graph = BipartiteGraph(2, frozenset({(0, 0), (1, 0)}))
        scm = build_bipartite_scm(graph)
        assert validate(scm) == []
        assert scm.n == 5
        assert scm.mechanisms[0].gate == gates.BERN_SOURCE
        assert scm.mechanisms[1] == Mechanism(gates.COPY, (0,), CONST)
        assert scm.mechanisms[2] == Mechanism(gates.COPY, (0,), CONST)
        # b_0 takes the root then its neighbors ascending; b_1 just the root
        assert scm.mechanisms[3] == Mechanism(gates.AND, (0, 1, 2), CONST)
        assert scm.mechanisms[4] == Mechanism(gates.AND, (0,), CONST)

    def test_bipartite_graphs_share_observational_law(self):
        laws = {
            tuple(sorted(observational(build_bipartite_scm(g)).mass.items()))
            for g in enumerate_graphs(2)
        }
        assert len(laws) == 1

    def test_xor_layout(self):
        scm = build_xor_scm(HiddenString(2, "10"))
        assert validate(scm) == []
        assert scm.mechanisms[0] == Mechanism(gates.BERN_SOURCE, (), FAIR)
        assert scm.mechanisms[1] == Mechanism(gates.XOR_NOISE, (0,), FAIR)
        assert scm.mechanisms[2] == Mechanism(gates.BERN_SOURCE, (), FAIR)
        assert scm.mechanisms[3] == Mechanism(gates.BERN_SOURCE, (), FAIR)

    def test_xor_observational_is_uniform(self):
        for bits in ("00", "01", "10", "11"):
            dist = observational(build_xor_scm(HiddenString(2, bits)))
            assert set(dist.mass.values()) == {Fraction(1, 16)}
            assert len(dist.mass) == 16


class TestEnumerations:
    def test_tree_counts_match_the_closed_form(self):
        for n in (1, 2, 3, 4, 5):
            trees = list(enumerate_trees(n))
            assert len(trees) == n ** (n - 1)
            canonical = {(t.root, tuple(sorted(t.parent.items()))) for t in trees}
            assert len(canonical) == len(trees)

    def test_every_enumerated_tree_is_valid(self):
        for t in enumerate_trees(4):
            t.check()

    def test_graph_counts_and_order(self):
        graphs = list(enumerate_graphs(2))
        assert len(graphs) == 16
        assert len(set(graphs)) == 16
        assert graphs[0].edges == frozenset()
        assert graphs[1].edges == frozenset({(0, 0)})
        assert graphs[-1].edges == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_string_enumeration_ascending(self):
        assert [s.bits for s in enumerate_strings(2)] == ["00", "01", "10", "11"]

    def test_caps_enforced(self):
        with pytest.raises(NTooLargeError):
            list(enumerate_trees(8))
        with pytest.raises(MTooLargeError):
            list(enumerate_graphs(4))
        with pytest.raises(BadRangeError):
            list(enumerate_trees(0))

    def test_cap_override_via_argument(self, monkeypatch):
        # The per-call n_cap/m_cap arguments are gone; a lowered cap now
        # reaches the enumerators only through its environment variable,
        # with the same refusal and the same boundary admission.
        monkeypatch.setenv("SCMLAB_TREE_NMAX", "2")
        with pytest.raises(NTooLargeError):
            list(enumerate_trees(3))
        monkeypatch.setenv("SCMLAB_GRAPH_MMAX", "1")
        assert len(list(enumerate_graphs(1))) == 2

    def test_cap_override_via_env(self, monkeypatch):
        from scmlab.caps import cap

        monkeypatch.setenv("SCMLAB_TREE_NMAX", "2")
        assert cap("SCMLAB_TREE_NMAX") == 2
        with pytest.raises(NTooLargeError):
            list(enumerate_trees(3))


class TestParamChecks:
    def test_graph_check(self):
        with pytest.raises(BadRangeError):
            BipartiteGraph(2, frozenset({(2, 0)})).check()
        with pytest.raises(BadRangeError):
            BipartiteGraph(0, frozenset()).check()

    def test_string_check(self):
        with pytest.raises(LengthMismatchError):
            HiddenString(3, "01").check()
        with pytest.raises(LengthMismatchError):
            HiddenString(2, "0x").check()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: RootedTree(0, 1, {}).check(), InvalidTreeError),
        (lambda: HiddenString(0, "").check(), BadRangeError),
        (lambda: list(enumerate_graphs(0)), BadRangeError),
        (lambda: list(enumerate_strings(0)), BadRangeError),
    ],
    ids=["tree", "string", "graphs", "strings"],
)
def test_a_size_below_one_is_refused(call, error):
    with pytest.raises(error, match="must be at least 1, got 0"):
        call()


class TestFamily:
    def test_n_vars(self):
        assert Family("tree", 5).n_vars() == 5
        assert Family("bipartite", 3).n_vars() == 7
        assert Family("xor", 4).n_vars() == 8

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadRangeError, match="unknown family 'mystery'"):
            Family("mystery", 2)

    def test_build_dispatch(self):
        family = Family("xor", 2)
        params = list(family.parameters())
        assert len(params) == 4
        scm = family.build(params[0])
        assert scm.n == 4


class TestClassMembership:
    def test_tree_scm_fits_the_unary_class(self):
        spec = ClassSpec(
            frozenset({gates.COPY, gates.BERN_SOURCE}),
            frozenset({FAIR, CONST}),
            1,
        )
        report = class_membership(build_tree_scm(STAR4), spec)
        assert report.member
        assert report.max_indegree == 1
        assert report.violations == ()

    def test_full_bipartite_graph_breaks_indegree_one(self):
        graph = BipartiteGraph(2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
        spec = ClassSpec(
            frozenset({gates.COPY, gates.AND, gates.BERN_SOURCE}),
            frozenset({FAIR, CONST}),
            1,
        )
        report = class_membership(build_bipartite_scm(graph), spec)
        assert not report.member
        assert report.max_indegree == 3
        assert any("indegree" in v for v in report.violations)

    def test_wide_enough_bound_admits_bipartite(self):
        graph = BipartiteGraph(2, frozenset({(0, 0), (1, 0)}))
        spec = ClassSpec(
            frozenset({gates.COPY, gates.AND, gates.BERN_SOURCE}),
            frozenset({FAIR, CONST}),
            4,
        )
        assert class_membership(build_bipartite_scm(graph), spec).member

    def test_validate_issues_come_first(self):
        spec = ClassSpec(frozenset({gates.COPY}), frozenset({CONST}), 1)
        scm = Scm(2, (Mechanism(gates.COPY, (1,), CONST), Mechanism(gates.COPY, (0,), CONST)))
        report = class_membership(scm, spec)
        assert not report.member
        assert report.violations == tuple(validate(scm)) == ("CYCLE: variables [0, 1] form a cycle",)

    def test_gate_and_noise_violations_reported(self):
        spec = ClassSpec(frozenset({gates.COPY}), frozenset({CONST}), 1)
        report = class_membership(build_tree_scm(CHAIN3), spec)
        assert not report.member
        assert any("gate" in v for v in report.violations)
        assert any("noise" in v for v in report.violations)
