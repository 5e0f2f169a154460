"""Description-length bookkeeping: budgets, ambiguity, entropy, bounds."""

import hashlib
import math
from fractions import Fraction

import pytest

from scmlab import (
    CF1,
    INT1,
    INT_ALL,
    OBS,
    BipartiteGraph,
    ClassSpec,
    Family,
    RootedTree,
    adjacency_decode,
    adjacency_encode,
    ambiguity_classes,
    build_tree_scm,
    ceil_log2,
    compute_oracle,
    conditional_entropy_uniform,
    degree_bound,
    generic_class_encoding,
    pairwise_separation_check,
    separation_table,
    serialize,
    tree_bit_budget,
)
from scmlab import gates
from scmlab.errors import BadRangeError, LengthMismatchError, NotMemberError
from scmlab.families import enumerate_graphs
from scmlab.catalog import FAMILIES
from scmlab.scm_core import Mechanism, NoiseDist, Scm


class TestCeilLog2:
    def test_values(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(3) == 2
        assert ceil_log2(4) == 2
        assert ceil_log2(5) == 3
        assert ceil_log2(1024) == 10
        assert ceil_log2(1025) == 11

    def test_rejects_nonpositive(self):
        with pytest.raises(BadRangeError):
            ceil_log2(0)
        with pytest.raises(BadRangeError):
            ceil_log2(-3)


class TestTreeBitBudget:
    def test_single_node(self):
        budget = tree_bit_budget(1)
        assert budget.total_bits == 0
        assert budget.idealized_bits == 0.0

    def test_two_nodes(self):
        budget = tree_bit_budget(2)
        assert dict(budget.components) == {"sequence": 0, "root": 1}
        assert budget.total_bits == 1

    def test_four_nodes(self):
        budget = tree_bit_budget(4)
        assert dict(budget.components) == {"sequence": 4, "root": 2}
        assert budget.total_bits == 6
        assert budget.idealized_bits == 6.0

    def test_five_nodes(self):
        budget = tree_bit_budget(5)
        assert dict(budget.components) == {"sequence": 7, "root": 3}
        assert budget.total_bits == 10

    def test_sixteen_nodes_matches_idealized(self):
        budget = tree_bit_budget(16)
        assert budget.total_bits == 60
        assert budget.idealized_bits == 60.0

    def test_rejects_zero(self):
        with pytest.raises(BadRangeError):
            tree_bit_budget(0)


class TestAdjacencyCodec:
    def test_encode_examples(self):
        assert adjacency_encode(BipartiteGraph(2, frozenset({(0, 0)}))) == "1000"
        assert adjacency_encode(BipartiteGraph(3, frozenset())) == "0" * 9

    def test_round_trip_all_small_graphs(self):
        for m in (1, 2, 3):
            for graph in enumerate_graphs(m):
                assert adjacency_decode(adjacency_encode(graph)) == graph

    def test_decode_rejects_bad_input(self):
        with pytest.raises(LengthMismatchError):
            adjacency_decode("10a0")
        with pytest.raises(LengthMismatchError):
            adjacency_decode("000")
        with pytest.raises(LengthMismatchError):
            adjacency_decode("")


class TestAmbiguity:
    def test_tree_family_is_one_class(self):
        report = ambiguity_classes(Family("tree", 3), OBS, INT1)
        assert report.parameter_count == 9
        assert len(report.classes) == 1
        only = report.classes[0]
        assert only.member_count == 9
        assert only.distinct_higher == 9
        assert report.max_distinct_higher() == 9

    def test_tree_digest_is_shared_obs_bytes(self):
        report = ambiguity_classes(Family("tree", 3), OBS, INT1)
        obs = serialize(
            compute_oracle(build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2})), OBS)
        )
        assert report.classes[0].lower_digest == hashlib.sha256(obs).hexdigest()

    def test_bipartite_family_is_one_class(self):
        report = ambiguity_classes(Family("bipartite", 2), OBS, INT1)
        assert report.parameter_count == 16
        assert len(report.classes) == 1
        assert report.max_distinct_higher() == 16

    def test_xor_family_is_one_class_even_at_int_all(self):
        report = ambiguity_classes(Family("xor", 2), INT_ALL, CF1)
        assert report.parameter_count == 4
        assert len(report.classes) == 1
        assert report.max_distinct_higher() == 4

    def test_rejects_unknown_kind(self):
        with pytest.raises(BadRangeError):
            ambiguity_classes(Family("tree", 2), "RAW", INT1)


class TestConditionalEntropy:
    def test_bipartite_is_exact_power_of_two(self):
        assert conditional_entropy_uniform(Family("bipartite", 2), OBS, INT1) == 4.0

    def test_xor_is_exact_power_of_two(self):
        assert conditional_entropy_uniform(Family("xor", 3), INT_ALL, CF1) == 3.0

    def test_tree_matches_log_of_count(self):
        entropy = conditional_entropy_uniform(Family("tree", 3), OBS, INT1)
        assert entropy == pytest.approx(math.log2(9), rel=1e-12)

    def test_zero_when_lower_rung_already_identifies(self):
        # INT1 pins down the tree, so INT1 -> INT1 leaves nothing hidden
        assert conditional_entropy_uniform(Family("tree", 3), INT1, INT1) == 0.0


class TestDegreeBound:
    def test_frozen_parent_choices(self):
        assert degree_bound(4, 1).parent_choices == 4
        assert degree_bound(4, 3).parent_choices == 8
        assert degree_bound(7, 1).parent_choices == 7
        assert degree_bound(7, 6).parent_choices == 64

    def test_frozen_bit_fields(self):
        report = degree_bound(4, 1)
        assert report.parent_bits == 8
        assert report.order_bits == 5
        assert report.gate_noise_bits == 0

    def test_library_sizes_feed_gate_noise_bits(self):
        report = degree_bound(4, 2, gamma_size=4, pi_size=2)
        assert report.gate_noise_bits == 4 * 3

    def test_inequality_holds_across_sweep(self):
        for n in range(2, 22):
            for d in range(1, n):
                report = degree_bound(n, d)
                assert report.inequality_holds, (n, d)
                assert report.parent_choices <= report.rhs_lower_bound

    def test_rhs_is_exact_rational(self):
        assert isinstance(degree_bound(5, 2).rhs_lower_bound, Fraction)

    def test_rejects_bad_ranges(self):
        with pytest.raises(BadRangeError):
            degree_bound(1, 1)
        with pytest.raises(BadRangeError):
            degree_bound(4, 0)
        with pytest.raises(BadRangeError):
            degree_bound(4, 4)
        with pytest.raises(BadRangeError):
            degree_bound(4, 1, gamma_size=0)


class TestGenericClassEncoding:
    def tree_spec(self) -> ClassSpec:
        return ClassSpec(
            gamma=(gates.COPY, gates.BERN_SOURCE),
            pi=(NoiseDist.constant(), NoiseDist.bernoulli(Fraction(1, 2))),
            d=1,
        )

    def test_chain_budget(self):
        scm = build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2}))
        budget = generic_class_encoding(scm, self.tree_spec())
        assert dict(budget.components) == {
            "order": 3,
            "parents": 6,
            "gates-and-noise": 6,
        }
        assert budget.total_bits == 15

    def test_single_variable_budget(self):
        # one variable has no parent to choose: one parent set, 0 bits
        scm = Scm(1, (Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 2))),))
        budget = generic_class_encoding(scm, self.tree_spec())
        assert dict(budget.components) == {"order": 0, "parents": 0, "gates-and-noise": 2}
        assert budget.total_bits == 2 and budget.idealized_bits == 2

    @pytest.mark.parametrize("scm, issue", [
        (Scm(0, ()), "BAD_SHAPE: n must be at least 1, got 0"),
        (Scm(3, (Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 2))),)),
         "BAD_SHAPE: 1 mechanisms for 3 variables"),
    ], ids=["no variables", "too few mechanisms"])
    def test_invalid_model_is_no_member(self, scm, issue):
        with pytest.raises(NotMemberError, match=issue):
            generic_class_encoding(scm, self.tree_spec())

    def test_non_member_rejected(self):
        scm = build_tree_scm(RootedTree(2, 1, {2: 1}))
        narrow = ClassSpec(
            gamma=(gates.COPY,),
            pi=(NoiseDist.constant(),),
            d=1,
        )
        with pytest.raises(NotMemberError):
            generic_class_encoding(scm, narrow)


class TestSeparationTable:
    def test_default_rungs(self):
        assert FAMILIES["tree"].rungs == (OBS, INT1)
        assert FAMILIES["bipartite"].rungs == (OBS, INT1)
        assert FAMILIES["xor"].rungs == (INT_ALL, CF1)

    def test_tree_row(self):
        (row,) = separation_table(Family("tree", 3))
        assert (row.family, row.size_param, row.n) == ("tree", 3, 3)
        assert (row.lower_kind, row.higher_kind) == (OBS, INT1)
        assert row.ambiguity_count == 9
        assert row.encoder_bits == 4
        assert row.log2_ambiguity == pytest.approx(math.log2(9))
        assert row.slack_bits == pytest.approx(4 - math.log2(9))
        assert row.min_pairwise_d_int is None

    def test_tree_slack_vanishes_at_power_of_two_count(self):
        (row,) = separation_table(Family("tree", 4))
        assert row.ambiguity_count == 64
        assert row.encoder_bits == 6
        assert row.slack_bits == 0.0

    def test_bipartite_row(self):
        (row,) = separation_table(Family("bipartite", 2))
        assert row.n == 5
        assert row.ambiguity_count == 16
        assert row.log2_ambiguity == 4.0
        assert row.encoder_bits == 4
        assert row.entropy_bits == 4.0
        assert row.slack_bits is None

    def test_xor_row(self):
        (row,) = separation_table(Family("xor", 2))
        assert row.n == 4
        assert row.ambiguity_count == 4
        assert row.log2_ambiguity == 2.0
        assert row.encoder_bits == 2
        assert row.entropy_bits == 2.0

    def test_explicit_rung_override(self):
        (row,) = separation_table(Family("xor", 2), INT1, CF1)
        assert (row.lower_kind, row.higher_kind) == (INT1, CF1)
        assert row.ambiguity_count == 4

    def test_a_lone_lower_rung_keeps_the_rows_higher(self):
        (row,) = separation_table(Family("tree", 3), INT_ALL, None)
        assert (row.lower_kind, row.higher_kind) == (INT_ALL, INT1)
        # INT_ALL names every tree, so no class holds two INT1 oracles
        assert (row.ambiguity_count, row.entropy_bits) == (1, 0.0)

    def test_a_lone_higher_rung_keeps_the_rows_lower(self):
        (row,) = separation_table(Family("tree", 3), higher_kind=CF1)
        assert (row.lower_kind, row.higher_kind) == (OBS, CF1)
        assert row.ambiguity_count == 9


class TestPairwiseSeparation:
    def test_single_edge_family(self):
        check = pairwise_separation_check(1, Fraction(1, 5))
        assert check.pair_count == 1
        assert check.min_pairwise_d_int == Fraction(1, 2)
        assert check.disjoint is True

    def test_boundary_epsilon_is_not_disjoint(self):
        check = pairwise_separation_check(1, Fraction(1, 4))
        assert check.disjoint is False

    def test_m2_all_pairs(self):
        check = pairwise_separation_check(2, Fraction(1, 5))
        assert check.pair_count == 120
        assert check.min_pairwise_d_int == Fraction(1, 2)
        assert check.disjoint is True

    def test_rejects_negative_epsilon(self):
        with pytest.raises(BadRangeError):
            pairwise_separation_check(1, Fraction(-1, 5))
