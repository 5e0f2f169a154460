"""Family verification suites at desk scale."""

from collections import Counter

import pytest

from scmlab import Family, all_passed, oracle, scm_core, separation_table, verify_family
from scmlab.catalog import expected_two_point, expected_uniform
from scmlab.errors import NTooLargeError

TWO_POINT_CHECKS = [
    "observational-identical",
    "int1-all-distinct",
    "decoder-round-trip",
    "counterfactual-marginal-consistency",
    "observational-component-embeds",
]

XOR_CHECKS = [
    "observational-identical-uniform",
    "int1-identical",
    "int-all-identical",
    "cf1-all-distinct",
    "decoder-round-trip",
    "counterfactual-marginal-consistency",
    "observational-component-embeds",
]


class TestVerifyFamily:
    def test_tree_suite(self):
        results = verify_family(Family("tree", 3))
        assert [r.name for r in results] == TWO_POINT_CHECKS
        assert all_passed(results)
        by_name = {r.name: r for r in results}
        assert by_name["observational-identical"].details["parameters"] == 9
        assert by_name["int1-all-distinct"].details["distinct_oracles"] == 9
        assert by_name["decoder-round-trip"].details["recovered"] == 9

    def test_bipartite_suite(self):
        results = verify_family(Family("bipartite", 2))
        assert [r.name for r in results] == TWO_POINT_CHECKS
        assert all_passed(results)
        assert results[0].details["parameters"] == 16

    def test_xor_suite(self):
        results = verify_family(Family("xor", 2))
        assert [r.name for r in results] == XOR_CHECKS
        assert all_passed(results)
        by_name = {r.name: r for r in results}
        assert by_name["int1-identical"].details["distinct_oracles"] == 1
        assert by_name["int-all-identical"].details["distinct_oracles"] == 1
        assert by_name["cf1-all-distinct"].details["distinct_oracles"] == 4

    def test_all_passed_empty(self):
        assert all_passed([])


class TestExpectedLaws:
    def test_two_point(self):
        dist = expected_two_point(3)
        assert set(dist.mass) == {"000", "111"}

    def test_uniform(self):
        dist = expected_uniform(2)
        assert len(dist.mass) == 4
        assert len(set(dist.mass.values())) == 1


class TestRefusesBeforeWork:
    """The rung pair's indexes are read first, so a cap on INT_ALL refuses
    an xor family before any other oracle is computed."""

    @pytest.fixture
    def no_pass(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel ran before the cap was checked")

        monkeypatch.setattr(scm_core, "_extend", refuse)
        monkeypatch.setattr(scm_core, "_dist", refuse)

    def test_lowered_int_all_cap_computes_no_oracle(self, monkeypatch):
        computed = []
        compute = oracle.compute_oracle

        def counted(scm, kind):
            result = compute(scm, kind)
            computed.append(kind)
            return result

        monkeypatch.setattr(oracle, "compute_oracle", counted)
        monkeypatch.setenv("SCMLAB_INTALL_NMAX", "3")
        with pytest.raises(NTooLargeError, match="exceeds SCMLAB_INTALL_NMAX=3"):
            verify_family(Family("xor", 2))
        assert computed == []

    def test_default_int_all_cap_refuses_xor_7_at_once(self, no_pass):
        with pytest.raises(NTooLargeError, match="int_all on n=14 exceeds SCMLAB_INTALL_NMAX=12"):
            verify_family(Family("xor", 7))


class TestOnePassPerMember:
    """One sweep computes every kind a call needs: each member is built
    once and compiled once for all of them."""

    @pytest.fixture
    def counts(self, monkeypatch):
        builds: Counter = Counter()
        compiles: Counter = Counter()
        build, compile_plan = Family.build, scm_core._compile

        def counted_build(family, param):
            scm = build(family, param)
            builds[scm] += 1
            return scm

        def counted_compile(scm):
            compiles[scm] += 1
            return compile_plan(scm)

        monkeypatch.setattr(Family, "build", counted_build)
        monkeypatch.setattr(scm_core, "_compile", counted_compile)
        return builds, compiles

    FAMILIES = [Family("tree", 3), Family("bipartite", 2)]

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_separation_table(self, family, counts):
        members = [family.spec.build(param) for param in family.parameters()]
        separation_table(family)
        builds, compiles = counts
        assert builds == compiles == Counter(members)

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_verify_family(self, family, counts):
        members = [family.spec.build(param) for param in family.parameters()]
        assert all_passed(verify_family(family))
        builds, compiles = counts
        assert builds == Counter(members)
        # once in the sweep for OBS, INT1 and CF1, and once more in the
        # decoder's rebuild check of the member it recovers
        assert compiles == Counter(members * 2)
