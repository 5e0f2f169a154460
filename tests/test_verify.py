"""Family verification suites at desk scale."""

import dataclasses
import sys
from collections import Counter
from fractions import Fraction

import pytest

from scmlab import (
    ExactDist,
    Family,
    HiddenString,
    Mechanism,
    NoiseDist,
    Scm,
    all_passed,
    build_xor_scm,
    catalog,
    compute_oracle,
    gates,
    marginal,
    oracle,
    scm_core,
    separation_table,
    serialize,
    verify_family,
)
from scmlab import verify as verify_module
from scmlab.catalog import expected_two_point, expected_uniform
from scmlab.errors import NotTreeLikeError, NTooLargeError

from reference_verify import reference_verify

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

    def test_lowered_int_all_cap_computes_no_oracle(self, monkeypatch):
        computed = []
        member_oracles = oracle._member_oracles

        def counted(scm, kinds):
            result = member_oracles(scm, kinds)
            computed.append(kinds)
            return result

        monkeypatch.setattr(oracle, "_member_oracles", counted)
        monkeypatch.setenv("SCMLAB_INTALL_NMAX", "3")
        with pytest.raises(NTooLargeError, match="exceeds SCMLAB_INTALL_NMAX=3"):
            verify_family(Family("xor", 2))
        assert computed == []

    def test_int_all_refuses_before_the_other_kinds_pass(self, no_pass, monkeypatch):
        monkeypatch.setenv("SCMLAB_INTALL_NMAX", "3")
        with pytest.raises(NTooLargeError, match="int_all on n=4 exceeds SCMLAB_INTALL_NMAX=3"):
            oracle._member_oracles(build_xor_scm(HiddenString(2, "01")), (oracle.INT_ALL, oracle.INT1))

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
        # once in the sweep for OBS, INT1 and CF1; the decoder's probe
        # names each member itself, so no rebuild check runs
        assert builds == compiles == Counter(members)

    @pytest.mark.parametrize("family", [*FAMILIES, Family("xor", 2)], ids=str)
    def test_verify_family_runs_one_worlds_pass_per_member(self, family, monkeypatch):
        # every INT1 law and CF1 triple of a member comes from one
        # parallel-worlds pass over all of its variables, not one pass per
        # variable or per kind, and no trie pass runs
        passes = []
        worlds = scm_core._worlds

        def counted(plan):
            passes.append(plan.n)
            return worlds(plan)

        modes = []
        laws = scm_core._laws

        def trie(plan, forcing):
            modes.append(forcing)
            return laws(plan, forcing)

        monkeypatch.setattr(scm_core, "_worlds", counted)
        monkeypatch.setattr(scm_core, "_laws", trie)
        assert all_passed(verify_family(family))
        n = family.n_vars()
        assert passes == [n] * len(list(family.parameters()))
        assert set(modes) <= {True}  # INT_ALL's trie, for xor

    @pytest.mark.parametrize("family", [*FAMILIES, Family("xor", 2)], ids=str)
    def test_verify_family_parses_nothing(self, family, monkeypatch):
        parsed = []
        parse = oracle.parse

        def counted(data):
            parsed.append(data)
            return parse(data)

        for name, module in list(sys.modules.items()):
            if name.startswith("scmlab") and getattr(module, "parse", None) is parse:
                monkeypatch.setattr(module, "parse", counted)
        assert all_passed(verify_family(family))
        assert parsed == []

    @pytest.mark.parametrize("family", [*FAMILIES, Family("tree", 4)], ids=str)
    def test_later_calls_read_the_held_passes(self, family, monkeypatch):
        # verify, the separation table and every member's public decoder,
        # whose rebuild check rebuilds the member's INT1 oracle: each member
        # compiles once and runs one worlds pass, which serves its OBS, INT1
        # and CF1, and no trie pass runs. The pass is looked up by its model
        # before `_compile`, so the same calls again compile and run nothing
        self.count_calls(family, False, monkeypatch)

    @pytest.mark.parametrize("family", [*FAMILIES, Family("tree", 4)], ids=str)
    def test_a_decode_before_verify_runs_the_same_one_pass(self, family, monkeypatch):
        # the decodes render INT1 first, verify then reads CF1 off the same
        # held pass, as a sweep that decodes before it verifies does
        self.count_calls(family, True, monkeypatch)

    def count_calls(self, family, decode_first, monkeypatch):
        members = Counter(family.spec.build(param) for param in family.parameters())
        calls = {name: Counter() for name in ("_compile", "_worlds", "_laws")}

        def counted(name, function):
            def call(first, *args):
                calls[name][first] += 1
                return function(first, *args)

            monkeypatch.setattr(scm_core, name, call)

        for name in calls:
            counted(name, getattr(scm_core, name))

        def decode_all():
            for param in family.parameters():
                assert family.spec.decode(compute_oracle(family.build(param), oracle.INT1)) == param

        def every_call():
            if decode_first:
                decode_all()
            assert all_passed(verify_family(family))
            separation_table(family)
            if not decode_first:
                decode_all()

        every_call()
        assert calls["_compile"] == members
        assert sum(calls["_worlds"].values()) == len(members) and not calls["_laws"]
        for counter in calls.values():
            counter.clear()
        every_call()
        assert not any(calls.values())

    @pytest.mark.parametrize("family", [*FAMILIES, Family("xor", 2)], ids=str)
    def test_one_kind_renders_only_its_own_leaves(self, family, monkeypatch):
        # an INT1 request renders no 3n-bit triple and a CF1 request no
        # n-bit law, whichever comes first; the other kind then renders its
        # own leaves from the held pass, and a repeat renders nothing
        widths = []
        render = scm_core._dist

        def spy(n_bits, *args):
            widths.append(n_bits)
            return render(n_bits, *args)

        monkeypatch.setattr(scm_core, "_dist", spy)
        n = family.n_vars()
        wide = {oracle.INT1: n, oracle.CF1: 3 * n}
        for order in ((oracle.INT1, oracle.CF1), (oracle.CF1, oracle.INT1)):
            scm_core._PASSES.clear()
            for param in family.parameters():
                scm = family.build(param)
                for kind in order:
                    widths.clear()
                    compute_oracle(scm, kind)
                    assert widths and set(widths) == {wide[kind]}
                for kind in order:
                    widths.clear()
                    compute_oracle(scm, kind)
                    assert widths == []
            assert len(scm_core._PASSES) == len(list(family.parameters()))


class TestMarginalConsistency:
    """`verify_family` marginalizes each distinct (triple, obs, do 0, do 1)
    once, keyed by the ids of the dists, with the verdict the marginals of
    every triple give."""

    def members(self, family):
        return [oracles for _, oracles in
                oracle.family_sweep(family, (oracle.OBS, oracle.INT1, oracle.CF1), {})]

    def test_each_distinct_tuple_is_walked_once(self, monkeypatch):
        family = Family("tree", 4)
        members = self.members(family)
        walks = []
        walk = verify_module.marginal

        def counted(dist, positions):
            walks.append((dist._text(), tuple(positions)))
            return walk(dist, positions)

        monkeypatch.setattr(verify_module, "marginal", counted)
        checked = {}
        for oracles in members:
            assert verify_module._marginal_consistency(
                oracles[oracle.OBS], oracles[oracle.INT1], oracles[oracle.CF1], checked)
        # each distinct tuple's triple walked once per world block, in
        # fewer walks than the members' triples have blocks
        n = family.n_vars()
        assert len(walks) == len(set(walks)) == 3 * len(checked) < 3 * n * len(members)
        assert {positions for _, positions in walks} == {
            tuple(range(k * n, k * n + n)) for k in range(3)}

    def test_a_failing_triple_beside_checked_laws_fails(self):
        family = Family("tree", 3)
        checked = {}
        members = self.members(family)
        for oracles in members:
            assert verify_module._marginal_consistency(
                oracles[oracle.OBS], oracles[oracle.INT1], oracles[oracle.CF1], checked)
        # a member's CF1 oracle with triple 1 in place of triple 0: its
        # laws were checked with triple 0, and triple 1 does not match them
        obs, int1, cf1 = (members[0][kind] for kind in (oracle.OBS, oracle.INT1, oracle.CF1))
        swapped = dataclasses.replace(
            cf1, components=((cf1.components[0][0], cf1.components[1][1]), *cf1.components[1:]))
        assert not verify_module._marginal_consistency(obs, int1, swapped, {})
        assert not verify_module._marginal_consistency(obs, int1, swapped, checked)


class TestObsEmbeds:
    """The embedding check compares bytes once per distinct (OBS body,
    INT1 obs body): a member whose INT1 oracle leads with another law
    fails it, even when its OBS oracle is every member's."""

    def test_an_int1_leading_with_another_law_fails(self, monkeypatch):
        family = Family("tree", 3)
        last = list(family.parameters())[-1]
        sweep = verify_module.family_sweep

        def corrupted(*args):
            # the last member's INT1 oracle with its do(X_0=0) law at "obs"
            for param, oracles in sweep(*args):
                if param == last:
                    int1 = oracles[oracle.INT1]
                    (key, _), (do_key, do_law), *rest = int1.components
                    components = ((key, do_law), (do_key, do_law), *rest)
                    oracles = {**oracles, oracle.INT1: dataclasses.replace(int1, components=components)}
                yield param, oracles

        monkeypatch.setattr(verify_module, "family_sweep", corrupted)
        results = {r.name: r.passed for r in verify_family(family)}
        assert results == {name: name != "observational-component-embeds"
                           for name in TWO_POINT_CHECKS}


# non-dyadic noise, a three-symbol law and a topological order that is not
# the index order
HALF = Fraction(1, 2)
MIXED_DAG = Scm(
    4,
    (
        Mechanism(gates.XOR_NOISE, (3,), NoiseDist.bernoulli(Fraction(1, 3))),
        Mechanism(gates.OR, (0, 3), NoiseDist((0, 1, 2), (Fraction(1, 6), Fraction(1, 3), HALF))),
        Mechanism(gates.AND, (0, 1), NoiseDist.constant()),
        Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(3, 4))),
    ),
)


class TestViewsBuiltOnce:
    """What keeps verify's probes cheap: models that reach an equal leaf
    share one dist (`scm_core._LEAVES`), and the decoders' facts are kept
    by body (`decoders._FACTS`), so each distinct law's integer view is
    built once, from its body, and no `mass` is built."""

    @pytest.mark.parametrize("family", [Family("tree", 5), Family("bipartite", 3)], ids=str)
    def test_verify_and_decode_build_each_view_once(self, family, monkeypatch):
        built, masses = [], []
        view, read = ExactDist._int_view, ExactDist.__getattr__

        def counted_view(dist):
            if dist._ints is None:
                built.append((dist.n_bits, dist._body))
            return view(dist)

        def counted_read(dist, name):
            if name == "mass":
                masses.append(dist)
            return read(dist, name)

        swept = []
        sweep = verify_module.family_sweep

        def recorded(*args):
            for member in sweep(*args):
                swept.append(member[1])
                yield member

        monkeypatch.setattr(ExactDist, "_int_view", counted_view)
        monkeypatch.setattr(ExactDist, "__getattr__", counted_read)
        monkeypatch.setattr(verify_module, "family_sweep", recorded)
        assert all_passed(verify_family(family))
        # each member's n CF1 triples were marginalized, each distinct
        # (triple, obs, do 0, do 1) once, and the do(X_v=0) laws its
        # decoder's probe reads were probed: every node's in a tree, each
        # a_i's in a layer graph
        n = family.n_vars()
        read = range(n) if family.kind == "tree" else range(1, family.size + 1)
        probed = [dist for oracles in swept for dist in
                  (*[triple for _, triple in oracles[oracle.CF1].components],
                   *[oracles[oracle.INT1].components[1 + 2 * v][1] for v in read])]
        assert len(swept) == len(list(family.parameters()))
        assert len(probed) == (n + len(read)) * len(swept)
        assert all(dist._ints is not None for dist in probed)
        for param in family.parameters():  # a decode round trip of every member
            data = serialize(compute_oracle(family.build(param), family.spec.rungs[1]))
            assert family.spec.decode(oracle.parse(data)) == param
        assert built and None not in {body for _, body in built}
        assert len(built) == len(set(built))
        assert masses == []

    @pytest.mark.parametrize(
        "scm", [build_xor_scm(HiddenString(3, "101")), MIXED_DAG], ids=["xor m=3", "mixed dag"]
    )
    def test_a_view_is_built_on_the_first_probe(self, scm):
        kernel = [dist for kind in oracle.KINDS for _, dist in compute_oracle(scm, kind).components]
        assert all(dist._ints is None for dist in kernel)
        # a marginal probes its dist, and leaves its own view unbuilt
        marginals = [marginal(dist, range(dist.n_bits - 1, -1, -2)) for dist in kernel]
        assert all(dist._ints is not None for dist in kernel)
        assert all(dist._ints is None for dist in marginals)
        for dist in marginals:
            dist.prob_bit(0, 1)
            assert dist._ints is not None


class TestAgainstReference:
    """The one-pass suite returns what the reference returns: the
    reference parses every index oracle back, runs the public decoder on
    it, and compares whole marginals."""

    FAMILIES = [
        *[Family("tree", n) for n in (1, 2, 3, 4)],
        *[Family("bipartite", m) for m in (1, 2)],
        *[Family("xor", m) for m in (1, 2, 3)],
    ]

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_same_results(self, family):
        results = verify_family(family)
        assert all_passed(results)
        assert results == reference_verify(family)

    @pytest.fixture
    def tree3(self, monkeypatch):
        """Tree n=3 with a row whose probe names the first member for every
        oracle; `set_decode` swaps the row's public decoder, `decoded`
        lists the oracles that decoder was called on."""
        family = Family("tree", 3)
        first = next(iter(family.parameters()))
        spec = family.spec
        decoded = []

        def set_decode(decode):
            def counted(oracle):
                decoded.append(oracle)
                return decode(oracle)

            row = dataclasses.replace(spec, probe=lambda oracle: first, decode=counted)
            monkeypatch.setitem(catalog.FAMILIES, "tree", row)

        set_decode(spec.decode)
        return family, first, set_decode, decoded

    def test_wrong_probe_falls_back_to_the_decoder(self, tree3):
        family, first, _, decoded = tree3
        results = verify_family(family)
        # every member but the first goes through the public decoder
        assert len(decoded) == 8
        assert all_passed(results)
        assert results == reference_verify(family)

    def test_wrong_member_from_the_decoder_fails_the_round_trip(self, tree3):
        family, first, set_decode, _ = tree3
        set_decode(lambda oracle: first)
        results = verify_family(family)
        by_name = {r.name: r for r in results}
        assert not by_name["decoder-round-trip"].passed
        assert by_name["decoder-round-trip"].details["recovered"] == 1
        assert results == reference_verify(family)

    def test_typed_error_from_the_decoder_surfaces(self, tree3):
        family, _, set_decode, _ = tree3

        def refuse(oracle):
            raise NotTreeLikeError("refused")

        set_decode(refuse)
        for suite in (verify_family, reference_verify):
            with pytest.raises(NotTreeLikeError, match="refused"):
                suite(family)
