"""Oracle computation, the canonical byte grammar, and the metrics."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmlab import (
    CF1,
    INT1,
    INT_ALL,
    OBS,
    AnswerOracle,
    ExactDist,
    Family,
    HiddenString,
    Mechanism,
    NoiseDist,
    RootedTree,
    Scm,
    all_passed,
    build_tree_scm,
    build_xor_scm,
    compute_oracle,
    d_int,
    extract_obs,
    graph_from_int1,
    marginal,
    oracle_index,
    parse,
    separation_table,
    serialize,
    string_from_cf1,
    tree_from_int1,
    tv,
    verify_family,
)
from scmlab import gates, scm_core
from scmlab import oracle as oracle_module
from scmlab.errors import (
    BadPositionError,
    KindMismatchError,
    LengthMismatchError,
    NTooLargeError,
    OracleFormatError,
    SupportTooLargeError,
)
from scmlab.oracle import component_bits, family_sweep, intervention_key
from scmlab.rational import frac_parse
from scmlab.scm_core import Intervention

from conftest import GOLDEN, exact_dists, mutated_golden, small_scms

HALF = Fraction(1, 2)

CHAIN2 = build_tree_scm(RootedTree(2, 1, {2: 1}))

CHAIN2_INT1_BYTES = (
    b"INT1 n=2\n"
    b"#obs\n"
    b"00=1/2\n"
    b"11=1/2\n"
    b"#do i=0 b=0\n"
    b"00=1/1\n"
    b"#do i=0 b=1\n"
    b"11=1/1\n"
    b"#do i=1 b=0\n"
    b"00=1/2\n"
    b"10=1/2\n"
    b"#do i=1 b=1\n"
    b"01=1/2\n"
    b"11=1/2\n"
)


def fair_bit_scm() -> Scm:
    return Scm(1, (Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(HALF)),))


class TestComputeOracle:
    def test_chain_int1_components(self):
        oracle = compute_oracle(CHAIN2, INT1)
        assert oracle.component("obs") == ExactDist(2, {"00": HALF, "11": HALF})
        assert oracle.component("do i=0 b=0") == ExactDist(2, {"00": Fraction(1)})
        assert oracle.component("do i=0 b=1") == ExactDist(2, {"11": Fraction(1)})
        assert oracle.component("do i=1 b=0") == ExactDist(2, {"00": HALF, "10": HALF})
        assert oracle.component("do i=1 b=1") == ExactDist(2, {"01": HALF, "11": HALF})

    def test_component_counts(self):
        n = CHAIN2.n
        assert len(compute_oracle(CHAIN2, OBS).components) == 1
        assert len(compute_oracle(CHAIN2, INT1).components) == 1 + 2 * n
        assert len(compute_oracle(CHAIN2, CF1).components) == n
        assert len(compute_oracle(CHAIN2, INT_ALL).components) == 3**n

    def test_unknown_kind(self):
        with pytest.raises(KindMismatchError):
            compute_oracle(CHAIN2, "ALL")

    def test_component_bits(self):
        assert component_bits(OBS, 4) == 4
        assert component_bits(CF1, 4) == 12
        with pytest.raises(KindMismatchError, match="unknown oracle kind 'INT2'"):
            component_bits("INT2", 4)


class TestSerialization:
    def test_golden_obs_bytes(self):
        oracle = compute_oracle(fair_bit_scm(), OBS)
        assert serialize(oracle) == b"OBS n=1\n#obs\n0=1/2\n1=1/2\n"

    def test_golden_chain_int1_bytes(self):
        assert serialize(compute_oracle(CHAIN2, INT1)) == CHAIN2_INT1_BYTES

    def test_intervention_keys(self):
        assert intervention_key(Intervention(())) == "do S= x="
        assert intervention_key(Intervention(((0, 1), (2, 0)))) == "do S=0,2 x=10"

    def test_point_masses_serialize_with_denominator(self):
        scm = Scm(1, (Mechanism(gates.CONST1, (), NoiseDist.constant()),))
        assert serialize(compute_oracle(scm, OBS)) == b"OBS n=1\n#obs\n1=1/1\n"

    def test_distinct_oracles_have_distinct_bytes(self):
        zero = Scm(1, (Mechanism(gates.CONST0, (), NoiseDist.constant()),))
        one = Scm(1, (Mechanism(gates.CONST1, (), NoiseDist.constant()),))
        assert serialize(compute_oracle(zero, OBS)) != serialize(
            compute_oracle(one, OBS)
        )

    def test_round_trip_every_kind(self):
        scm = build_xor_scm(HiddenString(2, "10"))
        for kind in (OBS, INT1, CF1, INT_ALL):
            oracle = compute_oracle(scm, kind)
            assert parse(serialize(oracle)) == oracle

    def test_parse_then_serialize_is_identity_on_bytes(self):
        assert serialize(parse(CHAIN2_INT1_BYTES)) == CHAIN2_INT1_BYTES


class TestParseStrictness:
    def test_missing_trailing_newline(self):
        with pytest.raises(OracleFormatError):
            parse(CHAIN2_INT1_BYTES[:-1])

    def test_bad_header(self):
        with pytest.raises(OracleFormatError):
            parse(b"INT2 n=1\n#obs\n0=1/1\n")
        with pytest.raises(OracleFormatError):
            parse(b"OBS n=01\n#obs\n0=1/1\n")

    def test_unsorted_mass_lines_rejected(self):
        with pytest.raises(OracleFormatError):
            parse(b"OBS n=1\n#obs\n1=1/2\n0=1/2\n")

    def test_duplicate_outcome_rejected(self):
        with pytest.raises(OracleFormatError):
            parse(b"OBS n=1\n#obs\n0=1/2\n0=1/2\n")

    def test_not_lowest_terms_rejected(self):
        with pytest.raises(OracleFormatError):
            parse(b"OBS n=1\n#obs\n0=2/4\n1=1/2\n")

    def test_zero_mass_rejected(self):
        with pytest.raises(OracleFormatError):
            parse(b"OBS n=1\n#obs\n0=0/1\n1=1/1\n")

    def test_masses_must_sum_to_one(self):
        with pytest.raises(OracleFormatError):
            parse(b"OBS n=1\n#obs\n0=1/2\n")

    def test_wrong_outcome_length(self):
        with pytest.raises(OracleFormatError):
            parse(b"OBS n=2\n#obs\n0=1/1\n")

    def test_wrong_component_key(self):
        with pytest.raises(OracleFormatError):
            parse(b"OBS n=1\n#observational\n0=1/1\n")

    def test_missing_component(self):
        data = b"INT1 n=1\n#obs\n0=1/2\n1=1/2\n#do i=0 b=0\n0=1/1\n"
        with pytest.raises(OracleFormatError):
            parse(data)

    def test_extra_component(self):
        data = b"OBS n=1\n#obs\n0=1/1\n#obs\n0=1/1\n"
        with pytest.raises(OracleFormatError):
            parse(data)

    def test_crlf_rejected(self):
        with pytest.raises(OracleFormatError):
            parse(b"OBS n=1\r\n#obs\r\n0=1/1\r\n")

    def test_non_ascii_rejected(self):
        with pytest.raises(OracleFormatError):
            parse("OBS n=1\n#obs\n0=\u00bd\n".encode("utf-8"))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(OracleFormatError):
            parse(CHAIN2_INT1_BYTES + b"stray\n")

    @pytest.mark.parametrize(
        "data",
        [
            b"OBS n=1\n#obs\n0=01/2\n1=1/2\n",
            b"OBS n=1\n#obs\n0=1/02\n1=1/2\n",
            b"OBS n=1\n#obs\n0=1/2\n1=001/2\n",
            b"OBS n=1\n#obs\n0=1/2\n1=1/0002\n",
            b"OBS n=1\n#obs\n0=01/1\n",
        ],
    )
    def test_leading_zeros_rejected(self, data):
        # each would re-serialize to different bytes
        with pytest.raises(OracleFormatError):
            parse(data)

    def test_empty_component_rejected(self):
        with pytest.raises(OracleFormatError):
            parse(b"INT1 n=1\n#obs\n0=1/2\n1=1/2\n#do i=0 b=0\n#do i=0 b=1\n1=1/1\n")

    def test_mass_above_one_rejected(self):
        with pytest.raises(OracleFormatError):
            parse(b"OBS n=1\n#obs\n0=3/2\n")

    def test_fraction_past_the_int_conversion_limit_rejected(self):
        # 4401 digits, more than the interpreter converts to an int
        with pytest.raises(OracleFormatError, match="too long"):
            parse(b"OBS n=1\n#obs\n0=1/1" + b"0" * 4400 + b"\n")


class TestFracParse:
    def test_canonical_spellings_accepted(self):
        assert frac_parse("0/1") == 0
        assert frac_parse("1/1") == 1
        assert frac_parse("10/3") == Fraction(10, 3)

    @pytest.mark.parametrize(
        "text", ["01/2", "1/02", "00/1", "0/01", "0/5", "2/4", "1/0", "1", "+1/2", "1/-2", " 1/2", "1/2 "]
    )
    def test_non_canonical_rejected(self, text):
        with pytest.raises(OracleFormatError):
            frac_parse(text)


def test_golden_files_present():
    assert len(GOLDEN) == 3


@given(mutated_golden())
@settings(max_examples=400, deadline=None)
def test_mutated_golden_rejected_or_round_trips(data):
    try:
        oracle = parse(data)
    except OracleFormatError:
        return
    assert serialize(oracle) == data


class TestExtractObs:
    def test_matches_direct_computation(self):
        int1 = compute_oracle(CHAIN2, INT1)
        assert serialize(extract_obs(int1)) == serialize(compute_oracle(CHAIN2, OBS))

    def test_requires_int1(self):
        with pytest.raises(KindMismatchError):
            extract_obs(compute_oracle(CHAIN2, OBS))

    def test_requires_obs_first(self):
        int1 = compute_oracle(CHAIN2, INT1)
        shifted = AnswerOracle(INT1, int1.n, int1.components[1:])
        with pytest.raises(OracleFormatError, match="first INT1 component is 'do i=0 b=0'"):
            extract_obs(shifted)

    def test_component_lookup(self):
        oracle = compute_oracle(CHAIN2, OBS)
        assert oracle.component("obs") is oracle.components[0][1]
        with pytest.raises(KeyError):
            oracle.component("do i=0 b=0")


class TestTv:
    def test_identical_is_zero(self):
        d = ExactDist(1, {"0": HALF, "1": HALF})
        assert tv(d, d) == 0

    def test_two_point_versus_point(self):
        two = ExactDist(2, {"00": HALF, "11": HALF})
        point = ExactDist(2, {"00": Fraction(1)})
        assert tv(two, point) == HALF

    def test_disjoint_supports(self):
        a = ExactDist(1, {"0": Fraction(1)})
        b = ExactDist(1, {"1": Fraction(1)})
        assert tv(a, b) == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            tv(ExactDist(1, {"0": Fraction(1)}), ExactDist(2, {"00": Fraction(1)}))

    @given(exact_dists(), exact_dists())
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_symmetry(self, p, q):
        if p.n_bits != q.n_bits:
            return
        d = tv(p, q)
        assert 0 <= d <= 1
        assert d == tv(q, p)

    @given(exact_dists(max_bits=2), exact_dists(max_bits=2), exact_dists(max_bits=2))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, p, q, r):
        if not (p.n_bits == q.n_bits == r.n_bits):
            return
        assert tv(p, r) <= tv(p, q) + tv(q, r)


class TestDInt:
    def test_requires_int1(self):
        obs = compute_oracle(CHAIN2, OBS)
        with pytest.raises(KindMismatchError):
            d_int(obs, obs)

    def test_size_mismatch(self):
        a = compute_oracle(CHAIN2, INT1)
        b = compute_oracle(fair_bit_scm(), INT1)
        with pytest.raises(LengthMismatchError):
            d_int(a, b)

    def test_self_distance_zero(self):
        a = compute_oracle(CHAIN2, INT1)
        assert d_int(a, a) == 0

    def test_matches_brute_force_max(self):
        family = Family("bipartite", 1)
        oracles = [compute_oracle(family.build(g), INT1) for g in family.parameters()]
        a, b = oracles
        brute = max(
            tv(da, db)
            for (_, da), (_, db) in zip(a.components, b.components)
        )
        assert d_int(a, b) == brute == HALF

    def test_xor_family_is_int1_flat(self):
        family = Family("xor", 2)
        oracles = [compute_oracle(family.build(s), INT1) for s in family.parameters()]
        for a, b in itertools.combinations(oracles, 2):
            assert d_int(a, b) == 0

    def test_component_count_mismatch(self):
        # cut to its obs component, `other` agrees with `a` on every
        # component the two share, so only the count tells them apart
        family = Family("bipartite", 1)
        a, other = [compute_oracle(family.build(g), INT1) for g in family.parameters()]
        cut = AnswerOracle(INT1, other.n, other.components[:1])
        assert d_int(a, other) == HALF
        with pytest.raises(LengthMismatchError):
            d_int(a, cut)
        with pytest.raises(LengthMismatchError):
            d_int(cut, a)

    def test_component_keys_must_match(self):
        a = compute_oracle(CHAIN2, INT1)
        (key, dist), *rest = a.components
        renamed = AnswerOracle(INT1, a.n, (("observational", dist), *rest))
        with pytest.raises(OracleFormatError, match="component keys diverge"):
            d_int(a, renamed)


class TestOracleIndex:
    @pytest.mark.parametrize(
        "family",
        [Family("tree", 3), Family("bipartite", 2), Family("xor", 2)],
        ids=str,
    )
    @pytest.mark.parametrize("kind", [OBS, INT1, CF1, INT_ALL])
    def test_entries_match_direct_computation(self, family, kind):
        index = oracle_index(family, kind)
        params = list(family.parameters())
        assert len(index) == len(params)
        for data, param in zip(index, params):
            assert data == serialize(compute_oracle(family.build(param), kind))
        for a, b in itertools.combinations(index, 2):
            if a == b:
                assert a is b

    def test_int_all_memoized(self, member_calls):
        # the second request writes its bytes from the held column
        family = Family("xor", 2)
        index = oracle_index(family, INT_ALL)
        member_calls.clear()
        assert oracle_index(family, INT_ALL) == index
        assert member_calls == []

    def test_xor_int_all_computed_once_across_verify_and_gaps(self, member_calls):
        family = Family("xor", 2)
        verify_family(family)
        separation_table(family)
        assert [kinds for kinds, _ in member_calls].count((INT_ALL,)) == 4

    FAMILIES = [Family("tree", 3), Family("bipartite", 2)]

    @pytest.fixture
    def member_calls(self, monkeypatch) -> list:
        calls = []
        member_oracles = oracle_module._member_oracles

        def counting(scm, kinds):
            calls.append((tuple(kinds), scm))
            return member_oracles(scm, kinds)

        monkeypatch.setattr(oracle_module, "_member_oracles", counting)
        return calls

    @staticmethod
    def members(family) -> list:
        return [family.build(param) for param in family.parameters()]

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_a_cold_table_sweeps_each_member_once(self, family, member_calls):
        # one (OBS, INT1) pass per member, in member order, and a repeat
        # reads the columns the first one kept
        rows = separation_table(family)
        assert member_calls == [((OBS, INT1), scm) for scm in self.members(family)]
        member_calls.clear()
        assert separation_table(family) == rows
        assert member_calls == []

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_a_table_after_verify_sweeps_nothing(self, family, member_calls):
        cold = separation_table(family)
        oracle_module._COLUMNS.clear()
        verify_family(family)
        member_calls.clear()
        assert separation_table(family) == cold
        assert member_calls == []

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_a_changed_or_lowered_cap_sweeps_again_or_refuses(self, family, member_calls,
                                                              monkeypatch):
        rows = separation_table(family)
        verify_family(family)
        member_calls.clear()
        # a cap the walk never reaches still changes the snapshot
        monkeypatch.setenv("SCMLAB_NFL_MMAX", "2")
        assert separation_table(family) == rows
        assert member_calls == [((OBS, INT1), scm) for scm in self.members(family)]
        monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "1")  # below every member's two noise points
        with pytest.raises(SupportTooLargeError, match="exceeds SCMLAB_SUPPORT_CAP=1"):
            separation_table(family)
        with pytest.raises(SupportTooLargeError, match="exceeds SCMLAB_SUPPORT_CAP=1"):
            verify_family(family)

    def test_a_changed_or_lowered_cap_sweeps_int_all_again_or_refuses(self, member_calls,
                                                                      monkeypatch):
        family = Family("xor", 2)
        index = oracle_index(family, INT_ALL)
        rows = separation_table(family)
        member_calls.clear()
        monkeypatch.setenv("SCMLAB_NFL_MMAX", "2")  # a cap the walk never reaches
        assert oracle_index(family, INT_ALL) == index
        assert member_calls == [((INT_ALL,), scm) for scm in self.members(family)]
        monkeypatch.setenv("SCMLAB_INTALL_NMAX", "3")  # below xor m=2's four variables
        for call in (lambda: oracle_index(family, INT_ALL), lambda: separation_table(family),
                     lambda: verify_family(family)):
            with pytest.raises(NTooLargeError, match="exceeds SCMLAB_INTALL_NMAX=3"):
                call()
        monkeypatch.delenv("SCMLAB_INTALL_NMAX")
        assert separation_table(family) == rows

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_verify_after_a_table_walks_each_member_once(self, family, member_calls):
        separation_table(family)
        member_calls.clear()
        assert all_passed(verify_family(family))
        assert member_calls == [((OBS, INT1, CF1), scm) for scm in self.members(family)]

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_verify_after_a_table_keeps_the_tables_columns(self, family):
        # verify reads the OBS and INT1 columns the table kept, and keeps
        # no new tuples in their place
        separation_table(family)
        held = dict(oracle_module._COLUMNS)
        assert [key[1] for key in held] == [OBS, INT1]
        assert all_passed(verify_family(family))
        assert all(oracle_module._COLUMNS[key] is column for key, column in held.items())

    def test_a_held_column_is_read_and_only_the_missing_one_swept(self, member_calls):
        family = Family("tree", 3)
        obs = oracle_module.family_columns(family, (OBS,))[OBS]
        member_calls.clear()
        columns = oracle_module.family_columns(family, (OBS, INT1))
        assert member_calls == [((INT1,), scm) for scm in self.members(family)]
        assert columns[OBS] is obs
        assert columns[INT1] == oracle_module.family_columns(Family("tree", 3), (INT1,))[INT1]

    def test_xor_int_all_computed_once_across_gaps_and_verify(self, member_calls):
        family = Family("xor", 2)
        rows = separation_table(family)
        assert all_passed(verify_family(family))
        assert separation_table(family) == rows
        members = self.members(family)
        assert [call for call in member_calls if INT_ALL in call[0]] == [
            ((INT_ALL,), scm) for scm in members]


class TestBodyColumns:
    """Family columns of every kind, INT_ALL included, hold each member's
    tuple of component bodies, not its bytes: within one kind and n, two
    oracles have equal body tuples exactly when they serialize to equal
    bytes, so the tuples group the members as the bytes do. Every tier-1
    family below is within the INT_ALL caps."""

    KINDS = (OBS, INT1, CF1, INT_ALL)

    @staticmethod
    def assert_same_groups(pairs):
        """`pairs` of (body tuple, bytes) of oracles of one kind and n:
        equal tuples exactly when equal bytes."""
        pairs = set(pairs)
        assert len({bodies for bodies, _ in pairs}) == len({data for _, data in pairs}) == len(pairs)

    @pytest.mark.parametrize("family", [
        *[Family("tree", n) for n in (1, 2, 3, 4, 5)],
        *[Family("bipartite", m) for m in (1, 2, 3)],
        *[Family("xor", m) for m in (1, 2, 3, 4)],
    ], ids=str)
    def test_body_tuples_group_as_bytes(self, family):
        n = family.n_vars()
        rows = {kind: [] for kind in self.KINDS}
        for _, oracles in family_sweep(family, self.KINDS, {}):
            for kind in self.KINDS:
                rows[kind].append((oracle_module._bodies(oracles[kind]), serialize(oracles[kind])))
        columns = oracle_module.family_columns(family, self.KINDS)
        for kind in self.KINDS:
            self.assert_same_groups(rows[kind])
            assert columns[kind] == tuple([bodies for bodies, _ in rows[kind]])
            assert oracle_index(family, kind) == tuple([data for _, data in rows[kind]])
            for bodies, data in set(rows[kind]):
                assert oracle_module.entry_bytes(kind, n, bodies) == data

    @pytest.mark.parametrize("family", [
        Family("tree", 3), Family("bipartite", 2), Family("xor", 2),
    ], ids=str)
    def test_a_sweep_shares_equal_body_texts(self, family, monkeypatch):
        # with no leaf memo each member's pass renders texts of its own, so
        # one str per distinct text comes from the sweep alone: across the
        # members and the kinds of one sweep (INT_ALL's, then the rest), and
        # in the columns it keeps
        monkeypatch.setattr(scm_core._LEAVES, "limit", 0)
        for kinds in ((INT_ALL,), (OBS, INT1, CF1)):
            columns = oracle_module.family_columns(family, kinds)
            texts: dict = {}
            entries: dict = {}
            for kind in kinds:
                for entry in columns[kind]:
                    assert type(entry) is tuple and entries.setdefault(entry, entry) is entry
                    for body in entry:
                        assert type(body) is str and texts.setdefault(body, body) is body
            # texts repeat across the members' slots, so the check has teeth
            assert len(texts) < sum([len(entry) for kind in kinds for entry in columns[kind]])

    @given(st.lists(small_scms(max_n=3), min_size=1, max_size=5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_models_group_as_bytes(self, models, data):
        # beside each model: a copy of each oracle whose dists are built
        # from masses (equal bytes), and one with two components swapped
        # (other bytes when their bodies differ); n=0 has one body, "=1/1"
        models = [Scm(0, ()), *models]
        for kind in self.KINDS:
            oracles = [compute_oracle(scm, kind) for scm in models]
            for made in list(oracles):
                rebuilt = tuple([(key, ExactDist(dist.n_bits, dict(dist.mass)))
                                 for key, dist in made.components])
                oracles.append(AnswerOracle(kind, made.n, rebuilt))
                if len(rebuilt) > 1:
                    i, j = data.draw(st.lists(st.integers(0, len(rebuilt) - 1), min_size=2,
                                              max_size=2, unique=True))
                    dists = [dist for _, dist in rebuilt]
                    dists[i], dists[j] = dists[j], dists[i]
                    swapped = tuple(zip([key for key, _ in rebuilt], dists))
                    oracles.append(AnswerOracle(kind, made.n, swapped))
            by_n: dict = {}
            for made in oracles:
                bodies = oracle_module._bodies(made)
                assert oracle_module.entry_bytes(kind, made.n, bodies) == serialize(made)
                by_n.setdefault(made.n, []).append((bodies, serialize(made)))
            for pairs in by_n.values():
                self.assert_same_groups(pairs)


class TestOneOraclePath:
    """Every oracle of every kind is computed by one call of
    `_member_oracles`, whoever asks for it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        member_oracles = oracle_module._member_oracles

        def counting(scm, kinds):
            calls.append((tuple(kinds), scm))
            return member_oracles(scm, kinds)

        monkeypatch.setattr(oracle_module, "_member_oracles", counting)
        return calls

    @pytest.mark.parametrize("kind", [OBS, INT1, CF1, INT_ALL])
    def test_compute_oracle(self, calls, kind):
        compute_oracle(CHAIN2, kind)
        assert calls == [((kind,), CHAIN2)]

    def test_int_all_index(self, calls):
        family = Family("xor", 2)
        oracle_index(family, INT_ALL)
        assert calls == [((INT_ALL,), family.build(param)) for param in family.parameters()]

    def test_family_sweep(self, calls):
        family = Family("tree", 3)
        list(family_sweep(family, (OBS, CF1), {}))
        assert calls == [((OBS, CF1), family.build(param)) for param in family.parameters()]

    @pytest.mark.parametrize("family, kind, decode", [
        pytest.param(family, kind, decode, id=decode.__name__)  # no address in the node ID
        for family, kind, decode in [
            (Family("tree", 3), INT1, tree_from_int1),
            (Family("bipartite", 1), INT1, graph_from_int1),
            (Family("xor", 2), CF1, string_from_cf1),
        ]
    ])
    def test_rebuild_check(self, calls, family, kind, decode):
        for param in family.parameters():
            scm = family.build(param)
            oracle = parse(serialize(compute_oracle(scm, kind)))
            calls.clear()
            assert decode(oracle) == param
            assert calls == [((kind,), scm)]

    def test_every_kind_from_one_call(self):
        scm = build_xor_scm(HiddenString(2, "01"))
        together = oracle_module._member_oracles(scm, (INT_ALL, OBS, INT1, CF1))
        for kind in (OBS, INT1, CF1, INT_ALL):
            assert serialize(together[kind]) == serialize(compute_oracle(scm, kind))

    def test_int_all_alone_compiles_once(self, monkeypatch):
        compiles = []
        compile_plan = scm_core._compile

        def counted(scm):
            compiles.append(scm)
            return compile_plan(scm)

        monkeypatch.setattr(scm_core, "_compile", counted)
        compute_oracle(CHAIN2, INT_ALL)
        assert compiles == [CHAIN2]

    def test_unknown_kind_refused_before_any_pass(self, no_pass):
        with pytest.raises(KindMismatchError, match="unknown oracle kind 'INT2'"):
            oracle_module._member_oracles(CHAIN2, (INT_ALL, "INT2"))


class TestMarginal:
    def test_identity_and_reorder(self):
        d = ExactDist(2, {"01": HALF, "10": HALF})
        assert marginal(d, (0, 1)) == d
        assert marginal(d, (1, 0)) == ExactDist(2, {"10": HALF, "01": HALF})

    def test_single_position(self):
        d = ExactDist(2, {"00": HALF, "11": HALF})
        assert marginal(d, (1,)) == ExactDist(1, {"0": HALF, "1": HALF})

    def test_merges_mass(self):
        d = ExactDist(2, {"00": HALF, "01": HALF})
        assert marginal(d, (0,)) == ExactDist(1, {"0": Fraction(1)})

    def test_out_of_range(self):
        d = ExactDist(1, {"0": Fraction(1)})
        with pytest.raises(BadPositionError):
            marginal(d, (1,))


@given(small_scms())
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip_on_random_scms(scm):
    for kind in (OBS, INT1, CF1):
        oracle = compute_oracle(scm, kind)
        assert parse(serialize(oracle)) == oracle


@given(small_scms(max_n=3))
@settings(max_examples=20, deadline=None)
def test_obs_component_embeds_in_int1(scm):
    obs_bytes = serialize(compute_oracle(scm, OBS))
    int1_bytes = serialize(compute_oracle(scm, INT1))
    assert int1_bytes.split(b"\n", 1)[1].startswith(obs_bytes.split(b"\n", 1)[1])
