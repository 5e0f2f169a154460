"""The codec against its per-line reference, the n=0 grammar, the
INT_ALL key table, and the lazy canonical product of kernel and parse
distributions."""

import functools
from dataclasses import make_dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scmlab import (
    CF1,
    INT1,
    INT_ALL,
    OBS,
    AnswerOracle,
    ExactDist,
    HiddenString,
    Mechanism,
    NoiseDist,
    Scm,
    all_interventions,
    build_xor_scm,
    compute_oracle,
    parse,
    serialize,
)
from scmlab import gates, observational, scm_core
from scmlab import oracle as oracle_module
from scmlab.errors import OracleFormatError
from scmlab.scm_core import intervention_code

import reference_codec
from reference_codec import intervention_key
from conftest import GOLDEN_BYTES, mutated_golden, small_scms
from reference_enumerator import reference_oracle

KINDS = (OBS, INT1, CF1, INT_ALL)
EMPTY = Scm(0, ())


def masses(oracle: AnswerOracle):
    """Each component's masses, in insertion order."""
    return [list(dist.mass.items()) for _, dist in oracle.components]


def verdict(parse_fn, data: bytes):
    """The oracle `parse_fn` returns with its masses in insertion order, or
    OracleFormatError."""
    try:
        oracle = parse_fn(data)
    except OracleFormatError:
        return OracleFormatError
    return oracle, masses(oracle)


@given(small_scms(), st.sampled_from(KINDS))
@settings(max_examples=150, deadline=None)
@example(EMPTY, OBS)
@example(EMPTY, INT1)
@example(EMPTY, CF1)
@example(EMPTY, INT_ALL)
def test_codec_matches_reference(scm, kind):
    oracle = compute_oracle(scm, kind)
    data = serialize(oracle)
    assert data == reference_codec.serialize(oracle)
    assert verdict(parse, data) == verdict(reference_codec.parse, data)
    parsed = parse(data)
    assert parsed == oracle
    assert serialize(parsed) == data


@functools.cache
def seeds() -> list[bytes]:
    """The golden files (OBS, INT1, CF1) plus the kinds and sizes they
    lack, computed on first use, so that a kernel fault fails the tests
    that draw them and not their module's collection; every body of an
    xor INT_ALL oracle is uniform, all its lines one mass text."""
    return GOLDEN_BYTES + [
        serialize(compute_oracle(build_xor_scm(HiddenString(1, "1")), INT_ALL)),
        serialize(compute_oracle(build_xor_scm(HiddenString(2, "10")), INT_ALL)),
        serialize(compute_oracle(EMPTY, OBS)),
        serialize(compute_oracle(EMPTY, INT_ALL)),
    ]


@given(st.deferred(lambda: mutated_golden(seeds())))
@settings(max_examples=400, deadline=None)
def test_parse_agrees_with_reference_on_mutants(data):
    assert verdict(parse, data) == verdict(reference_codec.parse, data)


# arbitrary bytes, alone or as the body of a component whose header and
# key are valid, so that they reach the mass-line checks
HEADS = [b"", b"OBS n=0\n#obs\n", b"OBS n=1\n#obs\n", b"OBS n=2\n#obs\n", b"OBS n=2\n#obs\n00="]


@given(st.sampled_from(HEADS), st.binary(max_size=64))
@settings(max_examples=400, deadline=None)
def test_parse_agrees_with_reference_on_arbitrary_bytes(head, tail):
    data = head + tail
    assert verdict(parse, data) == verdict(reference_codec.parse, data)


@pytest.mark.parametrize(
    "body, error",
    [
        ("00=1/4\n01=1/4\n10=1/4\n11=1/4", None),
        ("00=1/2\n11=1/2", None),
        ("00=1/3\n01=1/3\n11=1/3", None),
        ("00=1/2\n00=1/2", "outcome '00' out of order after '00'"),
        ("00=1/4\n01=1/4\n10=1/4", "component 'obs': masses sum to 3/4, expected 1"),
        ("00=1/2\n01=1/2\n10=1/2", "component 'obs': masses sum to 3/2, expected 1"),
        ("01=2/4\n10=2/4", "fraction '2/4' is not in lowest terms"),
        ("00=1/2\n01=1/23", "component 'obs': masses sum to 25/46, expected 1"),
        ("11=1/4\n10=1/4\n01=1/4\n00=1/4", "outcome '10' out of order after '11'"),
        ("01=1/2\n00=1/2", "outcome '00' out of order after '01'"),
        ("00=1/2\n1=1/2", "outcome '1' has length 1, expected 2"),
        ("00=1/2\n100=1/2", "outcome '100' has length 3, expected 2"),
    ],
    ids=["uniform", "uniform-gap", "uniform-thirds", "duplicate-outcome", "sum-3/4", "sum-3/2",
         "not-lowest-terms", "mass-extends-the-first", "descending", "swapped",
         "outcome-too-short", "outcome-too-long"],
)
def test_hand_built_uniform_bodies(body, error):
    # every line but the malformed ones repeats one mass text, so the
    # uniform path sees each body first; a rejection keeps the text of the
    # general checks
    data = f"OBS n=2\n#obs\n{body}\n".encode()
    assert verdict(parse, data) == verdict(reference_codec.parse, data)
    if error is None:
        assert serialize(parse(data)) == data
    else:
        with pytest.raises(OracleFormatError) as excinfo:
            parse(data)
        assert str(excinfo.value) == error


def test_hand_built_oracle_out_of_order_with_distinct_equal_masses():
    quarter_a, quarter_b = Fraction(1, 4), Fraction(1, 4)
    assert quarter_a is not quarter_b
    dist = ExactDist(2, {"11": quarter_a, "00": Fraction(1, 2), "01": quarter_b})
    oracle = AnswerOracle(OBS, 2, (("obs", dist),))
    data = b"OBS n=2\n#obs\n00=1/2\n01=1/4\n11=1/4\n"
    assert serialize(oracle) == reference_codec.serialize(oracle) == data
    assert parse(data) == oracle
    assert verdict(parse, data) == verdict(reference_codec.parse, data)


def test_identity_memo_sees_only_live_masses():
    # each oracle is rendered while alive; ids reused by a later oracle's
    # masses must not return an earlier oracle's text
    for k in range(1, 40):
        dist = ExactDist(1, {"0": Fraction(1, k + 1), "1": Fraction(k, k + 1)})
        data = serialize(AnswerOracle(OBS, 1, (("obs", dist),)))
        assert data == f"OBS n=1\n#obs\n0=1/{k + 1}\n1={k}/{k + 1}\n".encode()


class TestEmptyModel:
    @pytest.mark.parametrize(
        "kind, data",
        [
            (OBS, b"OBS n=0\n#obs\n=1/1\n"),
            (INT1, b"INT1 n=0\n#obs\n=1/1\n"),
            (CF1, b"CF1 n=0\n"),
            (INT_ALL, b"INT_ALL n=0\n#do S= x=\n=1/1\n"),
        ],
    )
    def test_n0_oracle_parses_back(self, kind, data):
        oracle = compute_oracle(EMPTY, kind)
        assert serialize(oracle) == data
        assert parse(data) == oracle == reference_codec.parse(data)
        assert serialize(parse(data)) == data

    @pytest.mark.parametrize(
        "data",
        [
            b"OBS n=0\n#obs\n=1/2\n=1/2\n",  # one outcome, listed twice
            b"OBS n=0\n#obs\n0=1/1\n",
            b"OBS n=1\n#obs\n=1/1\n",
            b"OBS n=0\n#obs\n=2/2\n",
            b"OBS n=0\n#obs\n",
        ],
    )
    def test_n0_grammar_stays_strict(self, data):
        for parse_fn in (parse, reference_codec.parse):
            with pytest.raises(OracleFormatError):
                parse_fn(data)


def _decode(n: int, code: int) -> tuple:
    """The (variable, bit) pairs of an intervention code: its base-3
    digits, variable 0 first, are 0 for no target and bit + 1."""
    pairs = []
    for v in reversed(range(n)):
        code, digit = divmod(code, 3)
        if digit:
            pairs.append((v, digit - 1))
    assert code == 0
    return tuple(reversed(pairs))


class TestKeyTable:
    @pytest.mark.parametrize("n", range(7))
    def test_keys_follow_all_interventions(self, n):
        table = oracle_module._layout(INT_ALL, n)
        interventions = list(all_interventions(n))
        codes = [code for code, _ in table]
        assert codes == [intervention_code(n, iv.assignments) for iv in interventions]
        assert [_decode(n, code) for code in codes] == [iv.assignments for iv in interventions]
        assert [key for _, key in table] == [intervention_key(iv) for iv in interventions]

    @pytest.mark.parametrize("n", range(7))
    def test_compute_oracle_emits_table_order(self, n):
        fair = NoiseDist.bernoulli(Fraction(1, 3))
        mechanisms = [Mechanism(gates.BERN_SOURCE, (), fair)] + [
            Mechanism(gates.XOR_NOISE, (v - 1,), fair) for v in range(1, n)
        ]
        scm = Scm(n, tuple(mechanisms[:n]))
        keys = [key for key, _ in compute_oracle(scm, INT_ALL).components]
        assert keys == [intervention_key(iv) for iv in all_interventions(n)]

    def test_cache_is_bounded(self, monkeypatch):
        # one memo holds every kind's layouts, each counted in components;
        # more are asked for than it keeps, so it drops them and starts again
        layouts = oracle_module._LAYOUTS
        monkeypatch.setattr(layouts, "limit", 100)
        layouts.clear()
        asked = [(kind, n) for kind in KINDS for n in range(5)]
        for kind, n in asked:
            oracle_module._layout(kind, n)
            assert layouts.held == sum(map(len, layouts.values())) <= layouts.limit
        assert 0 < len(layouts) < len(asked)

    def test_every_table_up_to_n10_fits_and_n11_does_not(self):
        # the bound keeps every layout of every kind up to n=10 together,
        # and no INT_ALL table of n=11 (3^11 components) or more
        sizes = {OBS: lambda n: 1, INT1: lambda n: 2 * n + 1, CF1: lambda n: n,
                 INT_ALL: lambda n: 3**n}
        held = sum(sizes[kind](n) for kind in KINDS for n in range(11))
        assert held == 88_760 <= oracle_module._LAYOUTS.limit < 3**11

    def test_tables_above_the_cache_limit_are_not_kept(self, monkeypatch):
        layouts = oracle_module._LAYOUTS
        monkeypatch.setattr(layouts, "limit", 26)
        layouts.clear()
        table = oracle_module._layout(INT_ALL, 3)  # 27 components
        assert [key for _, key in table] == [
            intervention_key(iv) for iv in all_interventions(3)
        ]
        assert len(layouts) == 0 and layouts.held == 0
        oracle_module._layout(INT_ALL, 2)
        assert len(layouts) == 1 and layouts.held == 9
        # the limit counts components of every kind alike
        oracle_module._layout(INT1, 3)
        assert len(layouts) == 2 and layouts.held == 16

    def test_parse_builds_no_table_for_a_wrong_component_count(self):
        layouts = oracle_module._LAYOUTS
        layouts.clear()
        data = b"INT_ALL n=9\n#do S= x=\n" + b"0" * 9 + b"=1/1\n"
        with pytest.raises(OracleFormatError, match=r"1 components, expected 3\^9 = 19683"):
            parse(data)
        assert len(layouts) == 0


class TestComponentCount:
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"OBS n=99999999999\n#obs\n0=1/1\n", "has length 1"),
            (b"INT1 n=10000000000\n#obs\n0=1/1\n", "1 components, expected 20000000001"),
            (b"CF1 n=10000000000\n#cf i=0\n0=1/1\n", "1 components, expected 10000000000"),
            (b"INT_ALL n=10000000000\n#do S= x=\n0=1/1\n", r"1 components, expected 3\^10000000000$"),
        ],
    )
    def test_huge_header_n_is_rejected(self, data, message):
        # the count check comes before any key is built, so this is quick
        # and allocates nothing sized by the header's n
        with pytest.raises(OracleFormatError, match=message):
            parse(data)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_component_too_many_or_too_few(self, kind):
        data = serialize(compute_oracle(build_xor_scm(HiddenString(1, "1")), kind))
        header, *blocks = data[:-1].split(b"\n#")
        for wrong in (blocks[:-1], blocks + blocks[-1:]):
            bad = b"\n#".join([header] + wrong) + b"\n"
            with pytest.raises(OracleFormatError, match="components, expected"):
                parse(bad)
            with pytest.raises(OracleFormatError):
                reference_codec.parse(bad)


class TestLazyProduct:
    """Kernel and parse dists carry their canonical body and build `mass`
    on first read; nothing observable may depend on when it is read."""

    @given(small_scms(), st.sampled_from(KINDS))
    @settings(max_examples=100, deadline=None)
    def test_bytes_do_not_depend_on_when_mass_is_read(self, scm, kind):
        want = reference_codec.serialize(reference_oracle(scm, kind))
        for make in (lambda: compute_oracle(scm, kind), lambda: parse(want)):
            never = make()
            assert serialize(never) == want
            before = make()
            masses(before)
            assert serialize(before) == want
            after = make()
            assert serialize(after) == want
            masses(after)
            assert serialize(after) == want

    @given(small_scms(), st.sampled_from(KINDS))
    @settings(max_examples=100, deadline=None)
    def test_materialized_mass_matches_the_references(self, scm, kind):
        oracle = compute_oracle(scm, kind)
        data = serialize(oracle)
        reference = reference_oracle(scm, kind)
        want = [sorted(dist.mass.items()) for _, dist in reference.components]
        assert masses(oracle) == want
        assert masses(parse(data)) == want
        assert masses(reference_codec.parse(data)) == want

    @given(small_scms(), st.sampled_from(KINDS))
    @settings(max_examples=100, deadline=None)
    def test_a_lazy_dist_equals_its_eager_twin(self, scm, kind):
        reference = reference_oracle(scm, kind)
        eager = [ExactDist(d.n_bits, dict(sorted(d.mass.items())))
                 for _, d in reference.components]
        data = serialize(reference)

        def fresh(make):  # the leaf and read-back memos would serve the dists read before
            scm_core._LEAVES.clear()
            oracle_module._WRITTEN.clear()
            return [dist for _, dist in make().components]

        # each check reads fresh dists, so `==` and `repr` meet them unread
        for make in (lambda: compute_oracle(scm, kind), lambda: parse(data)):
            assert fresh(make) == eager
            assert list(map(repr, fresh(make))) == list(map(repr, eager))

    def test_text_memos_stay_within_their_bounds(self, monkeypatch):
        # every xor leaf is uniform: its outcome texts joined by its one mass
        # text; the mixed sources' leaves are uniform only where every
        # third-weighted source is forced, and join outcome and mass line by
        # line elsewhere
        third, half = NoiseDist.bernoulli(Fraction(1, 3)), NoiseDist.bernoulli(Fraction(1, 2))
        mixed = Scm(5, tuple(Mechanism(gates.BERN_SOURCE, (), noise)
                             for noise in (third, half, third, half, half)))
        scms = (build_xor_scm(HiddenString(4, "1011")), mixed)
        want = [serialize(compute_oracle(scm, INT_ALL)) for scm in scms]
        memos = (scm_core._OUTCOMES, scm_core._MASSES)

        def assert_sound():
            # each family holds one memo per width or den, counting its texts
            outcomes, masses = memos
            for memo in memos:
                assert memo.held == sum(map(len, memo.values())) <= memo.limit
                assert all(texts.key == key for key, texts in memo.items())
            for width, texts in outcomes.items():
                assert all(text == format(1 << width | state, "b")[1:] for state, text in texts.items())
            for den, texts in masses.items():  # in lowest terms
                for weight, text in texts.items():
                    mass = Fraction(weight, den)
                    assert text == f"={mass.numerator}/{mass.denominator}"

        # from empty memos: texts of both widths, and masses of both dens
        for memo in memos:
            memo.clear()
        assert [serialize(compute_oracle(scm, INT_ALL)) for scm in scms] == want
        assert_sound()
        assert set(scm_core._OUTCOMES) == {5, 8}
        assert set(scm_core._MASSES) >= {16, 72}
        # small bounds, from empty memos: each oracle overflows both many times
        # (the mixed model has 32 outcome texts, xor m=4 256, and each 9 or more
        # mass texts)
        drops = {id(memo): 0 for memo in memos}
        clear = scm_core._Bounded.clear

        def counted(memo):
            if id(memo) in drops:
                drops[id(memo)] += 1
            clear(memo)

        monkeypatch.setattr(scm_core._Bounded, "clear", counted)
        for memo, bound in zip(memos, (16, 3)):
            monkeypatch.setattr(memo, "limit", bound)
            memo.clear()
        for scm, data in zip(scms, want):
            before = dict(drops)
            assert serialize(compute_oracle(scm, INT_ALL)) == data
            assert_sound()
            assert all(drops[key] > before[key] + 1 for key in drops)


class TestLeanRoundTrip:
    """`serialize` writes each oracle's own keys a block of components at a
    time, and `parse` keeps the layout's key strings."""

    BLOCK = oracle_module._SERIALIZE_BLOCK
    SCM = build_xor_scm(HiddenString(2, "10"))

    def made(self, count: int, mixed: bool) -> AnswerOracle:
        """An OBS-kind oracle of `count` components under keys no layout
        has, each dist from the kernel or, if `mixed`, every third one
        from the constructor."""
        kernel = [dist for _, dist in compute_oracle(self.SCM, INT_ALL).components]
        eager = [ExactDist(d.n_bits, dict(d.mass)) for d in kernel]
        dists = [(eager if mixed and i % 3 == 0 else kernel)[i % len(kernel)] for i in range(count)]
        return AnswerOracle(OBS, 4, tuple((f"part {i}", dist) for i, dist in enumerate(dists)))

    @pytest.mark.parametrize("mixed", [False, True], ids=["kernel", "mixed"])
    @pytest.mark.parametrize("offset", [-1, 0, 1, BLOCK, 2 * BLOCK + 1])
    def test_block_edges_match_the_reference(self, offset, mixed):
        oracle = self.made(self.BLOCK + offset, mixed)
        data = serialize(oracle)
        assert data == reference_codec.serialize(oracle)
        assert data.count(b"\n#part ") == len(oracle.components)

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_oracle_is_written_under_its_own_keys(self, kind):
        # the layout's count, other keys
        oracle = compute_oracle(self.SCM, kind)
        renamed = AnswerOracle(kind, oracle.n, tuple(
            (f"{key}!", dist) for key, dist in oracle.components))
        data = serialize(renamed)
        assert data == reference_codec.serialize(renamed) != serialize(oracle)
        with pytest.raises(OracleFormatError, match="where .* was expected"):
            parse(data)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scm", [EMPTY, build_xor_scm(HiddenString(2, "10")),
                                     build_xor_scm(HiddenString(3, "101"))], ids=["n0", "n4", "n6"])
    def test_parsed_keys_are_the_layouts_strings(self, kind, scm):
        data = serialize(compute_oracle(scm, kind))
        oracle_module._WRITTEN.clear()  # so the keys are cut from the input and checked
        parsed = parse(data)
        layout = oracle_module._layout(kind, scm.n)
        assert len(parsed.components) == len(layout)
        assert all(key is want for (key, _), (_, want) in zip(parsed.components, layout))

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("#obs\n0=1/3\n1=1/3", "#do i=9 b=0\n0=1/1", "component 'obs': masses sum to 2/3, expected 1"),
            ("#obs\n0=1/2\n1=1/2", "#do i=0 b=0\n0=2/2", "fraction '2/2' is not in lowest terms"),
            ("#obs\n1=1/2\n0=1/2", "#do i=0 b=0\n0=1/1\n0=1/1", "outcome '0' out of order after '1'"),
            ("#obbs\n0=1/2\n1=1/2", "#do i=0 b=0\n0=1/3", "component key 'obbs' where 'obs' was expected"),
            ("#obs\n0=1/2\n1=1/2", "#do i=0 b=9\n0=1/3", "component key 'do i=0 b=9' where 'do i=0 b=0' was expected"),
        ],
        ids=["bad-sum-then-bad-key", "bad-terms-then-bad-key", "bad-order-then-bad-body",
             "bad-key-then-bad-body", "good-then-bad-key-and-body"],
    )
    def test_the_earlier_components_error_is_raised(self, first, second, message):
        data = f"INT1 n=1\n{first}\n{second}\n#do i=0 b=1\n1=1/1\n".encode()
        for parse_fn in (parse, reference_codec.parse):
            with pytest.raises(OracleFormatError) as excinfo:
                parse_fn(data)
            assert str(excinfo.value) == message

    def test_a_non_ascii_key_fails_as_the_whole_text_does(self):
        oracle = self.made(3 * self.BLOCK, False)
        components = list(oracle.components)
        components[2 * self.BLOCK + 5] = ("d\u00e9j\u00e0", components[5][1])
        bad_key = AnswerOracle(OBS, 4, tuple(components))
        with pytest.raises(UnicodeEncodeError) as want:
            reference_codec.serialize(bad_key)
        with pytest.raises(UnicodeEncodeError) as got:
            serialize(bad_key)
        assert str(got.value) == str(want.value)
        # a body too long to write, in a later block, is raised first
        too_long = compute_oracle(TOO_LONG, OBS).components[0][1]
        components[0] = ("d\u00e9j\u00e0", components[0][1])
        components[-1] = ("last", too_long)
        with pytest.raises(OracleFormatError, match="too long to write"):
            serialize(AnswerOracle(OBS, 4, tuple(components)))


TOO_LONG = Scm(1, (Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 10**4400))),))


@pytest.mark.parametrize("kind", KINDS)
def test_a_mass_too_long_to_write_is_a_typed_error(kind):
    # past the interpreter's 4300-digit limit for int-to-text conversion
    oracle = compute_oracle(TOO_LONG, kind)
    with pytest.raises(OracleFormatError, match="too long to write"):
        serialize(oracle)
    assert observational(TOO_LONG).p("1") == Fraction(1, 10**4400)


def test_a_mass_too_long_to_write_is_a_placeholder_in_a_repr():
    # as in a model's repr, where the generated one raised
    dist = observational(TOO_LONG)
    with pytest.raises(ValueError):
        repr(dist.mass)
    assert repr(dist) == (
        "ExactDist(n_bits=1, mass={"
        "'0': <Fraction too long to write: 14617-bit numerator, 14617-bit denominator>, "
        "'1': <Fraction too long to write: 1-bit numerator, 14617-bit denominator>})"
    )
    for kind in KINDS:
        oracle = compute_oracle(TOO_LONG, kind)
        assert repr(oracle) == f"AnswerOracle(kind={kind!r}, n=1, components={oracle.components!r})"
        assert "too long to write" in repr(oracle)


@given(small_scms(), st.sampled_from(KINDS))
@settings(max_examples=60, deadline=None)
@example(EMPTY, OBS)
def test_a_dists_repr_is_the_generated_one(scm, kind):
    # the repr a dataclass of the same two fields generates, for a dist
    # built from its body, read or unread, and one built from masses
    plain = make_dataclass("ExactDist", ["n_bits", "mass"])
    for _, dist in compute_oracle(scm, kind).components:
        unread = ExactDist._from_body(dist.n_bits, dist._text())
        want = repr(plain(dist.n_bits, dict(dist.mass)))
        assert repr(unread) == repr(dist) == repr(ExactDist(dist.n_bits, dict(dist.mass))) == want
