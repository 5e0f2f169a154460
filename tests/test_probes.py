"""The integer probes against their Fraction reference.

`prob_bit`, `marginal`, `tv`, `outcomes` and `==` read each
distribution's integer view, and the decoders' probes and verify's
cross-rung check read `prob_bit` and `marginal`: the INT1 decoders' fact
of each do(X_v=0) law (`_zero_fact`), the CF1 decoder's agreement of two
positions (the mass of "00" and "11" in their pair marginal) and each
CF1 world block's marginal (`_marginal_consistency`).
`reference_probes.py` keeps the Fraction implementations the integer
probes replaced, and the INT1 probes built on its `prob_bit`. Both must
agree on kernel dists, which decode the view from
their body, on parsed and constructor-built dists, on a law whose mass is
too long to write, which has no canonical body and decodes `mass`, on
dists of no positions, and on leaves of unequal weights. A marginal
carries its canonical body, so an OBS oracle holding one serializes as
the reference codec writes it.
"""

import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scmlab import (
    CF1,
    INT1,
    INT_ALL,
    OBS,
    AnswerOracle,
    ExactDist,
    Mechanism,
    NoiseDist,
    Scm,
    compute_oracle,
    gates,
    marginal,
    parse,
    serialize,
    string_from_cf1,
    tv,
)
from scmlab.errors import (
    BadPositionError,
    BadRangeError,
    LengthMismatchError,
    NotXorLikeError,
    OracleDecodeError,
    OracleFormatError,
)
from scmlab.catalog import Family
from scmlab.decoders import _zero_fact, descendants_from_int1, graph_probe
from scmlab.verify import _marginal_consistency

import reference_codec
import reference_probes as ref
from conftest import MIXED_LEAVES, small_scms

KINDS = (OBS, INT1, CF1, INT_ALL)
# past the interpreter's 4300-digit limit: the kernel builds this law
# without a body, and a marginal of it has none either
TOO_LONG = Scm(1, (Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 10**4400))),))
# a fair source and two noisy parities: the joint's masses are 1/4, 1/8,
# 1/12 and 1/24, so the lines of one dist carry different denominators,
# and a marginal sums masses into fractions that must be reduced
MIXED = Scm(
    3,
    (
        Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 2))),
        Mechanism(gates.XOR_NOISE, (0,), NoiseDist.bernoulli(Fraction(1, 3))),
        Mechanism(gates.XOR_NOISE, (0, 1), NoiseDist.bernoulli(Fraction(1, 4))),
    ),
)
# no variables: every dist has the one outcome "" of mass 1
NO_VARIABLES = Scm(0, ())
FIXED_MODELS = [MIXED, TOO_LONG, MIXED_LEAVES, NO_VARIABLES]
FIXED_IDS = ["mixed-denominators", "too-long", "mixed-leaves", "no-variables"]


def sources(scm: Scm, kind: str) -> list[list[ExactDist]]:
    """The components of the `kind` oracle of `scm`, unread: from the
    kernel, rebuilt by the public constructor, and parsed from the
    oracle's bytes where they can be written."""
    groups = [[dist for _, dist in compute_oracle(scm, kind).components]]
    groups.append([ExactDist(d.n_bits, dict(d.mass)) for _, d in compute_oracle(scm, kind).components])
    try:
        data = serialize(compute_oracle(scm, kind))
    except OracleFormatError:  # a mass too long to write
        pass
    else:
        groups.append([dist for _, dist in parse(data).components])
    return groups


def written(serialize_fn, dist: ExactDist):
    """The bytes of an OBS oracle holding `dist`, or the error type."""
    try:
        return serialize_fn(AnswerOracle(OBS, dist.n_bits, (("obs", dist),)))
    except OracleFormatError:
        return OracleFormatError


def check_marginal(dist: ExactDist, positions) -> ExactDist:
    got = marginal(dist, positions)
    want = ref.marginal(dist, positions)
    assert got.n_bits == want.n_bits == len(positions)
    assert got.mass == want.mass
    assert got == want and ref.equal(got, want)
    assert written(serialize, got) == written(reference_codec.serialize, want)
    assert got._body is not None or written(serialize, got) is OracleFormatError
    return got


def check_prob_bits(dist: ExactDist) -> None:
    assert dist.outcomes() == sorted(dist.mass)
    for position in range(dist.n_bits):
        for bit in (0, 1):
            got = dist.prob_bit(position, bit)
            assert type(got) is Fraction
            assert got == ref.prob_bit(dist, position, bit)
    for probe in (dist.prob_bit, lambda p, b: ref.prob_bit(dist, p, b)):
        with pytest.raises(BadPositionError):
            probe(dist.n_bits, 0)
    for position, bit in itertools.product(range(dist.n_bits), (2, -1, None)):
        with pytest.raises(BadRangeError):
            dist.prob_bit(position, bit)
    # the INT1 decoders' fact: the positions at 0 with probability 1, and
    # each at neither 1 nor 1/2 with its value
    zeros = [ref.prob_bit(dist, position, 0) for position in range(dist.n_bits)]
    assert _zero_fact(dist) == (
        frozenset([p for p, z in enumerate(zeros) if z == 1]),
        {p: z for p, z in enumerate(zeros) if z not in (1, Fraction(1, 2))},
    )
    # the CF1 decoder's agreement of two positions
    for i, j in itertools.combinations_with_replacement(range(dist.n_bits), 2):
        for pair in (marginal(dist, (i, j)), marginal(dist, (j, i))):
            got = pair.p("00") + pair.p("11")
            assert type(got) is Fraction
            assert got == ref.agreement(dist, i, j)
    for probe in (marginal, ref.marginal):
        with pytest.raises(BadPositionError):
            probe(dist, (0, dist.n_bits))


def check_pair(p: ExactDist, q: ExactDist) -> None:
    assert (p == q) == ref.equal(p, q)
    assert (p != q) == (not ref.equal(p, q))
    if p.n_bits != q.n_bits:
        for probe in (tv, ref.tv):
            with pytest.raises(LengthMismatchError):
                probe(p, q)
        return
    got = tv(p, q)
    assert type(got) is Fraction
    assert got == ref.tv(p, q)


def check_oracle(scm: Scm, kind: str, draw_positions, draw_pairs) -> None:
    groups = sources(scm, kind)
    # the same component from every source: equal, at distance 0
    for same in zip(*groups):
        for p, q in itertools.product(same, repeat=2):
            check_pair(p, q)
    flat = [dist for dists in groups for dist in dists]
    marginals = []
    for dist in flat:
        check_prob_bits(dist)
        marginals.append(check_marginal(dist, draw_positions(dist.n_bits)))
    for dist in marginals:  # their keys' views, some of no positions
        check_prob_bits(dist)
    for p, q in draw_pairs(flat + marginals):
        check_pair(p, q)


@given(small_scms(), st.sampled_from(KINDS), st.data())
@settings(max_examples=100, deadline=None)
def test_probes_match_the_reference(scm, kind, data):
    # positions may be empty, repeated, out of order and non-contiguous, or
    # an ascending run, which `marginal` reads as one block of each state:
    # at the start, in the middle or at the end, of one position or none
    def draw_positions(n_bits):
        if not n_bits:
            return ()
        run = st.tuples(st.integers(0, n_bits), st.integers(0, n_bits)).map(
            lambda ends: tuple(range(min(ends), max(ends))))
        return data.draw(st.one_of(st.lists(st.integers(0, n_bits - 1), max_size=n_bits + 2), run))

    def draw_pairs(dists):
        pick = st.sampled_from(dists)
        return data.draw(st.lists(st.tuples(pick, pick), max_size=30))

    check_oracle(scm, kind, draw_positions, draw_pairs)


# the empty tuple, one position, runs at the start, the end (of 3 bits) and
# the middle (of more), and reversed, gapped and repeated positions
POSITIONS = [(), (0,), (2,), (0, 1, 2), (1, 2), (2, 3), (2, 1, 0), (0, 2), (1, 1), (2, 0, 2, 1)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scm", FIXED_MODELS, ids=FIXED_IDS)
def test_probes_match_the_reference_on_fixed_positions(scm, kind):
    def first_fitting(n_bits):
        return next(p for p in POSITIONS if all(k < n_bits for k in p))

    def all_pairs(dists):
        return itertools.product(dists[:12], repeat=2)

    groups = sources(scm, kind)
    for dist in (d for dists in groups for d in dists):
        for positions in POSITIONS:
            if all(k < dist.n_bits for k in positions):
                check_marginal(dist, positions)
    check_oracle(scm, kind, first_fitting, all_pairs)


def test_a_body_less_law_answers_every_probe():
    dist = compute_oracle(TOO_LONG, OBS).components[0][1]
    assert dist._body is None
    assert dist.prob_bit(0, 1) == Fraction(1, 10**4400)
    assert marginal(dist, (0, 0)).mass == {"00": 1 - Fraction(1, 10**4400), "11": Fraction(1, 10**4400)}
    assert tv(dist, ExactDist(1, {"0": Fraction(1)})) == Fraction(1, 10**4400)
    assert dist == ExactDist(1, dict(dist.mass))


@pytest.mark.parametrize(
    "probe, error",
    [
        (lambda dist: marginal(dist, [0.7]), BadPositionError),
        (lambda dist: marginal(dist, ["1"]), BadPositionError),
        (lambda dist: marginal(dist, [True]), BadPositionError),
        (lambda dist: dist.prob_bit(0.5, 0), BadPositionError),
        (lambda dist: dist.prob_bit("1", 0), BadPositionError),
        (lambda dist: dist.prob_bit(True, 0), BadPositionError),
        (lambda dist: dist.prob_bit(0, True), BadRangeError),
        (lambda dist: dist.prob_bit(0, 1.0), BadRangeError),
    ],
    ids=["marginal-float", "marginal-str", "marginal-bool", "prob_bit-float-position",
         "prob_bit-str-position", "prob_bit-bool-position", "prob_bit-bool-bit",
         "prob_bit-float-bit"],
)
def test_probes_refuse_a_position_or_bit_that_is_not_an_int(probe, error):
    # no coercion: 0.7 is not position 0, nor True position 1 or bit 1,
    # and the refusal comes before the dist's view is built
    dist = ExactDist._from_body(2, "00=1/2\n11=1/2")
    with pytest.raises(error):
        probe(dist)
    assert dist._ints is None


def mass_is_built(dist):
    """Whether `dist.mass` is set, read from its slot, which `__getattr__`
    does not fill."""
    try:
        ExactDist.mass.__get__(dist)
    except AttributeError:
        return False
    return True


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scm", FIXED_MODELS, ids=FIXED_IDS)
def test_outcomes_build_no_masses(scm, kind):
    # a dist with a body lists its outcomes from its integer view, without
    # building a Fraction for each of them
    dists = [dist for _, dist in compute_oracle(scm, kind).components]
    listed = [dist.outcomes() for dist in dists]  # INT_ALL components share dists
    assert [mass_is_built(dist) for dist in dists] == [dist._body is None for dist in dists]
    assert listed == [sorted(dist.mass) for dist in dists]


def test_marginal_bodies_are_in_lowest_terms():
    # e.g. the x1 marginal of OBS sums 1/4 + 1/12 + 1/8 + 1/24 into 1/2
    oracle = compute_oracle(MIXED, INT1)
    for _, dist in oracle.components:
        for positions in [p for p in POSITIONS if all(k < dist.n_bits for k in p)]:
            got = marginal(dist, positions)
            assert written(serialize, got) == written(reference_codec.serialize, got)
            reparsed = parse(written(serialize, got))
            assert reparsed.components[0][1] == got


@pytest.mark.parametrize("probe_first", [False, True], ids=["unprobed", "probed"])
def test_the_public_api_does_not_depend_on_the_view(probe_first):
    eager = ExactDist(3, dict(sorted(compute_oracle(MIXED, OBS).components[0][1].mass.items())))
    made = [
        compute_oracle(MIXED, OBS).components[0][1],
        parse(serialize(compute_oracle(MIXED, OBS))).components[0][1],
        marginal(compute_oracle(MIXED, INT1).components[0][1], (0, 1, 2)),
        ExactDist(3, dict(eager.mass)),
    ]
    for dist in made:
        if probe_first:
            dist.prob_bit(0, 0)
        assert hash(dist) == hash(eager)
        assert repr(dist) == repr(eager)
        assert pickle.loads(pickle.dumps(dist)) == dist == eager
        assert dataclasses.replace(dist) == eager
        assert dataclasses.replace(dist, n_bits=3).mass == eager.mass
        assert dist.p("000") == eager.p("000") and dist.outcomes() == eager.outcomes()
        assert written(serialize, pickle.loads(pickle.dumps(dist))) == written(serialize, eager)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scm", FIXED_MODELS, ids=FIXED_IDS)
def test_equal_dists_and_oracles_hash_equal(scm, kind):
    # a dist hashes its canonical body, which `==` agrees with, so a
    # computed, a parsed and a mass-built dist hash equal, and hashing a
    # dist that has a body builds no masses
    computed = compute_oracle(scm, kind)
    parsed = computed if scm is TOO_LONG else parse(serialize(computed))  # no text to parse
    pairs = [(dist, read) for (_, dist), (_, read) in zip(computed.components, parsed.components)]
    assert all(hash(read) == hash(dist) for dist, read in pairs)
    assert not any(mass_is_built(d) for pair in pairs for d in pair if d._body is not None)
    for dist, read in pairs:
        built = ExactDist(dist.n_bits, dict(dist.mass))
        assert built == dist == read and hash(built) == hash(dist)
    assert len({computed, parsed}) == 1


@pytest.mark.parametrize("probe_first", [False, True], ids=["unprobed", "probed"])
def test_dists_have_slots_and_copy_whole(probe_first):
    # a dist has slots and no instance dict, so pickle and copy rebuild it
    # through its constructor; every way of making one must survive them
    made = {
        "kernel": compute_oracle(MIXED, INT1).components[1][1],
        "kernel-int-all": compute_oracle(MIXED, INT_ALL).components[-1][1],
        "parsed": parse(serialize(compute_oracle(MIXED, CF1))).components[0][1],
        "marginal": marginal(compute_oracle(MIXED, OBS).components[0][1], (2, 0)),
        "constructor": ExactDist(2, {"01": Fraction(1, 3), "10": Fraction(2, 3)}),
        "body-less": compute_oracle(TOO_LONG, OBS).components[0][1],
    }
    for name, dist in made.items():
        if probe_first:
            dist.prob_bit(0, 1)
        assert not hasattr(dist, "__dict__"), name
        for copied in (pickle.loads(pickle.dumps(dist)), copy.copy(dist), copy.deepcopy(dist),
                       dataclasses.replace(dist)):
            assert copied.__class__ is ExactDist and not hasattr(copied, "__dict__"), name
            assert copied == dist and copied.mass == dist.mass, name
            assert copied.outcomes() == dist.outcomes(), name
            assert written(serialize, copied) == written(serialize, dist), name
        if dist._body is None:  # masses go out as integers: a Fraction pickles as
            # text on Python 3.10, which refuses numbers of more than 4300 digits
            build, (n_bits, masses) = dist.__reduce__()
            assert build == ExactDist._from_ints and n_bits == dist.n_bits, name
            assert all(type(x) in (int, str) for item in masses for x in item), name
        with pytest.raises(dataclasses.FrozenInstanceError):
            dist.n_bits = 1
    with pytest.raises(ValueError, match="masses sum to 1/3"):  # through the checking constructor
        ExactDist._from_ints(2, [("01", 1, 3)])


@given(small_scms())
@settings(max_examples=100, deadline=None)
def test_cf1_agreement_sum_matches_the_reference(scm):
    # string_from_cf1 reads module t's Y agreement across the two
    # intervened worlds; it must see the reference's Fraction sum
    assume(scm.n % 2 == 0)
    n = scm.n
    oracle = compute_oracle(scm, CF1)
    bits = []
    for t in range(n // 2):
        mass = oracle.components[2 * t][1].mass
        agree = sum((w for o, w in mass.items() if o[n + 2 * t + 1] == o[2 * n + 2 * t + 1]), ref.ZERO)
        if agree not in (0, 1):
            with pytest.raises(NotXorLikeError, match=f"module {t}: .* probability {agree},"):
                string_from_cf1(oracle)
            return
        bits.append("0" if agree == 1 else "1")
    try:
        decoded = string_from_cf1(oracle)
    except NotXorLikeError as exc:
        assert "unprobed components" in str(exc)
    else:
        assert decoded.bits == "".join(bits)


def check_cross_rung(triple: ExactDist, obs: ExactDist, do0: ExactDist, do1: ExactDist) -> None:
    """`_marginal_consistency` on one CF1 triple and the obs, do 0 and do 1
    laws it is checked against decides what the reference marginals and
    `==` decide block by block, or raises what the reference `marginal`
    raises."""
    n = obs.n_bits
    oracles = (
        AnswerOracle(OBS, n, (("obs", obs),)),
        AnswerOracle(INT1, n, (("obs", obs), ("do i=0 b=0", do0), ("do i=0 b=1", do1))),
        AnswerOracle(CF1, n, (("cf i=0", triple),)),
    )
    try:
        want = all(
            ref.equal(ref.marginal(triple, range(k * n, k * n + n)), law)
            for k, law in enumerate((obs, do0, do1))
        )
    except BadPositionError:
        with pytest.raises(BadPositionError):
            _marginal_consistency(*oracles, {})
    else:
        assert _marginal_consistency(*oracles, {}) == want


@given(small_scms(), st.data())
@settings(max_examples=100, deadline=None)
def test_cross_rung_check_agrees_with_reference_marginals(scm, data):
    n = scm.n
    triples, int1s = sources(scm, CF1), sources(scm, INT1)
    for i in range(n):
        # each dist drawn from the kernel, the constructor (no body) or parse
        triple = data.draw(st.sampled_from(triples))[i]
        obs, do0, do1 = (
            data.draw(st.sampled_from(int1s))[index] for index in (0, 1 + 2 * i, 2 + 2 * i)
        )
        for laws in [
            (obs, do0, do1), (obs, do1, do0), (do0, obs, do1), (do1, do0, obs),
            (marginal(obs, (0,)), do0, do1), (obs, do0, triple), (triple, do0, do1),
        ]:
            check_cross_rung(triple, *laws)
        check_cross_rung(obs, obs, do0, do1)  # a triple too narrow for its blocks


@pytest.mark.parametrize(
    "scm", [MIXED, TOO_LONG, MIXED_LEAVES], ids=["mixed", "too-long", "mixed-leaves"]
)
def test_cross_rung_check_on_unwritable_and_mixed_laws(scm):
    obs, int1, cf1 = (compute_oracle(scm, kind) for kind in (OBS, INT1, CF1))
    assert _marginal_consistency(obs, int1, cf1, {})
    # each do(X_i=0) law in the place of do(X_i=1) and back
    head, *laws = int1.components
    swapped = [law for zero, one in zip(laws[::2], laws[1::2]) for law in (one, zero)]
    assert not _marginal_consistency(obs, dataclasses.replace(int1, components=(head, *swapped)), cf1, {})
    for i, (_, triple) in enumerate(cf1.components):
        do0, do1 = int1.component(f"do i={i} b=0"), int1.component(f"do i={i} b=1")
        check_cross_rung(triple, obs.components[0][1], do1, do0)
        check_cross_rung(triple, do0, do0, do1)


# every tree member up to n=4 and bipartite member up to m=2
FAMILIES = [*(Family("tree", n) for n in (1, 2, 3, 4)), *(Family("bipartite", m) for m in (1, 2))]
FAMILY_MEMBERS = [family.build(param) for family in FAMILIES for param in family.parameters()]


def probe_outcome(probe, oracle):
    """What `probe` returns on `oracle`, or its error type and text."""
    try:
        return probe(oracle)
    except OracleDecodeError as exc:
        return type(exc), str(exc)


@given(st.one_of(st.sampled_from(FAMILY_MEMBERS), small_scms(max_n=5)))
@settings(max_examples=150, deadline=None)
def test_int1_probes_match_the_reference(scm):
    # one walk per do(.=0) component must name what n^2 prob_bit reads
    # name, and fail with the same error and text
    oracle = compute_oracle(scm, INT1)
    got = probe_outcome(lambda o: descendants_from_int1(o).sets, oracle)
    assert got == probe_outcome(ref.descendants_from_int1, oracle)
    assert probe_outcome(graph_probe, oracle) == probe_outcome(ref.graph_probe, oracle)
