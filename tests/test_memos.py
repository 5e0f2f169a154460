"""The memos that let a sweep or a round trip read each distinct oracle,
mechanism, leaf and pass once: the one oracle `serialize` keeps for
`parse` to read back, the compiled step each mechanism keeps, and the kernel's
memos of kept leaves and of whole parallel-worlds passes, which serve
INT1 and CF1.

Each memo is keyed by what fully determines its value, so a warm memo
must give what a cold one gives: from `parse`, the same oracle, bytes and
masses (checked against the reference codec) and the same error text,
and no oracle outside its producers' mark is ever served;
from `_compile`, the same plan and the same errors in the same order;
from the leaf and pass memos, the same OBS, INT1 and CF1 oracles (checked
against the reference enumerator), and from the pass memo the same
refusals before any work. The family column memo and the probe facts
above the oracles are bounded and cleared the same way.
"""

import copy
import dataclasses
import functools
import math
import pickle
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
    BipartiteGraph,
    ExactDist,
    HiddenString,
    Mechanism,
    NoiseDist,
    RootedTree,
    Scm,
    build_bipartite_scm,
    build_tree_scm,
    build_xor_scm,
    compute_oracle,
    enumerate_graphs,
    enumerate_strings,
    enumerate_trees,
    marginal,
    parse,
    scm_to_json,
    serialize,
)
from scmlab import decoders, gates, oracle, scm_core
from scmlab.catalog import Family
from scmlab.decoders import graph_from_int1, string_from_cf1, tree_from_int1
from scmlab.errors import (
    ArityMismatchError,
    CycleError,
    NotBipartiteLikeError,
    NotTreeLikeError,
    NotXorLikeError,
    OracleFormatError,
    SupportTooLargeError,
)

import reference_codec
from conftest import BIT_NOISES, GOLDEN, GOLDEN_BYTES, MIXED_LEAVES, mutated_golden, small_scms
from reference_enumerator import reference_oracle

KINDS = (OBS, INT1, CF1, INT_ALL)
HALF = Fraction(1, 2)


def outcome(data: bytes):
    """What `parse` makes of `data`: the bytes and masses of its oracle, or
    the error type and text."""
    try:
        parsed = parse(data)
    except OracleFormatError as exc:
        return OracleFormatError, str(exc)
    return serialize(parsed), [dist.mass for _, dist in parsed.components]


WRITTEN = oracle._WRITTEN


def held() -> list[bytes]:
    """The bytes of each oracle the read-back memo holds."""
    return [written._bytes for written in WRITTEN.values()]


def holds(written, data: bytes) -> bool:
    """Whether the read-back memo holds `written` alone, with `data`."""
    return len(WRITTEN) == 1 and WRITTEN.get(len(data)) is written and written._bytes == data


def assert_memo_sound():
    """The read-back memo holds one oracle at most, kept at its byte length,
    holding those bytes, unchanged since its mark, its kind, n and
    components those of the bytes: the reference codec accepts them, each
    key is the layout's, and each dist holds its canonical body at the
    kind's width. `held` is that oracle's length, within the bound."""
    assert len(WRITTEN) <= 1
    for at, written in WRITTEN.items():
        data, (kind, n, components) = written._bytes, written._canonical
        assert (written.kind, written.n, written.components) == (kind, n, components)
        assert at == len(data) and data.startswith(f"{kind} n={n}\n".encode())
        reference = reference_codec.parse(data)
        assert (reference.kind, reference.n) == (kind, n)
        assert [name for name, _ in components] == [name for _, name in oracle._layout(kind, n)]
        width = oracle.component_bits(kind, n)
        assert all(dist._body is not None and dist.n_bits == width for _, dist in components)
        assert oracle.entry_bytes(kind, n, [dist._body for _, dist in components]) == data
    assert WRITTEN.held == sum(map(len, held())) <= WRITTEN.limit


def read_everything(parsed):
    """Build each dist's integer view and masses, as probes and readers do."""
    for _, dist in parsed.components:
        dist._int_view()
        dist.mass


def test_each_test_starts_with_an_empty_memo():
    assert len(WRITTEN) == 0 and WRITTEN.held == 0


# ------------------------------------------------------------ read-back memo


@given(small_scms(), st.sampled_from(KINDS))
@settings(max_examples=120, deadline=None)
def test_a_warm_parse_is_a_cold_parse(scm, kind):
    written = compute_oracle(scm, kind)
    data = serialize(written)
    read_everything(written)  # the dists a read-back serves carry views and masses
    warm = parse(data)
    WRITTEN.clear()
    cold = parse(data)
    reference = reference_codec.parse(data)
    assert serialize(warm) == serialize(cold) == reference_codec.serialize(warm) == data
    assert warm == cold == reference
    for (_, w), (_, c), (_, r), (_, d) in zip(
            warm.components, cold.components, reference.components, written.components):
        assert w is d and c is not d  # served from the memo, then checked afresh
        assert w.mass == c.mass == r.mass
        assert w._int_view() == c._int_view()
    assert_memo_sound()


# the model and kind of each seed: the golden files, by name, plus the
# kinds and sizes they lack, as in test_codec
SEED_MODELS = (
    (build_bipartite_scm(BipartiteGraph(2, frozenset({(0, 0)}))), INT1),
    (build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2})), INT1),
    (build_xor_scm(HiddenString(2, "10")), CF1),
    (build_xor_scm(HiddenString(2, "10")), INT_ALL),
    (MIXED_LEAVES, INT1),
    (Scm(0, ()), INT_ALL),
)


@functools.cache
def seeds() -> list[bytes]:
    """The bytes of each of `SEED_MODELS`, computed on first use, so that a
    kernel fault fails the tests that read them and not their module's
    collection."""
    return GOLDEN_BYTES + [serialize(compute_oracle(scm, kind)) for scm, kind in SEED_MODELS[3:]]


@given(st.deferred(lambda: mutated_golden(seeds())))
@settings(max_examples=300, deadline=None)
def test_warm_and_cold_verdicts_agree_on_mutants(data):
    WRITTEN.clear()
    cold = outcome(data)
    for seed in seeds():  # each seed held, read back from the oracle parse made of it
        assert serialize(parse(seed)) == seed and held() == [seed]
        assert outcome(data) == cold
        assert outcome(data) == cold  # and again, with the mutant itself held if it parsed
    # each seed held as serialize keeps a computed oracle
    for (scm, kind), seed in zip(SEED_MODELS, seeds(), strict=True):
        assert serialize(compute_oracle(scm, kind)) == seed and held() == [seed]
        assert outcome(data) == cold
    assert_memo_sound()


def test_a_body_is_served_only_at_its_width():
    # a body read back at one width is served to no other oracle: OBS n=3,
    # of CF1 n=1's width, checks it and gets its own dist
    body = "000=1/2\n111=1/2"
    cf1 = parse(f"CF1 n=1\n#cf i=0\n{body}\n".encode())
    serialize(cf1)
    obs = parse(f"OBS n=3\n#obs\n{body}\n".encode()).components[0][1]
    assert obs == cf1.components[0][1] and obs is not cf1.components[0][1]
    # at any other width the text is rejected as under an empty memo
    for n in (0, 1, 2, 4):
        data = f"OBS n={n}\n#obs\n{body}\n".encode()
        warm = outcome(data)
        WRITTEN.clear()
        assert warm[0] is OracleFormatError and outcome(data) == warm
        serialize(cf1)
    # an oracle `_assemble` marked with a dist of another width is written
    # but not kept, and its bytes get the cold verdict
    for n in (2, 4):
        data = serialize(oracle._assemble(OBS, n, {0: cf1.components[0][1]}))
        assert data == f"OBS n={n}\n#obs\n{body}\n".encode()
        assert data not in held()
        assert outcome(data) == (OracleFormatError, f"outcome '000' has length 3, expected {n}")
    # the empty outcome of n=0 likewise
    serialize(parse(b"OBS n=0\n#obs\n=1/1\n"))
    assert outcome(b"OBS n=1\n#obs\n=1/1\n") == (
        OracleFormatError, "outcome '' has length 0, expected 1"
    )


@pytest.mark.parametrize(
    "body",
    [
        "1=1/2\n0=1/2",  # out of order
        "0=1/2\n1=1/3",  # sums to 5/6
        "0=2/4\n1=2/4",  # not in lowest terms
        "0=1/2\n1=1/2\n",  # an empty line
        "00=1/1",  # too wide
        "0=1/1\n0=1/1",  # repeated outcome
        "",  # no mass lines
    ],
)
def test_a_rejected_body_is_not_stored(body):
    data = f"INT1 n=1\n#obs\n0=1/2\n1=1/2\n#do i=0 b=0\n{body}\n#do i=0 b=1\n1=1/1\n".encode()
    cold = outcome(data)
    assert cold[0] is OracleFormatError
    assert len(WRITTEN) == 0
    # beside the valid oracle of the same layout, held, it is rejected alike
    valid = b"INT1 n=1\n#obs\n0=1/2\n1=1/2\n#do i=0 b=0\n0=1/1\n#do i=0 b=1\n1=1/1\n"
    assert serialize(parse(valid)) == valid
    assert held() == [valid]
    assert outcome(data) == cold
    assert held() == [valid]


def distinct_oracles():
    """Many distinct oracles of many kinds, sizes and lengths: every tree
    n=3 and bipartite m=2 INT1 oracle, every oracle of every xor m <= 2
    member, every xor m=3 CF1 oracle and the mixed model's four."""
    for m in (1, 2):
        for hidden in enumerate_strings(m):
            for kind in KINDS:
                yield serialize(compute_oracle(build_xor_scm(hidden), kind))
    for tree in enumerate_trees(3):
        yield serialize(compute_oracle(build_tree_scm(tree), INT1))
    for graph in enumerate_graphs(2):
        yield serialize(compute_oracle(build_bipartite_scm(graph), INT1))
    for hidden in enumerate_strings(3):
        yield serialize(compute_oracle(build_xor_scm(hidden), CF1))
    for kind in KINDS:
        yield serialize(compute_oracle(MIXED_LEAVES, kind))


@pytest.mark.parametrize("bound", [300, 2_000, None], ids=["300", "2000", "default"])
def test_the_memo_stays_within_its_bound(bound, monkeypatch):
    if bound is not None:
        monkeypatch.setattr(WRITTEN, "limit", bound)
    drops = []
    clear = scm_core._Bounded.clear

    def counted(memo):
        if memo is WRITTEN:
            drops.append(memo.held)
        clear(memo)

    monkeypatch.setattr(scm_core._Bounded, "clear", counted)
    for data in distinct_oracles():  # each written by serialize as it is yielded
        assert held() == ([data] if len(data) <= WRITTEN.limit else [])
        assert parse(data) == reference_codec.parse(data)
        assert_memo_sound()
    assert len(drops) > 1 and max(drops) <= WRITTEN.limit  # each write dropped the last
    if bound is not None:  # some oracles were too long to keep
        assert 0 in drops


def test_a_body_longer_than_the_bound_is_not_kept(monkeypatch):
    # an oracle longer than the bound is written, not kept, and drops the
    # oracle held before it, which is no longer the last written
    obs = b"OBS n=1\n#obs\n0=1/2\n1=1/2\n"
    int1 = b"INT1 n=1\n#obs\n0=1/2\n1=1/2\n#do i=0 b=0\n0=1/1\n#do i=0 b=1\n1=1/1\n"
    monkeypatch.setattr(WRITTEN, "limit", len(int1) - 1)
    kept = parse(obs)
    assert serialize(kept) == obs
    assert held() == [obs] and WRITTEN.held == len(obs)
    assert parse(obs).components is kept.components
    parsed = parse(int1)
    assert serialize(parsed) == int1
    assert held() == [] and WRITTEN.held == 0
    again = parse(int1)  # checked afresh
    assert again == parsed and again.components[0][1] is not parsed.components[0][1]
    assert parse(obs).components[0][1] is not kept.components[0][1]
    assert_memo_sound()


def test_serialize_keeps_no_body_longer_than_the_bound(monkeypatch):
    # a computed oracle at the bound is kept, and one past it is written,
    # not kept, and leaves the memo empty
    fixed = Scm(1, (Mechanism(gates.BERN_SOURCE, (), NoiseDist.constant(1)),))
    fair = Scm(1, (Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 2))),))
    monkeypatch.setattr(WRITTEN, "limit", len(b"OBS n=1\n#obs\n1=1/1\n"))
    assert serialize(compute_oracle(fixed, OBS)) == b"OBS n=1\n#obs\n1=1/1\n"
    assert held() == [b"OBS n=1\n#obs\n1=1/1\n"] and WRITTEN.held == 19
    assert serialize(compute_oracle(fair, OBS)) == b"OBS n=1\n#obs\n0=1/2\n1=1/2\n"
    assert held() == [] and WRITTEN.held == 0
    assert parse(b"OBS n=1\n#obs\n0=1/2\n1=1/2\n") == compute_oracle(fair, OBS)
    assert_memo_sound()


# the random DAG shapes of the intall benchmark: a source, then the rest of
# the kinds of its size in any order, each variable's parents drawn from the
# variables before it; each kind's gates and noise laws
INTALL_KINDS = {
    6: ("source", "xor", "three", "det", "det"),
    7: ("source", "xor", "xor", "three", "det", "det"),
    8: ("source", "xor", "xor", "three", "det", "det", "det"),
}
BIASED = st.sampled_from((NoiseDist.bernoulli(Fraction(1, 3)), NoiseDist.bernoulli(Fraction(3, 4))))
INTALL_MECHANISMS = {
    "source": ((gates.BERN_SOURCE,), BIASED),
    "xor": ((gates.XOR_NOISE,), BIASED),
    "three": ((gates.AND, gates.OR, gates.PARITY),
              st.just(NoiseDist((0, 1, 2), (Fraction(1, 6), Fraction(1, 3), HALF)))),
    "det": ((gates.AND, gates.OR, gates.PARITY, gates.COPY, gates.NEG), st.just(NoiseDist.constant())),
}


@st.composite
def intall_dags(draw) -> Scm:
    n = draw(st.integers(6, 8))
    mechanisms = []
    for v, kind in enumerate(("source", *draw(st.permutations(INTALL_KINDS[n])))):
        gate_menu, noises = INTALL_MECHANISMS[kind]
        gate = draw(st.sampled_from(gate_menu))
        if gate == gates.BERN_SOURCE:
            arity = 0
        elif gate in (gates.COPY, gates.NEG):
            arity = 1
        else:
            arity = draw(st.integers(1, min(3, v)))
        parents = tuple(sorted(draw(st.permutations(range(v)))[:arity]))
        mechanisms.append(Mechanism(gate, parents, draw(noises)))
    return Scm(n, tuple(mechanisms))


def assert_read_back(written):
    """`serialize` keeps `written`'s bytes with its components, within the
    bound; `parse` of the bytes returns those components, the same
    objects, equal to what the reference codec and a cold parse make of
    them."""
    WRITTEN.clear()
    data = serialize(written)
    assert holds(written, data)
    assert_memo_sound()
    parsed = parse(data)
    assert parsed.components is written.components
    reference = reference_codec.parse(data)
    assert parsed == reference
    for memo in scm_core.MEMOS.values():
        memo.clear()
    cold = parse(data)
    assert cold == reference
    assert all(c is not w for (_, c), (_, w) in zip(cold.components, written.components))


@given(small_scms(), st.sampled_from(KINDS))
@settings(max_examples=120, deadline=None)
def test_parse_reads_back_the_dists_serialize_wrote(scm, kind):
    assert_read_back(compute_oracle(scm, kind))


@given(intall_dags())
@settings(max_examples=10, deadline=None)
def test_parse_reads_back_an_intall_dags_int_all_oracle(scm):
    assert_read_back(compute_oracle(scm, INT_ALL))


def test_a_whole_xor_m4_int_all_oracle_is_held():
    written = compute_oracle(build_xor_scm(HiddenString(4, "1011")), INT_ALL)
    assert len({dist._body for _, dist in written.components}) == 3**8
    assert_read_back(written)


def test_a_body_repeated_across_slots_is_counted_once():
    # an oracle written again, or another of the same bytes written after
    # it, is held once, and another oracle written after it is held in its
    # place: `held` stays the length of the one oracle held
    written = compute_oracle(MIXED_LEAVES, INT_ALL)
    data = serialize(written)
    assert serialize(written) == serialize(parse(data)) == data
    assert held() == [data] and WRITTEN.held == len(data)
    obs = serialize(compute_oracle(MIXED_LEAVES, OBS))
    assert held() == [obs] and WRITTEN.held == len(obs)
    assert "_bytes" not in vars(written)  # an oracle gives its bytes up with its entry
    WRITTEN.clear()
    kept = parse(obs)
    assert serialize(kept) == obs
    cold = parse(data)  # checked afresh: other dists, the same bytes
    assert serialize(cold) == data
    assert parse(data).components is cold.components
    assert serialize(written) == data  # the computed oracle again, in place of the parsed one
    assert parse(data).components is written.components
    assert held() == [data] and WRITTEN.held == len(data)
    assert parse(obs).components is not kept.components  # no longer held: checked afresh
    assert_memo_sound()


def test_a_serialize_that_raises_leaves_the_memo_sound():
    # a marked oracle whose last dist is too long to write raises and is
    # not kept; what was kept before stays, counted as it was
    too_long = ExactDist(1, {"0": Fraction(1, 10**4400), "1": 1 - Fraction(1, 10**4400)})
    kernel = compute_oracle(Scm(1, (Mechanism(gates.BERN_SOURCE, (), FAIR),)), INT1)
    data = serialize(kernel)
    laws = {code: dist for (code, _), (_, dist) in zip(oracle._layout(INT1, 1), kernel.components)}
    laws[oracle._layout(INT1, 1)[-1][0]] = too_long
    with pytest.raises(OracleFormatError, match="too long to write"):
        serialize(oracle._assemble(INT1, 1, laws))
    assert holds(kernel, data)
    assert WRITTEN.held == len(data)
    assert_memo_sound()


def test_a_dist_built_from_masses_never_enters_the_memo():
    # not when a user builds the oracle, nor when `_assemble` marks it
    kernel = compute_oracle(Scm(1, (Mechanism(gates.BERN_SOURCE, (), FAIR),)), INT1)
    from_masses = ExactDist(1, {"0": HALF, "1": HALF})
    mixed = dataclasses.replace(kernel, components=(("obs", from_masses), *kernel.components[1:]))
    laws = {code: dist for (code, _), (_, dist) in zip(oracle._layout(INT1, 1), mixed.components)}
    for written in (mixed, oracle._assemble(INT1, 1, laws)):
        assert written == mixed
        data = serialize(written)
        assert data == reference_codec.serialize(mixed)
        assert from_masses._body is None
        assert len(WRITTEN) == 0
        parsed = parse(data).components[0][1]
        assert parsed is not from_masses and parsed == from_masses
        assert parsed._body == "0=1/2\n1=1/2"  # checked, from its body


def test_an_unmarked_serialize_leaves_the_held_oracle():
    # a user's oracle, or one with a dist built from masses, is written
    # and the oracle held before it stays, counted as it was
    kernel = compute_oracle(MIXED_LEAVES, INT1)
    data = serialize(kernel)
    from_masses = ExactDist(3, dict(kernel.components[0][1].mass))
    for name, written in [*user_built_oracles(),
                          ("from masses, marked", oracle._assemble(OBS, 3, {0: from_masses}))]:
        serialize(kernel)
        serialize(written)
        assert holds(kernel, data), name
        assert parse(data).components is kernel.components, name
    assert_memo_sound()


def test_a_written_body_is_served_only_at_its_width():
    # CF1 n=1's body has 3-bit outcomes: its bytes read back the writer's
    # dist, and no other oracle's do, OBS n=3's included
    written = compute_oracle(Scm(1, (Mechanism(gates.BERN_SOURCE, (), FAIR),)), CF1)
    data = serialize(written)
    assert parse(data).components[0][1] is written.components[0][1]
    body = data.decode().split("\n", 2)[2][:-1]
    served = parse(f"OBS n=3\n#obs\n{body}\n".encode()).components[0][1]
    assert served == written.components[0][1] and served is not written.components[0][1]
    for n in (1, 2, 4):
        data = f"OBS n={n}\n#obs\n{body}\n".encode()
        warm = outcome(data)
        WRITTEN.clear()
        assert warm[0] is OracleFormatError and outcome(data) == warm
        serialize(written)


# oracles no read-back may serve, each with its bytes, or None if
# `serialize` writes none: what a cold parse makes of them is what any
# parse makes of them, whatever the memo holds
def user_built_oracles():
    kernel = compute_oracle(MIXED_LEAVES, INT1)
    (obs_key, obs), (do_key, do), *rest = kernel.components
    yield "from masses", AnswerOracle(INT1, 3, ((obs_key, ExactDist(3, dict(obs.mass))), (do_key, do), *rest))
    yield "reordered", AnswerOracle(INT1, 3, ((do_key, do), (obs_key, obs), *rest))
    yield "renamed", AnswerOracle(INT1, 3, (("observed", obs), (do_key, do), *rest))
    yield "other width", AnswerOracle(INT1, 2, kernel.components[:5])
    yield "bool n", AnswerOracle(OBS, True, ((obs_key, compute_oracle(Scm(1, (Mechanism(
        gates.BERN_SOURCE, (), FAIR),)), OBS).components[0][1]),))
    yield "unknown kind", AnswerOracle("INT2", 3, kernel.components)
    yield "a user's copy", AnswerOracle(INT1, 3, kernel.components)


def tampered_oracles():
    """Marked oracles changed after their mark with `object.__setattr__`,
    as no public call can: their components, or their kind and n."""
    kernel = compute_oracle(MIXED_LEAVES, INT1)
    swapped = copy.copy(kernel)
    (obs_key, obs), (do_key, do), *rest = kernel.components
    object.__setattr__(swapped, "components", ((do_key, do), (obs_key, obs), *rest))
    yield "reordered after its mark", swapped
    empty = compute_oracle(Scm(0, ()), OBS)  # "obs", of width 0, as INT_ALL n=0's one key is not
    retyped = copy.copy(empty)
    object.__setattr__(retyped, "kind", INT_ALL)
    yield "kind changed after its mark", retyped
    fair = compute_oracle(Scm(1, (Mechanism(gates.BERN_SOURCE, (), FAIR),)), OBS)
    resized = copy.copy(fair)
    object.__setattr__(resized, "n", 2)  # "obs" is OBS n=2's key too; the width is not
    yield "n changed after its mark", resized


@pytest.mark.parametrize("make", [user_built_oracles, tampered_oracles], ids=["user-built", "tampered"])
def test_no_oracle_outside_the_mark_is_served(make):
    for name, written in make():
        WRITTEN.clear()
        data = serialize(written)
        assert len(WRITTEN) == 0, name
        assert data == reference_codec.serialize(written), name
        warm = outcome(data)
        WRITTEN.clear()
        assert outcome(data) == warm, name  # the cold verdict, and its error text
        try:
            reference = reference_codec.parse(data)
        except OracleFormatError:
            assert warm[0] is OracleFormatError, name
            continue
        assert warm[0] == data and parse(data) == reference, name
        # a user's valid oracle reads back dists of its own, not the user's
        parsed = parse(data)
        assert all(p is not w for (_, p), (_, w) in zip(parsed.components, written.components)), name


def test_an_oracle_changed_while_held_is_written_anew_and_not_served():
    # changed with `object.__setattr__`, as no public call can: its held
    # bytes are no longer its own, so neither call may use them
    written = compute_oracle(MIXED_LEAVES, INT1)
    data = serialize(written)
    (obs_key, obs), (do_key, do), *rest = written.components
    object.__setattr__(written, "components", ((do_key, do), (obs_key, obs), *rest))
    parsed = parse(data)
    assert parsed is not written and parsed == reference_codec.parse(data)
    assert serialize(written) == reference_codec.serialize(written) != data


def test_a_copy_or_pickle_of_a_held_oracle_writes_its_bytes_and_carries_none():
    written = compute_oracle(build_xor_scm(HiddenString(2, "10")), INT_ALL)
    unwritten = pickle.dumps(written)
    data = serialize(written)
    assert holds(written, data)
    assert pickle.dumps(written) == unwritten  # the held bytes stay out of a pickle
    for make in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))):
        twin = make(written)
        assert "_bytes" not in vars(twin) and twin == written
        assert serialize(twin) == data
        assert holds(twin, data) and "_bytes" not in vars(written)  # kept in the held one's place
        assert serialize(written) == data and holds(written, data)


def test_an_oracle_of_equal_length_and_other_bytes_is_checked():
    # two CF1 oracles of one length: held, each is served only its own bytes
    left = serialize(compute_oracle(build_xor_scm(HiddenString(2, "10")), CF1))
    right = serialize(compute_oracle(build_xor_scm(HiddenString(2, "01")), CF1))
    assert len(left) == len(right) and left != right
    WRITTEN.clear()
    written = compute_oracle(build_xor_scm(HiddenString(2, "10")), CF1)
    assert serialize(written) == left
    parsed = parse(right)
    assert serialize(parsed) == right and parsed == reference_codec.parse(right)
    assert all(p is not w for (_, p), (_, w) in zip(parsed.components, written.components))
    # a byte changed in place, at the held length, gets the cold verdict
    bad = left.replace(b"=1/16\n", b"=1/17\n", 1)
    assert len(bad) == len(left) and outcome(bad)[0] is OracleFormatError
    WRITTEN.clear()
    assert serialize(written) == left
    warm = outcome(bad)
    WRITTEN.clear()
    assert outcome(bad) == warm


# ------------------------------------------------------------- step memo

FAIR = NoiseDist.bernoulli(HALF)
NOISES = (NoiseDist.constant(), FAIR, NoiseDist.bernoulli(Fraction(1, 3)),
          NoiseDist((0, 1, 2), (HALF, Fraction(1, 4), Fraction(1, 4))))
# shared mechanism objects, each reused across examples at many (n, v)
POOL = (
    Mechanism(gates.BERN_SOURCE, (), FAIR),
    Mechanism(gates.BERN_SOURCE, (), NOISES[2]),
    Mechanism(gates.CONST1, (), NOISES[3]),
    Mechanism(gates.COPY, (0,), NOISES[0]),
    Mechanism(gates.NEG, (1,), NOISES[3]),
    Mechanism(gates.XOR_NOISE, (0,), NOISES[2]),
    Mechanism(gates.XOR_NOISE, (1, 2), FAIR),
    Mechanism(gates.AND, (0, 2), NOISES[3]),
    Mechanism(gates.OR, (1, 3), NOISES[0]),
    Mechanism(gates.PARITY, (0, 1, 3), NOISES[1]),
    Mechanism(gates.PARITY, (2, 2), NOISES[0]),
)


@st.composite
def shared_dags(draw, max_n: int = 5) -> Scm:
    """Acyclic SCMs over POOL's objects: variable v takes a mechanism
    whose parents all precede it."""
    n = draw(st.integers(1, max_n))
    return Scm(n, tuple(
        draw(st.sampled_from([m for m in POOL if all(p < v for p in m.parents)]))
        for v in range(n)
    ))


def fresh(scm: Scm) -> Scm:
    """The same model from new Mechanism and NoiseDist objects, whose
    memos are empty."""
    return Scm(scm.n, tuple(
        Mechanism(m.gate, m.parents, NoiseDist(m.noise.support, m.noise.probs))
        for m in scm.mechanisms
    ))


@given(shared_dags())
@settings(max_examples=150, deadline=None)
def test_shared_mechanisms_compile_as_fresh_copies(scm):
    copy = fresh(scm)
    assert scm_core._compile(scm) == scm_core._compile(copy)
    assert scm_core._compile(scm) == scm_core._compile(copy)  # both memos warm
    for kind in (INT1, CF1):
        assert serialize(compute_oracle(scm, kind)) == serialize(compute_oracle(copy, kind))
    assert scm == copy and hash(scm) == hash(copy) and repr(scm) == repr(copy)
    assert scm_to_json(scm) == scm_to_json(copy)


def test_one_mechanism_compiles_at_many_places():
    source = Mechanism(gates.BERN_SOURCE, (), FAIR)
    copy2 = Mechanism(gates.COPY, (2,), NoiseDist.constant())
    models = [
        # copy2 first in index order, but after its parent in topological order
        Scm(3, (copy2, source, Mechanism(gates.COPY, (1,), NoiseDist.constant()))),
        Scm(3, (source, source, source)),
        Scm(4, (source, source, source, copy2)),
        Scm(5, (source, copy2, source, copy2, source)),
    ]
    for scm in models + models:  # the second time, every step from the memo
        assert scm_core._compile(scm) == scm_core._compile(fresh(scm))
    assert sorted(copy2._steps) == [(3, 0), (4, 3), (5, 1), (5, 3)]
    assert sorted(source._steps) == [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2),
                                     (5, 0), (5, 2), (5, 4)]


def test_the_step_memo_stays_within_its_bound():
    source = Mechanism(gates.BERN_SOURCE, (), FAIR)
    for n in range(1, 16):
        for v in range(n):
            scm = Scm(n, (Mechanism(gates.BERN_SOURCE, (), FAIR),) * v + (source,)
                      + (Mechanism(gates.BERN_SOURCE, (), FAIR),) * (n - 1 - v))
            assert scm_core._compile(scm) == scm_core._compile(fresh(scm))
            assert 0 < len(source._steps) <= scm_core._STEPS_MAX
    assert len(source._steps) < 120  # 120 places: the memo dropped its steps


COPIES = {
    "pickle": lambda mech: pickle.loads(pickle.dumps(mech)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", COPIES)
def test_a_copied_mechanism_carries_its_fields_alone(how):
    # the step memo and the cached hash stay behind: a hash carried into a
    # process of another hash seed would disagree with `==` there
    source = Mechanism(gates.BERN_SOURCE, (), FAIR)
    noisy = Mechanism(gates.XOR_NOISE, (0,), NoiseDist.bernoulli(Fraction(1, 3)))
    scm = Scm(2, (source, noisy))
    plan = scm_core._compile(scm)
    hash(scm)
    for mech in scm.mechanisms:
        assert {"_steps", "_hash"} <= set(mech.__dict__)  # both memos filled
        copied = COPIES[how](mech)
        assert set(copied.__dict__) == {"gate", "parents", "noise"}
        assert copied == mech
        assert hash(copied) == hash(Mechanism(mech.gate, mech.parents, NoiseDist(
            mech.noise.support, mech.noise.probs)))
    copied = Scm(2, tuple(map(COPIES[how], scm.mechanisms)))
    assert scm_core._compile(copied) == plan


def error_of(scm: Scm):
    """The type and text of what `_compile` raises on `scm`."""
    with pytest.raises(Exception) as info:
        scm_core._compile(scm)
    return info.type, str(info.value)


def test_errors_keep_their_order_with_a_warm_memo(monkeypatch):
    source = Mechanism(gates.BERN_SOURCE, (), FAIR)
    copy0 = Mechanism(gates.COPY, (0,), NoiseDist.constant())
    copy1 = Mechanism(gates.COPY, (1,), NoiseDist.constant())
    empty = Mechanism(gates.BERN_SOURCE, (), NoiseDist((), ()))
    far = Mechanism(gates.COPY, (4,), NoiseDist.constant())
    wide = Mechanism(gates.COPY, (0, 1), NoiseDist.constant())
    unknown = Mechanism("MAJORITY", (0,), NoiseDist.constant())
    symbol = Mechanism(gates.XOR_NOISE, (0,), NoiseDist((0, 2), (HALF, HALF)))
    short = Mechanism(gates.XOR_NOISE, (0,), NoiseDist((0, 1), (HALF,)))
    # noise laws that sum to 5/6, one read by its gate, one summed out
    lawless = Mechanism(gates.BERN_SOURCE, (), NoiseDist((0, 1), (HALF, Fraction(1, 3))))
    ignored = Mechanism(gates.AND, (0,), NoiseDist((0, 1), (HALF, Fraction(1, 3))))
    late = Mechanism(gates.COPY, (1, 2), NoiseDist.constant())  # an arity error after its parents
    for scm in (Scm(2, (source, copy0)), Scm(3, (source, copy0, copy1))):
        scm_core._compile(scm)  # warm
    bad = [
        Scm(2, (copy1, copy0)),  # a cycle through warm mechanisms
        Scm(3, (copy1, copy0, far)),  # a cycle before a parent out of range
        Scm(2, (source, empty)),  # an empty support
        Scm(1, (source, copy0)),  # more mechanisms than variables
        Scm(2, (source,)),  # fewer mechanisms than variables
        Scm(3, (source, copy0, far)),  # a parent out of range after warm steps
        Scm(3, (source, copy0, wide)),
        Scm(3, (source, copy0, unknown)),
        Scm(3, (source, copy0, symbol)),
        Scm(3, (source, copy0, short)),
        Scm(3, (source, far, unknown)),  # the first failing step in order
        Scm(2, (source, ignored)),  # a deterministic step whose law is bad
        Scm(3, (late, source, lawless)),  # a bad law before an arity error in order
        Scm(4, (source, copy0, wide, ignored)),  # a bad law after an arity error
    ]
    for scm in bad + bad:
        assert error_of(scm) == error_of(fresh(scm))
    assert error_of(Scm(1, (source, copy0))) == (ValueError, "2 mechanisms for 1 variables")
    assert error_of(Scm(2, (source,))) == (ValueError, "1 mechanisms for 2 variables")
    assert error_of(Scm(3, (source, copy0, wide))) == (
        ArityMismatchError, "COPY takes exactly 1 parent(s), got 2"
    )
    assert error_of(Scm(3, (late, source, lawless))) == (
        ValueError,
        "variable 2: noise law is not a distribution: branch masses 1/2, 1/3 sum to 5/6",
    )
    assert error_of(Scm(4, (source, copy0, wide, ignored))) == error_of(
        Scm(3, (source, copy0, wide))
    )
    # no failed step was kept
    for mech in (empty, far, wide, unknown, symbol, short, lawless, ignored):
        assert not mech.__dict__.get("_steps")
    # the support cap refuses a model whose every step is memoized
    monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "1")
    assert error_of(Scm(2, (source, copy0))) == error_of(fresh(Scm(2, (source, copy0))))
    # a mechanism that failed at one place compiles where it is valid
    monkeypatch.delenv("SCMLAB_SUPPORT_CAP")
    scm = Scm(6, (source, copy0, copy0, copy0, copy0, far))
    assert scm_core._compile(scm) == scm_core._compile(fresh(scm))
    assert list(far._steps) == [(6, 5)]


def test_family_members_share_their_mechanisms():
    for members, distinct in [
        ([build_tree_scm(t) for t in enumerate_trees(5)], 6),
        ([build_bipartite_scm(g) for g in enumerate_graphs(3)], 10),
        ([build_xor_scm(s) for s in enumerate_strings(3)], 4),
    ]:
        objects = {id(m): m for scm in members for m in scm.mechanisms}
        assert len(objects) == distinct
        assert len(set(objects.values())) == distinct  # no two of them are equal
    assert build_tree_scm(RootedTree(2, 1, {2: 1})).mechanisms[0] is \
        build_bipartite_scm(BipartiteGraph(1, frozenset())).mechanisms[0]


def test_golden_files_with_warm_memos():
    for tree in enumerate_trees(3):
        compute_oracle(build_tree_scm(tree), INT1)
    for graph in enumerate_graphs(2):
        compute_oracle(build_bipartite_scm(graph), INT1)
    for hidden in enumerate_strings(2):
        compute_oracle(build_xor_scm(hidden), CF1)
    golden = {path.name: path.read_bytes() for path in GOLDEN}
    for data in golden.values():
        parse(data)
    assert golden == {
        "bipartite_m2_edge00_int1.oracle": serialize(compute_oracle(
            build_bipartite_scm(BipartiteGraph(2, frozenset({(0, 0)}))), INT1)),
        "tree_chain3_int1.oracle": serialize(compute_oracle(
            build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2})), INT1)),
        "xor_m2_s10_cf1.oracle": serialize(compute_oracle(
            build_xor_scm(HiddenString(2, "10")), CF1)),
    }
    for name, data in golden.items():
        assert serialize(parse(data)) == data, name


# ------------------------------------------------------------- leaf memo

LEAVES = scm_core._LEAVES
KEPT_KINDS = (OBS, INT1, CF1)


def states_of(key: tuple) -> int:
    """The number of states in a leaf memo key: (width, *states, *weights)."""
    return (len(key) - 1) // 2


def assert_leaves_sound():
    """Every kept leaf is the dist its key renders with no memo, and
    `held` counts the states held, within the bound."""
    for key, dist in LEAVES.items():
        width, count = key[0], states_of(key)
        states, weights = list(key[1:1 + count]), list(key[1 + count:])
        cold = scm_core._render(width, states, weights, sum(weights))
        assert dist == cold and dist.n_bits == cold.n_bits
    assert LEAVES.held == sum(map(states_of, LEAVES)) <= LEAVES.limit


@pytest.mark.parametrize("run", ["first", "second"])
def test_each_test_starts_with_an_empty_leaf_memo(run):
    assert len(LEAVES) == 0 and LEAVES.held == 0
    compute_oracle(MIXED_LEAVES, CF1)  # what the next test must not find
    assert len(LEAVES) == 3


@given(small_scms())
@settings(max_examples=100, deadline=None)
def test_a_warm_leaf_memo_gives_the_cold_oracles(scm):
    LEAVES.clear()
    for graph in enumerate_graphs(2):  # leaves of other models, probed
        for _, dist in compute_oracle(build_bipartite_scm(graph), INT1).components:
            dist._int_view()
    cold = {kind: compute_oracle(scm, kind) for kind in KEPT_KINDS}
    for made in cold.values():
        read_everything(made)  # the dists the memo serves now carry views and masses
    for kind in KEPT_KINDS:
        warm = compute_oracle(scm, kind)
        reference = reference_oracle(scm, kind)
        assert serialize(warm) == serialize(cold[kind]) == serialize(reference)
        assert warm == cold[kind] == reference
        for (_, w), (_, c), (_, r) in zip(warm.components, cold[kind].components,
                                          reference.components):
            assert w is c  # served from the memo
            assert w.mass == r.mass
            assert w._int_view() == r._int_view()
    assert_leaves_sound()


def test_leaves_of_equal_states_are_kept_apart_by_width_and_weights():
    # each law's pass ends on the states [0, 1]: its key's width and
    # weights alone tell them apart (the denominator is the weights' sum)
    fair, third = NoiseDist.bernoulli(HALF), NoiseDist.bernoulli(Fraction(1, 3))
    models = [
        Scm(1, (Mechanism(gates.BERN_SOURCE, (), fair),)),
        Scm(1, (Mechanism(gates.BERN_SOURCE, (), third),)),
        Scm(2, (Mechanism(gates.CONST0, (), NoiseDist.constant()),
                Mechanism(gates.BERN_SOURCE, (), fair))),
    ]
    bodies = [compute_oracle(scm, OBS).components[0][1]._body for scm in models]
    assert bodies == ["0=1/2\n1=1/2", "0=2/3\n1=1/3", "00=1/2\n01=1/2"]
    assert sorted(LEAVES) == [(1, 0, 1, 1, 1), (1, 0, 1, 2, 1), (2, 0, 1, 1, 1)]
    assert_leaves_sound()


@given(small_scms(), st.sampled_from(KINDS))
@settings(max_examples=60, deadline=None)
def test_every_leaf_weighs_its_denominator(scm, kind):
    # the premise of a key without the denominator, for every caller of
    # `_dist` (the kernel's OBS, INT1 and CF1 passes), and of every leaf
    # rendered, INT_ALL's and `marginal`'s included
    seen = []
    keep, render = scm_core._dist, scm_core._renders

    def kept(n_bits, states, weights, den):
        seen.append(sum(weights) == den and len(states) == len(weights))
        return keep(n_bits, states, weights, den)

    def rendered(n_bits, states, weights, den, bits):
        seen.append(sum(weights) == den and len(states) == len(weights))
        return render(n_bits, states, weights, den, bits)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scm_core, "_dist", kept)
        patch.setattr(scm_core, "_renders", rendered)
        for _, dist in compute_oracle(scm, kind).components:
            marginal(dist, range(0, dist.n_bits, 2))
    assert seen and all(seen)


def test_no_int_all_leaf_enters_the_leaf_memo():
    # n <= 1 included: its INT_ALL leaves are rendered like any other's
    models = (MIXED_LEAVES, build_xor_scm(HiddenString(3, "101")),
              build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2})),
              Scm(1, (Mechanism(gates.BERN_SOURCE, (), FAIR),)), Scm(0, ()))
    for scm in models:
        compute_oracle(scm, INT_ALL)
    assert len(LEAVES) == 0
    # with every kind from one call, only the kept kinds' leaves enter
    for scm in models:
        oracles = oracle._member_oracles(scm, KINDS)
        held = {id(dist) for dist in LEAVES.values()}
        assert not any(id(dist) in held for _, dist in oracles[INT_ALL].components)
        assert serialize(oracles[INT_ALL]) == serialize(reference_oracle(scm, INT_ALL))
    assert_leaves_sound()


def test_no_marginal_enters_the_leaf_memo():
    # a marginal sums its states in an order of its own, so it is rendered
    # apart from the kernel's leaves and drops none of them
    for scm in (MIXED_LEAVES, build_xor_scm(HiddenString(3, "101")),
                build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2}))):
        for kind in KEPT_KINDS:
            made = compute_oracle(scm, kind)
            held = dict(LEAVES)
            for _, dist in made.components:
                marginal(dist, range(dist.n_bits // 3))
                marginal(dist, range(0, dist.n_bits, 2))
            assert LEAVES.keys() == held.keys() and all(LEAVES[key] is held[key] for key in held)
    assert_leaves_sound()


def test_a_leaf_above_the_bound_is_not_looked_up(monkeypatch):
    monkeypatch.setattr(scm_core._PASSES, "limit", 0)  # each pass runs again
    monkeypatch.setattr(LEAVES, "limit", 8)
    compute_oracle(MIXED_LEAVES, OBS)  # one leaf of 4 states
    held = dict(LEAVES)
    assert LEAVES.held == 4
    fair = Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(HALF))
    wide = Scm(4, (fair,) * 4)  # one leaf of 16 states
    looked_up = []
    get = scm_core._Bounded.get

    def spy(memo, key, default=None):
        if memo is LEAVES:
            looked_up.append(key)
        return get(memo, key, default)

    monkeypatch.setattr(scm_core._Bounded, "get", spy)
    first = compute_oracle(wide, OBS).components[0][1]
    # neither kept nor looked up, so the memo dropped nothing for it
    assert looked_up == [] and dict(LEAVES) == held and LEAVES.held == 4
    assert compute_oracle(wide, OBS).components[0][1] is not first
    assert_leaves_sound()


def sweep_bodies(families) -> list[tuple]:
    return [oracle._bodies(oracles[kind]) for family in families
            for _, oracles in oracle.family_sweep(family, KEPT_KINDS, {}) for kind in KEPT_KINDS]


@pytest.mark.parametrize("bound", [40, None], ids=["40", "default"])
def test_the_leaf_memo_stays_within_its_bound(bound, monkeypatch):
    families = (Family("tree", 5), Family("bipartite", 3))
    monkeypatch.setattr(scm_core._PASSES, "limit", 0)  # each pass runs again
    default = LEAVES.limit
    monkeypatch.setattr(LEAVES, "limit", 0)  # every leaf is above it: no memo
    cold = sweep_bodies(families)
    assert len(LEAVES) == 0
    monkeypatch.setattr(LEAVES, "limit", bound or default)
    drops = []
    clear, keep = scm_core._Bounded.clear, scm_core._Bounded.keep

    def counted(memo):
        if memo is LEAVES:
            drops.append(memo.held)
        clear(memo)

    def checked(memo, key, value, size=1):
        kept = keep(memo, key, value, size)
        if memo is LEAVES:
            assert memo.held <= memo.limit
        return kept

    monkeypatch.setattr(scm_core._Bounded, "clear", counted)
    monkeypatch.setattr(scm_core._Bounded, "keep", checked)
    assert sweep_bodies(families) == cold
    assert_leaves_sound()
    if bound is None:  # the whole sweep fits
        assert drops == [] and LEAVES.held == sum(map(states_of, LEAVES))
    else:  # the memo filled and dropped its leaves, more than once
        assert len(drops) > 1 and max(drops) <= bound


def test_family_members_share_their_leaves():
    # every tree n=4 member has the same OBS law: one dist, probed once
    members = [build_tree_scm(tree) for tree in enumerate_trees(4)]
    first = compute_oracle(members[0], INT1).components[0][1]
    first.prob_bit(0, 1)
    for scm in members[1:]:
        obs = compute_oracle(scm, INT1).components[0][1]
        assert obs is first and obs._ints is not None


# ------------------------------------------------------------- pass memo

PASSES = scm_core._PASSES


def laws_of(entry) -> list:
    """The dists a memo entry holds: its INT1 laws and CF1 triples, each
    once they are rendered."""
    return [*(entry.int1 or {}).values(), *(entry.cf1 or ())]


def states_in(entry) -> int:
    """The states a memo entry holds: a line of each law's body, and the
    pass's final states until both halves are rendered."""
    lines = sum(dist._text().count("\n") + 1 for dist in laws_of(entry))
    return lines + (0 if entry.states is None else len(entry.states))


def assert_passes_sound():
    """Every held entry is its model's worlds pass, beside the model's
    noise support total: each half it has rendered is the reference's
    oracle, and it keeps its steps and final states exactly until both
    halves are rendered. `held` counts each entry as (3n+2) states a noise
    point, which bounds the states it holds, within the memo's bound."""
    counted = 0
    for (n, mechanisms), entry in PASSES.items():
        scm = Scm(n, mechanisms)
        plan = scm_core._compile(scm)
        assert entry.support == plan.support == math.prod(len(m.noise.support) for m in mechanisms)
        states, weights, den = scm_core._worlds(plan)
        for kind, laws in ((INT1, entry.int1), (CF1, entry.cf1)):
            if laws is not None:
                dists = [laws[law] for law, _ in oracle._layout(kind, n)]
                assert len(laws) == len(dists)
                assert dists == [dist for _, dist in reference_oracle(scm, kind).components]
        if entry.int1 is None or entry.cf1 is None:
            assert (entry.steps, entry.states, entry.weights, entry.den) == (
                plan.steps, states, weights, den)
        else:
            assert entry.steps is entry.states is entry.weights is None
        size = (3 * n + 2) * len(states)
        assert states_in(entry) <= size
        counted += size
    assert PASSES.held == counted <= PASSES.limit


@pytest.mark.parametrize("run", ["first", "second"])
def test_each_test_starts_with_an_empty_pass_memo(run):
    assert len(PASSES) == 0 and PASSES.held == 0
    oracle._member_oracles(MIXED_LEAVES, KEPT_KINDS)  # what the next test must not find
    assert [(key, entry.int1 is not None, entry.cf1 is not None) for key, entry in PASSES.items()] \
        == [((3, MIXED_LEAVES.mechanisms), True, True)]


@given(small_scms())
@settings(max_examples=100, deadline=None)
def test_a_held_pass_gives_the_cold_oracles(scm):
    cold = {}
    for kind in KEPT_KINDS:
        PASSES.clear()
        cold[kind] = serialize(compute_oracle(scm, kind))
    PASSES.clear()
    # INT1 and CF1 read one entry; OBS alone runs the trie and holds no pass
    first = {kind: compute_oracle(scm, kind) for kind in KEPT_KINDS}
    assert list(PASSES) == [(scm.n, scm.mechanisms)]
    for kind in KEPT_KINDS:
        warm = compute_oracle(scm, kind)
        reference = reference_oracle(scm, kind)
        assert serialize(warm) == serialize(first[kind]) == cold[kind] == serialize(reference)
        for (_, w), (_, f) in zip(warm.components, first[kind].components):
            assert w is f  # served from the pass memo, and OBS from the leaf memo
    # the trie's OBS leaf is the one read off the worlds pass
    assert first[OBS].components[0][1] is first[INT1].components[0][1]
    assert_passes_sound()


@given(small_scms(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_fresh_copy_reads_the_held_pass_and_a_changed_model_does_not(scm, data):
    # the memo is keyed by the model's value: a copy of new objects finds
    # the held pass without compiling, and a model that differs in one
    # mechanism runs its own
    PASSES.clear()  # of the examples before
    held = oracle._member_oracles(scm, KEPT_KINDS)
    v = data.draw(st.integers(0, scm.n - 1))
    mech = scm.mechanisms[v]
    noise = data.draw(st.sampled_from([x for x in BIT_NOISES if x != mech.noise]))
    changed = Scm(scm.n, tuple(
        Mechanism(m.gate, m.parents, noise) if i == v else m for i, m in enumerate(scm.mechanisms)
    ))
    calls = []
    compile_plan, worlds = scm_core._compile, scm_core._worlds
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scm_core, "_compile", lambda s: calls.append("compile") or compile_plan(s))
        patch.setattr(scm_core, "_worlds", lambda plan: calls.append("worlds") or worlds(plan))
        copied = oracle._member_oracles(fresh(scm), KEPT_KINDS)
        assert calls == []
        other = oracle._member_oracles(changed, KEPT_KINDS)
        assert calls == ["compile", "worlds"]  # one pass for every kind
    for kind in KEPT_KINDS:
        for (_, read), (_, kept) in zip(copied[kind].components, held[kind].components):
            assert read is kept
        assert serialize(copied[kind]) == serialize(reference_oracle(scm, kind))
        assert serialize(other[kind]) == serialize(reference_oracle(changed, kind))
    assert_passes_sound()


def test_no_int_all_pass_enters_the_pass_memo():
    models = (MIXED_LEAVES, build_xor_scm(HiddenString(3, "101")),
              build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2})))
    for scm in models:
        compute_oracle(scm, INT_ALL)
    assert len(PASSES) == 0 and PASSES.held == 0
    for scm in models:
        oracles = oracle._member_oracles(scm, KINDS)
        held = {id(dist) for value in PASSES.values() for dist in laws_of(value)}
        assert not any(id(dist) in held for _, dist in oracles[INT_ALL].components[1:])
        assert serialize(oracles[INT_ALL]) == serialize(reference_oracle(scm, INT_ALL))
    assert len(PASSES) == len(models)  # one worlds pass each
    assert_passes_sound()


def test_a_model_that_fails_to_compile_leaves_no_pass():
    source = Mechanism(gates.BERN_SOURCE, (), FAIR)
    bad = [
        Scm(2, (Mechanism(gates.COPY, (1,), NoiseDist.constant()),
                Mechanism(gates.COPY, (0,), NoiseDist.constant()))),
        Scm(2, (source, Mechanism(gates.COPY, (0, 1), NoiseDist.constant()))),
        Scm(2, (source, Mechanism("MAJORITY", (0,), NoiseDist.constant()))),
        Scm(2, (source, Mechanism(gates.AND, (0,), NoiseDist((0, 1), (HALF, Fraction(1, 3)))))),
        Scm(2, (source,)),  # the mechanisms of the held model, one too few
    ]
    compute_oracle(Scm(1, (source,)), INT1)  # a held pass the failures must not drop or read
    held = dict(PASSES)
    for scm in bad:
        for kind in KEPT_KINDS:
            with pytest.raises((CycleError, ArityMismatchError, ValueError)):
                compute_oracle(scm, kind)
    assert dict(PASSES) == held
    assert_passes_sound()


def test_a_lowered_support_cap_refuses_a_held_pass(monkeypatch):
    # MIXED_LEAVES has 2 * 2 * 1 = 4 noise points; INT1 alone, CF1 alone,
    # all three from one call and OBS alone read its one held pass
    calls = [(kind,) for kind in KEPT_KINDS] + [KEPT_KINDS]
    held = [oracle._member_oracles(MIXED_LEAVES, kinds) for kinds in calls]
    monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "3")
    refusal = error_of(MIXED_LEAVES)  # what `_compile` raises
    assert refusal[0] is SupportTooLargeError
    for kinds in calls:
        for scm in (MIXED_LEAVES, fresh(MIXED_LEAVES)):  # a held pass either way
            with pytest.raises(SupportTooLargeError) as info:
                oracle._member_oracles(scm, kinds)
            assert str(info.value) == refusal[1]
    monkeypatch.delenv("SCMLAB_SUPPORT_CAP")
    for kinds, oracles in zip(calls, held):  # still held
        again = oracle._member_oracles(MIXED_LEAVES, kinds)
        for kind in kinds:
            for (_, dist), (_, kept) in zip(again[kind].components, oracles[kind].components):
                assert dist is kept


def test_obs_alone_reads_a_held_pass(monkeypatch):
    # OBS alone runs the trie with no variable forced while no pass is
    # held, and holds none; once a pass is held it reads INT1's law at code
    # 0 off it: the same bytes, the same dist, no trie pass, and the
    # support cap still refuses it with `_compile`'s text
    members = [*map(build_tree_scm, enumerate_trees(3)), MIXED_LEAVES]
    modes = []
    laws = scm_core._laws

    def trie(plan, forcing):
        modes.append(forcing)
        return laws(plan, forcing)

    monkeypatch.setattr(scm_core, "_laws", trie)
    cold = [serialize(compute_oracle(scm, OBS)) for scm in members]
    assert modes == [False] * len(members) and len(PASSES) == 0
    held = [compute_oracle(scm, INT1) for scm in members]
    modes.clear()
    for scm, data, int1 in zip(members, cold, held):
        for copy_of in (scm, fresh(scm)):
            warm = compute_oracle(copy_of, OBS)
            assert serialize(warm) == data
            assert warm.components[0][1] is int1.components[0][1]
            assert scm_core.observational(copy_of) is int1.components[0][1]
    assert modes == []
    monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "1")
    for scm in members:
        for obs_alone in (lambda: compute_oracle(scm, OBS), lambda: scm_core.observational(scm)):
            with pytest.raises(SupportTooLargeError) as info:
                obs_alone()
            assert str(info.value) == error_of(scm)[1]
    assert modes == []


def test_a_pass_above_the_bound_is_not_kept(monkeypatch):
    monkeypatch.setattr(PASSES, "limit", 44)
    compute_oracle(MIXED_LEAVES, CF1)  # (3 * 3 + 2) * 4 noise points
    held = dict(PASSES)
    assert PASSES.held == 44
    runs = []
    worlds = scm_core._worlds

    def spy(plan):
        runs.append(plan.n)
        return worlds(plan)

    monkeypatch.setattr(scm_core, "_worlds", spy)
    wide = Scm(4, (Mechanism(gates.BERN_SOURCE, (), FAIR),) * 4)  # (3 * 4 + 2) * 16 = 224
    first = {kind: compute_oracle(wide, kind) for kind in (INT1, CF1)}
    again = {kind: compute_oracle(wide, kind) for kind in (INT1, CF1)}
    # run each time, and never kept, so the memo dropped nothing for it
    assert runs == [4] * 4 and dict(PASSES) == held and PASSES.held == 44
    for kind in (INT1, CF1):
        assert serialize(again[kind]) == serialize(first[kind]) == serialize(
            reference_oracle(wide, kind))
    assert_passes_sound()


@pytest.mark.parametrize("bound", [60, None], ids=["60", "default"])
def test_the_pass_memo_stays_within_its_bound(bound, monkeypatch):
    families = (Family("tree", 4), Family("bipartite", 2))
    default = PASSES.limit
    monkeypatch.setattr(PASSES, "limit", 0)  # every pass is above it: no memo
    cold = sweep_bodies(families)
    assert len(PASSES) == 0
    monkeypatch.setattr(PASSES, "limit", bound or default)
    drops = []
    clear, keep = scm_core._Bounded.clear, scm_core._Bounded.keep

    def counted(memo):
        if memo is PASSES:
            drops.append(memo.held)
        clear(memo)

    def checked(memo, key, value, size=1):
        kept = keep(memo, key, value, size)
        if memo is PASSES:
            assert memo.held <= memo.limit
        return kept

    monkeypatch.setattr(scm_core._Bounded, "clear", counted)
    monkeypatch.setattr(scm_core._Bounded, "keep", checked)
    assert sweep_bodies(families) == cold
    assert sweep_bodies(families) == cold  # read back where still held
    assert_passes_sound()
    if bound is None:  # both sweeps fit
        assert drops == [] and len(PASSES) == 64 + 16
    else:  # the memo filled and dropped its passes, more than once
        assert len(drops) > 1 and max(drops) <= bound


def test_a_rebuild_check_on_a_held_pass_rejects_a_foreign_oracle():
    # each corrupted or foreign oracle passes its decoder's probes; the
    # member the probes name has its pass held, and the check reads it
    tree = RootedTree(2, 1, {2: 1})
    int1 = compute_oracle(build_tree_scm(tree), INT1)
    bad = [(corrupted(int1, 2, ExactDist(2, {"10": Fraction(1)})), tree_from_int1, NotTreeLikeError)]
    xor = compute_oracle(build_xor_scm(HiddenString(1, "0")), CF1)
    bad.append((corrupted(xor, 1, ExactDist(6, {"000000": Fraction(1)})), string_from_cf1,
                NotXorLikeError))
    # a copy chain rooted at node 2 pins every probed P(b_j=0 | do(a_i=0))
    # to 1, so the graph probe names the complete graph
    chain = compute_oracle(build_tree_scm(RootedTree(3, 2, {1: 2, 3: 1})), INT1)
    complete = BipartiteGraph(1, frozenset({(0, 0)}))
    compute_oracle(build_bipartite_scm(complete), INT1)
    bad.append((chain, graph_from_int1, NotBipartiteLikeError))
    held = {key: laws_of(value) for key, value in PASSES.items()}
    assert len(held) == 4

    def refuse(*args):
        raise AssertionError("the rebuild check compiled or ran a pass the memo holds")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scm_core, "_compile", refuse)
        patch.setattr(scm_core, "_worlds", refuse)
        for oracle_in, decode, error in bad:
            with pytest.raises(error):
                decode(oracle_in)
        assert tree_from_int1(int1) == tree and string_from_cf1(xor) == HiddenString(1, "0")
    # the foreign inputs changed nothing held
    assert {key: laws_of(value) for key, value in PASSES.items()} == held
    assert_passes_sound()


def corrupted(oracle_in, index, dist):
    """`oracle_in` with component `index`'s dist replaced."""
    components = list(oracle_in.components)
    components[index] = (components[index][0], dist)
    return dataclasses.replace(oracle_in, components=tuple(components))


# ------------------------------------------------------ family column memo


def stated_bytes(column) -> int:
    """What the family column memo counts for `column`, of any kind: 8 B a
    member slot, 8 B a pointer of each distinct entry (a tuple of
    component bodies), and each distinct body text's characters once."""
    entries = set(column)
    texts = {body for entry in entries for body in entry}
    return 8 * len(column) + 8 * sum(len(entry) for entry in entries) + sum(map(len, texts))


def test_an_index_above_the_bound_is_returned_but_not_kept(monkeypatch):
    # xor m=2's three columns (one entry each, for four members) count
    # 2,919 B (81 bodies), 199 B and 831 B, and tree n=4's INT_ALL column
    # (64 distinct entries of 81 bodies) 43,217 B: under a bound between
    # them the first are kept, and the second is returned whole, in bytes,
    # and drops nothing
    COLUMNS = oracle._COLUMNS
    monkeypatch.setattr(COLUMNS, "limit", 6000)
    small, large = Family("xor", 2), Family("tree", 4)
    kept = oracle.family_columns(small, (INT_ALL, OBS, INT1))
    index = oracle.oracle_index(large, INT_ALL)
    assert index == tuple([serialize(compute_oracle(large.build(param), INT_ALL))
                           for param in large.parameters()])
    column = oracle.family_columns(large, (INT_ALL,))[INT_ALL]  # swept again: not kept
    assert stated_bytes(column) == 43217 > COLUMNS.limit
    assert [key[:2] for key in COLUMNS] == [(small, INT_ALL), (small, OBS), (small, INT1)]
    assert [stated_bytes(kept[kind]) for kind in kept] == [2919, 199, 831]
    assert COLUMNS.held == sum(stated_bytes(kept[kind]) for kind in kept) <= COLUMNS.limit
    assert oracle.family_columns(small, (INT_ALL,))[INT_ALL] is kept[INT_ALL]


# ------------------------------------------------------------ probe facts

FACTS = decoders._FACTS


def cold_fact(dist: ExactDist) -> tuple:
    zeros = [dist.prob_bit(p, 0) for p in range(dist.n_bits)]
    return (frozenset([p for p, z in enumerate(zeros) if z == 1]),
            {p: z for p, z in enumerate(zeros) if z not in (1, HALF)})


def recorded_walks(monkeypatch) -> list:
    """The (dist, position, bit) of each `prob_bit` walk from here on."""
    walks = []
    walk = ExactDist.prob_bit

    def counted(dist, position, bit):
        walks.append((dist, position, bit))
        return walk(dist, position, bit)

    monkeypatch.setattr(ExactDist, "prob_bit", counted)
    return walks


@pytest.mark.parametrize("run", ["first", "second"])
def test_each_test_starts_with_empty_column_and_fact_memos(run):
    assert len(oracle._COLUMNS) == len(FACTS) == 0
    family = Family("tree", 2)
    # what the next test must not find
    for param in family.parameters():
        family.spec.probe(compute_oracle(family.build(param), INT1))
    oracle.family_columns(family, (OBS, INT1))
    oracle.oracle_index(family, INT_ALL)
    assert len(oracle._COLUMNS) == 3 and len(FACTS) == 3


@pytest.mark.parametrize("family", [Family("tree", 4), Family("bipartite", 2)], ids=str)
def test_each_distinct_law_is_walked_once(family, monkeypatch):
    walks = recorded_walks(monkeypatch)
    for param in family.parameters():
        assert family.spec.probe(compute_oracle(family.build(param), INT1)) == param
    # one walk of each position of each distinct law, at bit 0
    walked = [(dist.n_bits, dist._text(), position, bit) for dist, position, bit in walks]
    assert len(walked) == len(set(walked)) == sum(width for width, _ in FACTS)
    assert {(width, body) for width, body, _, _ in walked} == set(FACTS)
    assert len(FACTS) < len(list(family.parameters()))
    for (width, body), fact in FACTS.items():
        assert fact == cold_fact(ExactDist._from_body(width, body))
    assert FACTS.held == sum(len(body) for _, body in FACTS) <= FACTS.limit


def test_probe_facts_are_kept_apart_by_width():
    # every dist the package builds has a body whose outcomes fix its
    # width, so this pair, one body read at 2 and at 3 bits, is built by
    # hand: the fact of each is its own
    narrow, wide = (ExactDist._from_body(bits, "00=1/2\n11=1/2") for bits in (2, 3))
    assert decoders._zero_fact(narrow) == cold_fact(narrow) == (frozenset(), {})
    assert decoders._zero_fact(wide) == cold_fact(wide) == (frozenset({0}), {})


def test_a_dist_without_a_body_is_walked_each_time(monkeypatch):
    # a law built from masses renders no body to key by, and a mass too
    # long to write has none at all
    law = ExactDist(2, {"00": Fraction(1, 3), "01": Fraction(2, 3)})
    long = ExactDist(1, {"0": Fraction(1, 10**4400), "1": 1 - Fraction(1, 10**4400)})
    dists = (law, long, law)
    facts = [cold_fact(dist) for dist in dists]
    walks = recorded_walks(monkeypatch)
    assert [decoders._zero_fact(dist) for dist in dists] == facts
    assert walks == [(dist, p, 0) for dist in dists for p in range(dist.n_bits)]
    assert len(FACTS) == 0
