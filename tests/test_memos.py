"""The two memos that let a round trip read each distinct body and
mechanism once: `parse`'s memo of checked bodies, and the compiled step
each mechanism keeps.

Each memo is keyed by what fully determines its value, so a warm memo
must give what a cold one gives: from `parse`, the same oracle, bytes and
masses (checked against the reference codec) and the same error text;
from `_compile`, the same plan and the same errors in the same order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmlab import (
    CF1,
    INT1,
    INT_ALL,
    OBS,
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
    parse,
    scm_to_json,
    serialize,
)
from scmlab import gates, oracle, scm_core
from scmlab.errors import OracleFormatError

import reference_codec
from conftest import GOLDEN, GOLDEN_BYTES, MIXED_LEAVES, mutated_golden, small_scms

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


def assert_memo_sound():
    """Every body the memo holds is valid at its dist's width (the
    reference codec accepts it as the one component of an OBS oracle of
    that width), its dist holds that body, and `held` counts the
    characters held, within the bound."""
    for body, dist in oracle._BODIES.items():
        reference_codec.parse(f"OBS n={dist.n_bits}\n#obs\n{body}\n".encode())
        assert dist._body == body
    assert oracle._BODIES.held == sum(map(len, oracle._BODIES)) <= oracle._BODIES_MAX


def read_everything(parsed):
    """Build each dist's integer view and masses, as probes and readers do."""
    for _, dist in parsed.components:
        dist._int_view()
        dist.mass


def test_each_test_starts_with_an_empty_memo():
    assert len(oracle._BODIES) == 0 and oracle._BODIES.held == 0


# ------------------------------------------------------------- body memo


@given(small_scms(), st.sampled_from(KINDS))
@settings(max_examples=120, deadline=None)
def test_a_warm_parse_is_a_cold_parse(scm, kind):
    data = serialize(compute_oracle(scm, kind))
    oracle._BODIES.clear()
    cold = parse(data)
    read_everything(cold)  # the dists the memo serves now carry views and masses
    warm = parse(data)
    reference = reference_codec.parse(data)
    assert serialize(warm) == reference_codec.serialize(warm) == data
    assert warm == cold == reference
    for (_, w), (_, c), (_, r) in zip(warm.components, cold.components, reference.components):
        assert w is c  # served from the memo
        assert w.mass == r.mass
        assert w._int_view() == ExactDist._from_body(w.n_bits, w._body)._int_view()
    assert_memo_sound()


# golden files plus the kinds and sizes they lack, as in test_codec
SEEDS = GOLDEN_BYTES + [
    serialize(compute_oracle(build_xor_scm(HiddenString(2, "10")), INT_ALL)),
    serialize(compute_oracle(MIXED_LEAVES, INT1)),
    serialize(compute_oracle(Scm(0, ()), INT_ALL)),
]


@given(mutated_golden(SEEDS))
@settings(max_examples=300, deadline=None)
def test_warm_and_cold_verdicts_agree_on_mutants(data):
    oracle._BODIES.clear()
    cold = outcome(data)
    for seed in SEEDS:  # every body the mutant was made from is now held
        parse(seed)
    assert outcome(data) == cold
    assert outcome(data) == cold  # and again, with its own bodies held too
    assert_memo_sound()


def test_a_body_is_served_only_at_its_width():
    body = "000=1/2\n111=1/2"
    cf1 = parse(f"CF1 n=1\n#cf i=0\n{body}\n".encode())
    # OBS n=3 has CF1 n=1's width, 3 bits: the checked dist is served
    assert parse(f"OBS n=3\n#obs\n{body}\n".encode()).components[0][1] is cf1.components[0][1]
    # at any other width the text is rejected as a cold memo rejects it
    for n in (0, 1, 2, 4):
        data = f"OBS n={n}\n#obs\n{body}\n".encode()
        warm = outcome(data)
        oracle._BODIES.clear()
        assert warm[0] is OracleFormatError and outcome(data) == warm
        parse(f"CF1 n=1\n#cf i=0\n{body}\n".encode())
    # the empty outcome of n=0 likewise
    parse(b"OBS n=0\n#obs\n=1/1\n")
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
    assert body not in oracle._BODIES
    assert list(oracle._BODIES) == ["0=1/2\n1=1/2"]  # the valid body before it is kept
    assert outcome(data) == cold


def distinct_bodies():
    """Oracles of many distinct bodies: every tree n=3 and bipartite m=2
    INT1 oracle, every xor m=3 CF1 oracle and the mixed model's four."""
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
        monkeypatch.setattr(oracle, "_BODIES_MAX", bound)
    drops = []
    clear = oracle._Bodies.clear
    monkeypatch.setattr(oracle._Bodies, "clear", lambda memo: drops.append(memo.held) or clear(memo))
    for data in distinct_bodies():
        assert parse(data) == reference_codec.parse(data)
        assert_memo_sound()
    if bound is not None:  # the memo filled and dropped its bodies, more than once
        assert len(drops) > 1 and max(drops) <= bound


def test_a_body_longer_than_the_bound_is_not_kept(monkeypatch):
    monkeypatch.setattr(oracle, "_BODIES_MAX", 12)
    data = b"INT1 n=1\n#obs\n0=1/2\n1=1/2\n#do i=0 b=0\n0=1/1\n#do i=0 b=1\n1=1/1\n"
    assert serialize(parse(data)) == data
    # "0=1/2\n1=1/2" (11 characters) was kept, then dropped for "0=1/1" and "1=1/1"
    assert list(oracle._BODIES) == ["0=1/1", "1=1/1"]
    monkeypatch.setattr(oracle, "_BODIES_MAX", 10)
    oracle._BODIES.clear()
    assert serialize(parse(data)) == data
    assert "0=1/2\n1=1/2" not in oracle._BODIES
    assert_memo_sound()


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
    for scm in (Scm(2, (source, copy0)), Scm(3, (source, copy0, copy1))):
        scm_core._compile(scm)  # warm
    bad = [
        Scm(2, (copy1, copy0)),  # a cycle through warm mechanisms
        Scm(3, (copy1, copy0, far)),  # a cycle before a parent out of range
        Scm(2, (source, empty)),  # an empty support
        Scm(1, (source, copy0)),  # more mechanisms than variables
        Scm(3, (source, copy0, far)),  # a parent out of range after warm steps
        Scm(3, (source, copy0, wide)),
        Scm(3, (source, copy0, unknown)),
        Scm(3, (source, copy0, symbol)),
        Scm(3, (source, copy0, short)),
        Scm(3, (source, far, unknown)),  # the first failing step in order
    ]
    for scm in bad + bad:
        assert error_of(scm) == error_of(fresh(scm))
    for mech in (empty, far, wide, unknown, symbol, short):  # no failed step was kept
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
