"""The exact kernel against the brute-force reference enumerator.

Every oracle kind must serialize to the same bytes as the reference on
random DAGs, including DAGs whose topological order is not the index
order, non-dyadic noise, three-symbol noise and INT_ALL tries with
shared subtrees; malformed SCMs that skip validation must fail with the
same exception type; caps must refuse before the pass starts.
"""

import math
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scmlab import (
    BipartiteGraph,
    HiddenString,
    Mechanism,
    NoiseDist,
    RootedTree,
    Scm,
    build_bipartite_scm,
    build_tree_scm,
    build_xor_scm,
    gates,
    oracle,
    scm_core,
)
from scmlab.errors import OracleFormatError, SupportTooLargeError
from scmlab.oracle import (
    CF1,
    INT1,
    INT_ALL,
    KINDS,
    OBS,
    AnswerOracle,
    compute_oracle,
    marginal,
    parse,
    serialize,
)
from scmlab.scm_core import (
    Intervention,
    cf1,
    counterfactual_triple,
    interventional,
    observational,
    topo_order,
)

import reference_enumerator
import reference_probes
from conftest import MIXED_LEAVES
from reference_enumerator import reference_oracle

HALF = Fraction(1, 2)
FAIR = NoiseDist.bernoulli(HALF)
CONST = NoiseDist.constant()

READ_NOISES = (
    NoiseDist.constant(0),
    NoiseDist.constant(1),
    FAIR,
    NoiseDist.bernoulli(Fraction(1, 3)),
    NoiseDist.bernoulli(Fraction(3, 4)),
)
OTHER_NOISES = READ_NOISES + (
    NoiseDist((0, 1, 2), (Fraction(1, 6), Fraction(1, 3), HALF)),
    NoiseDist((0, 1, 2), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))),
)
ANY_ARITY = (gates.AND, gates.OR, gates.PARITY, gates.XOR_NOISE, gates.CONST0, gates.CONST1)


@st.composite
def dag_scms(draw, max_n: int = 5) -> Scm:
    """Valid SCMs whose variables are built in a random order: position k
    in build order is variable label[k], so parents need not have smaller
    indices than their children."""
    n = draw(st.integers(1, max_n))
    label = draw(st.permutations(range(n)))
    mechanisms = [None] * n
    for pos in range(n):
        earlier = [label[q] for q in range(pos)]
        menu = ANY_ARITY + (gates.BERN_SOURCE,) + ((gates.COPY, gates.NEG) if pos else ())
        gate = draw(st.sampled_from(menu))
        if gate in (gates.COPY, gates.NEG):
            parents = (draw(st.sampled_from(earlier)),)
        elif gate == gates.BERN_SOURCE:
            parents = ()
        else:
            parents = tuple(draw(st.lists(st.sampled_from(earlier), unique=True))) if pos else ()
        menu = READ_NOISES if gate in gates.NOISE_READING else OTHER_NOISES
        mechanisms[label[pos]] = Mechanism(gate, parents, draw(st.sampled_from(menu)))
    return Scm(n, tuple(mechanisms))


def outcome(fn):
    """The bytes `fn` returns, or the type of the exception it raises."""
    try:
        return serialize(fn())
    except Exception as exc:  # the type is what is compared
        return type(exc)


@given(dag_scms(), st.sampled_from(KINDS))
@settings(max_examples=150, deadline=None)
def test_kernel_bytes_match_reference(scm, kind):
    assert serialize(compute_oracle(scm, kind)) == serialize(reference_oracle(scm, kind))


def test_strategy_reaches_non_index_topological_orders():
    # the differential test is only meaningful if such DAGs occur
    seen = []

    @given(dag_scms())
    @settings(max_examples=100, deadline=None, database=None)
    def collect(scm):
        seen.append(topo_order(scm) != list(range(scm.n)))

    collect()
    assert any(seen)


def distinct_dists(oracle) -> int:
    return len({id(dist) for _, dist in oracle.components})


def test_strategy_reaches_shared_subtrees():
    # the differential test covers the shared-subtree path of the INT_ALL
    # trie only if such models occur, also under a non-index order
    seen = []

    @given(dag_scms())
    @settings(max_examples=100, deadline=None, database=None)
    def collect(scm):
        shared = distinct_dists(compute_oracle(scm, INT_ALL)) < 3**scm.n
        seen.append((shared, topo_order(scm) != list(range(scm.n))))

    collect()
    assert (True, False) in seen
    assert (True, True) in seen


# x0 a fair source, x1 = COPY(x0), x2 = AND(x0, x1): below the deterministic
# steps, 11 of the 27 INT_ALL components take another's dist; below x0's
# noisy step, none
COPY_AND = Scm(
    3,
    (
        Mechanism(gates.BERN_SOURCE, (), FAIR),
        Mechanism(gates.COPY, (0,), CONST),
        Mechanism(gates.AND, (0, 1), CONST),
    ),
)


def test_shared_dist_counts():
    assert distinct_dists(compute_oracle(COPY_AND, INT_ALL)) == 16
    # every xor step reads noise, so nothing is shared
    xor = compute_oracle(build_xor_scm(HiddenString(3, "101")), INT_ALL)
    assert len(xor.components) == distinct_dists(xor) == 729


def test_a_shared_dist_reads_the_same_through_both_components():
    oracle = compute_oracle(COPY_AND, INT_ALL)
    reference = reference_oracle(COPY_AND, INT_ALL)
    # do(x0=0) leaves x1 = 0 as do(x1=0) would
    first = oracle.component("do S=0 x=0")
    second = oracle.component("do S=0,1 x=00")
    assert first is second
    assert first.mass == reference.component("do S=0 x=0").mass
    assert second.mass == reference.component("do S=0,1 x=00").mass
    assert serialize(oracle) == serialize(reference)


def bodies(data: bytes) -> list[str]:
    return [block.partition("\n")[2] for block in data.decode("ascii")[:-1].split("\n#")[1:]]


@given(dag_scms())
@settings(max_examples=40, deadline=None)
def test_parse_shares_one_dist_per_distinct_body(scm):
    data = serialize(compute_oracle(scm, INT_ALL))
    parsed = parse(data)
    assert distinct_dists(parsed) == len(set(bodies(data)))
    by_body = {}
    for (_, dist), body in zip(parsed.components, bodies(data)):
        assert by_body.setdefault(body, dist) is dist


def test_a_shared_parsed_dist_reads_the_same_through_both_components():
    data = serialize(compute_oracle(COPY_AND, INT_ALL))
    parsed = parse(data)
    assert distinct_dists(parsed) == len(set(bodies(data))) == 16
    reference = reference_oracle(COPY_AND, INT_ALL)
    first = parsed.component("do S=0 x=0")
    second = parsed.component("do S=0,1 x=00")
    assert first is second
    assert first.mass == reference.component("do S=0 x=0").mass
    assert second.mass == reference.component("do S=0,1 x=00").mass
    assert serialize(parsed) == data


# the models of the golden files, and one whose leaves are of both kinds
TEXT_MODELS = {
    "tree chain3": build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2})),
    "bipartite edge00": build_bipartite_scm(BipartiteGraph(2, frozenset({(0, 0)}))),
    "xor m=2": build_xor_scm(HiddenString(2, "10")),
    "mixed leaves": MIXED_LEAVES,
}


def refuse_fractions(monkeypatch):
    """Make building a Fraction in `scm_core` fail from here on, so what
    the kernel then renders must come from text and integers. Call it
    after the reference is built: its validating ExactDist checks masses
    with `scm_core.Fraction`."""

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel built a Fraction")

    monkeypatch.setattr(scm_core, "Fraction", refuse)


@pytest.fixture
def leaf_weights(monkeypatch):
    """The (weights, den) of every leaf the kernel renders, in order: one
    entry a law, so the two of the last level's do() pair each count."""
    seen = []
    render = scm_core._renders

    def spy(n_bits, states, weights, den, bits):
        seen.extend([(list(weights), den)] * len(bits))
        return render(n_bits, states, weights, den, bits)

    monkeypatch.setattr(scm_core, "_renders", spy)
    return seen


def uniform(weights) -> bool:
    return len(set(weights)) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_one_pass_with_uniform_and_other_leaves_matches_reference(
    leaf_weights, monkeypatch, kind
):
    want = serialize(reference_oracle(MIXED_LEAVES, kind))
    refuse_fractions(monkeypatch)
    assert serialize(compute_oracle(MIXED_LEAVES, kind)) == want
    kinds = {uniform(weights) for weights, _ in leaf_weights}
    # OBS has one leaf, and CF1's triples all carry the weights of one pass
    assert kinds == ({True, False} if kind in (INT1, INT_ALL) else {False})


def _unreduced(compile_plan, factor):
    """`_compile`, with each step of several noise branches scaled by
    `factor`: its weight numerators and denominator both, the same law."""

    def compile_unreduced(scm):
        plan = compile_plan(scm)
        steps = tuple(
            step[:5] + (tuple((flip, k * factor) for flip, k in step[5]), step[6] * factor)
            if len(step[5]) > 1 else step
            for step in plan.steps
        )
        return plan._replace(steps=steps)

    return compile_unreduced


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", TEXT_MODELS)
def test_a_uniform_weight_not_in_lowest_terms_matches_reference(
    leaf_weights, monkeypatch, name, kind
):
    # every fair step weighs 3/6 per branch, so a leaf of fair steps only
    # (every leaf of a golden model) carries 3^k over 6^k on each state,
    # and its lines must reduce that to 1/2^k
    scm = TEXT_MODELS[name]
    want = serialize(reference_oracle(scm, kind))
    refuse_fractions(monkeypatch)
    monkeypatch.setattr(scm_core, "_compile", _unreduced(scm_core._compile, 3))
    assert serialize(compute_oracle(scm, kind)) == want
    # the mixed model's OBS and CF1 leaves are not uniform (see above)
    assert any(uniform(weights) and weights[0] > 1 for weights, _ in leaf_weights) == (
        name != "mixed leaves" or kind in (INT1, INT_ALL)
    )


def test_int_all_descends_a_merged_do_pair_once(monkeypatch):
    # xor m=2 "10" is x0, y0 = x0 xor noise, x1, y1, every step noisy, so
    # no twin: only y0 reads a variable, x0. Level 0 (x0) is read later,
    # so its one node calls its do(0) and do(1) subtrees apart: 2 calls at
    # level 1. No later step reads levels 1-3, so each of their nodes makes
    # one call for its do() pair and goes on with its mechanism: 3 nodes at
    # level 1 make 3 calls at level 2, their 6 nodes 6 calls at level 3, and
    # the 12 nodes there append their leaves themselves. With the root's
    # call, 1 + 2 + 3 + 6 = 12 calls, where one call per node above the
    # last level took 3^3 = 27; each last-level node renders its do() pair
    # and its mechanism leaf, 24 renders for the 81 laws
    calls, renders = [], []
    descend, render = scm_core._descend, scm_core._renders

    def count(*args):
        calls.append(args[1])
        return descend(*args)

    def count_renders(n_bits, states, weights, den, bits):
        renders.append(len(bits))
        return render(n_bits, states, weights, den, bits)

    monkeypatch.setattr(scm_core, "_descend", count)
    monkeypatch.setattr(scm_core, "_renders", count_renders)
    scm = build_xor_scm(HiddenString(2, "10"))
    assert serialize(compute_oracle(scm, INT_ALL)) == serialize(reference_oracle(scm, INT_ALL))
    assert sorted(Counter(calls).items()) == [(0, 1), (1, 2), (2, 3), (3, 6)]
    assert len(renders) == 24 and sum(renders) == 81


def check_mask_renders(scm: Scm) -> list:
    """Each render of several or-masks that `scm`'s INT_ALL pass makes from
    one sort of a leaf's states, no state carrying any mask bit, renders
    each mask once, and each of its laws equals a `_render` call of the
    states with that mask or-ed in and the law the constructor checks. A
    law takes the constructor exactly when a mass is too long to write."""
    seen = []
    render = scm_core._renders

    def spy(n_bits, states, weights, den, bits):
        dists = render(n_bits, states, weights, den, bits)
        if len(bits) > 1:
            seen.append((n_bits, list(states), list(weights), den, list(bits), dists))
        return dists

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scm_core, "_renders", spy)
        scm_core.int_all_laws(scm)
    assert bool(seen) == (scm.n > 0)
    limit = 10 ** sys.get_int_max_str_digits()
    for n_bits, states, weights, den, bits, dists in seen:
        assert len(set(bits)) == len(bits) == len(dists)
        writable = all(max(Fraction(w, den).as_integer_ratio()) < limit for w in weights)
        for bit, dist in zip(bits, dists):
            assert not any(s & bit for s in states)
            law = [s | bit for s in states]
            alone = scm_core._render(n_bits, law, weights, den)
            assert dist._body == alone._body
            assert (dist._body is not None) == writable
            assert dist == alone
            assert dist.mass == {format(1 << n_bits | s, "b")[1:]: Fraction(w, den)
                                 for s, w in zip(law, weights)}
    return seen


@given(dag_scms())
@example(Scm(0, ()))
@example(MIXED_LEAVES)  # masks of weights that differ
@example(build_xor_scm(HiddenString(2, "10")))  # one weight, merged above the last level
@example(build_xor_scm(HiddenString(4, "1011")))  # one weight, up to 32 masks: runs of up to 16 laws
@settings(max_examples=80, deadline=None)
def test_a_render_of_k_masks_equals_k_renders(scm):
    check_mask_renders(scm)
    want = outcome(lambda: reference_oracle(scm, INT_ALL))
    assert outcome(lambda: compute_oracle(scm, INT_ALL)) == want


@st.composite
def xor_members(draw, max_m: int = 3) -> Scm:
    m = draw(st.integers(1, max_m))
    bits = draw(st.lists(st.sampled_from("01"), min_size=m, max_size=m))
    return build_xor_scm(HiddenString(m, "".join(bits)))


@given(st.one_of(dag_scms(), xor_members()))
@example(build_xor_scm(HiddenString(4, "1011")))
@settings(max_examples=100, deadline=None)
def test_every_mask_list_is_a_binary_counter(scm):
    # `_renders` writes a uniform leaf's laws column by column on this:
    # bits[0] is 0, each bits[2^j] one bit of its own, and bits[i] the or
    # of bits[2^j] over the set bits j of i
    seen = []
    render = scm_core._renders

    def spy(n_bits, states, weights, den, bits):
        seen.append(list(bits))
        return render(n_bits, states, weights, den, bits)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scm_core, "_renders", spy)
        scm_core.int_all_laws(scm)
    assert seen
    for bits in seen:
        powers = [bits[1 << j] for j in range(len(bits).bit_length() - 1)]
        assert len(bits) == 1 << len(powers)
        assert reduce(or_, powers, 0).bit_count() == len(powers) == sum(p.bit_count() for p in powers)
        assert bits == [reduce(or_, [p for j, p in enumerate(powers) if i >> j & 1], 0)
                        for i in range(len(bits))]


@given(dag_scms())
@example(Scm(0, ()))
@example(MIXED_LEAVES)  # pairs of weights that differ
@example(build_xor_scm(HiddenString(2, "10")))  # pairs of one weight
@settings(max_examples=80, deadline=None)
def test_the_last_levels_do_pair_equals_two_renders(scm):
    # no step after the last reads its bit, so its node renders the do(0)
    # and do(1) leaves of every mask carried down in one call: the masks
    # come in pairs m, m | bit, and each pair's laws are two renders
    seen = check_mask_renders(scm)
    if scm.n:
        bit = 1 << (scm.n - 1 - topo_order(scm)[-1])
        pairs = [bits for *_, bits, _ in seen if any(b & bit for b in bits)]
        assert pairs
        for bits in pairs:
            assert Counter(b & ~bit for b in bits if b & bit) == Counter(b for b in bits if not b & bit)
    assert serialize(compute_oracle(scm, INT_ALL)) == serialize(reference_oracle(scm, INT_ALL))


def test_a_do_pair_too_long_to_write_takes_the_constructor():
    # past the interpreter's 4300-digit limit for int-to-text conversion
    scm = Scm(2, (
        Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 10**4400))),
        Mechanism(gates.COPY, (0,), CONST),
    ))
    seen = check_mask_renders(scm)
    assert any(dist._body is None for *_, dists in seen for dist in dists)
    with pytest.raises(OracleFormatError, match="too long to write"):
        serialize(compute_oracle(scm, INT_ALL))


def unread_bits(scm: Scm) -> int:
    """The state bits (variable v at bit n-1-v) of the variables that no
    mechanism after them in topological order reads; a constant gate reads
    none of its parents."""
    order = topo_order(scm)
    unread = 0
    for k, v in enumerate(order):
        readers = [scm.mechanisms[u] for u in order[k + 1:] if v in scm.mechanisms[u].parents]
        if all(gates.spec(reader.gate).test == gates.CONST for reader in readers):
            unread |= 1 << (scm.n - 1 - v)
    return unread


@given(dag_scms())
@example(build_xor_scm(HiddenString(2, "10")))
@example(COPY_AND)  # read above its last level, a twin at it
@settings(max_examples=100, deadline=None)
def test_only_the_do_pairs_of_unread_variables_are_merged(scm):
    # a merged level's bit is in the masks of every leaf below it, and in
    # no other mask: so the masks rendered or-ed together are the merged
    # levels' bits, and those must be the variables no later step reads
    masks = []
    render = scm_core._renders

    def spy(n_bits, states, weights, den, bits):
        masks.extend(bits)
        return render(n_bits, states, weights, den, bits)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scm_core, "_renders", spy)
        data = outcome(lambda: compute_oracle(scm, INT_ALL))
    assert data == outcome(lambda: reference_oracle(scm, INT_ALL))
    assert reduce(or_, masks, 0) == unread_bits(scm)


def least_den(mass) -> int:
    return math.lcm(*[m.denominator for m in mass.values()])


def check_view(dist, mass, label) -> None:
    """The integer view of `dist`: the states of `mass`'s outcomes in
    ascending order, and their least common denominator."""
    states, _, den = dist._int_view()
    assert states == [int(o, 2) if o else 0 for o in sorted(mass)], label
    assert den == least_den(mass), label


@pytest.mark.parametrize("factor", [1, 3])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", TEXT_MODELS)
def test_masses_and_integer_views_match_reference(monkeypatch, name, kind, factor):
    # kernel dists, parsed dists and marginals hold text and integers; their
    # `mass`, states and least denominators are the reference's, also when
    # every noisy step's weights are not in lowest terms (factor 3)
    scm = TEXT_MODELS[name]
    want = reference_oracle(scm, kind).components
    if factor > 1:
        monkeypatch.setattr(scm_core, "_compile", _unreduced(scm_core._compile, factor))
    computed = compute_oracle(scm, kind)
    for oracle in (computed, parse(serialize(computed))):
        for (key, dist), (_, ref) in zip(oracle.components, want):
            assert dist.mass == ref.mass, key
            check_view(dist, ref.mass, key)
            k = dist.n_bits
            for positions in (tuple(reversed(range(k))), (k - 1,), ()):
                got, expected = marginal(dist, positions), reference_probes.marginal(ref, positions)
                assert got.mass == expected.mass, (key, positions)
                check_view(got, expected.mass, (key, positions))


REVERSED_CHAIN = Scm(
    3,
    (
        Mechanism(gates.XOR_NOISE, (1,), NoiseDist.bernoulli(Fraction(1, 3))),
        Mechanism(gates.NEG, (2,), OTHER_NOISES[-2]),
        Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(3, 4))),
    ),
)


@pytest.mark.parametrize("kind", KINDS)
def test_reversed_chain_matches_reference(kind):
    assert topo_order(REVERSED_CHAIN) == [2, 1, 0]
    assert serialize(compute_oracle(REVERSED_CHAIN, kind)) == serialize(
        reference_oracle(REVERSED_CHAIN, kind)
    )


def _one_variable(gate, parents=(), noise=CONST, n=1):
    """An n-variable SCM whose last variable has the given mechanism and
    whose other variables are fair sources."""
    rest = tuple(Mechanism(gates.BERN_SOURCE, (), FAIR) for _ in range(n - 1))
    return Scm(n, rest + (Mechanism(gate, parents, noise),))


MALFORMED = {
    "unknown gate": _one_variable("NAND", (0,), n=2),
    "COPY without parent": _one_variable(gates.COPY, ()),
    "COPY with two parents": _one_variable(gates.COPY, (0, 1), n=3),
    "NEG with two parents": _one_variable(gates.NEG, (0, 1), n=3),
    "BERN_SOURCE with a parent": _one_variable(gates.BERN_SOURCE, (0,), FAIR, n=2),
    "XOR_NOISE reads symbol 2": _one_variable(gates.XOR_NOISE, (0,), NoiseDist((0, 2), (HALF, HALF)), n=2),
    "BERN_SOURCE fixed symbol 3": _one_variable(gates.BERN_SOURCE, (), NoiseDist((3,), (1,))),
    "read noise sums to 5/6": _one_variable(
        gates.BERN_SOURCE, (), NoiseDist((0, 1), (HALF, Fraction(1, 3)))
    ),
    "ignored noise sums to 5/6": _one_variable(
        gates.AND, (0,), NoiseDist((0, 1), (HALF, Fraction(1, 3))), n=2
    ),
    "constant gate, noise sums to 5/6": _one_variable(
        gates.CONST0, (), NoiseDist((0, 1), (HALF, Fraction(1, 3)))
    ),
    "read noise with a zero": _one_variable(gates.BERN_SOURCE, (), NoiseDist((0, 1), (0, 1))),
    "ignored noise with a zero": _one_variable(gates.OR, (0,), NoiseDist((0, 1), (0, 1)), n=2),
    "ignored negative noise": _one_variable(
        gates.PARITY, (0,), NoiseDist((0, 1), (Fraction(3, 2), -HALF)), n=2
    ),
    "duplicate read symbols": _one_variable(gates.XOR_NOISE, (0,), NoiseDist((1, 1), (HALF, HALF)), n=2),
    "fixed symbol with a stray prob": _one_variable(gates.BERN_SOURCE, (), NoiseDist((1,), (HALF,))),
    "fixed symbol with no prob": _one_variable(gates.BERN_SOURCE, (), NoiseDist((1,), ())),
    "extra probs": _one_variable(gates.BERN_SOURCE, (), NoiseDist((0, 1), (HALF, HALF, HALF))),
    "missing probs": _one_variable(gates.BERN_SOURCE, (), NoiseDist((0, 1), (1,))),
    "empty support": _one_variable(gates.AND, (), NoiseDist((), ())),
    "parent out of range": _one_variable(gates.AND, (4,), n=2),
    "repeated parity parent": _one_variable(gates.PARITY, (0, 0), n=2),
    "repeated AND parent": _one_variable(gates.AND, (0, 0), n=2),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("kind", KINDS)
def test_unvalidated_scm_fails_like_reference(name, kind):
    scm = MALFORMED[name]
    assert outcome(lambda: compute_oracle(scm, kind)) == outcome(
        lambda: reference_oracle(scm, kind)
    )


SOURCE = Mechanism(gates.BERN_SOURCE, (), FAIR)
THIRD = Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 3)))
FIVE_SIXTHS = NoiseDist((0, 1), (HALF, Fraction(1, 3)))


def _gate(gate, parents, noise=CONST):
    return Mechanism(gate, parents, noise)


def _scm(*mechanisms):
    return Scm(len(mechanisms), mechanisms)


# the parallel-worlds pass shifts each parent's column onto its child's
# and combines them by the gate's test: every test with several parents,
# a parity whose repeated parent cancels, parents above their child (a
# left shift), the smallest models, and noise laws that are not exact
WORLDS_MODELS = {
    "PARITY of 2": _scm(SOURCE, THIRD, _gate(gates.PARITY, (0, 1))),
    "PARITY of 3": _scm(SOURCE, THIRD, SOURCE, _gate(gates.PARITY, (0, 1, 2), OTHER_NOISES[-1])),
    "PARITY with a repeated parent": _scm(SOURCE, THIRD, _gate(gates.PARITY, (0, 1, 0))),
    "PARITY of one parent twice": _scm(SOURCE, _gate(gates.PARITY, (0, 0))),
    "XOR_NOISE with a repeated parent": _scm(
        SOURCE, SOURCE, _gate(gates.XOR_NOISE, (1, 0, 1), READ_NOISES[3])
    ),
    "AND of 3": _scm(SOURCE, THIRD, SOURCE, _gate(gates.AND, (0, 1, 2), OTHER_NOISES[-2])),
    "OR of 3": _scm(SOURCE, THIRD, SOURCE, _gate(gates.OR, (2, 0, 1))),
    "AND and OR of nothing": _scm(
        _gate(gates.AND, ()), _gate(gates.OR, (), FAIR), _gate(gates.AND, (0, 1))
    ),
    "NEG": _scm(THIRD, _gate(gates.NEG, (0,))),
    "parents above their child": _scm(
        _gate(gates.OR, (2, 3)), _gate(gates.NEG, (3,)), _gate(gates.PARITY, (3, 1)), THIRD
    ),
    "n=1": _scm(THIRD),
    "n=1, constant": _scm(_gate(gates.CONST1, ())),
    "n=0": _scm(),
    "read noise sums to 5/6": _scm(
        _gate(gates.BERN_SOURCE, (), FIVE_SIXTHS), _gate(gates.COPY, (0,))
    ),
    "ignored noise sums to 5/6": _scm(
        SOURCE, SOURCE, SOURCE, _gate(gates.AND, (0, 1, 2), FIVE_SIXTHS)
    ),
}


@pytest.mark.parametrize("name", sorted(WORLDS_MODELS))
def test_every_counterfactual_triple_matches_reference(name):
    scm = WORLDS_MODELS[name]

    def as_oracle(dists):
        return AnswerOracle(CF1, scm.n, tuple((f"cf i={i}", d) for i, d in enumerate(dists)))

    got = outcome(lambda: as_oracle(cf1(scm)))
    assert got == outcome(lambda: reference_oracle(scm, CF1))
    assert (got is ValueError) == name.endswith("5/6")
    # one past the last variable too: both raise BadPositionError
    for i in range(scm.n + 1):
        assert outcome(lambda: as_oracle([counterfactual_triple(scm, i)])) == outcome(
            lambda: as_oracle([reference_enumerator.counterfactual_triple(scm, i)])
        )


# a law of three symbols, two of them 0: a noise-reading gate merges it to
# the branches 0 (2/3) and 1 (1/3)
TWO_OF_THREE = NoiseDist((0, 1, 0), (Fraction(1, 6), Fraction(1, 3), HALF))
NON_READING = (gates.AND, gates.OR, gates.PARITY, gates.CONST0, gates.CONST1)


@st.composite
def placed_readers(draw) -> Scm:
    """Chains whose topological order is their build order (each variable
    after the first lists the one built before it), with noise-reading
    variables first, in the middle or last in that order, drawing two
    branches from a two- or three-symbol law. Every other gate reads no
    noise, and any law it draws, three-symbol ones included, merges to one
    branch."""
    n = draw(st.integers(2, 6))
    where = draw(st.sampled_from([0, n // 2, n - 1]))
    readers = {where} | draw(st.sets(st.integers(0, n - 1), max_size=2))
    label = draw(st.permutations(range(n)))
    mechanisms = [None] * n
    for pos in range(n):
        earlier = [label[q] for q in range(pos)]
        if pos in readers:
            gate = gates.BERN_SOURCE if pos == 0 else gates.XOR_NOISE
            noise = draw(st.sampled_from(READ_NOISES[2:] + (TWO_OF_THREE,)))
        else:
            gate = draw(st.sampled_from(NON_READING + ((gates.COPY, gates.NEG) if pos else ())))
            noise = draw(st.sampled_from(OTHER_NOISES))
        if gate == gates.BERN_SOURCE or pos == 0:
            parents = ()
        elif gate in (gates.COPY, gates.NEG):
            parents = (earlier[-1],)
        else:
            extra = draw(st.lists(st.sampled_from(earlier[:-1]), unique=True)) if pos > 1 else []
            parents = (earlier[-1], *extra)
        mechanisms[label[pos]] = Mechanism(gate, parents, noise)
    scm = Scm(n, tuple(mechanisms))
    assert topo_order(scm) == list(label)
    return scm


@st.composite
def seven_sources(draw) -> Scm:
    """Seven independent sources, as the empirical learner fits them: each
    a Bernoulli of its count of ones in 8 rows."""
    counts = draw(st.lists(st.integers(0, 8), min_size=7, max_size=7))
    return Scm(7, tuple(
        Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(k, 8))) for k in counts
    ))


ONE_PASS_ORDERS = ["INT1 then CF1", "CF1 then INT1", "one call"]


def check_one_held_pass(scm: Scm, order: str) -> None:
    """INT1 and CF1 of `scm`, in `order`, are the reference's bytes, and
    both come from the one entry the pass memo holds for it."""
    scm_core._PASSES.clear()
    kinds = (INT1, CF1)
    if order == "one call":
        got = oracle._member_oracles(scm, kinds)
    else:
        got = {kind: compute_oracle(scm, kind) for kind in order.split(" then ")}
    assert {kind: serialize(got[kind]) for kind in kinds} == {
        kind: serialize(reference_oracle(scm, kind)) for kind in kinds}
    assert list(scm_core._PASSES) == [(scm.n, scm.mechanisms)]


@pytest.mark.parametrize("order", ONE_PASS_ORDERS)
@given(st.one_of(placed_readers(), seven_sources()))
@settings(max_examples=60, deadline=None)
def test_int1_and_cf1_from_one_held_pass_match_reference(order, scm):
    check_one_held_pass(scm, order)


@pytest.mark.parametrize("order", ONE_PASS_ORDERS)
@pytest.mark.parametrize("name", ["n=0", "n=1", "n=1, constant"])
def test_one_held_pass_of_zero_or_one_variable_matches_reference(order, name):
    check_one_held_pass(WORLDS_MODELS[name], order)


WIDE = Scm(30, tuple(Mechanism(gates.BERN_SOURCE, (), FAIR) for _ in range(30)))


@pytest.mark.parametrize("kind", (OBS, INT1, CF1))
def test_support_cap_refuses_before_any_work(no_pass, kind, monkeypatch):
    with pytest.raises(SupportTooLargeError):
        compute_oracle(WIDE, kind)
    small = Scm(2, WIDE.mechanisms[:2])
    monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "3")
    with pytest.raises(SupportTooLargeError):
        compute_oracle(small, kind)


def test_support_cap_refuses_before_any_work_int_all(no_pass, monkeypatch):
    small = Scm(3, WIDE.mechanisms[:3])
    monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "7")
    with pytest.raises(SupportTooLargeError):
        compute_oracle(small, INT_ALL)


def test_support_cap_refuses_single_laws_before_any_work(no_pass):
    with pytest.raises(SupportTooLargeError):
        observational(WIDE)
    with pytest.raises(SupportTooLargeError):
        counterfactual_triple(WIDE, 0)
    with pytest.raises(SupportTooLargeError):
        interventional(WIDE, Intervention.of({0: 1}))


def test_int_all_line_cap_refuses_twelve_fair_sources_before_any_work(no_pass):
    # 12 <= SCMLAB_INTALL_NMAX and 2^12 noise points <= SCMLAB_SUPPORT_CAP,
    # but each variable has two noise branches and two forced values
    twelve = Scm(12, WIDE.mechanisms[:12])
    with pytest.raises(SupportTooLargeError) as excinfo:
        compute_oracle(twelve, INT_ALL)
    assert str(excinfo.value) == (
        "int_all output exceeds SCMLAB_INTALL_LINE_CAP=4194304: "
        "refused 4^12 = 16777216 mass lines"
    )


# a noise law that is not a distribution, read by its gate or summed out
LAWLESS = {
    "read noise sums to 5/6": (
        _one_variable(gates.BERN_SOURCE, (), FIVE_SIXTHS, n=2),
        "variable 1: noise law is not a distribution: branch masses 1/2, 1/3 sum to 5/6",
    ),
    "ignored noise sums to 5/6": (
        _one_variable(gates.AND, (0,), FIVE_SIXTHS, n=2),
        "variable 1: noise law is not a distribution: branch masses 5/6 sum to 5/6",
    ),
    "fixed symbol weighing 1/2": (
        _one_variable(gates.BERN_SOURCE, (), NoiseDist((1,), (HALF,)), n=2),
        "variable 1: noise law is not a distribution: branch masses 1/2 sum to 1/2",
    ),
}


@pytest.mark.parametrize("name", sorted(LAWLESS))
@pytest.mark.parametrize("kind", KINDS)
def test_a_noise_law_that_is_not_a_distribution_is_refused_before_any_work(no_pass, name, kind):
    scm, text = LAWLESS[name]
    with pytest.raises(ValueError) as excinfo:
        compute_oracle(scm, kind)
    assert str(excinfo.value) == text


@given(dag_scms())
@settings(max_examples=150, deadline=None)
def test_a_step_of_one_noise_branch_is_weight_one_over_one(scm):
    # the twin-subtree rule and the passes' unscaled one-branch steps rely
    # on it; a step of several branches is a distribution in lowest terms
    for step in scm_core._compile(scm).steps:
        branches, den = step[5], step[6]
        nums = [k for _, k in branches]
        if len(branches) == 1:
            assert branches == ((branches[0][0], 1),) and den == 1
        assert min(nums) > 0 and sum(nums) == den and math.gcd(den, *nums) == 1


def mass_lines(data: bytes) -> int:
    return sum(1 for line in data.split(b"\n")[1:] if line and not line.startswith(b"#"))


@given(dag_scms())
@settings(max_examples=40, deadline=None)
def test_int_all_line_cap_counts_the_lines_exactly(scm):
    lines = mass_lines(serialize(compute_oracle(scm, INT_ALL)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("SCMLAB_INTALL_LINE_CAP", str(lines))
        compute_oracle(scm, INT_ALL)
        patch.setenv("SCMLAB_INTALL_LINE_CAP", str(lines - 1))
        with pytest.raises(SupportTooLargeError, match=f" = {lines} mass lines$"):
            compute_oracle(scm, INT_ALL)


def test_interventional_caps_the_mutilated_support(monkeypatch):
    # forcing a variable drops its noise, as the reference does
    scm = Scm(2, WIDE.mechanisms[:2])
    monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "2")
    dist = interventional(scm, Intervention.of({0: 1}))
    assert dist.p("10") == HALF


# each parent test of `gates`, read one state at a time from the state's
# parent bits and the mask of every parent
GATE_TESTS = {
    gates.CONST: lambda parents, mask: 0,
    gates.ANY: lambda parents, mask: parents != 0,
    gates.ALL: lambda parents, mask: parents == mask,
    gates.XOR: lambda parents, mask: parents.bit_count() & 1,
}


@pytest.mark.parametrize("flip", [0, 1])
@pytest.mark.parametrize("test", list(GATE_TESTS), ids=["CONST", "ANY", "ALL", "XOR"])
def test_extend_sets_the_bit_where_the_gate_gives_1(test, flip):
    # every (test, flip) pair, ALL with a flip included, which no gate row
    # reaches (no ALL gate inverts its output or reads noise), on every
    # state of four bits and every parent mask, the empty one included
    bit, states = 1 << 4, list(range(16))
    for mask in range(16):
        want = [s | bit if bool(GATE_TESTS[test](s & mask, mask)) ^ flip else s for s in states]
        assert scm_core._extend(states, test, mask, flip, bit) == want, mask
