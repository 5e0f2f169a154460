"""Invert higher-rung oracles back to hidden family parameters.

Decoders read only the oracle, never the generating parameter, and every
probability test is an exact comparison (against 1, 1/2, or 0), so a
decoder either recovers the parameter or fails with a typed error; there
is no "close enough".

Each decoder is two steps. Its probe (`tree_probe`, `graph_probe`,
`string_probe`) reads the dichotomy probabilities and returns the
parameter they name, or raises a typed error; the INT1 probes read one
fact per do(X_v=0) law from a memo (`_FACTS`). The probes alone are not
a membership test: an oracle from outside the family can satisfy every
probed probability while disagreeing on components the probes never
read. So the public decoder follows its probe with the rebuild check: it
rebuilds the named parameter's oracle and compares it with the input,
which compares their serialized bytes, and a returned parameter is
always the unique family member whose oracle equals the input byte for
byte. The rebuild reads the kernel's pass memo (`scm_core._PASSES`),
keyed by the model, so after a member's oracle was computed, as in a
decode round trip, its rebuild neither compiles nor runs a pass and
finds the same dists, from the one worlds pass a family sweep reads. A
caller that already knows the input is the oracle of some member `p` can
run the probe alone: when it returns `p`, the rebuild would rebuild that
very oracle and could not fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AmbiguousParentError,
    InvalidTreeError,
    KindMismatchError,
    NotBipartiteLikeError,
    NotTreeLikeError,
    NotXorLikeError,
)
from .families import (
    BipartiteGraph,
    HiddenString,
    RootedTree,
    build_bipartite_scm,
    build_tree_scm,
    build_xor_scm,
)
from .oracle import CF1, INT1, AnswerOracle, compute_oracle, marginal
from .rational import HALF, ONE, ZERO
from .scm_core import ExactDist, Scm, _Bounded


@dataclass(frozen=True)
class DescendantSets:
    """For each node 1..n, the nodes its do(0) intervention forces to 0."""

    n: int
    sets: dict[int, frozenset[int]]


def _check_exact_match(oracle: AnswerOracle, scm: Scm, error_cls: type) -> None:
    """Reject inputs that pass every probe but are not a member's oracle.

    Oracle equality is byte equality: the kinds, sizes and keys match, and
    `ExactDist.__eq__` compares canonical bodies (masses for a dist built
    from masses), so nothing is serialized."""
    if compute_oracle(scm, oracle.kind) != oracle:
        raise error_cls(
            "oracle satisfies the probed dichotomies but differs from the "
            "recovered parameter's oracle on unprobed components"
        )


def _component(oracle: AnswerOracle, index: int, expected: str, n_bits: int) -> ExactDist:
    """The component the layout puts at `index`, checked for its key and
    outcome length, so a malformed oracle fails with a typed error."""
    if index >= len(oracle.components):
        raise KindMismatchError(
            f"oracle has {len(oracle.components)} components, so no {expected!r}"
        )
    key, dist = oracle.components[index]
    if key != expected:
        raise KindMismatchError(f"component {key!r} where {expected!r} was expected")
    if dist.n_bits != n_bits:
        raise KindMismatchError(
            f"component {key!r} has {dist.n_bits}-bit outcomes, expected {n_bits}"
        )
    return dist


def _do_component(oracle: AnswerOracle, var: int, bit: int) -> ExactDist:
    # INT1 layout: obs first, then (i=0,b=0), (i=0,b=1), (i=1,b=0), ...
    return _component(oracle, 1 + 2 * var + bit, f"do i={var} b={bit}", oracle.n)


def _check_int1(oracle: AnswerOracle) -> None:
    if oracle.kind != INT1:
        raise KindMismatchError(f"need an INT1 oracle, got {oracle.kind}")


def _pinned(oracle: AnswerOracle, variables, targets: range, error_cls: type, query) -> list:
    """For each of `variables`, the frozenset of positions of `targets`
    its do(=0) law's fact (`_zero_fact`) pins to 0; a target at neither 1
    nor 1/2 raises `error_cls` naming the query `query(var, position)`."""
    rows = []
    for var in variables:
        dist = _do_component(oracle, var, 0)
        pinned, odd = _zero_fact(dist)
        if odd:
            for p in targets:
                if p in odd:
                    raise error_cls(f"{query(var, p)} = {odd[p]}, expected 1 or 1/2")
        rows.append(pinned if len(targets) == dist.n_bits else pinned.intersection(targets))
    return rows


# each law's probe fact by (width, body), bounded in characters of body
# text: tree n=7's verify reads 823,543 facts of 127 laws (2,909 characters)
# and bipartite m=4's 262,144 of 64 (1,728); the bound holds 20 times that
_FACTS = _Bounded(1 << 16, name="decoders._FACTS")


def _zero_fact(dist: ExactDist) -> tuple[frozenset, dict]:
    """(pinned, odd): the positions of `dist` at 0 with probability 1, and
    each position at neither 1 nor 1/2, with its value; one `prob_bit` of
    each position per law with a body while `_FACTS` keeps it."""
    body = dist._body
    fact = None if body is None else _FACTS.get((dist.n_bits, body))
    if fact is None:
        zeros = [dist.prob_bit(p, 0) for p in range(dist.n_bits)]
        fact = (frozenset([p for p, z in enumerate(zeros) if z == ONE]),
                {p: z for p, z in enumerate(zeros) if z not in (ONE, HALF)})
        if body is not None:
            _FACTS.keep((dist.n_bits, body), fact, len(body))
    return fact


def descendants_from_int1(oracle: AnswerOracle) -> DescendantSets:
    """Read descendant sets off the do(X_i=0) dichotomy.

    In a tree-family oracle, forcing node i to 0 pins each variable to 0
    with probability exactly 1 (descendants, i itself included) or 1/2
    (everything else). Any other value means the oracle is not from the
    family.
    """
    rows = _descendant_rows(oracle)
    return DescendantSets(oracle.n, {v + 1: frozenset([p + 1 for p in row])
                                     for v, row in enumerate(rows)})


def _descendant_rows(oracle: AnswerOracle) -> list:
    _check_int1(oracle)  # the sets by position, node v at v - 1
    return _pinned(oracle, range(oracle.n), range(oracle.n), NotTreeLikeError,
                   lambda v, p: f"do(X_{v + 1}=0) gives P(X_{p + 1}=0)")


def tree_from_int1(oracle: AnswerOracle) -> RootedTree:
    """Recover the rooted tree: `tree_probe`, then the rebuild check."""
    tree = tree_probe(oracle)
    _check_exact_match(oracle, build_tree_scm(tree), NotTreeLikeError)
    return tree


def tree_probe(oracle: AnswerOracle) -> RootedTree:
    """The tree the descendant sets name: the parent of v is its ancestor
    with the smallest descendant set."""
    rows = _descendant_rows(oracle)
    n = oracle.n
    roots = [v for v, row in enumerate(rows) if len(row) == n]
    if len(roots) != 1:
        raise NotTreeLikeError(f"found {len(roots)} root candidates, expected 1")
    root = roots[0]
    parent: dict[int, int] = {}
    sized = [(len(row), u, row) for u, row in enumerate(rows)]
    for v in range(n):
        if v == root:
            continue
        # the root's set holds every node, so every v has an ancestor
        ancestors = [(size, u) for size, u, below in sized if u != v and v in below]
        smallest = min(ancestors)[0]
        candidates = [u for size, u in ancestors if size == smallest]
        if len(candidates) != 1:
            raise AmbiguousParentError(
                f"node {v + 1} has {len(candidates)} tied parent candidates"
            )
        parent[v + 1] = candidates[0] + 1
    tree = RootedTree(n, root + 1, parent)
    try:
        tree.check()
    except InvalidTreeError as exc:
        raise NotTreeLikeError(f"recovered parent map is not a tree: {exc}") from None
    return tree


def graph_from_int1(oracle: AnswerOracle) -> BipartiteGraph:
    """Recover the layer graph: `graph_probe`, then the rebuild check."""
    graph = graph_probe(oracle)
    _check_exact_match(oracle, build_bipartite_scm(graph), NotBipartiteLikeError)
    return graph


def graph_probe(oracle: AnswerOracle) -> BipartiteGraph:
    """The layer graph the do(a_i=0) laws name: they pin b_j to 0 with
    probability 1 exactly when (i, j) is an edge, else 1/2."""
    _check_int1(oracle)
    n = oracle.n
    if n < 3 or n % 2 == 0:
        raise NotBipartiteLikeError(f"n={n} is not 2m+1 for any m >= 1")
    m = (n - 1) // 2
    rows = _pinned(oracle, range(1, m + 1), range(1 + m, n), NotBipartiteLikeError,
                   lambda v, p: f"do(a_{v - 1}=0) gives P(b_{p - 1 - m}=0)")
    return BipartiteGraph(m, frozenset((i, p - 1 - m) for i, row in enumerate(rows) for p in row))


def string_from_cf1(oracle: AnswerOracle) -> HiddenString:
    """Recover the hidden string: `string_probe`, then the rebuild check."""
    hidden = string_probe(oracle)
    _check_exact_match(oracle, build_xor_scm(hidden), NotXorLikeError)
    return hidden


def string_probe(oracle: AnswerOracle) -> HiddenString:
    """The hidden string that counterfactual agreement names.

    In module t, compare Y_t across the do(X_t=0) and do(X_t=1) worlds of
    the component for X_t: they agree with probability 1 when s_t = 0 and
    probability 0 when s_t = 1.
    """
    if oracle.kind != CF1:
        raise KindMismatchError(f"need a CF1 oracle, got {oracle.kind}")
    n = oracle.n
    if n < 2 or n % 2 == 1:
        raise NotXorLikeError(f"n={n} is not 2m for any m >= 1")
    m = n // 2
    bits = []
    for t in range(m):
        dist = _component(oracle, 2 * t, f"cf i={2 * t}", 3 * n)
        pair = marginal(dist, (n + 2 * t + 1, 2 * n + 2 * t + 1))  # Y_t in each world
        agree = pair.p("00") + pair.p("11")
        if agree == ONE:
            bits.append("0")
        elif agree == ZERO:
            bits.append("1")
        else:
            raise NotXorLikeError(
                f"module {t}: worlds agree on Y with probability {agree}, "
                f"expected 0 or 1"
            )
    return HiddenString(m, "".join(bits))
