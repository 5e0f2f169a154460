"""Invert higher-rung oracles back to hidden family parameters.

Decoders read only the oracle, never the generating parameter, and every
probability test is an exact comparison (against 1, 1/2, or 0), so a
decoder either recovers the parameter or fails with a typed error; there
is no "close enough".

Each decoder is two steps. Its probe (`tree_probe`, `graph_probe`,
`string_probe`) reads the dichotomy probabilities and returns the
parameter they name, or raises a typed error. The probes alone are not a
membership test: an oracle from outside the family can satisfy every
probed probability while disagreeing on components the probes never
read. So the public decoder follows its probe with the rebuild check: it
rebuilds the named parameter's oracle and compares it with the input,
which compares their serialized bytes, and a returned parameter is
always the unique family member whose oracle equals the input byte for
byte. A caller that already knows the input is the oracle of some member
`p` can run the probe alone: when it returns `p`, the rebuild would
recompute that very oracle and could not fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
from .oracle import CF1, INT1, AnswerOracle, agreement, compute_oracle, zero_weights
from .rational import ONE, ZERO
from .scm_core import ExactDist, Scm


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


def descendants_from_int1(oracle: AnswerOracle) -> DescendantSets:
    """Read descendant sets off the do(X_i=0) dichotomy.

    In a tree-family oracle, forcing node i to 0 pins each variable to 0
    with probability exactly 1 (descendants, i itself included) or 1/2
    (everything else). Any other value means the oracle is not from the
    family.
    """
    if oracle.kind != INT1:
        raise KindMismatchError(f"need an INT1 oracle, got {oracle.kind}")
    n = oracle.n
    sets: dict[int, frozenset[int]] = {}
    for i in range(1, n + 1):
        zeros, den = zero_weights(_do_component(oracle, i - 1, 0))
        members = set()
        for j in range(1, n + 1):
            z = zeros[j - 1]
            if z == den:
                members.add(j)
            elif 2 * z != den:
                raise NotTreeLikeError(
                    f"do(X_{i}=0) gives P(X_{j}=0) = {Fraction(z, den)}, expected 1 or 1/2"
                )
        sets[i] = frozenset(members)
    return DescendantSets(n, sets)


def tree_from_int1(oracle: AnswerOracle) -> RootedTree:
    """Recover the rooted tree: `tree_probe`, then the rebuild check."""
    tree = tree_probe(oracle)
    _check_exact_match(oracle, build_tree_scm(tree), NotTreeLikeError)
    return tree


def tree_probe(oracle: AnswerOracle) -> RootedTree:
    """The tree the descendant sets name: the parent of v is its ancestor
    with the smallest descendant set."""
    ds = descendants_from_int1(oracle)
    n = ds.n
    everything = frozenset(range(1, n + 1))
    roots = [i for i in range(1, n + 1) if ds.sets[i] == everything]
    if len(roots) != 1:
        raise NotTreeLikeError(f"found {len(roots)} root candidates, expected 1")
    root = roots[0]
    parent: dict[int, int] = {}
    for v in range(1, n + 1):
        if v == root:
            continue
        ancestors = [u for u in range(1, n + 1) if u != v and v in ds.sets[u]]
        if not ancestors:
            raise NotTreeLikeError(f"node {v} has no ancestor")
        smallest = min(len(ds.sets[u]) for u in ancestors)
        candidates = [u for u in ancestors if len(ds.sets[u]) == smallest]
        if len(candidates) != 1:
            raise AmbiguousParentError(
                f"node {v} has {len(candidates)} tied parent candidates"
            )
        parent[v] = candidates[0]
    tree = RootedTree(n, root, parent)
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
    if oracle.kind != INT1:
        raise KindMismatchError(f"need an INT1 oracle, got {oracle.kind}")
    n = oracle.n
    if n < 3 or n % 2 == 0:
        raise NotBipartiteLikeError(f"n={n} is not 2m+1 for any m >= 1")
    m = (n - 1) // 2
    edges = set()
    for i in range(m):
        zeros, den = zero_weights(_do_component(oracle, 1 + i, 0))
        for j in range(m):
            z = zeros[1 + m + j]
            if z == den:
                edges.add((i, j))
            elif 2 * z != den:
                raise NotBipartiteLikeError(
                    f"do(a_{i}=0) gives P(b_{j}=0) = {Fraction(z, den)}, expected 1 or 1/2"
                )
    return BipartiteGraph(m, frozenset(edges))


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
        y_world0 = n + 2 * t + 1
        y_world1 = 2 * n + 2 * t + 1
        agree = agreement(dist, y_world0, y_world1)
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
