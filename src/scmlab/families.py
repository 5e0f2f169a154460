"""The three separating SCM families and the bounded-mechanism class.

Hidden parameters and their frozen variable layouts:

* rooted labeled tree on nodes 1..n: node v is variable v-1; the root
  draws a fair bit, every other node copies its parent.
* layer graph on m+m nodes (0-based): variable 0 is the shared root r,
  variables 1..m are the copy layer a_1..a_m (each copies r), variables
  m+1..2m are the AND layer b_1..b_m, where b_j is the AND of r and its
  neighbors among the a_i.
* hidden bit string s of length m: module t occupies variables (2t, 2t+1)
  = (X_t, Y_t); X_t is a fair bit, and Y_t is a fresh fair bit when
  s_t = 0 or X_t XOR a fresh fair bit when s_t = 1.

Layouts matter: serialized oracles quantify over variable indices, so two
implementations only agree byte-for-byte if they place variables the same
way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from . import gates
from .caps import check
from .errors import BadRangeError, InvalidTreeError, LengthMismatchError
from .rational import HALF
from .scm_core import Mechanism, NoiseDist, Scm

TREE = "tree"
BIPARTITE = "bipartite"
XOR = "xor"

FAIR_BIT = NoiseDist.bernoulli(HALF)
NO_NOISE = NoiseDist.constant()
# the noise each family gate draws
_NOISE = {gates.BERN_SOURCE: FAIR_BIT, gates.XOR_NOISE: FAIR_BIT,
          gates.COPY: NO_NOISE, gates.AND: NO_NOISE}


@lru_cache(maxsize=256)
def _mechanism(gate: str, parents: tuple[int, ...]) -> Mechanism:
    """The one Mechanism of `gate` on `parents` with that gate's family
    noise, shared by every member that has it, so the kernel's
    per-mechanism step memo (`scm_core._step`) serves them all. Tree n=5
    members draw on 6 and bipartite m=3 members on 10; every member the
    default caps let the kernel compile (tree n <= 7, bipartite m <= 3,
    xor m <= 12) draws on 28 between them."""
    return Mechanism(gate, parents, _NOISE[gate])


@dataclass(frozen=True)
class RootedTree:
    """Rooted labeled tree on nodes 1..n.

    `parent` maps every non-root node to its parent; the root is absent
    from the map. Equality is structural, so two descriptions of the same
    tree compare equal.
    """

    n: int
    root: int
    parent: dict[int, int]

    def check(self) -> None:
        """Raise InvalidTreeError unless this is a well-formed rooted tree."""
        n, root = self.n, self.root
        if n < 1:
            raise InvalidTreeError(f"n must be at least 1, got {n}")
        if not 1 <= root <= n:
            raise InvalidTreeError(f"root {root} outside 1..{n}")
        if root in self.parent:
            raise InvalidTreeError(f"root {root} must not have a parent")
        # counted first, so the set of all n nodes is no larger than the map
        if len(self.parent) != n - 1:
            raise InvalidTreeError(f"parent map has {len(self.parent)} nodes, expected {n - 1}")
        expected = set(range(1, n + 1)) - {root}
        if set(self.parent) != expected:
            raise InvalidTreeError(
                f"parent map covers {sorted(self.parent)}, expected {sorted(expected)}"
            )
        for v, p in self.parent.items():
            if not 1 <= p <= n:
                raise InvalidTreeError(f"node {v} has parent {p} outside 1..{n}")
        # every node must reach the root without revisiting anything
        for v in expected:
            seen = {v}
            node = v
            while node != root:
                node = self.parent[node]
                if node in seen:
                    raise InvalidTreeError(f"parent chain from {v} cycles at {node}")
                seen.add(node)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for v, p in sorted(self.parent.items()):
            out[p].append(v)
        return out

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as sorted (low, high) pairs, ascending."""
        return sorted((min(v, p), max(v, p)) for v, p in self.parent.items())


@dataclass(frozen=True)
class BipartiteGraph:
    """Layer graph: edge (i, j) joins copy node a_i to AND node b_j, 0-based."""

    m: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", frozenset((int(i), int(j)) for i, j in self.edges)
        )

    def check(self) -> None:
        if self.m < 1:
            raise BadRangeError(f"m must be at least 1, got {self.m}")
        for i, j in self.edges:
            if not (0 <= i < self.m and 0 <= j < self.m):
                raise BadRangeError(f"edge ({i}, {j}) outside [0, {self.m})^2")

    def neighbors_of_b(self, j: int) -> list[int]:
        return sorted(i for i, jj in self.edges if jj == j)


@dataclass(frozen=True)
class HiddenString:
    """Hidden bit string over m independent two-variable modules."""

    m: int
    bits: str

    def check(self) -> None:
        if self.m < 1:
            raise BadRangeError(f"m must be at least 1, got {self.m}")
        if len(self.bits) != self.m or self.bits.strip("01"):
            raise LengthMismatchError(
                f"bits {self.bits!r} is not a length-{self.m} bit string"
            )


def build_tree_scm(tree: RootedTree) -> Scm:
    """Root draws a fair bit; every other node copies its parent."""
    tree.check()
    mechanisms = []
    for v in range(1, tree.n + 1):
        if v == tree.root:
            mechanisms.append(_mechanism(gates.BERN_SOURCE, ()))
        else:
            mechanisms.append(_mechanism(gates.COPY, (tree.parent[v] - 1,)))
    return Scm(tree.n, tuple(mechanisms))


def build_bipartite_scm(graph: BipartiteGraph) -> Scm:
    """Root, then the copy layer, then the AND layer.

    b_j's parent list puts the root first, then its neighbors ascending,
    so the layout is a pure function of the graph.
    """
    graph.check()
    m = graph.m
    mechanisms = [_mechanism(gates.BERN_SOURCE, ())]
    mechanisms += [_mechanism(gates.COPY, (0,))] * m
    for j in range(m):
        parents = (0,) + tuple(1 + i for i in graph.neighbors_of_b(j))
        mechanisms.append(_mechanism(gates.AND, parents))
    return Scm(len(mechanisms), tuple(mechanisms))


def build_xor_scm(hidden: HiddenString) -> Scm:
    """Module t: X_t fair; Y_t fresh-fair (s_t=0) or X_t xor fresh-fair (s_t=1)."""
    hidden.check()
    mechanisms = []
    source = _mechanism(gates.BERN_SOURCE, ())
    for t in range(hidden.m):
        mechanisms.append(source)
        if hidden.bits[t] == "0":
            mechanisms.append(source)
        else:
            mechanisms.append(_mechanism(gates.XOR_NOISE, (2 * t,)))
    return Scm(2 * hidden.m, tuple(mechanisms))


def enumerate_trees(n: int):
    """Yield all n^(n-1) rooted labeled trees, each exactly once.

    Iterates root choices in ascending order and, per root, the length
    n-2 label sequences in lexicographic order.
    """
    if n < 1:
        raise BadRangeError(f"n must be at least 1, got {n}")
    check("SCMLAB_TREE_NMAX", n, "enumerating trees on n={}", lambda: {n: n - 1}, "trees")
    from .prufer import prufer_decode

    if n == 1:
        yield RootedTree(1, 1, {})
        return
    for root in range(1, n + 1):
        for seq in itertools.product(range(1, n + 1), repeat=n - 2):
            yield prufer_decode(seq, root, n)


def enumerate_graphs(m: int):
    """Yield all 2^(m*m) layer graphs in ascending adjacency-mask order.

    Bit i*m+j of the mask is edge (i, j), so the empty graph comes first
    and the complete graph last.
    """
    if m < 1:
        raise BadRangeError(f"m must be at least 1, got {m}")
    check("SCMLAB_GRAPH_MMAX", m, "enumerating graphs on m={}", lambda: {2: m * m}, "graphs")
    for mask in range(1 << (m * m)):
        yield graph_of_mask(m, mask)


def graph_of_mask(m: int, mask: int) -> BipartiteGraph:
    """The layer graph whose adjacency mask has bit i*m+j set for each
    edge (i, j)."""
    edges = frozenset(
        (i, j) for i in range(m) for j in range(m) if (mask >> (i * m + j)) & 1
    )
    return BipartiteGraph(m, edges)


def enumerate_strings(m: int):
    """Yield all 2^m hidden strings in ascending binary order."""
    if m < 1:
        raise BadRangeError(f"m must be at least 1, got {m}")
    for value in range(1 << m):
        yield HiddenString(m, format(value, f"0{m}b"))


@dataclass(frozen=True)
class ClassSpec:
    """Finite mechanism class: allowed gates, allowed noises, max indegree."""

    gamma: frozenset[str]
    pi: frozenset[NoiseDist]
    d: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", frozenset(self.gamma))
        object.__setattr__(self, "pi", frozenset(self.pi))


@dataclass(frozen=True)
class ClassMembership:
    member: bool
    max_indegree: int
    violations: tuple[str, ...] = field(default=())


def class_membership(scm: Scm, spec: ClassSpec) -> ClassMembership:
    """Check every mechanism against the class; list each violation."""
    violations = []
    max_indegree = 0
    for i, mech in enumerate(scm.mechanisms):
        max_indegree = max(max_indegree, len(mech.parents))
        if mech.gate not in spec.gamma:
            violations.append(f"variable {i}: gate {mech.gate} not in class")
        if mech.noise not in spec.pi:
            violations.append(f"variable {i}: noise not in class")
        if len(mech.parents) > spec.d:
            violations.append(
                f"variable {i}: indegree {len(mech.parents)} exceeds bound {spec.d}"
            )
    return ClassMembership(not violations, max_indegree, tuple(violations))
