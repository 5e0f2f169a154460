"""Description-length accounting for the identification gaps.

Three ingredients per family (its row in `catalog.FAMILIES` gives the
default rung pair, the encoder's bits and whether the encoder is tight):

* a constructive encoder (sequence codec, adjacency matrix, or the raw
  string), whose exact bit count upper-bounds what the higher rung needs;
* exhaustive ambiguity grouping: all parameters whose lower-rung oracle
  bytes agree, and how many distinct higher-rung oracles hide behind each
  group, which lower-bounds what any lower-rung learner can pin down;
* exact conditional entropy of the higher oracle given the lower one
  under the uniform prior over parameters.

All counting is exact integer/rational arithmetic; floats appear only in
the final log2 of exact counts.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .catalog import Family
from .errors import BadRangeError, LengthMismatchError, NotMemberError, ScmLabError
from .families import BIPARTITE, BipartiteGraph, ClassSpec, class_membership
from .oracle import INT1, KINDS, d_int, entry_bytes, family_columns, family_sweep
from .prufer import BitBudget, ceil_log2
from .rational import HALF
from .scm_core import Scm


def adjacency_encode(graph: BipartiteGraph) -> str:
    """Row-major m*m adjacency bits: position i*m+j is edge (i, j)."""
    graph.check()
    m = graph.m
    return "".join(
        "1" if (i, j) in graph.edges else "0"
        for i in range(m)
        for j in range(m)
    )


def adjacency_decode(bits: str) -> BipartiteGraph:
    """Inverse of adjacency_encode; the length must be a perfect square."""
    if bits.strip("01"):
        raise LengthMismatchError(f"adjacency bits {bits!r} are not binary")
    m = math.isqrt(len(bits))
    if m * m != len(bits) or m < 1:
        raise LengthMismatchError(
            f"adjacency length {len(bits)} is not a positive perfect square"
        )
    edges = frozenset(
        (i, j) for i in range(m) for j in range(m) if bits[i * m + j] == "1"
    )
    return BipartiteGraph(m, edges)


@dataclass(frozen=True)
class AmbiguityClass:
    """Parameters indistinguishable at the lower rung.

    `lower_digest` is the sha256 hex of the shared lower-oracle bytes;
    `member_count` how many parameters share it; `distinct_higher` how
    many different higher-rung oracles those members still produce.
    """

    lower_digest: str
    member_count: int
    distinct_higher: int


@dataclass(frozen=True)
class AmbiguityReport:
    family: Family
    lower_kind: str
    higher_kind: str
    parameter_count: int
    classes: tuple[AmbiguityClass, ...]

    def max_distinct_higher(self) -> int:
        return max(c.distinct_higher for c in self.classes)


def _check_kinds(lower_kind: str, higher_kind: str) -> None:
    for kind in (lower_kind, higher_kind):
        if kind not in KINDS:
            raise BadRangeError(f"unknown oracle kind {kind!r}")


def _grouped(family: Family, lower_kind: str, higher_kind: str):
    """Group parameters by lower oracle; count higher oracles within each
    group. Returns {lower entry: Counter(higher entry)} of column entries."""
    _check_kinds(lower_kind, higher_kind)
    index = family_columns(family, (lower_kind, higher_kind))
    groups: dict = {}
    for lower, higher in zip(index[lower_kind], index[higher_kind]):
        groups.setdefault(lower, Counter())[higher] += 1
    return groups


def ambiguity_classes(
    family: Family, lower_kind: str, higher_kind: str
) -> AmbiguityReport:
    """Exhaustively measure what the lower rung leaves undetermined."""
    groups = _grouped(family, lower_kind, higher_kind)
    classes = []
    total = 0
    for lower, inner in groups.items():
        member_count = sum(inner.values())
        total += member_count
        classes.append(
            AmbiguityClass(
                hashlib.sha256(entry_bytes(lower_kind, family.n_vars(), lower)).hexdigest(),
                member_count,
                len(inner),
            )
        )
    classes.sort(key=lambda c: c.lower_digest)
    return AmbiguityReport(family, lower_kind, higher_kind, total, tuple(classes))


def conditional_entropy_uniform(
    family: Family, lower_kind: str, higher_kind: str
) -> float:
    """Exact H(higher oracle | lower oracle) in bits, parameters uniform.

    All counts are exact integers; the only float is the final log2. When
    a class size is a power of two and its higher values are all distinct
    (every family here), the answer is the exact integer log: each of the
    2^k terms k * 2^-k, and each partial sum, is exact in binary floats.
    """
    return _entropy(_grouped(family, lower_kind, higher_kind))


def _entropy(groups) -> float:
    total = sum(sum(inner.values()) for inner in groups.values())
    entropy = 0.0
    for inner in groups.values():
        class_size = sum(inner.values())
        class_weight = Fraction(class_size, total)
        inner_entropy = 0.0
        for count in inner.values():
            p = Fraction(count, class_size)
            inner_entropy -= float(p) * math.log2(float(p))
        entropy += float(class_weight) * inner_entropy
    return entropy


@dataclass(frozen=True)
class DegreeBoundReport:
    """Mechanism-class counting at indegree bound d on n variables."""

    n: int
    d: int
    parent_choices: int
    parent_bits: int
    order_bits: int
    gate_noise_bits: int
    rhs_lower_bound: Fraction
    inequality_holds: bool


# rational lower bound on e; using a lower bound only tightens the check
_E_LOWER = Fraction(2718281828459045, 10**15)


def _parent_choices(n: int, d: int) -> int:
    """Parent sets of size <= d among n - 1 variables: sum_{k<=d} C(n-1, k)."""
    return sum(math.comb(n - 1, k) for k in range(d + 1))


def degree_bound(
    n: int, d: int, gamma_size: int = 1, pi_size: int = 1
) -> DegreeBoundReport:
    """Count parent sets of size <= d and check the closed-form cap
    sum_{k<=d} C(n-1, k) <= (d+1) * (e(n-1)/d)^d in exact arithmetic."""
    if n < 2 or not 1 <= d <= n - 1:
        raise BadRangeError(f"need n >= 2 and 1 <= d <= n-1, got n={n}, d={d}")
    if gamma_size < 1 or pi_size < 1:
        raise BadRangeError("library sizes must be at least 1")
    parent_choices = _parent_choices(n, d)
    rhs = (d + 1) * (_E_LOWER * (n - 1) / d) ** d
    return DegreeBoundReport(
        n=n,
        d=d,
        parent_choices=parent_choices,
        parent_bits=n * ceil_log2(parent_choices),
        order_bits=ceil_log2(math.factorial(n)),
        gate_noise_bits=n * ceil_log2(gamma_size * pi_size),
        rhs_lower_bound=rhs,
        inequality_holds=parent_choices <= rhs,
    )


def generic_class_encoding(scm: Scm, spec: ClassSpec) -> BitBudget:
    """Itemized cost of naming `scm` inside the mechanism class: a
    topological order, one bounded parent set per variable, and one
    (gate, noise) pair per variable."""
    membership = class_membership(scm, spec)
    if not membership.member:
        raise NotMemberError("; ".join(membership.violations))
    n = scm.n
    parent_choices = _parent_choices(n, min(spec.d, n - 1))
    pair_count = len(spec.gamma) * len(spec.pi)
    components = [
        ("order", ceil_log2(math.factorial(n))),
        ("parents", n * ceil_log2(parent_choices)),
        ("gates-and-noise", n * ceil_log2(pair_count)),
    ]
    idealized = (
        math.log2(math.factorial(n))
        + n * math.log2(parent_choices)
        + n * math.log2(pair_count)
    )
    return BitBudget(tuple(components), sum(bits for _, bits in components), idealized)


@dataclass(frozen=True)
class GapRow:
    """One separation-table row; the CSV column set is frozen."""

    family: str
    size_param: int
    n: int
    lower_kind: str
    higher_kind: str
    ambiguity_count: int
    log2_ambiguity: float
    encoder_bits: int
    entropy_bits: float
    min_pairwise_d_int: Fraction | None
    slack_bits: float | None


def separation_table(
    family: Family,
    lower_kind: str | None = None,
    higher_kind: str | None = None,
) -> list[GapRow]:
    """One row per family instance: ambiguity count, its log, the encoder
    budget, and the exact conditional entropy. Each rung left None
    defaults, on its own, to the family row's.

    The lower-bound surrogate can never exceed the upper-bound surrogate
    when the row marks the encoder tight (the adjacency matrix, the raw
    string); that is asserted here in exact integer arithmetic. An encoder
    that is not tight (the tree sequence codec) may carry slack, which is
    reported instead.
    """
    spec = family.spec
    lower_kind = spec.rungs[0] if lower_kind is None else lower_kind
    higher_kind = spec.rungs[1] if higher_kind is None else higher_kind
    groups = _grouped(family, lower_kind, higher_kind)
    ambiguity = max(map(len, groups.values()))
    encoder_bits = spec.encoder_bits(family.size)
    entropy = _entropy(groups)
    log2_ambiguity = math.log2(ambiguity)
    slack: float | None = None
    if not spec.encoder_tight:
        slack = encoder_bits - log2_ambiguity
    elif ambiguity > 2**encoder_bits:
        raise ScmLabError(
            f"ambiguity {ambiguity} exceeds encoder budget 2^{encoder_bits}"
        )
    return [
        GapRow(
            family=family.kind,
            size_param=family.size,
            n=family.n_vars(),
            lower_kind=lower_kind,
            higher_kind=higher_kind,
            ambiguity_count=ambiguity,
            log2_ambiguity=log2_ambiguity,
            encoder_bits=encoder_bits,
            entropy_bits=entropy,
            min_pairwise_d_int=None,
            slack_bits=slack,
        )
    ]


@dataclass(frozen=True)
class SeparationCheck:
    """Pairwise interventional distances across one bipartite family."""

    m: int
    pair_count: int
    min_pairwise_d_int: Fraction
    epsilon: Fraction
    disjoint: bool


def pairwise_separation_check(m: int, epsilon) -> SeparationCheck:
    """Compute every pairwise d_int over the 2^(m*m) graphs and decide
    whether epsilon-balls around the INT1 oracles are disjoint (strictly:
    2*epsilon < min distance)."""
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise BadRangeError(f"epsilon must be nonnegative, got {epsilon}")
    oracles = [member[INT1] for _, member in family_sweep(Family(BIPARTITE, m), (INT1,), {})]
    pair_count = math.comb(len(oracles), 2)
    best = min(itertools.starmap(d_int, itertools.combinations(oracles, 2)))
    if best < HALF:
        raise ScmLabError(
            f"minimum pairwise d_int {best} fell below 1/2; oracle or family bug"
        )
    return SeparationCheck(m, pair_count, best, epsilon, 2 * epsilon < best)
