"""Reference probes: `prob_bit`, `marginal`, `agreement`, `tv` and `==` in
Fractions, and the INT1 decoder probes built on that `prob_bit`.

These are the probes `scmlab` used before they read each distribution's
integer view: each one walks `mass`, a dict of Fractions, and sums in
Fraction arithmetic. They are kept as the reference the integer probes
are checked against: the same values, and the same errors.
`descendants_from_int1` and `graph_probe` read one `prob_bit` per
(intervened, probed) pair, as the decoders did before they read each
do() component's zero weights in one walk.
"""

from fractions import Fraction

from scmlab import ExactDist
from scmlab.errors import (
    BadPositionError,
    LengthMismatchError,
    NotBipartiteLikeError,
    NotTreeLikeError,
)
from scmlab.families import BipartiteGraph

ZERO = Fraction(0)


def prob_bit(dist: ExactDist, position: int, bit: int) -> Fraction:
    if not 0 <= position < dist.n_bits:
        raise BadPositionError(f"position {position} outside [0, {dist.n_bits})")
    want = "1" if bit else "0"
    return sum((w for k, w in dist.mass.items() if k[position] == want), ZERO)


def marginal(dist: ExactDist, positions) -> ExactDist:
    positions = tuple(int(p) for p in positions)
    for p in positions:
        if not 0 <= p < dist.n_bits:
            raise BadPositionError(f"position {p} outside [0, {dist.n_bits})")
    acc: dict[str, Fraction] = {}
    for outcome, weight in dist.mass.items():
        key = "".join(outcome[p] for p in positions)
        if key in acc:
            acc[key] += weight
        else:
            acc[key] = weight
    return ExactDist(len(positions), acc)


def agreement(dist: ExactDist, i: int, j: int) -> Fraction:
    """The CF1 decoder's sum: the mass where positions i and j agree."""
    for p in (i, j):
        if not 0 <= p < dist.n_bits:
            raise BadPositionError(f"position {p} outside [0, {dist.n_bits})")
    return sum((w for k, w in dist.mass.items() if k[i] == k[j]), ZERO)


def tv(p: ExactDist, q: ExactDist) -> Fraction:
    if p.n_bits != q.n_bits:
        raise LengthMismatchError(
            f"cannot compare {p.n_bits}-bit and {q.n_bits}-bit distributions"
        )
    total = ZERO
    for outcome in p.mass.keys() | q.mass.keys():
        total += abs(p.p(outcome) - q.p(outcome))
    return total / 2


def equal(p: ExactDist, q: ExactDist) -> bool:
    """The dataclass `==`: same class, then (n_bits, mass) as a tuple."""
    return p.__class__ is q.__class__ and (p.n_bits, p.mass) == (q.n_bits, q.mass)


def descendants_from_int1(oracle) -> dict[int, frozenset[int]]:
    """Node i -> the nodes that do(X_i=0) pins to 0 with probability 1."""
    n = oracle.n
    sets = {}
    for i in range(1, n + 1):
        dist = oracle.component(f"do i={i - 1} b=0")
        members = set()
        for j in range(1, n + 1):
            p_zero = prob_bit(dist, j - 1, 0)
            if p_zero == 1:
                members.add(j)
            elif p_zero != Fraction(1, 2):
                raise NotTreeLikeError(
                    f"do(X_{i}=0) gives P(X_{j}=0) = {p_zero}, expected 1 or 1/2"
                )
        sets[i] = frozenset(members)
    return sets


def graph_probe(oracle) -> BipartiteGraph:
    n = oracle.n
    if n < 3 or n % 2 == 0:
        raise NotBipartiteLikeError(f"n={n} is not 2m+1 for any m >= 1")
    m = (n - 1) // 2
    edges = set()
    for i in range(m):
        dist = oracle.component(f"do i={1 + i} b=0")
        for j in range(m):
            p_zero = prob_bit(dist, 1 + m + j, 0)
            if p_zero == 1:
                edges.add((i, j))
            elif p_zero != Fraction(1, 2):
                raise NotBipartiteLikeError(
                    f"do(a_{i}=0) gives P(b_{j}=0) = {p_zero}, expected 1 or 1/2"
                )
    return BipartiteGraph(m, frozenset(edges))
