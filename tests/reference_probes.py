"""Reference probes: `prob_bit`, `marginal`, `agreement`, `tv` and `==` in
Fractions.

These are the probes `scmlab` used before they read each distribution's
integer view: each one walks `mass`, a dict of Fractions, and sums in
Fraction arithmetic. They are kept as the reference the integer probes
are checked against: the same values, and the same errors.
"""

from fractions import Fraction

from scmlab import ExactDist
from scmlab.errors import BadPositionError, LengthMismatchError

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
