"""Answer oracles: compute, serialize canonically, parse, and compare.

An oracle is the complete exact answer set for one query class:

* OBS: the observational joint.
* INT1: OBS plus the joint under do(X_i=b) for every variable and bit.
* CF1: for every variable, the joint law of (factual, do(X_i=0) world,
  do(X_i=1) world) over shared noise, one 3n-bit distribution each.
* INT_ALL: the joint under every one of the 3^n hard interventions,
  empty set included, so OBS is literally a component.

Serialization is canonical: one byte string per oracle, equal bytes iff
equal oracles. The grammar (golden-tested) is

    <KIND> n=<n>
    #<component key>
    <bits>=<num>/<den>
    ...

with component keys "obs", "do i=<i> b=<b>", "cf i=<i>", or
"do S=<comma list> x=<bits>", mass lines sorted ascending by bit string,
fractions in lowest terms with an explicit denominator, LF endings, one
trailing LF, ASCII throughout. parse() is strict and rejects anything
non-canonical, so serialize(parse(b)) == b.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .caps import all_caps
from .errors import (
    BadPositionError,
    KindMismatchError,
    LengthMismatchError,
    OracleFormatError,
)
from .families import Family
from .rational import ZERO, frac_parse, frac_str
from .scm_core import (
    ExactDist,
    Intervention,
    Scm,
    all_interventions,
    cf1,
    int1,
    int_all,
    observational,
)

OBS = "OBS"
INT1 = "INT1"
CF1 = "CF1"
INT_ALL = "INT_ALL"
KINDS = (OBS, INT1, CF1, INT_ALL)


@dataclass(frozen=True)
class AnswerOracle:
    """Ordered (component key, distribution) pairs for one query class."""

    kind: str
    n: int
    components: tuple[tuple[str, ExactDist], ...]

    def component(self, key: str) -> ExactDist:
        for k, dist in self.components:
            if k == key:
                return dist
        raise KeyError(key)


def intervention_key(iv: Intervention) -> str:
    """Canonical INT_ALL component key, e.g. "do S=0,2 x=10" or "do S= x="."""
    targets = ",".join([str(v) for v, _ in iv.assignments])
    bits = "".join(["1" if b else "0" for _, b in iv.assignments])
    return f"do S={targets} x={bits}"


def _expected_keys(kind: str, n: int):
    """Yield the exact component-key sequence the grammar demands."""
    if kind == OBS:
        yield "obs"
    elif kind == INT1:
        yield "obs"
        for i in range(n):
            for b in (0, 1):
                yield f"do i={i} b={b}"
    elif kind == CF1:
        for i in range(n):
            yield f"cf i={i}"
    elif kind == INT_ALL:
        for iv in all_interventions(n):
            yield intervention_key(iv)
    else:
        raise KindMismatchError(f"unknown oracle kind {kind!r}")


def component_bits(kind: str, n: int) -> int:
    """Outcome length of each component distribution."""
    if kind not in KINDS:
        raise KindMismatchError(f"unknown oracle kind {kind!r}")
    return 3 * n if kind == CF1 else n


def compute_oracle(
    scm: Scm,
    kind: str,
    support_cap: int | None = None,
    n_cap: int | None = None,
) -> AnswerOracle:
    """Compute the full exact oracle of `scm` for one query class."""
    if kind == OBS:
        components = [("obs", observational(scm, support_cap))]
    elif kind == INT1:
        (_, obs), *single = int1(scm, support_cap)
        components = [("obs", obs)]
        for iv, dist in single:
            ((v, b),) = iv.assignments
            components.append((f"do i={v} b={b}", dist))
    elif kind == CF1:
        components = [
            (f"cf i={i}", dist) for i, dist in enumerate(cf1(scm, support_cap))
        ]
    elif kind == INT_ALL:
        components = [
            (intervention_key(iv), dist)
            for iv, dist in int_all(scm, n_cap, support_cap)
        ]
    else:
        raise KindMismatchError(f"unknown oracle kind {kind!r}")
    return AnswerOracle(kind, scm.n, tuple(components))


def oracle_index(family: Family, kind: str) -> tuple[bytes, ...]:
    """Serialized `kind` oracle of every member of `family`, in
    `family.parameters()` order; equal oracles share one bytes object.

    The one place family oracles are computed for grouping. INT_ALL
    indexes (3^n components per oracle; seconds for xor m=4) are memoized
    per snapshot of the active caps, so a lowered cap refuses a cached
    family just as it refuses a new one. The other kinds cost a fraction
    of a second per family and are computed on every call, so no call's
    cost depends on which calls came before it.
    """
    if kind == INT_ALL:
        return _cached_index(family, kind, tuple(all_caps().items()))
    return _index(family, kind)


@lru_cache(maxsize=16)
def _cached_index(family: Family, kind: str, caps) -> tuple[bytes, ...]:
    return _index(family, kind)


def _index(family: Family, kind: str) -> tuple[bytes, ...]:
    shared: dict[bytes, bytes] = {}
    oracles = (
        serialize(compute_oracle(family.build(param), kind))
        for param in family.parameters()
    )
    return tuple(shared.setdefault(data, data) for data in oracles)


def serialize(oracle: AnswerOracle) -> bytes:
    """Canonical bytes; equal oracles give equal bytes and vice versa."""
    lines = [f"{oracle.kind} n={oracle.n}"]
    for key, dist in oracle.components:
        lines.append(f"#{key}")
        for outcome in sorted(dist.mass):
            lines.append(f"{outcome}={frac_str(dist.mass[outcome])}")
    return ("\n".join(lines) + "\n").encode("ascii")


_HEADER_RE = re.compile(r"(OBS|INT1|CF1|INT_ALL) n=(0|[1-9][0-9]*)")
# no leading zeros and no zero mass, so each line has one spelling
_MASS_RE = re.compile(r"([01]+)=([1-9][0-9]*/[1-9][0-9]*)")


def parse(data: bytes) -> AnswerOracle:
    """Strict inverse of serialize; raises OracleFormatError on anything
    that is not the canonical encoding of some oracle.

    Every mass is checked in integers: lowest terms once per distinct
    fraction text, and each component's sum against 1 as one running sum
    over the lcm of its denominators. The distributions are then built
    without re-validation.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise OracleFormatError(f"not ASCII: {exc}") from None
    if not text.endswith("\n"):
        raise OracleFormatError("missing trailing newline")
    header_lines, *blocks = text[:-1].split("\n#")
    header_line, *stray = header_lines.split("\n")
    header = _HEADER_RE.fullmatch(header_line)
    if not header:
        raise OracleFormatError(f"bad header line {header_line!r}")
    if stray:
        raise OracleFormatError(f"mass line {stray[0]!r} before any component header")
    kind, n = header.group(1), int(header.group(2))
    n_bits = component_bits(kind, n)
    expected = _expected_keys(kind, n)
    mass_line = _MASS_RE.fullmatch
    fractions: dict[str, Fraction] = {}
    components = []
    for block in blocks:
        key, *lines = block.split("\n")
        want = next(expected, None)
        if key != want:
            raise OracleFormatError(f"component key {key!r} where {want!r} was expected")
        mass: dict[str, Fraction] = {}
        previous = ""
        total_num, total_den = 0, 1
        for line in lines:
            match = mass_line(line)
            if not match:
                raise OracleFormatError(f"bad mass line {line!r}")
            outcome, frac_text = match.groups()
            if len(outcome) != n_bits:
                raise OracleFormatError(
                    f"outcome {outcome!r} has length {len(outcome)}, expected {n_bits}"
                )
            if not previous < outcome:
                raise OracleFormatError(
                    f"outcome {outcome!r} out of order after {previous!r}"
                )
            previous = outcome
            weight = fractions.get(frac_text)
            if weight is None:
                weight = fractions[frac_text] = frac_parse(frac_text)
            mass[outcome] = weight
            den = weight.denominator
            if den != total_den:
                common = math.lcm(total_den, den)
                total_num *= common // total_den
                total_den = common
            total_num += weight.numerator * (total_den // den)
        if total_num != total_den:
            raise OracleFormatError(
                f"component {key!r}: masses sum to "
                f"{Fraction(total_num, total_den)}, expected 1"
            )
        components.append((key, ExactDist._trusted(n_bits, mass)))
    leftover = next(expected, None)
    if leftover is not None:
        raise OracleFormatError(f"missing component {leftover!r}")
    return AnswerOracle(kind, n, tuple(components))


def extract_obs(oracle: AnswerOracle) -> AnswerOracle:
    """Project an INT1 oracle onto its observational component."""
    if oracle.kind != INT1:
        raise KindMismatchError(f"can only extract OBS from INT1, got {oracle.kind}")
    key, dist = oracle.components[0]
    if key != "obs":
        raise OracleFormatError(f"first INT1 component is {key!r}, not 'obs'")
    return AnswerOracle(OBS, oracle.n, ((key, dist),))


def tv(p: ExactDist, q: ExactDist) -> Fraction:
    """Exact total variation distance between two same-length distributions."""
    if p.n_bits != q.n_bits:
        raise LengthMismatchError(
            f"cannot compare {p.n_bits}-bit and {q.n_bits}-bit distributions"
        )
    total = ZERO
    for outcome in p.mass.keys() | q.mass.keys():
        total += abs(p.p(outcome) - q.p(outcome))
    return total / 2


def d_int(a: AnswerOracle, b: AnswerOracle) -> Fraction:
    """Interventional distance: max TV over matching INT1 components."""
    if a.kind != INT1 or b.kind != INT1:
        raise KindMismatchError(f"d_int needs INT1 oracles, got {a.kind} and {b.kind}")
    if a.n != b.n:
        raise LengthMismatchError(f"oracle sizes differ: {a.n} vs {b.n}")
    if len(a.components) != len(b.components):
        raise LengthMismatchError(
            f"component counts differ: {len(a.components)} vs {len(b.components)}"
        )
    best = ZERO
    for (key_a, dist_a), (key_b, dist_b) in zip(a.components, b.components):
        if key_a != key_b:
            raise OracleFormatError(f"component keys diverge: {key_a!r} vs {key_b!r}")
        best = max(best, tv(dist_a, dist_b))
    return best


def marginal(dist: ExactDist, positions) -> ExactDist:
    """Exact marginal onto `positions`, keeping the given order."""
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
