"""Reference codec: the plain per-line serialize and parse.

This is the codec `scmlab.oracle` used before it rendered each distinct
mass once and validated mass lines a component block at a time. It is
kept as the reference the fast codec is checked against: same bytes out,
and the same verdict (accept with equal components, or reject with
OracleFormatError) on every input.
"""

import math
import re
from fractions import Fraction

from scmlab import AnswerOracle, ExactDist, all_interventions
from scmlab.errors import KindMismatchError, OracleFormatError
from scmlab.oracle import CF1, INT1, INT_ALL, OBS, component_bits, intervention_key
from scmlab.rational import frac_parse, frac_str


def serialize(oracle: AnswerOracle) -> bytes:
    lines = [f"{oracle.kind} n={oracle.n}"]
    for key, dist in oracle.components:
        lines.append(f"#{key}")
        for outcome in sorted(dist.mass):
            lines.append(f"{outcome}={frac_str(dist.mass[outcome])}")
    return ("\n".join(lines) + "\n").encode("ascii")


_HEADER_RE = re.compile(r"(OBS|INT1|CF1|INT_ALL) n=(0|[1-9][0-9]*)")
# the outcome is empty only in an oracle of n=0
_MASS_RE = re.compile(r"([01]*)=([1-9][0-9]*/[1-9][0-9]*)")


def _expected_keys(kind: str, n: int):
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


def parse(data: bytes) -> AnswerOracle:
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
            match = _MASS_RE.fullmatch(line)
            if not match:
                raise OracleFormatError(f"bad mass line {line!r}")
            outcome, frac_text = match.groups()
            if len(outcome) != n_bits:
                raise OracleFormatError(
                    f"outcome {outcome!r} has length {len(outcome)}, expected {n_bits}"
                )
            # the first line has nothing to follow; "" < "" fails at n=0
            if mass and not previous < outcome:
                raise OracleFormatError(
                    f"outcome {outcome!r} out of order after {previous!r}"
                )
            previous = outcome
            weight = frac_parse(frac_text)
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
        components.append((key, ExactDist(n_bits, mass)))
    leftover = next(expected, None)
    if leftover is not None:
        raise OracleFormatError(f"missing component {leftover!r}")
    return AnswerOracle(kind, n, tuple(components))
