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
"do S=<comma list> x=<bits>", mass lines sorted ascending by bit string
(empty for a model with no variables), fractions in lowest terms with an
explicit denominator, LF endings, one trailing LF, ASCII throughout.
parse() is strict and rejects anything non-canonical, so
serialize(parse(b)) == b.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import lt
from typing import NoReturn

from .caps import snapshot, work_text
from .errors import (
    BadPositionError,
    KindMismatchError,
    LengthMismatchError,
    OracleFormatError,
)
from .rational import ZERO
from .scm_core import (
    ExactDist,
    Intervention,
    Scm,
    _dist,
    _fraction,
    int_all_laws,
    intervention_code,
    kernel_laws,
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


def _build_int_all_table(n: int) -> tuple[tuple[int, str], ...]:
    """The (`intervention_code`, `intervention_key`) pair of each of the
    3^n INT_ALL components on n variables, in `all_interventions` order,
    built without Intervention objects: the INT_ALL `_layout`. Each target
    set is walked beside its variables' places 3^(n-1-v), and its part of
    the key and its block of codes are built once."""
    places = [3 ** (n - 1 - v) for v in range(n)]
    codes: list[int] = []
    keys: list[str] = []
    for k in range(n + 1):
        subsets = zip(itertools.combinations(range(n), k), itertools.combinations(places, k))
        for subset, subset_places in subsets:
            block = [sum(subset_places)]  # every target forced to 0
            for place in subset_places:
                block = [c + b for c in block for b in (0, place)]
            codes += block
            head = f"do S={','.join(map(str, subset))} x="
            keys += [head + "".join(bits) for bits in itertools.product("01", repeat=k)]
    return tuple(zip(codes, keys))


# A table holds about 190 bytes of RSS per component: 10 MiB at n=10, 32
# MiB at n=11 and 99 MiB at n=12, the default INT_ALL cap. Tables up to
# n=10 are cached, about 15 MiB at most; a larger one is built per call,
# in under a second against seconds to compute that oracle, and is freed
# with it.
_TABLE_CACHE_NMAX = 10
_table_cache = lru_cache(maxsize=4)(_build_int_all_table)


def _int_all_table(n: int) -> tuple[tuple[int, str], ...]:
    if n > _TABLE_CACHE_NMAX:
        return _build_int_all_table(n)
    return _table_cache(n)


def _layout(kind: str, n: int):
    """The (law key, component key) pair of each component of a `kind`
    oracle on n variables, in order. The law key indexes what the kernel
    returns for the kind: the `intervention_code` for OBS, INT1 and
    INT_ALL, the variable for CF1. `compute_oracle` reads the laws through
    the layout and `parse` walks its keys."""
    if kind == INT_ALL:
        return _int_all_table(n)
    return _small_layout(kind, n)


@lru_cache(maxsize=32)
def _small_layout(kind: str, n: int) -> tuple[tuple, ...]:
    """The OBS, INT1 or CF1 `_layout`, kept per (kind, n): a family sweep
    reads the same one for each of its thousands of small oracles."""
    if kind == CF1:
        return tuple([(i, f"cf i={i}") for i in range(n)])
    obs = ((0, "obs"),)
    if kind == OBS:
        return obs
    return obs + tuple([
        (intervention_code(n, ((i, b),)), f"do i={i} b={b}") for i in range(n) for b in (0, 1)
    ])


def _component_keys(kind: str, n: int, count: int):
    """The component keys of a `kind` oracle on n variables, in order.

    The input's component count is checked against the kind's (1, 2n+1, n
    or 3^n) before any key is built, so a header n that the input's size
    cannot back builds nothing.
    """
    if kind == INT_ALL:
        # 3^n >= 2^n, so a count of at most n bits rules n out before 3**n
        # is computed
        fits = n < count.bit_length() and 3**n == count
        want = work_text({3: n})
    else:
        want = {OBS: 1, INT1: 2 * n + 1, CF1: n}[kind]
        fits = count == want
    if not fits:
        raise OracleFormatError(f"{kind} n={n}: {count} components, expected {want}")
    return (key for _, key in _layout(kind, n))


def component_bits(kind: str, n: int) -> int:
    """Outcome length of each component distribution."""
    if kind not in KINDS:
        raise KindMismatchError(f"unknown oracle kind {kind!r}")
    return 3 * n if kind == CF1 else n


def compute_oracle(scm: Scm, kind: str) -> AnswerOracle:
    """Compute the full exact oracle of `scm` for one query class."""
    if kind == INT_ALL:
        return _assemble(INT_ALL, scm.n, int_all_laws(scm))
    return _member_oracles(scm, (kind,))[kind]


def _member_oracles(scm: Scm, kinds) -> dict[str, AnswerOracle]:
    """The oracle of `scm` for each of `kinds` (OBS, INT1 or CF1), from one
    compiled plan.

    OBS and INT1 come from one trie pass, whose budget is 1 if INT1 is
    asked for, else 0; OBS is its law at code 0. CF1's parallel-worlds
    pass reads the same plan.
    """
    for kind in kinds:
        if kind not in (OBS, INT1, CF1):
            raise KindMismatchError(f"unknown oracle kind {kind!r}")
    budget = 1 if INT1 in kinds else 0 if OBS in kinds else None
    laws, triples = kernel_laws(scm, budget, CF1 in kinds)
    return {
        kind: _assemble(kind, scm.n, triples if kind == CF1 else laws)
        for kind in kinds
    }


def _assemble(kind: str, n: int, laws) -> AnswerOracle:
    """The `kind` oracle whose component at each layout slot is laws[law]."""
    return AnswerOracle(kind, n, tuple([(key, laws[law]) for law, key in _layout(kind, n)]))


def oracle_index(family, kind: str) -> tuple[bytes, ...]:
    """Serialized `kind` oracle of every member of `family` (a
    `catalog.Family`), in `family.parameters()` order; equal oracles share
    one bytes object. `oracle_indexes` with one kind."""
    return oracle_indexes(family, (kind,))[kind]


def oracle_indexes(family, kinds) -> dict[str, tuple[bytes, ...]]:
    """`oracle_index` of `family` for each of `kinds`: the one place family
    oracles are computed for grouping.

    INT_ALL comes first, from its own index: 3^n components per oracle,
    seconds for xor m=4, so it is memoized per snapshot of the active
    caps, and a lowered cap refuses a cached family just as it refuses a
    new one. The other kinds are collected from one `family_sweep`,
    computed on every call, so no call reads an oracle an earlier call
    computed. Earlier calls still make a call cheaper through the bounded
    memos below the oracles (each mechanism's compiled steps, the kernel's
    mass lines, mass-text Fractions), which change no result.
    """
    kinds = tuple(dict.fromkeys(kinds))
    index = {}
    if INT_ALL in kinds:
        index[INT_ALL] = _cached_index(family, snapshot())
    swept = tuple([kind for kind in kinds if kind != INT_ALL])
    if swept:
        columns: list[list[bytes]] = [[] for _ in swept]
        for _, _, data in family_sweep(family, swept):
            for column, kind in zip(columns, swept):
                column.append(data[kind])
        index.update(zip(swept, map(tuple, columns)))
    return index


def family_sweep(family, kinds):
    """Yield (param, oracles, data) for each member of `family`, in
    `family.parameters()` order: its oracle and its serialized oracle for
    each of `kinds` (OBS, INT1 or CF1), both keyed by kind. One build,
    one compiled plan and one kernel pass per member serve all the kinds
    (`_member_oracles`), and equal bytes across the sweep share one bytes
    object."""
    shared: dict[bytes, bytes] = {}
    for param in family.parameters():
        oracles = _member_oracles(family.build(param), kinds)
        data = {}
        for kind in kinds:
            text = serialize(oracles[kind])
            data[kind] = shared.setdefault(text, text)
        yield param, oracles, data


@lru_cache(maxsize=16)
def _cached_index(family, caps) -> tuple[bytes, ...]:
    """The INT_ALL index of `family` under the caps snapshot `caps`."""
    shared: dict[bytes, bytes] = {}
    oracles = (
        serialize(compute_oracle(family.build(param), INT_ALL))
        for param in family.parameters()
    )
    return tuple(shared.setdefault(data, data) for data in oracles)


def serialize(oracle: AnswerOracle) -> bytes:
    """Canonical bytes; equal oracles give equal bytes and vice versa.

    Each component contributes its canonical body (`ExactDist._text`):
    the kernel and `parse` hand it over rendered, and a dist built from
    masses renders it through `rational.mass_line`.
    """
    parts = [f"{oracle.kind} n={oracle.n}"]
    append = parts.append
    for key, dist in oracle.components:
        append(f"\n#{key}\n")
        append(dist._text())
    append("\n")
    return "".join(parts).encode("ascii")


_HEADER_RE = re.compile(r"(OBS|INT1|CF1|INT_ALL) n=(0|[1-9][0-9]*)")
# no leading zeros and no zero mass, so each line has one spelling; the
# outcome is empty only in an oracle of n=0
_MASS = "[1-9][0-9]*/[1-9][0-9]*"
_MASS_RE = re.compile(f"([01]*)=({_MASS})")


@lru_cache(maxsize=32)
def _block_res(n_bits: int) -> tuple[re.Pattern, re.Pattern]:
    """Two patterns of one or more mass lines of width `n_bits`, joined by
    LF: lines that all repeat the first line's mass text, its one group,
    and lines of any masses."""
    outcome = f"[01]{{{n_bits}}}="
    line = outcome + _MASS
    return (re.compile(f"{outcome}({_MASS})(?:\n{outcome}\\1)*"),
            re.compile(f"{line}(?:\n{line})*"))


class _Bodies(dict):
    """Each component body `parse` has checked, mapped to the ExactDist it
    built from that text. Whether a body is valid depends only on its text
    and the oracle's outcome width, and a valid body's outcomes fix that
    width, so a dist is served only at the width it was checked at; a
    rejected body is never stored. A served dist keeps the integer view
    and `mass` a probe or a read built on it.

    The memo holds at most _BODIES_MAX characters of body text; the body
    past that drops them all, and a longer body is not kept."""

    __slots__ = ("held",)

    def __init__(self):
        super().__init__()
        self.held = 0  # characters of the bodies held

    def clear(self) -> None:
        super().clear()
        self.held = 0

    def remember(self, body: str, dist: ExactDist) -> None:
        size = len(body)
        if self.held + size > _BODIES_MAX:
            self.clear()
            if size > _BODIES_MAX:
                return
        self[body] = dist
        self.held += size


_BODIES_MAX = 1 << 16
_BODIES = _Bodies()


def parse(data: bytes) -> AnswerOracle:
    """Strict inverse of serialize; raises OracleFormatError on anything
    that is not the canonical encoding of some oracle.

    The component count is checked against the header before any key is
    built. Each component's mass lines are checked as one block by a regex
    for the oracle's outcome width. A uniform body, whose lines all repeat
    one mass text, matches a regex that requires it; its lines have one
    length and one suffix, so whole lines order as their outcomes do and
    are checked strictly ascending as they stand, and its sum is that
    mass times the line count. Any other body, or a uniform one out of
    order, goes through the general checks: strictly ascending outcomes,
    then masses in integers, lowest terms once per distinct fraction text
    and the sum against 1 over the distinct texts weighted by their
    counts. Only a block that fails is scanned line by line, so the error
    names the offending line; a uniform body that fails its sum gets the
    error the general checks give. A body that repeats an earlier one
    passed the same checks, and its components share one distribution.
    Each checked body becomes its distribution's canonical body as it is;
    the dist holds nothing else until a probe or a read of `mass` needs it.

    Checked bodies outlive the call in a process-wide memo (`_Bodies`, at
    most 65,536 characters of text), which serves a later body of the same
    text at the same outcome width its dist without any check, with the
    integer view or `mass` a probe or read has built on it. Validity
    depends on nothing else, so every input is accepted or rejected, with
    the same error text, as under an empty memo. A round of the sweep
    benchmark parses 14,603 components in its decode requests, 108
    distinct bodies of 15,796 characters in all, so all but 108 are
    served; intall's INT_ALL oracles share few bodies, and mostly miss.
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
    keys = _component_keys(kind, n, len(blocks))
    # an outcome wider than the whole input fits no line, so capping the
    # width keeps the regexes small under a huge header n
    uniform_re, block_re = _block_res(min(n_bits, len(text)))
    uniform_match, block_match = uniform_re.fullmatch, block_re.fullmatch
    # components repeat bodies, and a few dozen sequences of mass texts or
    # (text, count) pairs of uniform bodies, so each is checked once;
    # components with equal bodies share one dist
    dists: dict[str, ExactDist] = {}
    checked: set[tuple] = set()
    components = []
    for block, want in zip(blocks, keys):
        key, _, body = block.partition("\n")
        if key != want:
            raise OracleFormatError(f"component key {key!r} where {want!r} was expected")
        dist = dists.get(body)
        if dist is None:
            dist = _BODIES.get(body)
            if dist is None or dist.n_bits != n_bits:
                uniform = uniform_match(body)
                lines = body.split("\n") if uniform else ()
                if uniform and all(map(lt, lines, lines[1:])):
                    copies = (uniform[1], len(lines))  # one mass text, on every line
                    if copies not in checked:
                        _check_masses(key, (copies,))
                        checked.add(copies)
                else:
                    if not block_match(body):
                        _reject_lines(key, block.split("\n")[1:], n_bits)
                    cells = body.replace("\n", "=").split("=")
                    outcomes = cells[::2]
                    if not all(map(lt, outcomes, outcomes[1:])):
                        _reject_lines(key, block.split("\n")[1:], n_bits)
                    mass_texts = tuple(cells[1::2])
                    if mass_texts not in checked:
                        _check_masses(key, Counter(mass_texts).items())
                        checked.add(mass_texts)
                dist = ExactDist._from_body(n_bits, body)
                _BODIES.remember(body, dist)
            dists[body] = dist
        components.append((key, dist))
    return AnswerOracle(kind, n, tuple(components))


def _check_masses(key: str, counts) -> None:
    """Check one component's fraction texts in integers, given as (text,
    count) pairs of distinct texts: lowest terms once per text (read
    through the memo `mass` reads, `scm_core._fraction`), and their sum
    against 1 weighted by their counts."""
    total_num, total_den = 0, 1
    for frac_text, count in counts:
        weight = _fraction(frac_text)
        den = weight.denominator
        if den != total_den:
            common = math.lcm(total_den, den)
            total_num *= common // total_den
            total_den = common
        total_num += count * weight.numerator * (total_den // den)
    if total_num != total_den:
        raise OracleFormatError(
            f"component {key!r}: masses sum to "
            f"{Fraction(total_num, total_den)}, expected 1"
        )


def _reject_lines(key: str, lines: list[str], n_bits: int) -> NoReturn:
    """Raise the error of the first mass line that breaks the grammar."""
    previous = None
    for line in lines:
        match = _MASS_RE.fullmatch(line)
        if not match:
            raise OracleFormatError(f"bad mass line {line!r}")
        outcome = match.group(1)
        if len(outcome) != n_bits:
            raise OracleFormatError(
                f"outcome {outcome!r} has length {len(outcome)}, expected {n_bits}"
            )
        if previous is not None and not previous < outcome:
            raise OracleFormatError(f"outcome {outcome!r} out of order after {previous!r}")
        previous = outcome
    raise OracleFormatError(f"component {key!r} has no mass lines")


def extract_obs(oracle: AnswerOracle) -> AnswerOracle:
    """Project an INT1 oracle onto its observational component."""
    if oracle.kind != INT1:
        raise KindMismatchError(f"can only extract OBS from INT1, got {oracle.kind}")
    key, dist = oracle.components[0]
    if key != "obs":
        raise OracleFormatError(f"first INT1 component is {key!r}, not 'obs'")
    return AnswerOracle(OBS, oracle.n, ((key, dist),))


def tv(p: ExactDist, q: ExactDist) -> Fraction:
    """Exact total variation distance between two same-length
    distributions, summed in integers over the two integer views."""
    if p.n_bits != q.n_bits:
        raise LengthMismatchError(
            f"cannot compare {p.n_bits}-bit and {q.n_bits}-bit distributions"
        )
    p_states, p_weights, p_den = p._int_view()
    q_states, q_weights, q_den = q._int_view()
    # each mass over the common denominator p_den * q_den
    diff = dict(zip(p_states, [w * q_den for w in p_weights]))
    for state, w in zip(q_states, q_weights):
        diff[state] = diff.get(state, 0) - w * p_den
    return Fraction(sum(map(abs, diff.values())), 2 * p_den * q_den)


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
    """Exact marginal onto `positions`, keeping the given order, summed in
    integers over the dist's integer view, each position's bit moved to its
    place in the key; the result carries its body and keys, as a leaf does."""
    positions = tuple(int(p) for p in positions)
    for p in positions:
        if not 0 <= p < dist.n_bits:
            raise BadPositionError(f"position {p} outside [0, {dist.n_bits})")
    moves = [(dist.n_bits - 1 - p, len(positions) - 1 - k) for k, p in enumerate(positions)]
    states, weights, den = dist._int_view()
    acc: dict[int, int] = {}
    for state, w in zip(states, weights):
        key = sum([(state >> source & 1) << target for source, target in moves])
        acc[key] = acc.get(key, 0) + w
    return _dist(True, len(positions), list(acc), list(acc.values()), den, True)


def agreement(dist: ExactDist, i: int, j: int) -> Fraction:
    """Exact probability that positions `i` and `j` of `dist` hold the same
    bit, summed in integers over the dist's integer view."""
    for p in (i, j):
        if not 0 <= p < dist.n_bits:
            raise BadPositionError(f"position {p} outside [0, {dist.n_bits})")
    i, j = dist.n_bits - 1 - i, dist.n_bits - 1 - j  # the positions' bits in a state
    states, weights, den = dist._int_view()
    return Fraction(sum([w for s, w in zip(states, weights) if not (s >> i ^ s >> j) & 1]), den)


def zero_weights(dist: ExactDist) -> tuple[list[int], int]:
    """(zeros, den): zeros[p] / den is the exact probability that position
    p of `dist` holds 0, den less the weight of p's ones, every position
    from one walk of the set bits of the dist's integer view."""
    states, weights, den = dist._int_view()
    ones = [0] * dist.n_bits
    for state, w in zip(states, weights):
        while state:  # position p is bit n_bits-1-p, so ones[-(bit + 1)]
            ones[-(state & -state).bit_length()] += w
            state &= state - 1
    return [den - k for k in ones], den


def blocks_match(dist: ExactDist, laws) -> bool:
    """Whether the marginal of `dist` on each block of its positions is the
    matching law of `laws`: the blocks lie left to right from position 0,
    each as wide as its law, so `blocks_match(triple, (p, q))` is
    `marginal(triple, range(k)) == p and marginal(triple, range(k, k + l))
    == q` for k-bit p and l-bit q.

    One walk of the dist's integer view per block sums its shifted and
    masked states, compared with its law's view: the same support, and at
    each state acc * law_den == weight * den. Nothing is rendered.
    """
    bounds = list(itertools.accumulate([law.n_bits for law in laws], initial=0))
    if bounds[-1] > dist.n_bits:
        raise BadPositionError(f"position {bounds[-1] - 1} outside [0, {dist.n_bits})")
    states, weights, den = dist._int_view()
    for start, stop, law in zip(bounds, bounds[1:], laws):
        shift, mask = dist.n_bits - stop, (1 << (stop - start)) - 1
        acc: dict[int, int] = {}
        for state, w in zip(states, weights):
            key = state >> shift & mask
            acc[key] = acc.get(key, 0) + w
        law_states, law_weights, law_den = law._int_view()
        if len(acc) != len(law_states):
            return False
        for state, w in zip(law_states, law_weights):
            if acc.get(state, 0) * law_den != w * den:
                return False
    return True
