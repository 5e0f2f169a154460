"""Answer oracles: compute, serialize canonically, parse, and compare.

An oracle is the complete exact answer set for one query class:

* OBS: the observational joint.
* INT1: OBS plus the joint under do(X_i=b) for every variable and bit.
* CF1: for every variable, the joint law of (factual, do(X_i=0) world,
  do(X_i=1) world) over shared noise, one 3n-bit distribution each.
* INT_ALL: the joint under every one of the 3^n hard interventions,
  empty set included, so OBS is literally a component.

Every oracle of every kind is computed in one place, `_member_oracles`:
`compute_oracle`, the family sweep and the decoders' rebuild check all
call it. Each component sits at the slot its kind's layout (`_layout`)
gives it, one memo of layouts serving every kind. A family's column of
any kind holds each member's tuple of component bodies, equal texts
shared. One walk, `family_sweep`, owns the columns: it reads each held
one from the family column memo, sweeps and keeps the rest (INT_ALL's
first, alone), and yields each member's oracles to a caller that checks
them, as `verify_family` does. `family_columns` drains it for the gap
tables, and `oracle_index` writes a column's bytes.

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

import io
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
    KindMismatchError,
    LengthMismatchError,
    OracleFormatError,
)
from .rational import ZERO
from .scm_core import (
    ExactDist,
    Intervention,
    Scm,
    _Bounded,
    _dist,
    _fraction,
    int_all_laws,
    intervention_code,
    kernel_laws,
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


def _build_layout(kind: str, n: int) -> tuple[tuple, ...]:
    """The `_layout` of `kind` on n variables, built. INT_ALL's walks each
    target set beside its variables' places 3^(n-1-v), in
    `all_interventions` order without Intervention objects, and builds the
    set's part of the key and its block of codes once."""
    if kind == CF1:
        return tuple([(i, f"cf i={i}") for i in range(n)])
    if kind == OBS:
        return ((0, "obs"),)
    if kind == INT1:
        return ((0, "obs"), *[
            (intervention_code(n, ((i, b),)), f"do i={i} b={b}") for i in range(n) for b in (0, 1)
        ])
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


# the layouts by (kind, n), bounded in components between them. An INT_ALL
# layout holds about 190 bytes of RSS a component: 10 MiB at n=10, 32 MiB
# at n=11 and 99 MiB at n=12, the default INT_ALL cap. Every layout of
# n <= 10 together is 88,760 components (88,573 of them INT_ALL's), so all
# are kept; a table of n=11 (177,147) or more is built per call, in under a
# second against seconds to compute that oracle, and freed with it. A
# family sweep reads the same small layout for each of its thousands of
# oracles.
_LAYOUTS = _Bounded(1 << 17)


def _layout(kind: str, n: int) -> tuple[tuple, ...]:
    """The (law key, component key) pair of each component of a `kind`
    oracle on n variables, in order. The law key indexes what the kernel
    returns for the kind: the `intervention_code` for OBS, INT1 and
    INT_ALL, the variable for CF1. `_member_oracles` reads the laws
    through the layout and `parse` walks its keys. Every layout comes from
    one memo (`_LAYOUTS`), which returns a table above its bound without
    keeping it."""
    layout = _LAYOUTS.get((kind, n))
    if layout is None:
        layout = _build_layout(kind, n)
        _LAYOUTS.keep((kind, n), layout, len(layout))
    return layout


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


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise KindMismatchError(f"unknown oracle kind {kind!r}")


def component_bits(kind: str, n: int) -> int:
    """Outcome length of each component distribution."""
    _check_kind(kind)
    return 3 * n if kind == CF1 else n


def compute_oracle(scm: Scm, kind: str) -> AnswerOracle:
    """Compute the full exact oracle of `scm` for one query class."""
    return _member_oracles(scm, (kind,))[kind]


def _member_oracles(scm: Scm, kinds) -> dict[str, AnswerOracle]:
    """The oracle of `scm` for each of `kinds`: the one place an oracle of
    any kind is computed.

    INT_ALL comes first, from `int_all_laws`, so its caps refuse before
    any other pass. INT1 and CF1 are read off the model's one
    parallel-worlds pass (`kernel_laws`), which renders only the half
    asked for; OBS is INT1's law at code 0 when either is asked for, and
    `observational` alone otherwise. A call for INT_ALL alone runs
    neither of those.
    """
    for kind in kinds:
        _check_kind(kind)
    laws = {}
    if INT_ALL in kinds:
        laws[INT_ALL] = int_all_laws(scm)
    if INT1 in kinds or CF1 in kinds:
        laws[INT1], laws[CF1] = kernel_laws(scm, INT1 in kinds or OBS in kinds, CF1 in kinds)
        laws[OBS] = laws[INT1]
    elif OBS in kinds:
        laws[OBS] = {0: observational(scm)}
    return {kind: _assemble(kind, scm.n, laws[kind]) for kind in kinds}


def _assemble(kind: str, n: int, laws) -> AnswerOracle:
    """The `kind` oracle whose component at each layout slot is laws[law]."""
    return AnswerOracle(kind, n, tuple([(key, laws[law]) for law, key in _layout(kind, n)]))


def oracle_index(family, kind: str) -> tuple[bytes, ...]:
    """Serialized `kind` oracle of every member of `family` (a
    `catalog.Family`), in `family.parameters()` order: the bytes of each
    entry of its `family_columns` column, each distinct entry written once,
    so equal oracles share one bytes object."""
    column = family_columns(family, (kind,))[kind]
    n = family.n_vars()
    written = {entry: entry_bytes(kind, n, entry) for entry in set(column)}
    return tuple([written[entry] for entry in column])


def family_columns(family, kinds) -> dict[str, tuple]:
    """The column of `family` for each of `kinds`: one entry per member, in
    `family.parameters()` order, its oracle's tuple of component bodies,
    equal exactly when the oracles are. `family_sweep` drained, with no
    kind yielded."""
    columns = dict.fromkeys(kinds)
    list(family_sweep(family, (), columns))  # yields nothing
    return columns


# the family columns `family_sweep` swept (INT_ALL, OBS and INT1 for an xor
# verify; OBS and INT1 for a tree or bipartite verify or gap table, the gap
# table's rungs), by (family, kind, caps snapshot), bounded in bytes
# (`_column_bytes`): tree n=7's two columns count 16.0 MB (19.8 MiB live),
# bipartite m=4's 11.0 MB, and the INT_ALL columns of xor m=5 17.2 MB and
# bipartite m=3 9.0 MB, each kept; tree n=6's INT_ALL column, 45.4 MB, is
# returned but not kept. Only `family_sweep` reads or keeps them.
_COLUMNS = _Bounded(1 << 25)


def _column_bytes(column) -> int:
    """`_COLUMNS`'s size of `column`, of any kind: 8 B a member slot, 8 B a
    pointer of each distinct entry, and each distinct body text once."""
    entries = set(column)
    return 8 * len(column) + 8 * sum(map(len, entries)) + sum(map(len, set().union(*entries)))


def entry_bytes(kind: str, n: int, entry) -> bytes:
    """`serialize`'s bytes of the `kind` oracle on n variables of `entry`."""
    text = "".join([f"\n#{key}\n{body}" for (_, key), body in zip(_layout(kind, n), entry)])
    return f"{kind} n={n}{text}\n".encode("ascii")


def _bodies(oracle: AnswerOracle) -> tuple[str, ...]:
    """Each component's canonical body (`ExactDist._text`), in order: within
    one kind and n, equal exactly when the bytes are (no body holds "#")."""
    return tuple([dist._text() for _, dist in oracle.components])


def family_sweep(family, kinds, columns: dict):
    """Yield (param, oracles) for each member of `family`, in
    `family.parameters()` order, `oracles` holding its oracle of each of
    `kinds`. Only once the walk is drained does each key of `columns` hold
    that kind's column (see `family_columns`): read from `_COLUMNS` when
    held under the one `snapshot()` taken at the start, else swept and
    kept. A missing INT_ALL column is swept first, in a walk of its own
    that yields nothing, so its caps refuse before any other work and no
    member's INT_ALL oracle is held beside its worlds pass; every other
    missing column comes from the walk that serves `kinds`, and no member
    is walked when there is nothing to compute. Within a walk equal body
    texts share one str and equal entries one tuple, and each member's
    oracles are dropped before the next member's are computed."""
    caps = snapshot()
    for kind in columns:
        columns[kind] = _COLUMNS.get((family, kind, caps))
    missing = [kind for kind, column in columns.items() if column is None and kind != INT_ALL]
    walks = [((INT_ALL,), ())] if INT_ALL in columns and columns[INT_ALL] is None else []
    if kinds or missing:
        walks.append((missing, kinds))
    for swept, yielded in walks:
        asked = tuple(dict.fromkeys([*yielded, *swept]))
        shared: dict = {}  # texts and entries: a str never equals a tuple
        lists: dict[str, list] = {kind: [] for kind in swept}
        for param in family.parameters():
            oracles = _member_oracles(family.build(param), asked)
            for kind, column in lists.items():
                entry = tuple([shared.setdefault(body, body) for body in _bodies(oracles[kind])])
                column.append(shared.setdefault(entry, entry))
            if yielded:
                yield param, oracles
            del oracles
        del shared  # before the columns are sized: held, it raises tree n=7's peak 5 MiB
        for kind, column in lists.items():
            columns[kind] = _COLUMNS.keep((family, kind, caps), tuple(column), _column_bytes(column))


# components per block of `serialize`: each block's text is encoded and
# written out before the next is built, about 40 KiB of xor m=4 INT_ALL
# text
_SERIALIZE_BLOCK = 256


def serialize(oracle: AnswerOracle) -> bytes:
    """Canonical bytes; equal oracles give equal bytes and vice versa.

    Each component contributes its own key and its canonical body
    (`ExactDist._text`): the kernel and `parse` hand the body over
    rendered, and a dist built from masses renders it through
    `rational.mass_line`. The text is written into one buffer a block of
    `_SERIALIZE_BLOCK` components at a time, so it is never held whole as
    a str beside its bytes. A text that is not ASCII raises the error that
    encoding it whole raises.
    """
    head = f"{oracle.kind} n={oracle.n}"
    components = oracle.components
    out = io.BytesIO()
    try:
        out.write(head.encode("ascii"))
        for start in range(0, len(components), _SERIALIZE_BLOCK):
            out.write(_block_text(components[start:start + _SERIALIZE_BLOCK]).encode("ascii"))
    except UnicodeEncodeError:
        # the whole text, which renders every body before it is encoded
        f"{head}{_block_text(components)}\n".encode("ascii")
        raise
    out.write(b"\n")
    return out.getvalue()


def _block_text(components) -> str:
    """The text of `components`: for each, LF, "#", its key, LF, its body."""
    parts: list[str] = []
    for key, dist in components:
        parts += ("\n#", key, "\n", dist._text())
    return "".join(parts)


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


# each component body `parse` has checked, mapped to the ExactDist it built
# from that text, bounded in characters of body text: a sweep round's decode
# requests parse 108 distinct bodies of 15,796 characters (`BENCH_19.json`
# memo_traffic), which the bound holds four times over
_BODIES = _Bounded(1 << 16)


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
    Each component is kept under the layout's key string it was checked
    against, not the one cut from the input. The decoded text is dropped
    once it is split into blocks, and each block once its body is cut
    out, so beside the input bytes the call holds about one copy of the
    text.

    Checked bodies outlive the call in a process-wide memo (`_BODIES`,
    where its bound is stated), which serves a later body of the same text
    at the same outcome width its dist without any check, with the integer
    view or `mass` a probe or read has built on it. Validity depends only
    on the text and the width, and a valid body's outcomes fix the width,
    so every input is accepted or rejected, with the same error text, as
    under an empty memo; a rejected body is never kept.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise OracleFormatError(f"not ASCII: {exc}") from None
    if not text.endswith("\n"):
        raise OracleFormatError("missing trailing newline")
    size = len(text)
    parts = text.split("\n#")
    del text  # the parts hold the text from here on
    parts[-1] = parts[-1][:-1]  # the final LF, which no separator reaches
    header_lines, *blocks = parts
    del parts
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
    uniform_re, block_re = _block_res(min(n_bits, size))
    uniform_match, block_match = uniform_re.fullmatch, block_re.fullmatch
    # components repeat bodies, and a few dozen sequences of mass texts or
    # (text, count) pairs of uniform bodies, so each is checked once;
    # components with equal bodies share one dist
    dists: dict[str, ExactDist] = {}
    checked: set[tuple] = set()
    components = []
    for index, want in enumerate(keys):
        block = blocks[index]
        blocks[index] = None  # each block is dropped once its body is cut out
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
                dist = _BODIES.keep(body, ExactDist._from_body(n_bits, body), len(body))
            dists[body] = dist
        components.append((want, dist))
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
    place in the key; the result carries its canonical body, as a leaf does."""
    positions = tuple(int(p) for p in positions)
    for p in positions:
        dist._check_position(p)
    moves = [(dist.n_bits - 1 - p, len(positions) - 1 - k) for k, p in enumerate(positions)]
    states, weights, den = dist._int_view()
    acc: dict[int, int] = {}
    for state, w in zip(states, weights):
        key = sum([(state >> source & 1) << target for source, target in moves])
        acc[key] = acc.get(key, 0) + w
    return _dist(len(positions), list(acc), list(acc.values()), den, True)


def agreement(dist: ExactDist, i: int, j: int) -> Fraction:
    """Exact probability that positions `i` and `j` of `dist` hold the same
    bit, summed in integers over the dist's integer view."""
    dist._check_position(i)
    dist._check_position(j)
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
        dist._check_position(bounds[-1] - 1)
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
