"""Binary acyclic SCMs with finite rational noise, evaluated exactly.

A model has n binary endogenous variables, one mechanism each: a gate
schema applied to parent variables plus a local exogenous noise symbol
drawn from a finite support with rational probabilities. Distributions
are computed by one forward pass in topological order with integer
weights over a common denominator (the kernel below), and every
probability is returned as an exact `fractions.Fraction`, so equality
claims are bit-exact, never approximate.

Outcomes are '0'/'1' strings with variable 0 leftmost: outcome[k] is the
value of variable k.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, or_, xor
from typing import NamedTuple

from . import gates
from .caps import check
from .errors import (
    ArityMismatchError,
    BadPositionError,
    BadRangeError,
    CycleError,
    OracleFormatError,
)
from .rational import ONE, ZERO, frac_parse, frac_repr, mass_line


@dataclass(frozen=True)
class NoiseDist:
    """Finite-support exogenous noise.

    `support` holds distinct integer symbols; `probs[k]` is the exact
    probability of `support[k]`. A valid distribution has positive
    probabilities summing to exactly 1; `validate` on the enclosing SCM
    reports violations rather than this constructor raising.
    """

    support: tuple[int, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(int(s) for s in self.support))
        object.__setattr__(self, "probs", tuple(Fraction(p) for p in self.probs))

    def __repr__(self):  # the dataclass's, with a mass too long to write as a placeholder
        probs = ", ".join(map(frac_repr, self.probs)) + "," * (len(self.probs) == 1)
        return f"{type(self).__qualname__}(support={self.support!r}, probs=({probs}))"

    def _repr_pretty_(self, printer, cycle):  # pretty printers walk a dataclass's fields otherwise
        printer.text(repr(self))

    @staticmethod
    def constant(symbol: int = 0) -> "NoiseDist":
        return NoiseDist((symbol,), (ONE,))

    @staticmethod
    def bernoulli(p) -> "NoiseDist":
        p = Fraction(p)
        if p == 0:
            return NoiseDist.constant(0)
        if p == 1:
            return NoiseDist.constant(1)
        return NoiseDist((0, 1), (ONE - p, p))


@dataclass(frozen=True)
class Mechanism:
    """One structural equation: gate schema, parent indices, local noise;
    pickle and copy carry these alone, not the steps and hash its dict memoizes."""

    gate: str
    parents: tuple[int, ...]
    noise: NoiseDist

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(int(p) for p in self.parents))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.gate, self.parents, self.noise))

    def __getstate__(self):
        return {"gate": self.gate, "parents": self.parents, "noise": self.noise}


@dataclass(frozen=True)
class Scm:
    """n binary variables with one mechanism each; parent graph acyclic."""

    n: int
    mechanisms: tuple[Mechanism, ...]

    def __post_init__(self):
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))


@dataclass(frozen=True)
class Intervention:
    """A hard do(): forces each listed variable to a constant bit.

    `assignments` is (variable, bit) pairs sorted by variable index;
    empty means intervene on nothing.
    """

    assignments: tuple[tuple[int, int], ...]

    @staticmethod
    def of(mapping) -> "Intervention":
        items = sorted(dict(mapping).items())
        return Intervention(tuple((int(v), int(b)) for v, b in items))

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignments)


EMPTY_INTERVENTION = Intervention(())


_new, _set = object.__new__, object.__setattr__  # what a frozen dataclass is built with


class _Bounded(dict):
    """A memo of at most `limit` units, `held` counting the units of its
    entries in whatever unit its owner measures: an entry larger than the
    limit is not kept and drops nothing, and one that would pass the limit
    drops every entry first (`keep`). With a maker, `memo[key]` keeps
    `make(key)` as one unit on a miss. A process-wide memo is made with its
    qualified name ("module._NAME"), under which `MEMOS` lists it. Each
    instance states its bound and the counts behind it."""

    __slots__ = ("limit", "held", "make")

    def __init__(self, limit: int, make=None, name: str | None = None):
        super().__init__()
        self.limit, self.held, self.make = limit, 0, make
        if name is not None:
            MEMOS[name] = self

    def __missing__(self, key):
        if self.make is None:
            raise KeyError(key)
        return self.keep(key, self.make(key))

    def clear(self) -> None:
        super().clear()
        self.held = 0

    def keep(self, key, value, size: int = 1):
        """Store `value` at `key` as `size` units, and return it."""
        if size > self.limit:
            return value
        if self.held + size > self.limit:
            self.clear()
        self[key] = value
        self.held += size
        return value


MEMOS: dict[str, _Bounded] = {}  # every process-wide memo by its qualified name

# the Fraction of a mass text, for `oracle.parse`'s checks and for `mass`,
# in texts: an intall INT_ALL oracle holds 7 to 24 distinct texts, the 45 of
# three intall rounds 39 to 44 together, three sweep rounds 3 and nfl_mc 1
_FRACTIONS = _Bounded(256, frac_parse, "scm_core._FRACTIONS")


@dataclass(frozen=True)
class ExactDist:
    """Sparse exact distribution over length-`n_bits` outcome strings.

    Only positive-mass outcomes are stored. Construction checks the
    invariants (keys are bit strings of the right length, masses are
    positive and sum to exactly 1), so an ExactDist in hand is trusted.
    `mass` must not be mutated in place.

    The exact kernel, `oracle.parse` and `oracle.marginal` establish the
    same invariants in integer arithmetic and build theirs with
    `_from_body`: the dist holds only the canonical component body, its
    "<bits>=<num>/<den>" lines in ascending order joined by LF, which
    `serialize` copies out as it is. `mass` is built from that text on
    first read, each mass text's Fraction from the bounded memo
    `_FRACTIONS`, so the outcomes that repeat a text share its one Fraction.

    A dist has four slots and no instance dict: 64 bytes by `tracemalloc`
    (152 with an instance dict), which is all a leaf costs beyond its body.
    `_body` and `_ints` are None when the dist has none; `mass` of a dist
    built from its body is unset until first read.
    Pickle and `copy` rebuild a dist through the constructor that built it
    (`__reduce__`), since a frozen dataclass refuses the setattr they
    would restore its slots with. A dist built from masses passes them as
    integer pairs, not `Fraction`s, whose own pickling writes each as
    text: under Python 3.10 a mass of more than 4300 digits cannot be.

    Probes read one integer view (`_int_view`), built on the first probe:
    the outcomes as ascending states in the kernel's packing, one integer
    weight each, and the least common denominator, decoded from the body,
    or from `mass` for a dist built from masses. Models that reach an equal
    OBS, INT1 or CF1 leaf share one dist (`_LEAVES`), so each distinct
    leaf's view is built once however many models probe it. Two dists that
    both have a body are equal exactly when their bodies are, since the
    text is canonical; otherwise `==` compares masses. A hash reads the
    canonical body, so it agrees with `==` and builds no `mass`.
    """

    __slots__ = (
        "n_bits",
        "mass",
        "_body",  # the canonical body, when the dist was built from it
        "_ints",  # the integer view, once a probe has built it
    )

    n_bits: int
    mass: dict[str, Fraction]

    def __post_init__(self):
        total = ZERO
        for outcome, weight in self.mass.items():
            if len(outcome) != self.n_bits or outcome.strip("01"):
                raise ValueError(f"bad outcome key {outcome!r} for n_bits={self.n_bits}")
            if not isinstance(weight, Fraction) or weight <= 0:
                raise ValueError(f"mass of {outcome!r} must be a positive Fraction")
            total += weight
        if total != 1:
            raise ValueError(f"masses sum to {total}, expected 1")
        for name in ("_body", "_ints"):
            _set(self, name, None)

    @classmethod
    def _from_body(cls, n_bits: int, body: str) -> "ExactDist":
        """Wrap a canonical body that is valid by construction."""
        dist = _new(_Filling)
        dist.n_bits = n_bits
        dist._body = body
        dist._ints = None
        dist.__class__ = cls
        return dist

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: `mass` of a
        # dist built from its body, before its first read
        if name != "mass" or self._body is None:
            raise AttributeError(name)
        cells = self._body.replace("\n", "=").split("=")
        mass = dict(zip(cells[::2], map(_FRACTIONS.__getitem__, cells[1::2])))
        _set(self, "mass", mass)
        return mass

    @classmethod
    def _from_ints(cls, n_bits: int, masses: list) -> "ExactDist":
        """Build through the checking constructor from (outcome, numerator,
        denominator) triples."""
        return cls(n_bits, {outcome: Fraction(num, den) for outcome, num, den in masses})

    def __reduce__(self):
        if self._body is not None:
            return self._from_body, (self.n_bits, self._body)
        masses = [(outcome, m.numerator, m.denominator) for outcome, m in self.mass.items()]
        return self._from_ints, (self.n_bits, masses)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.n_bits != other.n_bits:
            return False
        if self._body is not None and other._body is not None:
            return self._body == other._body
        return self.mass == other.mass

    def __hash__(self):
        try:
            return hash((self.n_bits, self._text()))
        except OracleFormatError:  # too long to write, so equal to no dist with a body
            return hash((self.n_bits, frozenset(self.mass.items())))

    def _int_view(self) -> tuple[list[int], list[int], int]:
        """(states, weights, den): the positive-mass outcomes as ascending
        states, position p at bit n_bits-1-p, and integers with mass ==
        weight / den, built once; den is the least common one."""
        view = self._ints
        if view is None:
            if self._body is not None:
                cells = self._body.replace("\n", "=").split("=")
                outcomes, masses = cells[::2], list(map(_FRACTIONS.__getitem__, cells[1::2]))
            else:
                outcomes = sorted(self.mass)
                masses = list(map(self.mass.__getitem__, outcomes))
            den = math.lcm(*[m.denominator for m in masses])
            weights = [m.numerator * (den // m.denominator) for m in masses]
            states = [int(o, 2) for o in outcomes] if self.n_bits else [0]
            view = (states, weights, den)
            _set(self, "_ints", view)
        return view

    def _text(self) -> str:
        """The canonical body; a dist built from masses renders it anew."""
        if self._body is not None:
            return self._body
        mass = self.mass
        return "\n".join([
            mass_line(outcome, mass[outcome].numerator, mass[outcome].denominator)
            for outcome in sorted(mass)
        ])

    def p(self, outcome: str) -> Fraction:
        """Exact probability of one outcome (0 if absent)."""
        return self.mass.get(outcome, ZERO)

    def _check_position(self, position: int) -> None:
        if type(position) is not int:  # a bool or a float is no position
            raise BadPositionError(f"position must be an int, got {position!r}")
        if not 0 <= position < self.n_bits:
            raise BadPositionError(f"position {position} outside [0, {self.n_bits})")

    def prob_bit(self, position: int, bit: int) -> Fraction:
        """Exact marginal probability that `position` carries `bit` (0 or 1)."""
        self._check_position(position)
        if type(bit) is not int or bit not in (0, 1):
            raise BadRangeError(f"bit must be 0 or 1, got {bit!r}")
        shift = self.n_bits - 1 - position
        states, weights, den = self._int_view()
        return Fraction(sum([w for s, w in zip(states, weights) if (s >> shift & 1) == bit]), den)

    def outcomes(self) -> list[str]:
        """Positive-mass outcomes in ascending order, from the integer view."""
        return [format(1 << self.n_bits | s, "b")[1:] for s in self._int_view()[0]]


class _Filling:
    """An ExactDist's slots without the frozen dataclass's `__setattr__`:
    `_from_body` fills one with plain attribute stores, then makes it an
    ExactDist by `__class__` assignment, which checks that the two layouts
    are the same: 0.33 us a dist, against 0.58 us through each slot's own
    setter and 0.42 us for an instance dict's writes (`BENCH_25.json`)."""

    __slots__ = ExactDist.__slots__


def validate(scm: Scm) -> list[str]:
    """Check every SCM invariant; return the violations (empty = valid).

    Issue strings are prefixed with a stable code: BAD_SHAPE (variable and
    mechanism counts disagree), BAD_GATE (unknown schema or broken arity
    contract), BAD_PARENT (index out of range or duplicated), BAD_NOISE
    (malformed noise distribution), CYCLE (parent graph has a cycle).
    """
    issues: list[str] = []
    if scm.n < 1:
        issues.append(f"BAD_SHAPE: n must be at least 1, got {scm.n}")
    if len(scm.mechanisms) != scm.n:
        issues.append(
            f"BAD_SHAPE: {len(scm.mechanisms)} mechanisms for {scm.n} variables"
        )
    for i, mech in enumerate(scm.mechanisms):
        arity_problem = gates.arity_issue(mech.gate, len(mech.parents))
        if arity_problem:
            issues.append(f"BAD_GATE: variable {i}: {arity_problem}")
        seen: set[int] = set()
        for p in mech.parents:
            if not 0 <= p < scm.n:
                issues.append(f"BAD_PARENT: variable {i} lists parent {p} outside [0, {scm.n})")
            elif p in seen:
                issues.append(f"BAD_PARENT: variable {i} lists parent {p} twice")
            seen.add(p)
        issues.extend(_noise_issues(i, mech))
    try:
        topo_order(scm)
    except CycleError as exc:
        issues.append(f"CYCLE: {exc}")
    return issues


def _noise_issues(i: int, mech: Mechanism) -> list[str]:
    noise = mech.noise
    issues = []
    if len(noise.support) == 0:
        issues.append(f"BAD_NOISE: variable {i}: empty support")
        return issues
    if len(set(noise.support)) != len(noise.support):
        issues.append(f"BAD_NOISE: variable {i}: duplicate support symbols")
    if len(noise.probs) != len(noise.support):
        issues.append(
            f"BAD_NOISE: variable {i}: {len(noise.probs)} probs for "
            f"{len(noise.support)} symbols"
        )
        return issues
    if any(p <= 0 for p in noise.probs):
        issues.append(f"BAD_NOISE: variable {i}: probabilities must be positive")
    total = sum(noise.probs, ZERO)
    if total != 1:
        issues.append(f"BAD_NOISE: variable {i}: probabilities sum to {total}, not 1")
    if mech.gate in gates.NOISE_READING and not set(noise.support) <= {0, 1}:
        issues.append(
            f"BAD_NOISE: variable {i}: {mech.gate} needs a bit-valued support, "
            f"got {noise.support}"
        )
    return issues


def topo_order(scm: Scm) -> list[int]:
    """Parents-first evaluation order, ties broken by ascending index.

    Raises CycleError when the parent graph is not acyclic. Only the n
    variables are ordered; a mechanism past them is left to the callers'
    count checks.
    """
    n = scm.n
    if len(scm.mechanisms) == n and all(
        0 <= p < v for v, m in enumerate(scm.mechanisms) for p in m.parents
    ):
        return list(range(n))  # every parent precedes its child already
    parents = [set(m.parents) for m in scm.mechanisms[:n]]
    children: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for v, ps in enumerate(parents):
        for p in ps:
            if 0 <= p < n:
                children[p].append(v)
                indegree[v] += 1
    ready = [v for v in range(n) if indegree[v] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in children[v]:
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != n:
        stuck = sorted(set(range(n)) - set(order))
        raise CycleError(f"variables {stuck} form a cycle")
    return order


# ------------------------------------------------------------ exact kernel
#
# One forward pass in topological order serves every query class; it is
# variable elimination (Zhang & Poole 1994) on a model whose variables are
# all kept. A state is a partial assignment packed into an int, variable v
# at bit n-1-v, so an n-bit rendering of the final int is the outcome
# string (variable 0 leftmost) and integer order is outcome order. Each
# state carries an integer weight over a denominator shared by the pass.
# A noise-reading variable branches once per noise bit and multiplies the
# denominator by the lcm of its probability denominators; any other
# variable's noise sums out to one branch of weight 1 over 1, so its
# states only gain a bit. Noise symbols with the same effect are merged
# into one branch, and distinct branches set different output bits, so
# states never collide. A step whose merged branches are not a
# distribution does not compile, a law of one fixed symbol included, so
# every pass's weights are positive and sum to its denominator, and every
# leaf is a law by construction.
# A leaf's final states become its canonical body text at once (`_renders`),
# each line its state's outcome text and its weight's mass text, read from
# two memos shared by every pass: outcome texts by (width, state), mass
# texts "=num/den" in lowest terms by (den, weight) (`_OUTCOMES`,
# `_MASSES`). Fractions appear only when its `mass` is read, one per mass
# text (`_FRACTIONS`). A uniform leaf, whose states all carry one weight,
# sorts its states alone and joins their outcome texts with its one mass
# text; any other leaf sorts the positions of its states and joins outcome
# and mass line by line. A leaf's ExactDist holds its body and, once
# probed, its integer view, in slots, not an instance dict: 64 bytes beside
# its body text (152 with an instance dict).
#
# OBS alone and INT_ALL branch hard interventions off the pass as a trie
# (`_descend`), each law keyed by its integer intervention code
# (`intervention_code`). INT_ALL descends once each pair of subtrees whose
# leaves are equal, or differ by one bit no later step reads (`_laws`).
#
# INT1 and CF1 come from one pass over parallel worlds (Avin, Shpitser &
# Pearl 2005; `_worlds`): a state packs 2n+1 worlds of n bits each, the
# factual world and do(X_v=b) for every v and b, all on one noise draw.
# Each step evaluates its gate in every world at once with shifts and bit
# operations on the packed state, then sets the variable in the world
# that forces it to 1 and leaves it 0 in the one that forces 0. Variable
# i's triple (factual, do(X_i=0), do(X_i=1)) is read off the final states
# (`_triples`), and so is every INT1 law (`_int1_laws`): OBS is the
# factual world, and do(X_v=b) is v's do(b) world, where only v's own
# noise branches meet, so the law reads v's first branch alone.
#
# Family members share almost all their mechanisms, and a decode round
# trip rebuilds and re-reads them, so two memos keep the shared parts.
# The family builders hand out one Mechanism object per distinct (gate,
# parents) (`families._MECHANISMS`: 6 for the 625 tree n=5 members, 10 for
# the 512 bipartite m=3 members), and `_compile` keeps each mechanism's
# compiled step per (n, v) on that object (`_step`). The model checks
# (cycle, support cap, mechanism count) run on every compile, the step
# checks (parents, gate, arity, noise symbols, noise law) when a step is
# first compiled, and a step whose checks raise is never kept.
# `oracle.parse` reads back the last oracle `serialize` wrote of its size
# (`oracle._WRITTEN`).
# Models repeat whole leaves too, so `_dist` keeps each OBS, INT1 and CF1
# leaf by its inputs (`_LEAVES`): every pass that reaches an equal leaf
# shares its ExactDist, body and, once probed, integer view.
# Whole passes repeat as well: a verify sweep, a separation table, a
# decode request and the decoder's rebuild check each run the same
# member. So `kernel_laws` keeps each model's worlds pass by (n,
# mechanisms) (`_PASSES`), looked up before `_compile` through each
# mechanism's cached hash, and renders its INT1 laws and CF1 triples each
# on first request. A hit checks only the support cap again, the one model
# check that reads the environment, and a miss compiles, and so checks,
# before it runs. `observational` reads a held pass, else runs the trie;
# INT_ALL bypasses both this memo and the leaf memo. Every memo here is a
# `_Bounded`, stating its bound, and each process-wide one is in `MEMOS`.


# A compiled step is the tuple (place, bit, test, mask, invert, branches,
# den): the variable's place 3^(n-1-v) in an intervention code, its bit in
# a state, its gates test code, the parent bits the test reads, the output
# inversion, one (bit xored into the output, weight numerator) pair per
# noise branch, and the common denominator of those numerators: positive
# numerators summing to it, so a step of one branch is (flip, 1) over 1.


class _Plan(NamedTuple):
    n: int
    steps: tuple[tuple, ...]  # in topological order
    support: int  # the noise support product the cap was checked on


def _compile(scm: Scm) -> _Plan:
    """Check what evaluation needs and build the per-variable plan.

    Raises what running the mechanisms raises: CycleError, then
    SupportTooLargeError before any work, then IndexError for an empty
    noise support, then ValueError for a mechanism count other than n.
    Then each step, in topological order, raises its first error:
    IndexError (parent or noise index out of range), ValueError (unknown
    gate, non-bit symbol read as a bit, a noise law that is not a
    distribution) or ArityMismatchError. The model checks run on every
    call; each step comes from its mechanism's memo (`_step`), which holds
    only steps whose checks passed.
    """
    n = scm.n
    order = topo_order(scm)
    mechanisms = scm.mechanisms
    total = math.prod([len(m.noise.support) for m in mechanisms])
    _check_support(scm, total)
    if total == 0:
        raise IndexError("a noise distribution has an empty support")
    if len(mechanisms) != n:
        raise ValueError(f"{len(mechanisms)} mechanisms for {n} variables")
    return _Plan(n, tuple([_step(mechanisms[v], n, v) for v in order]), total)


def _check_support(scm: Scm, total: int) -> None:
    """Refuse `scm` of `total` noise points above SCMLAB_SUPPORT_CAP."""
    check("SCMLAB_SUPPORT_CAP", total, "noise support product", lambda: Counter(
        len(m.noise.support) for m in scm.mechanisms if len(m.noise.support) > 1), "noise points")


# the bound of each mechanism's `_Bounded` step memo, in steps, one per
# (n, v) it was compiled at: no mechanism of a sweep, intall or nfl_mc
# round holds more than 13 (`BENCH_19.json` memo_traffic)
_STEPS_MAX = 64


def _step(mech: Mechanism, n: int, v: int) -> tuple:
    """The step of `mech` as variable v of n, memoized on the mechanism: a
    pure function of the frozen mechanism and (n, v)."""
    memo = mech.__dict__.get("_steps")
    if memo is None:
        memo = mech.__dict__["_steps"] = _Bounded(_STEPS_MAX)
    found = memo.get((n, v))
    if found is not None:
        return found
    parents = mech.parents
    mask = 0
    for p in parents:
        if not 0 <= p < n:
            raise IndexError(f"variable {v} lists parent {p} outside [0, {n})")
    row = gates.spec(mech.gate)
    test, invert, _, _ = row
    arity = gates.arity_issue(mech.gate, len(parents))
    if arity:
        raise ArityMismatchError(arity)
    if test == gates.XOR:
        for p in parents:  # a repeated parent cancels in a parity
            mask ^= 1 << (n - 1 - p)
    elif test != gates.CONST:
        for p in parents:
            mask |= 1 << (n - 1 - p)
    branches, den = _noise_branches(mech, row, v)
    step = (3 ** (n - 1 - v), 1 << (n - 1 - v), test, mask, invert, branches, den)
    return memo.keep((n, v), step)


def _noise_branches(mech: Mechanism, row: gates.GateSpec, v: int):
    """(branches, denominator) of a noise law, in lowest terms, the
    symbols with the same effect merged. Raises ValueError unless the
    merged branches are positive weights summing to the denominator: a
    gate that ignores its noise merges every symbol into one branch, whose
    weight is then the sum of the law, and a fixed symbol is one branch
    weighing its probability."""
    support, probs = mech.noise.support, mech.noise.probs
    if len(probs) < len(support):
        raise IndexError(f"{len(probs)} probs for {len(support)} noise symbols")
    probs = probs[: len(support)]
    den = math.lcm(*[p.denominator for p in probs])
    by_flip: dict[int, int] = {}
    for symbol, p in zip(support, probs):
        gates.check_noise_symbol(mech.gate, row, symbol)
        flip = symbol if row.reads_noise else 0
        by_flip[flip] = by_flip.get(flip, 0) + p.numerator * (den // p.denominator)
    flips = sorted(by_flip)
    nums = [by_flip[flip] for flip in flips]
    if min(nums) <= 0 or sum(nums) != den:
        masses = ", ".join(str(Fraction(k, den)) for k in nums)
        raise ValueError(f"variable {v}: noise law is not a distribution: "
                         f"branch masses {masses} sum to {Fraction(sum(nums), den)}")
    g = math.gcd(den, *nums)
    return tuple(zip(flips, [k // g for k in nums])), den // g


def _extend(states: list[int], test: int, mask: int, flip: int, bit: int) -> list[int]:
    """Set `bit` in every state whose gate output, xored with `flip`, is 1."""
    if test == gates.CONST:
        return [s | bit for s in states] if flip else states
    if test == gates.ANY:
        if flip:
            return [s if s & mask else s | bit for s in states]
        return [s | bit if s & mask else s for s in states]
    if test == gates.ALL:
        if flip:
            return [s if (s & mask) == mask else s | bit for s in states]
        return [s | bit if (s & mask) == mask else s for s in states]
    if flip:
        return [s if (s & mask).bit_count() & 1 else s | bit for s in states]
    return [s | bit if (s & mask).bit_count() & 1 else s for s in states]


def _scaled(weights: list[int], k: int) -> list[int]:
    return weights if k == 1 else [w * k for w in weights]


class _Texts(dict):
    """The texts of one key of a family memo (`_OUTCOMES`, `_MASSES`), made
    by `make` from that key and an item on the item's first read: an
    outcome memo holds one width's outcome texts by state, a mass memo one
    den's mass texts by weight. A memo joins its family with its first
    text, and each text it adds counts one there."""

    __slots__ = ("family", "key", "make")

    def __init__(self, family: _Bounded, key: int, make):
        super().__init__()
        self.family, self.key, self.make = family, key, make

    def __missing__(self, item: int) -> str:
        family = self.family
        text = self.make(self.key, item)
        family.keep(self.key, self)
        if family.held == 1:  # the text dropped every memo: this one starts again
            self.clear()
        self[item] = text
        return text


def _outcome_text(width: int, state: int) -> str:
    return format(1 << width | state, "b")[1:]  # the top bit keeps the leading zeros


def _mass_text(den: int, weight: int) -> str:
    """"=num/den" in lowest terms; a fraction too long to write raises
    OracleFormatError, and is not kept."""
    g = math.gcd(weight, den)
    return mass_line("", weight // g, den // g)


# a line is its state's outcome text and its weight's mass text, whatever
# the pass, den or weight of its leaf: the outcome texts by (width, state)
# and the mass texts by (den, weight), each a memo of memos bounded in texts.
# One intall round (seed 1, round 0) renders 111,066 lines of 17,088 leaves
# from 448 outcome texts and 65 mass texts, where memos of whole lines per
# (width, den) and (width, den, weight) built 9,157; a sweep round makes 744
# and 5, an nfl_mc round 160 and 82. About 140 B of live memory a 16-bit
# outcome text, so 8.6 MiB when full
_OUTCOMES = _Bounded(1 << 16, name="scm_core._OUTCOMES")
_MASSES = _Bounded(1 << 12, name="scm_core._MASSES")


def _dist(n_bits: int, states, weights, den: int) -> ExactDist:
    """The law of `states`, `n_bits`-bit outcomes of mass weight/den, whose
    positive weights sum to den: its canonical body, lines in state order
    (`_render`), kept in the leaf memo.

    A kept leaf (OBS, INT1, CF1) of at most `_LEAVES.limit` states comes
    from the leaf memo `_LEAVES`, keyed by its width and its states and
    weights in pass order; den, their sum, adds nothing to the key. Every
    model that reaches an equal leaf shares one dist, which may already
    carry `mass` or its integer view. A larger leaf is rendered without a
    lookup. The leaves that are never kept do not come here: an INT_ALL
    leaf is rendered by `_descend` (`_renders`), a `marginal` by `_render`."""
    if len(states) > _LEAVES.limit:
        return _render(n_bits, states, weights, den)
    key = (n_bits, *states, *weights)
    dist = _LEAVES.get(key)
    if dist is None:
        dist = _LEAVES.keep(key, _render(n_bits, states, weights, den), len(states))
    return dist


# the kept leaves by their inputs, bounded in states between them: one round
# renders 65,025 kept leaves of 206 distinct (3,384 states) in sweep and
# 8,076 of 254 (8,633 states) in nfl_mc; verify_family plus separation_table
# render 248,832 of 190 (378 states) on tree n=6, 4,353,013 of 382 (762
# states) on tree n=7 and 3,080,192 of 148 (294 states) on bipartite m=4.
# About 100 B of live memory a state (sweep: 334 KB for its 3,384), so
# 1.6 MiB when full
_LEAVES = _Bounded(1 << 14, name="scm_core._LEAVES")


def _render(n_bits: int, states, weights, den: int) -> ExactDist:
    """`_dist` without the memo: the law of `states` itself, the one law
    `_renders` is asked for."""
    return _renders(n_bits, states, weights, den, (0,))[0]


def _renders(n_bits: int, states, weights, den: int, bits) -> list[ExactDist]:
    """The law of `states` with each mask of `bits` or-ed into every state,
    in the order of `bits`, from one sort: no state carries a bit of any,
    so each law's states keep the sorted order of `states`. Each line is its
    state's outcome text (`_OUTCOMES`) and its weight's mass text
    (`_MASSES`). A uniform law, whose states all carry one weight, sorts
    its states alone and joins their outcome texts with its one mass text;
    any other sorts the positions of its states and joins outcome and mass
    line by line. A law too long to write goes through the constructor."""
    texts = _OUTCOMES.get(n_bits) or _Texts(_OUTCOMES, n_bits, _outcome_text)
    masses = _MASSES.get(den) or _Texts(_MASSES, den, _mass_text)
    dists = []
    weight = weights[0]
    try:
        if weights.count(weight) == len(weights):
            keys = sorted(states)
            mass = masses[weight]
            glue = mass + "\n"
            for bit in bits:
                outcomes = map(texts.__getitem__, map(bit.__or__, keys) if bit else keys)
                dists.append(ExactDist._from_body(n_bits, glue.join(outcomes) + mass))
        else:
            order = sorted(range(len(states)), key=states.__getitem__)
            keys = list(map(states.__getitem__, order))
            # each line's outcome text and mass text, and LF between lines
            pieces = ["\n"] * (3 * len(keys) - 1)
            pieces[1::3] = map(masses.__getitem__, map(weights.__getitem__, order))
            for bit in bits:
                pieces[::3] = map(texts.__getitem__, map(bit.__or__, keys) if bit else keys)
                dists.append(ExactDist._from_body(n_bits, "".join(pieces)))
    except OracleFormatError:  # serialize raises it again, when asked for the text
        pairs = sorted(zip(states, weights))
        top = 1 << n_bits  # keeps each state's leading zeros
        return [ExactDist(n_bits, {format(top | bit | s, "b")[1:]: Fraction(w, den) for s, w in pairs})
                for bit in bits]
    return dists


def kernel_laws(scm: Scm, int1: bool, cf1: bool):
    """(INT1 laws, CF1 triples) of `scm`, each None unless asked for:
    the laws keyed by `intervention_code`, OBS at 0, and the triples in
    variable order, both read off the model's one parallel-worlds pass.

    The pass is looked up by the model before anything compiles. When it
    is held, only the support cap, the one check that reads the
    environment, runs again, on the total kept beside it; otherwise
    `_compile` runs every check first, so a model it refuses leaves
    nothing held. Every caller shares what a held pass returns."""
    key = (scm.n, scm.mechanisms)
    held = _PASSES.get(key)
    if held is None:
        plan = _compile(scm)
        held = _Pass(plan, *_worlds(plan))
        _PASSES.keep(key, held, (3 * plan.n + 2) * len(held.states))
    else:
        _check_support(scm, held.support)
    return held.read(int1, cf1)


class _Pass:
    """A model's worlds pass as `_PASSES` holds it: the support total the
    cap was checked on, and its INT1 laws and CF1 triples, each rendered
    on first read from the steps and final states, dropped once both are."""

    __slots__ = ("support", "steps", "states", "weights", "den", "int1", "cf1")

    def __init__(self, plan: _Plan, states, weights, den):
        self.support, self.steps = plan.support, plan.steps
        self.states, self.weights, self.den = states, weights, den
        self.int1 = self.cf1 = None

    def read(self, int1: bool, cf1: bool):
        if int1 and self.int1 is None:
            self.int1 = _int1_laws(self.steps, self.states, self.weights, self.den)
        if cf1 and self.cf1 is None:
            self.cf1 = _triples(len(self.steps), self.states, self.weights, self.den)
        if self.int1 is not None and self.cf1 is not None:
            self.steps = self.states = self.weights = None
        return (self.int1 if int1 else None), (self.cf1 if cf1 else None)


# one `_Pass` by (n, mechanisms), bounded in states: with P noise points
# an entry counts (3n+2)P, which bounds its P final states, 2n+1 INT1 laws
# and n triples. One sweep round looks passes up 4,564 times and keeps
# 1,145 (55,042 states): 958 KB of live memory, its dists shared with
# `_LEAVES` (144 B a state with no leaf memo). One-variable models hold
# the most, 262 B a state, so 16 MiB when full
_PASSES = _Bounded(1 << 16, name="scm_core._PASSES")


def _laws(plan: _Plan, forcing: bool) -> dict[int, ExactDist]:
    """The joint under every hard intervention if `forcing` (INT_ALL), else
    the observational joint alone, keyed by its `intervention_code`.

    The interventions form a trie in topological order: at each variable
    a node branches into its mechanism, do 0 and do 1, so interventions
    that agree on a prefix share its work, and a do(X_v=b) branch adds
    (b + 1) * 3^(n-1-v) to the code. A leaf's states become its ExactDist
    at once and are dropped.

    Two kinds of subtree pairs are descended once. Below a node, each leaf
    is a function of the level, states, weights and denominator alone. In
    a forcing pass, a node's mechanism subtree and its do(b) subtree hold
    the same interventions on the remaining variables. If its step is
    deterministic (one noise branch, which compiles to weight 1 over 1)
    and yields the states do(b) yields, their leaves are equal at codes
    (b + 1) * 3^(n-1-v) apart: the mechanism subtree takes the do(b)
    subtree's ExactDist objects. If no later step reads the variable's bit
    (`later`), and only its own step sets it, each do(1) state is its do(0)
    twin's with the bit or-ed in, in the same sorted order: the do(0)
    subtree alone is descended, each of its leaves standing for every
    (code offset, or-mask) pair carried down, rendered from one sort
    (`_renders`), each distinct mask once. The last level is the base
    case, its leaves appended by its node.

    The OBS leaf is kept, and comes from the leaf memo (`_dist`): a law
    equal to one that another model's pass reached is that model's
    ExactDist, which may already carry `mass` or its integer view. No
    INT_ALL leaf is kept.
    """
    # in a forcing pass, the state bits that the steps after each level read
    later = [reduce(or_, [step[3] for step in plan.steps[k + 1:]], 0)
             for k in range(len(plan.steps))] if forcing else None
    codes: list[int] = []
    dists: list[ExactDist] = []
    _descend(plan, 0, [0], [1], 1, 0, later, codes, dists, ([0], [0], [0]))
    return dict(zip(codes, dists))


def _descend(plan, level, states, weights, den, code, later, codes, dists, pairs) -> None:
    """Run the mechanisms from `level` on, branching off the do() subtries
    if `later` (a forcing pass), `code` the digits forced so far. Each leaf
    appends, for each i, the law of its states or-ed with masks[picks[i]]
    at code + offsets[i] (`pairs`), kept unless forcing."""
    steps, n = plan.steps, plan.n
    last = len(steps)
    for level in range(level, last):
        place, bit, test, mask, invert, branches, step_den = steps[level]
        if len(branches) == 1:  # (flip, 1) over 1: the weights stay as they are
            out = _extend(states, test, mask, invert ^ branches[0][0], bit)
        if later is not None:
            # the b whose do(b) subtree this mechanism subtree equals (see _laws)
            twin = (None if len(branches) > 1 else 0 if out == states
                    else 1 if all(map(bit.__and__, out)) else None)
            if bit & later[level]:
                zeros_at = len(codes)
                _descend(plan, level + 1, states, weights, den, code + place,
                         later, codes, dists, pairs)
                ones_at = len(codes)
                _descend(plan, level + 1, [s | bit for s in states], weights, den, code + 2 * place,
                         later, codes, dists, pairs)
                if twin is not None:  # its leaves again, the digit off the code
                    start, stop = (zeros_at, ones_at) if twin == 0 else (ones_at, len(codes))
                    codes += map((-(twin + 1) * place).__add__, codes[start:stop])
                    dists += dists[start:stop]
                    return
            else:  # do(1)'s leaves are do(0)'s with the bit or-ed in
                offsets, masks, picks = pairs
                high = [*map(len(masks).__add__, picks)]  # the do(1) pairs' picks
                down = ([*map(place.__add__, offsets), *map((2 * place).__add__, offsets)],
                        [*masks, *map(bit.__or__, masks)], picks + high)
                if twin is not None:  # and this mechanism subtree's are do(twin)'s
                    down[0].extend(offsets)
                    down[2].extend(high if twin else picks)
                if level + 1 < last:
                    _descend(plan, level + 1, states, weights, den, code, later, codes, dists, down)
                else:
                    codes += map(code.__add__, down[0])
                    dists += map(_renders(n, states, weights, den, down[1]).__getitem__, down[2])
                if twin is not None:
                    return
        if len(branches) == 1:
            states = out
        else:
            next_states: list[int] = []
            next_weights: list[int] = []
            for flip, k in branches:
                next_states += _extend(states, test, mask, invert ^ flip, bit)
                next_weights += _scaled(weights, k)
            states, weights = next_states, next_weights
            den *= step_den
    if later is not None:  # no INT_ALL leaf is kept
        codes += map(code.__add__, pairs[0])
        dists += map(_renders(n, states, weights, den, pairs[1]).__getitem__, pairs[2])
    else:
        codes.append(code)
        dists.append(_dist(n, states, weights, den))


def _worlds(plan: _Plan):
    """Parallel-worlds pass (Avin, Shpitser & Pearl 2005): (states,
    weights, den) after every step.

    A state packs 2n+1 worlds over one noise draw, each n bits wide with
    variable v at bit n-1-v: the factual world in the highest n bits, then
    do(X_v=0) and do(X_v=1) for each variable v in turn. Distinct noise
    branches set different factual bits, so states never collide.
    """
    n = plan.n
    repunit = int("1".rjust(n, "0") * (2 * n + 1), 2)  # bit 0 of each world
    states, weights, den = [0], [1], 1
    for _, bit, test, mask, invert, branches, step_den in plan.steps:
        # the variable's bit in its do(X_v=1) world, 2(n-1-v) worlds up
        one = bit << 2 * n * (bit.bit_length() - 1)
        column = bit * repunit ^ (one | one << n)  # the worlds its mechanism sets
        states = _world_step(states, test, mask, bit, column, one, invert, branches)
        if len(branches) > 1:  # one branch is (flip, 1) over 1
            weights = [w for _, num in branches for w in _scaled(weights, num)]
            den *= step_den
    return states, weights, den


def _triples(n: int, states, weights, den: int) -> tuple[ExactDist, ...]:
    """The CF1 triple of every variable, in index order, off the final
    states: the factual world, then v's two do() worlds, 3n bits."""
    top, pair = 2 * n * n, (1 << 2 * n) - 1
    facts = [(s >> top) << 2 * n for s in states]
    return tuple([
        _dist(3 * n,
              [f | ((s >> 2 * (n - 1 - v) * n) & pair) for f, s in zip(facts, states)],
              weights, den)
        for v in range(n)
    ])


def _int1_laws(steps, states, weights, den: int) -> dict[int, ExactDist]:
    """Every INT1 law, by `intervention_code`, off the final states of the
    worlds pass of `steps`. Only v's own branches meet in its do() worlds,
    and the pass concatenates one block of states per branch, so v's digit
    has the stride S of the state count before its step: its first branch
    is the first S states of every k*S, for k branches. Its numerator
    divided out, their weights are those of a pass with v forced."""
    n = len(steps)
    top, world = 2 * n * n, (1 << n) - 1
    laws = {0: _dist(n, [s >> top for s in states], weights, den)}
    stride = 1
    for place, bit, _, _, _, branches, step_den in steps:
        at = 2 * n * (bit.bit_length() - 1)  # v's do(X_v=1) world; do(X_v=0) is n bits up
        picked, kept, rest = states, weights, den
        if len(branches) > 1:
            first = (True,) * stride + (False,) * (len(branches) - 1) * stride
            picked = list(itertools.compress(states, itertools.cycle(first)))
            kept = list(itertools.compress(weights, itertools.cycle(first)))
            num = branches[0][1]
            kept = kept if num == 1 else [w // num for w in kept]
            rest = den // step_den
            stride *= len(branches)
        laws[place] = _dist(n, [(s >> at + n) & world for s in picked], kept, rest)
        laws[2 * place] = _dist(n, [(s >> at) & world for s in picked], kept, rest)
    return laws


def _world_step(states, test, mask, bit, column, one, invert, branches) -> list[int]:
    """One mechanism in every world at once: the states that each noise
    branch yields, in branch order. `column` holds the variable's bit in
    each world its mechanism sets; `one` its bit in the world that forces
    it to 1.

    Each parent's column is shifted onto the variable's and combined by
    the test (OR for ANY, AND for ALL, XOR for XOR); the parents are the
    bits of the compiled `mask`, where a repeated PARITY parent has
    already cancelled. No state has the variable's bit set yet, so xor
    sets bits as or would, and xoring `column` in complements the output
    in every world it computes."""
    shifts = []
    at = bit.bit_length()
    while mask:
        low = mask & -mask
        shifts.append(low.bit_length() - at)  # > 0: the parent bit is higher
        mask ^= low
    # what each branch xors in: the do(X_v=1) bit, and the complement if inverted
    toggles = [one ^ column if invert ^ flip else one for flip, _ in branches]
    if not shifts:  # a CONST gate, or a test of no parents
        if test == gates.ALL:  # AND of nothing is 1
            toggles = [toggle ^ column for toggle in toggles]
        return [s ^ toggle for toggle in toggles for s in states]
    if len(shifts) == 1 and shifts[0] > 0:  # ANY, ALL and XOR of one parent are it
        return [s ^ (s >> shifts[0] & column) ^ toggle for toggle in toggles for s in states]
    combine = {gates.ANY: or_, gates.ALL: and_, gates.XOR: xor}[test]
    acc = None
    for d in shifts:
        moved = [s >> d for s in states] if d > 0 else [s << -d for s in states]
        acc = moved if acc is None else list(map(combine, acc, moved))
    out = [s ^ (a & column) for s, a in zip(states, acc)]
    return [s ^ toggle for toggle in toggles for s in out]



def observational(scm: Scm) -> ExactDist:
    """Exact joint distribution of the n variables: INT1's law at code 0
    of the model's held worlds pass (`kernel_laws`, which checks the
    support cap again), else the trie pass's, which holds nothing."""
    if (scm.n, scm.mechanisms) in _PASSES:
        return kernel_laws(scm, True, False)[0][0]
    return _laws(_compile(scm), False)[0]


def apply_do(scm: Scm, intervention: Intervention) -> Scm:
    """Mutilate: replace each intervened mechanism with a parentless constant."""
    forced = intervention.as_dict()
    if len(forced) != len(intervention.assignments):
        raise ValueError(f"intervention {intervention.assignments} lists a variable twice")
    for v, b in forced.items():
        if not 0 <= v < scm.n:
            raise BadPositionError(f"intervened variable {v} outside [0, {scm.n})")
        if b not in (0, 1):
            raise ValueError(f"intervention value for variable {v} must be a bit, got {b}")
    mechanisms = list(scm.mechanisms)
    for v, b in forced.items():
        gate = gates.CONST1 if b else gates.CONST0
        mechanisms[v] = Mechanism(gate, (), NoiseDist.constant())
    return Scm(scm.n, tuple(mechanisms))


def interventional(scm: Scm, intervention: Intervention) -> ExactDist:
    """Exact joint under do(): the observational law of the mutilated SCM."""
    return observational(apply_do(scm, intervention))


def counterfactual_triple(scm: Scm, i: int) -> ExactDist:
    """Joint law of (factual, do(X_i=0) world, do(X_i=1) world).

    All three worlds share the same exogenous draw, which is what makes
    this a counterfactual rather than three independent runs. The result
    is one distribution over 3n-bit outcomes: factual block first, then
    the do(X_i=0) world, then the do(X_i=1) world. It is component i of
    `cf1`, read off the one parallel-worlds pass over every variable.
    """
    if not 0 <= i < scm.n:
        raise BadPositionError(f"variable {i} outside [0, {scm.n})")
    return cf1(scm)[i]


def cf1(scm: Scm) -> tuple[ExactDist, ...]:
    """`counterfactual_triple` for every variable, from one compiled plan
    and one parallel-worlds pass over 2n+1 worlds: the factual world and
    do(X_v=b) for every v and b, all on the same noise draw: the pass
    `kernel_laws` holds, whose INT1 laws this renders none of."""
    return kernel_laws(scm, False, True)[1]


def all_interventions(n: int):
    """Yield every hard intervention on n variables, empty set first.

    Order: by target-set size, then the set lexicographically, then the
    forced bits in binary order. 3^n interventions in total.
    """
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            for values in itertools.product((0, 1), repeat=k):
                yield Intervention(tuple(zip(subset, values)))


def intervention_code(n: int, assignments) -> int:
    """The integer key of a hard intervention on n variables, by which the
    kernel returns its law: in base 3, variable 0 first, a variable left
    alone is digit 0 and one forced to b is digit b + 1, so the code sums
    (b + 1) * 3^(n-1-v) over the (v, b) pairs. It does not depend on the
    order of the pairs or on the model."""
    return sum((b + 1) * 3 ** (n - 1 - v) for v, b in assignments)


def int_all_laws(scm: Scm) -> dict[int, ExactDist]:
    """The joint under every one of the 3^n hard interventions, keyed by
    `intervention_code`. Before the pass starts, n above
    SCMLAB_INTALL_NMAX is refused, and so is an oracle of more mass lines
    than SCMLAB_INTALL_LINE_CAP: the product over the variables of their
    noise branches plus the two forced values, since distinct branches
    never meet a state. Interventions whose laws are equal by the rule in
    `_laws` share one ExactDist."""
    check("SCMLAB_INTALL_NMAX", scm.n, "int_all on n={}", lambda: {3: scm.n}, "interventions")
    plan = _compile(scm)
    # each variable is left to its noise branches or forced to 0 or 1
    factors = Counter(len(step[5]) + 2 for step in plan.steps)
    lines = math.prod(base**exp for base, exp in factors.items())
    check("SCMLAB_INTALL_LINE_CAP", lines, "int_all output", lambda: factors, "mass lines")
    return _laws(plan, True)


def int_all(scm: Scm) -> tuple[tuple[Intervention, ExactDist], ...]:
    """Exact joint under every one of the 3^n hard interventions, in
    `all_interventions` order.

    The kernel keys each law by its `intervention_code` and descends
    once each pair of subtrees whose laws are equal or differ by one
    unread bit (`_laws`); the interventions of two equal subtrees hold
    the same ExactDist objects. Each law holds its canonical body alone,
    and its `mass` is built from that text on first read."""
    laws, n = int_all_laws(scm), scm.n
    return tuple([(iv, laws[intervention_code(n, iv.assignments)]) for iv in all_interventions(n)])
