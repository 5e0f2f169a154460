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
from functools import lru_cache
from operator import add, and_, mul, or_, xor
from typing import NamedTuple

from . import gates
from .caps import check
from .errors import BadPositionError, BadRangeError, CycleError, OracleFormatError
from .rational import ONE, ZERO, frac_parse, mass_line


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
    """One structural equation: gate schema, parent indices, local noise."""

    gate: str
    parents: tuple[int, ...]
    noise: NoiseDist

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(int(p) for p in self.parents))


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
# the Fraction of a mass text, for `oracle.parse`'s checks and for `mass`:
# an INT_ALL oracle of the intall benchmark holds 7 to 24 distinct texts, and
# the 45 oracles of three of its rounds 39 to 44 together, so none is evicted
_fraction = lru_cache(maxsize=256)(frac_parse)


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
    `_fraction`, so the outcomes that repeat a text share its one Fraction.

    Probes read one integer view (`_int_view`), built on the first probe:
    the outcomes as ascending states in the kernel's packing, one integer
    weight each, and the least common denominator. OBS, INT1, CF1 and
    `marginal` dists decode it from the sorted keys `_dist` kept (INT_ALL
    leaves keep none), any other from its body or `mass`. Two dists that
    both have a body are equal exactly when their bodies are, since the
    text is canonical; otherwise `==` compares masses.
    """

    n_bits: int
    mass: dict[str, Fraction]

    _body = None  # the canonical body, when the dist was built from it
    _keys = None  # (sorted keys, uniform weight or None, den), when the kernel kept them
    _ints = None  # the integer view, once a probe has built it

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

    @classmethod
    def _from_body(cls, n_bits: int, body: str, keys: tuple | None = None) -> "ExactDist":
        """Wrap a canonical body that is valid by construction (and keys)."""
        dist = _new(cls)
        fields = dist.__dict__  # what the frozen dataclass's setter writes, at less cost
        fields["n_bits"] = n_bits
        fields["_body"] = body
        if keys is not None:  # a None entry would cost every INT_ALL leaf 8 bytes
            fields["_keys"] = keys
        return dist

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: `mass` of a
        # dist built from its body, before its first read
        if name != "mass" or self._body is None:
            raise AttributeError(name)
        cells = self._body.replace("\n", "=").split("=")
        mass = dict(zip(cells[::2], map(_fraction, cells[1::2])))
        _set(self, "mass", mass)
        return mass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.n_bits != other.n_bits:
            return False
        if self._body is not None and other._body is not None:
            return self._body == other._body
        return self.mass == other.mass

    def _int_view(self) -> tuple[list[int], list[int], int]:
        """(states, weights, den): the positive-mass outcomes as ascending
        states, position p at bit n_bits-1-p, and integers with mass ==
        weight / den, built once; den is the least common one."""
        view = self._ints
        if view is None:
            if self._keys is not None:
                keys, weight, den = self._keys
                if weight is None:  # each key is state * (den + 1) + weight
                    states, weights = map(list, zip(*map(divmod, keys, itertools.repeat(den + 1))))
                else:
                    states, weights = keys, [weight] * len(keys)
                g = math.gcd(den, *weights)  # to the least den, as a body in lowest terms has
                weights, den = [w // g for w in weights], den // g
            else:
                if self._body is not None:
                    cells = self._body.replace("\n", "=").split("=")
                    outcomes, masses = cells[::2], list(map(_fraction, cells[1::2]))
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

    def prob_bit(self, position: int, bit: int) -> Fraction:
        """Exact marginal probability that `position` carries `bit` (0 or 1)."""
        if not 0 <= position < self.n_bits:
            raise BadPositionError(f"position {position} outside [0, {self.n_bits})")
        if bit not in (0, 1):
            raise BadRangeError(f"bit must be 0 or 1, got {bit!r}")
        shift = self.n_bits - 1 - position
        states, weights, den = self._int_view()
        return Fraction(sum([w for s, w in zip(states, weights) if (s >> shift & 1) == bit]), den)

    def outcomes(self) -> list[str]:
        """Positive-mass outcomes in ascending order, from the integer view."""
        return [format(1 << self.n_bits | s, "b")[1:] for s in self._int_view()[0]]


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

    Raises CycleError when the parent graph is not acyclic.
    """
    n = scm.n
    if len(scm.mechanisms) == n and all(
        0 <= p < v for v, m in enumerate(scm.mechanisms) for p in m.parents
    ):
        return list(range(n))  # every parent precedes its child already
    parents = [set(m.parents) for m in scm.mechanisms]
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
# variable's noise sums out to a single factor, so its states only gain a
# bit. Noise symbols with the same effect are merged into one branch, and
# distinct branches set different output bits, so states never collide.
# A leaf's final states become its canonical body text at once, its lines
# read from memos shared by every pass (`_Lines`); Fractions appear only
# when its `mass` is read, one per mass text (`_fraction`). A uniform
# leaf, whose states all carry one weight, sorts its states alone and
# reads a memo keyed by state for that weight; any other leaf sorts
# integer keys that carry each state's weight. OBS, INT1 and CF1 leaves
# keep those keys for their integer view; INT_ALL leaves keep none.
#
# Hard interventions branch off the pass as a trie (`_descend`), each law
# keyed by its integer intervention code (`intervention_code`); the last
# variable's do(0) and do(1) leaves are rendered by its node. Below a
# node, every leaf is a pure function of (level, states, weights, den), so
# where a deterministic mechanism leaves the states as do(0) or do(1)
# would, and the budget lets both continuations force every remaining
# variable, the two subtrees are equal leaf for leaf: one is descended and
# the other copied from it, sharing its ExactDist objects.
#
# CF1 takes one more pass, over parallel worlds (Avin, Shpitser & Pearl
# 2005; `_worlds`): a state packs 2n+1 worlds of n bits each, the factual
# world and do(X_v=b) for every v and b, all on one noise draw. Each step
# evaluates its gate in every world at once with shifts and bit
# operations on the packed state, then sets the variable in the world
# that forces it to 1 and leaves it 0 in the one that forces 0. Variable
# i's triple (factual, do(X_i=0), do(X_i=1)) is read off the final states;
# `cf1` returns every triple and `counterfactual_triple` the i-th.
#
# Family members share almost all their mechanisms, and a decode round
# trip rebuilds and re-reads them, so two memos keep the shared parts.
# The family builders hand out one Mechanism object per distinct (gate,
# parents) (`families._mechanism`: 6 for the 625 tree n=5 members, 10 for
# the 512 bipartite m=3 members), and `_compile` keeps each mechanism's
# compiled step per (n, v) on that object (`_step`, at most _STEPS_MAX =
# 64; the sweep benchmark's fair source is compiled at 12 places). The
# model checks (cycle, support cap, mechanism count) run on every call,
# and a step whose checks raise is never kept. `oracle.parse` keeps each
# checked body with its dist, up to 65,536 characters of text
# (`oracle._Bodies`): a sweep round's decode requests parse 14,603
# components with 108 distinct bodies of 15,796 characters.


# A compiled step is the tuple (place, bit, test, mask, invert, branches,
# den): the variable's place 3^(n-1-v) in an intervention code, its bit in
# a state, its gates test code, the parent bits the test reads, the output
# inversion, one (bit xored into the output, weight numerator) pair per
# noise branch, and the common denominator of those numerators.


class _Plan(NamedTuple):
    n: int
    steps: tuple[tuple, ...]  # in topological order
    # every noise law read is positive and sums to 1, so the outcome
    # masses are a distribution by construction
    exact: bool


def _compile(scm: Scm) -> _Plan:
    """Check what evaluation needs and build the per-variable plan.

    Raises what running the mechanisms raises: CycleError, then
    SupportTooLargeError before any work, then IndexError (empty noise
    support, parent or noise index out of range), ValueError (unknown
    gate, non-bit symbol read as a bit) or ArityMismatchError. The model
    checks run on every call; each step comes from its mechanism's memo
    (`_step`), which holds only steps whose checks passed.
    """
    n = scm.n
    order = topo_order(scm)
    mechanisms = scm.mechanisms
    sizes = [len(m.noise.support) for m in mechanisms]
    total = math.prod(sizes)
    check("SCMLAB_SUPPORT_CAP", total, "noise support product",
          lambda: Counter(size for size in sizes if size > 1), "noise points")
    if total == 0:
        raise IndexError("a noise distribution has an empty support")
    if len(mechanisms) > n:
        raise ValueError(f"{len(mechanisms)} mechanisms for {n} variables")
    steps = []
    exact = True
    for v in order:
        step, law_ok = _step(mechanisms[v], n, v)
        steps.append(step)
        exact = exact and law_ok
    return _Plan(n, tuple(steps), exact)


# compiled steps a mechanism keeps, one per (n, v) it was compiled at; the
# step past that drops them all (see the kernel comment above)
_STEPS_MAX = 64


def _step(mech: Mechanism, n: int, v: int) -> tuple[tuple, bool]:
    """(step, whether its noise law is valid) of `mech` as variable v of n,
    memoized on the mechanism: a pure function of the frozen mechanism and
    (n, v)."""
    memo = mech.__dict__.get("_steps")
    if memo is None:
        memo = mech.__dict__["_steps"] = {}
    found = memo.get((n, v))
    if found is not None:
        return found
    parents = mech.parents
    mask = 0
    for p in parents:
        if not 0 <= p < n:
            raise IndexError(f"variable {v} lists parent {p} outside [0, {n})")
    row = gates.spec(mech.gate)
    test, invert, reads_noise, _ = row
    gates.check_arity(mech.gate, row, len(parents))
    if test == gates.XOR:
        for p in parents:  # a repeated parent cancels in a parity
            mask ^= 1 << (n - 1 - p)
    elif test != gates.CONST:
        for p in parents:
            mask |= 1 << (n - 1 - p)
    support = mech.noise.support
    law_ok = True
    if len(support) == 1:
        # a fixed symbol: its probability is never read
        if reads_noise:
            gates.check_noise_symbol(mech.gate, row, support[0])
            branches = ((support[0], 1),)
        else:
            branches = ((0, 1),)
        den = 1
    else:
        branches, den, law_ok = _noise_branches(mech, row)
    if len(memo) >= _STEPS_MAX:
        memo.clear()
    step = (3 ** (n - 1 - v), 1 << (n - 1 - v), test, mask, invert, branches, den)
    found = memo[n, v] = (step, law_ok)
    return found


def _noise_branches(mech: Mechanism, row: gates.GateSpec):
    """(branches, denominator, whether the law is valid) of a noise law with
    several symbols."""
    support, probs = mech.noise.support, mech.noise.probs
    if len(probs) < len(support):
        raise IndexError(f"{len(probs)} probs for {len(support)} noise symbols")
    probs = probs[: len(support)]
    den = math.lcm(*[p.denominator for p in probs])
    nums = [p.numerator * (den // p.denominator) for p in probs]
    law_ok = min(nums) > 0 and sum(nums) == den
    by_flip: dict[int, int] = {}
    for symbol, k in zip(support, nums):
        gates.check_noise_symbol(mech.gate, row, symbol)
        flip = symbol if row.reads_noise else 0
        by_flip[flip] = by_flip.get(flip, 0) + k
    g = math.gcd(den, *by_flip.values())
    branches = tuple((flip, k // g) for flip, k in sorted(by_flip.items()))
    return branches, den // g, law_ok


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


class _Lines(dict):
    """The canonical mass lines of states whose outcomes are `width` bits
    wide, each with mass weight/den. Without a `weight`, a line is keyed
    by state * (den + 1) + weight: an exact plan's weights lie in 1..den,
    so the key orders lines by state and decodes back to the pair. A memo
    for one `weight`, which serves the leaves whose states all carry it,
    is keyed by the state alone.

    Each memo is a pure function of its (width, den, weight) and its key,
    so one memo per (width, den) or (width, den, weight) in `_LINES`
    serves every kernel pass, where leaves and models repeat their lines.
    The memos of both kinds hold at most _LINES_MAX lines between them:
    the line past that drops them all."""

    __slots__ = ("width", "den", "weight")
    held = 0  # lines in all the memos

    def __init__(self, width: int, den: int, weight: int | None = None):
        super().__init__()
        self.width, self.den, self.weight = width, den, weight

    def __missing__(self, key: int) -> str:
        if _Lines.held >= _LINES_MAX:
            _LINES.clear()
            _Lines.held = 0
        if self.weight is None:
            state, weight = divmod(key, self.den + 1)
        else:
            state, weight = key, self.weight
        g = math.gcd(weight, self.den)
        outcome = format(state, f"0{self.width}b") if self.width else ""
        line = self[key] = mass_line(outcome, weight // g, self.den // g)
        _Lines.held += 1
        return line


# about 150 bytes of RSS per line: 10 MiB when full
_LINES_MAX = 1 << 16
_LINES: dict[tuple[int, ...], _Lines] = {}


def _lines(*key: int) -> _Lines:
    """The memo of (width, den), or of (width, den, weight)."""
    memo = _LINES.get(key)
    if memo is None:
        memo = _LINES[key] = _Lines(*key)
    return memo


def _dist(exact: bool, n_bits: int, states, weights, den: int, keep: bool) -> ExactDist:
    """The law of `states`, `n_bits`-bit outcomes of mass weight/den: when
    `exact` (positive weights summing to den), its canonical body, lines in
    state order, and its sorted keys if `keep`. A uniform law sorts its
    states alone and reads each line from its weight's memo; any other
    sorts integer keys that order the states and carry their weights. A
    law not exact, or too long to write, goes through the constructor."""
    if exact:
        weight = weights[0]
        if weights.count(weight) == len(weights):
            lines = _lines(n_bits, den, weight)
            keys = sorted(states)
        else:
            lines = _lines(n_bits, den)
            keys = sorted(map(add, map(mul, states, itertools.repeat(den + 1)), weights))
        try:
            body = "\n".join(map(lines.__getitem__, keys))
        except OracleFormatError:  # serialize raises it again, when asked for the text
            pass
        else:
            return ExactDist._from_body(n_bits, body, (keys, lines.weight, den) if keep else None)
    pairs = sorted(zip(states, weights))
    top = 1 << n_bits  # keeps each state's leading zeros
    return ExactDist(n_bits, {format(top | s, "b")[1:]: Fraction(w, den) for s, w in pairs})


def kernel_laws(scm: Scm, max_forced: int | None, worlds: bool):
    """(laws, `cf1`) of `scm` from one compiled plan: the trie pass `_laws`
    with budget `max_forced` (no intervention cap), or None when that is
    None, and every CF1 triple from one parallel-worlds pass when `worlds`
    is set, else None."""
    plan = _compile(scm)
    laws = None if max_forced is None else _laws(plan, max_forced)
    cf = tuple(_worlds(plan)) if worlds else None
    return laws, cf


def _laws(plan: _Plan, max_forced: int) -> dict[int, ExactDist]:
    """The joint under every hard intervention on at most `max_forced`
    variables, keyed by its `intervention_code`.

    The interventions form a trie in topological order: at each variable
    a node branches into its mechanism, do 0 and do 1, so interventions
    that agree on a prefix share its work, and a do(X_v=b) branch adds
    (b + 1) * 3^(n-1-v) to the code. A leaf's states become its ExactDist
    at once and are dropped.

    Some subtrees are equal and are descended once. Below a node, each
    leaf is a function of the level, states, weights and denominator
    alone. Take a node whose budget lets every remaining variable be
    forced, so that its mechanism subtree and its do(b) subtree hold the
    same interventions on the remaining variables. If its step is
    deterministic (one noise branch, of weight 1 over 1) and yields the
    states do(b) yields, both subtrees start from the same (states,
    weights, den), so their leaves are equal at codes (b + 1) * 3^(n-1-v)
    apart: the mechanism subtree takes the do(b) subtree's ExactDist
    objects.
    """
    codes: list[int] = []
    dists: list[ExactDist] = []
    _descend(plan, 0, [0], [1], 1, 0, max_forced, codes, dists, max_forced <= 1)
    return dict(zip(codes, dists))


def _descend(plan, level, states, weights, den, code, budget, codes, dists, keep) -> None:
    """Run the mechanisms from `level` on, branching off the do() subtries;
    `code` sums the digits forced so far. Each leaf appends its code to
    `codes` and its law (with its keys if `keep`) to `dists`; the last
    level's do() leaves are appended here, not from a call of their own."""
    steps, exact, n = plan.steps, plan.exact, plan.n
    last = len(steps)
    for level in range(level, last):
        place, bit, test, mask, invert, branches, step_den = steps[level]
        if budget:
            zeros_at = len(codes)
            ones = [s | bit for s in states]
            if level + 1 == last:
                codes += (code + place, code + 2 * place)
                dists += (_dist(exact, n, states, weights, den, keep),
                          _dist(exact, n, ones, weights, den, keep))
                ones_at = zeros_at + 1
            else:
                _descend(plan, level + 1, states, weights, den,
                         code + place, budget - 1, codes, dists, keep)
                ones_at = len(codes)
                _descend(plan, level + 1, ones, weights, den,
                         code + 2 * place, budget - 1, codes, dists, keep)
        if len(branches) == 1:
            ((flip, k),) = branches
            out = _extend(states, test, mask, invert ^ flip, bit)
            if budget >= last - level and k == step_den == 1 and (out == states or out == ones):
                # this mechanism subtree equals the do(b) one (see _laws):
                # its leaves again, the digit off the code
                start, stop, digit = (
                    (zeros_at, ones_at, place) if out == states
                    else (ones_at, len(codes), 2 * place)
                )
                codes += map((-digit).__add__, codes[start:stop])
                dists += dists[start:stop]
                return
            states = out
            weights = _scaled(weights, k)
        else:
            next_states: list[int] = []
            next_weights: list[int] = []
            for flip, k in branches:
                next_states += _extend(states, test, mask, invert ^ flip, bit)
                next_weights += _scaled(weights, k)
            states, weights = next_states, next_weights
        den *= step_den
    codes.append(code)
    dists.append(_dist(exact, n, states, weights, den, keep))


def _worlds(plan: _Plan) -> list[ExactDist]:
    """Parallel-worlds pass (Avin, Shpitser & Pearl 2005): the CF1 law of
    every variable, in index order, from one forward pass.

    A state packs 2n+1 worlds over one noise draw, each n bits wide with
    variable v at bit n-1-v: the factual world in the highest n bits, then
    do(X_v=0) and do(X_v=1) for each variable v in turn. Variable v's
    triple is the factual world followed by its two do() worlds, a 3n-bit
    outcome. Distinct noise branches set different factual bits, so
    states never collide, in the pass or in a triple.
    """
    n = plan.n
    repunit = sum(1 << (w * n) for w in range(2 * n + 1))
    states, weights, den = [0], [1], 1
    for _, bit, test, mask, invert, branches, step_den in plan.steps:
        # the variable's bit in its do(X_v=1) world, 2(n-1-v) worlds up
        one = bit << 2 * n * (bit.bit_length() - 1)
        column = bit * repunit ^ (one | one << n)  # the worlds its mechanism sets
        states = _world_step(states, test, mask, bit, column, one, invert, branches)
        if len(branches) == 1:
            weights = _scaled(weights, branches[0][1])
        else:
            weights = [w for _, num in branches for w in _scaled(weights, num)]
        den *= step_den
    top, pair = 2 * n * n, (1 << 2 * n) - 1
    facts = [(s >> top) << 2 * n for s in states]
    return [
        _dist(plan.exact, 3 * n,
              [f | ((s >> 2 * (n - 1 - v) * n) & pair) for f, s in zip(facts, states)],
              weights, den, True)
        for v in range(n)
    ]


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
    if not shifts:  # a CONST gate, or a test of no parents
        fixed = column if test == gates.ALL else 0  # AND of nothing is 1
        out = [s ^ fixed for s in states] if fixed else states
    else:
        combine = {gates.ANY: or_, gates.ALL: and_, gates.XOR: xor}[test]
        acc = None
        for d in shifts:
            moved = [s >> d for s in states] if d >= 0 else [s << -d for s in states]
            acc = moved if acc is None else list(map(combine, acc, moved))
        out = [s ^ (a & column) for s, a in zip(states, acc)]
    next_states: list[int] = []
    for flip, _ in branches:
        toggle = one ^ column if invert ^ flip else one
        next_states += [s ^ toggle for s in out]
    return next_states


def observational(scm: Scm) -> ExactDist:
    """Exact joint distribution of the n variables."""
    return kernel_laws(scm, 0, False)[0][0]


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
    do(X_v=b) for every v and b, all on the same noise draw."""
    return kernel_laws(scm, None, True)[1]


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
    return _laws(plan, plan.n)


def int_all(scm: Scm) -> tuple[tuple[Intervention, ExactDist], ...]:
    """Exact joint under every one of the 3^n hard interventions, in
    `all_interventions` order.

    The kernel keys each law by its `intervention_code` and descends a
    do() subtree once where a deterministic mechanism already yields the
    forced bit on every state it reaches (`_laws`); the interventions of
    the twin subtree then hold the same ExactDist objects. That is exact:
    each law below is a function of the states, weights and denominator
    the two subtrees start from, and those are equal. Each law of an
    exact model holds its canonical body alone, and its `mass` is built
    from that text on first read."""
    laws, n = int_all_laws(scm), scm.n
    return tuple([(iv, laws[intervention_code(n, iv.assignments)]) for iv in all_interventions(n)])
