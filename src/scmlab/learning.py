"""No-free-lunch harness for observational learners on the layer graphs.

Every graph in the family induces the same observational law, so a
learner that sees only observational data cannot beat guessing: its
exact-recovery rate is at most 2^-(m*m) and its error on a single
interventional query is at least 1/4. This module measures built-in
learners against those bounds, in a seeded Monte-Carlo mode and in an
exact-analysis mode that enumerates graphs (and, where a dataset enters,
its sufficient statistic) instead of sampling.

Randomness discipline: one master seed; every stream is derived as
sha256(master, stream-label, trial-index), so graph choice, data, and
learner randomness are independent and each trial is reproducible in
isolation. The underlying generator is recorded in every report. A
stream whose draws nothing reads is never seeded, which changes no draw
that is read: not the data of an empty dataset, not the learner stream
of a learner that does not guess, and not the data stream of a learner
or a constant predictor that ignores the dataset.
Within one call each stream keeps one sha256, fed the text before the
trial index once, and one mt19937 generator: each trial copies the hash,
feeds it the index, and re-seeds the generator with the seed that gives,
which is `derive_seed(master, label, trial)`, in one call of the C
seeder. So the rng an episode yields is valid only until the next
episode.
One generator, `_episodes`, drives the Monte-Carlo loops of `run_nfl`
and `per_query_error`: it refuses a bad `trials`, `seed` or `n_samples`
before any stream is built or graph computed, and looks up the graph
table of m under one caps snapshot once. Episodes and the learners read
graphs from that table by mask: each graph's INT1 oracle, its bytes and,
once an episode reads its data, its observational law's integer CDF,
each computed once per graph and snapshot. `per_query_error` reads each
row of a graph's query truths from the table's graph too, once, and sums
the exact error once per distinct (answer, truth) pair.
"""

from __future__ import annotations

import _random
import hashlib
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .caps import check, snapshot
from .catalog import Family
from .errors import BadRangeError, ScmLabError
from .families import BIPARTITE, graph_of_mask
from .oracle import INT1, OBS, AnswerOracle, compute_oracle, oracle_index, parse, serialize
from .rational import HALF, ONE, ZERO
from .scm_core import ExactDist, NoiseDist, Mechanism, Scm, _Bounded, observational
from . import gates

PRNG_ID = "mt19937+sha256-stream"

EXACT = "exact"
MONTE_CARLO = "mc"


def derive_seed(master: int, *labels) -> int:
    """Stable 64-bit stream seed from the master seed and labels: the first
    8 bytes of the sha256 of `ascii((master, *labels))`, which is their
    `repr` for every label `repr` writes in ASCII."""
    text = ascii((int(master),) + tuple(labels)).encode("ascii")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


class _Generator(random.Random):
    """The generator of a stream: a `random.Random` whose `seed` is the C
    MT19937 seeder that `random.Random.seed` calls after its type checks,
    so an int seed gives the state `random.Random(seed)` starts from. It
    leaves `gauss_next` as it was, which no episode reads."""

    seed = _random.Random.seed


class _Stream:
    """One labelled stream of a Monte-Carlo call.

    `seed(trial)` is `derive_seed(master, label, trial)`: the sha256 is
    fed the text before the trial once, and each trial copies it and
    feeds `b"%d)" % trial`. `rng(seed)` re-seeds the stream's one
    `_Generator`, made on its first call, with one call of the C seeder
    and returns it; the generator is valid only until the next call.
    """

    def __init__(self, master: int, label: str):
        self._prefix = hashlib.sha256(ascii((master, label))[:-1].encode("ascii") + b", ")
        self._rng = None

    def seed(self, trial: int) -> int:
        hashed = self._prefix.copy()
        hashed.update(b"%d)" % trial)
        return int.from_bytes(hashed.digest()[:8], "big")

    def rng(self, seed: int) -> random.Random:
        if self._rng is None:
            self._rng = _Generator(seed)
        else:
            self._rng.seed(seed)
        return self._rng


@dataclass(frozen=True)
class Dataset:
    """Observational sample: i.i.d. outcome rows plus its provenance."""

    n: int
    rows: tuple[str, ...]
    seed: int
    source: str


class _Sampler(NamedTuple):
    """Integer inverse CDF of one exact law: a uniform draw below
    `denominator` (the lcm of the mass denominators) picks the first
    outcome whose cumulative numerator exceeds it."""

    outcomes: tuple[str, ...]
    cumulative: tuple[int, ...]
    denominator: int


def _sampler(dist: ExactDist) -> _Sampler:
    _, weights, den = dist._int_view()
    return _Sampler(tuple(dist.outcomes()), tuple(accumulate(weights)), den)


def _below(getrandbits, n: int) -> int:
    """`randrange(n)` of the generator whose `getrandbits` is given, for an
    int n >= 1: CPython's own rule (`_randbelow_with_getrandbits`, the same
    on 3.10 to 3.13), `getrandbits(k)` for k = n.bit_length() until the draw
    is below n. One Python frame around the C `getrandbits`, where
    `random.Random.randrange` takes two."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw(sampler: _Sampler, count: int, rng: random.Random) -> tuple[str, ...]:
    """`count` rows, one `rng.randrange(denominator)` each (`_below`).
    Callers seed no stream for no rows."""
    outcomes, cumulative, denominator = sampler
    getrandbits = rng.getrandbits
    return tuple(
        [outcomes[bisect_right(cumulative, _below(getrandbits, denominator))] for _ in range(count)]
    )


def _check_count(name: str, count) -> None:
    if type(count) is not int or count < 0:  # a bool is no count
        raise BadRangeError(f"{name} must be nonnegative, got {count!r}")


def _check_seed(seed) -> None:
    if type(seed) is not int:  # None seeds from OS entropy, derive_seed runs 1.5 as 1
        raise BadRangeError(f"seed must be an integer, got {seed!r}")


def sample_obs(scm: Scm, count: int, seed: int, source: str = "scm") -> Dataset:
    """Draw `count` i.i.d. rows from the exact observational law.

    Sampling is exact: one uniform integer below the lcm of the mass
    denominators is compared against cumulative numerators, so no float
    ever enters.
    """
    _check_count("count", count)
    _check_seed(seed)
    sampler = _sampler(observational(scm))
    rows = _draw(sampler, count, random.Random(seed)) if count else ()
    return Dataset(scm.n, rows, seed, source)


class _Graph:
    """What episodes read of one layer graph, computed from its own SCM:
    its INT1 oracle, the oracle's bytes (the truth a prediction must
    equal), a sampler of its obs law, built when data is first read, and
    its query truths, one row of them when a query first reads the row."""

    def __init__(self, oracle: AnswerOracle):
        self.oracle, self.data = oracle, serialize(oracle)
        self._truths = {}

    @cached_property
    def sampler(self) -> _Sampler:
        return _sampler(self.oracle.component("obs"))

    def truths(self, i: int) -> tuple[tuple[int, int], ...]:
        """P(b_j = 0 | do(a_i = 0)) for each j < m, each one `prob_bit` of
        the do(a_i = 0) law, as (numerator, denominator) in lowest terms. A
        Fraction hashes in Python: a tally keyed by two int pairs updates
        in about 0.7 us, one keyed by two Fractions in 5.8 us (Python 3.11,
        Xeon). A row is read when first asked for, so a cold graph costs
        no more probes than the episodes that query it."""
        row = self._truths.get(i)
        if row is None:
            law = self.oracle.component(f"do i={1 + i} b=0")
            m = self.oracle.n // 2
            row = tuple([_pair(law.prob_bit(1 + m + j, 0)) for j in range(m)])
            self._truths[i] = row
        return row


def _pair(value: Fraction) -> tuple[int, int]:
    return value.numerator, value.denominator


class _Table(_Bounded):
    """The graphs of one m under one caps snapshot, by mask: `table[mask]`
    computes a graph from the table's one `Family` when first read (its
    maker). A table holds at most min(2^(m*m), 1,024) graphs and drops them
    all when full, so no table of m <= 3 ever drops one."""

    __slots__ = ("m", "caps")

    def __init__(self, m: int, caps):
        family = Family(BIPARTITE, m)
        super().__init__(min(1 << (m * m), 1 << 10), lambda mask: _Graph(
            compute_oracle(family.build(graph_of_mask(m, mask)), INT1)))
        self.m, self.caps = m, caps


# the graph tables by (m, caps snapshot), each counted as the graphs it may
# hold, so together they hold at most 1,024: every graph up to m=3 (2 + 16 +
# 512) under one snapshot
_TABLES = _Bounded(1 << 10, name="learning._TABLES")


def _table(m: int, caps) -> _Table:
    """The graph table of m under the caps snapshot `caps`."""
    table = _TABLES.get((m, caps))
    if table is None:
        table = _Table(m, caps)
        _TABLES.keep((m, caps), table, table.limit)
    return table


def _episodes(m: int, n_samples: int, trials: int, seed: int, labels, reads: bool):
    """An iterator of (trial, rng, graph, dataset, table), one per
    Monte-Carlo episode, `table` being the graph table of m under the
    caps snapshot of the call. It is returned once `trials` is an int >= 1,
    `seed` an int and `n_samples` an int >= 0 (a bool is none of them),
    and before that no stream is built. The hidden graph is drawn
    uniformly from the stream rng (seed, labels[0], trial), and its
    `n_samples` rows from the stream (seed, labels[1], trial). The rng is
    the graph stream's one generator, valid until the next episode. The
    table is looked up once, and each episode reads its graph by mask.

    A stream whose draws nothing reads is never seeded. Unless `reads`
    says the caller reads the dataset, the dataset is None and its seed
    is not even derived; otherwise its stream is seeded only when it
    draws a row.
    """
    if type(trials) is not int or trials < 1:
        raise BadRangeError(f"monte-carlo mode needs trials >= 1, got {trials!r}")
    _check_seed(seed)
    _check_count("n_samples", n_samples)
    table = _table(m, snapshot())
    graphs, data = (_Stream(seed, label) for label in labels)
    count, source = 1 << (m * m), f"bipartite m={m}"

    def episodes():
        dataset = None
        for trial in range(trials):
            rng = graphs.rng(graphs.seed(trial))
            graph = table[_below(rng.getrandbits, count)]
            if reads:
                data_seed = data.seed(trial)
                rows = _draw(graph.sampler, n_samples, data.rng(data_seed)) if n_samples else ()
                dataset = Dataset(graph.oracle.n, rows, data_seed, source)
            yield trial, rng, graph, dataset, table

    return episodes()


def _int1_counts(m: int) -> Counter:
    """How many graphs share each INT1 oracle, keyed by its bytes."""
    return Counter(oracle_index(Family(BIPARTITE, m), INT1))


def _independent_fit_oracle(n: int, count: int, ones: tuple[int, ...]) -> AnswerOracle:
    """INT1 oracle of the independent product model fitted to `count`
    rows in which variable i is 1 `ones[i]` times.

    Each variable gets a source mechanism at its empirical frequency
    (exactly 1/2 on an empty dataset), so the prediction flows through
    the same oracle pipeline as the truth.
    """
    mechanisms = tuple(
        Mechanism(
            gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(k, count) if count else HALF)
        )
        for k in ones
    )
    return compute_oracle(Scm(n, mechanisms), INT1)


# the fits' INT1 bytes by (n, count, ones, caps snapshot), in fits, which
# episodes and the exact rate both read: three rounds of nfl_mc make 17
_FIT_BYTES = _Bounded(256, lambda key: serialize(_independent_fit_oracle(*key[:3])),
                      "learning._FIT_BYTES")


class _Learner:
    """Base of the built-in learners. `predict_bytes` is each learner's
    one prediction path: the serialized INT1 oracle it predicts, read
    from the graph table of m under one caps snapshot, `table`, or from
    memos keyed by that snapshot, `table.caps`. `predict` parses it.
    `draws` says whether the prediction reads its rng stream and
    `reads_data` whether it reads the dataset; Monte-Carlo episodes seed
    no stream the learner does not read, and hand it no dataset (None)
    when it reads none."""

    draws = False
    reads_data = False

    def predict(self, dataset: Dataset, m: int, rng: random.Random) -> AnswerOracle:
        return parse(self.predict_bytes(dataset, _table(m, snapshot()), rng))


class UniformGuessLearner(_Learner):
    """Ignores the data; guesses a graph uniformly from its rng stream."""

    id = "uniform-guess"
    draws = True

    def predict_bytes(self, dataset: Dataset, table: _Table, rng: random.Random) -> bytes:
        return table[_below(rng.getrandbits, 1 << (table.m * table.m))].data

    def exact_rate(self, m: int, n_samples: int) -> Fraction:
        # a guess matches a truth exactly when both land in the same class
        count = 1 << (m * m)
        matches = sum(c * c for c in _int1_counts(m).values())
        return Fraction(matches, count * count)


class ConstantEmptyLearner(_Learner):
    """Always predicts the empty graph."""

    id = "constant-empty"

    def predict_bytes(self, dataset: Dataset, table: _Table, rng: random.Random) -> bytes:
        return table[0].data

    def exact_rate(self, m: int, n_samples: int) -> Fraction:
        count = 1 << (m * m)
        return Fraction(_int1_counts(m)[_table(m, snapshot())[0].data], count)


class EmpiricalIndependentLearner(_Learner):
    """Fits independent per-variable marginals; predicts that product."""

    id = "empirical-independent"
    reads_data = True

    def predict_bytes(self, dataset: Dataset, table: _Table, rng: random.Random) -> bytes:
        rows = Counter(dataset.rows)
        ones = tuple(
            sum(k for row, k in rows.items() if row[i] == "1") for i in range(dataset.n)
        )
        return _FIT_BYTES[dataset.n, len(dataset.rows), ones, table.caps]

    def exact_rate(self, m: int, n_samples: int) -> Fraction:
        # Rows are i.i.d. over {all-zeros, all-ones} with probability 1/2
        # each (the one shared observational law), so the dataset's
        # sufficient statistic is k = number of all-ones rows, and each
        # variable is 1 in exactly k rows.
        count = 1 << (m * m)
        n = Family(BIPARTITE, m).n_vars()
        truth_counts = _int1_counts(m)
        caps = snapshot()
        rate = ZERO
        for k in range(n_samples + 1):
            predicted = _FIT_BYTES[n, n_samples, (k,) * n, caps]
            weight = Fraction(math.comb(n_samples, k), 2**n_samples)
            rate += weight * Fraction(truth_counts[predicted], count)
        return rate


LEARNERS = {
    learner.id: learner
    for learner in (
        UniformGuessLearner(),
        ConstantEmptyLearner(),
        EmpiricalIndependentLearner(),
    )
}


@dataclass(frozen=True)
class NflReport:
    """Outcome of one no-free-lunch measurement."""

    m: int
    n_samples: int
    learner_id: str
    mode: str
    trials: int | None
    successes: int | None
    success_rate: Fraction
    bound: Fraction
    seed: int | None
    prng: str
    per_query_error: Fraction | None = None


def _check_m(what: str, m: int) -> None:
    """Refuse m outside 1..SCMLAB_NFL_MMAX before any work; the refused
    work is the 2^(m*m) graphs the exact accounting reads. `what` names
    the call, with {} where m goes. A bool is no m."""
    if type(m) is not int or m < 1:
        raise BadRangeError(f"m must be at least 1, got {m!r}")
    check("SCMLAB_NFL_MMAX", m, what, lambda: {2: m * m}, "graphs")


def run_nfl(
    m: int,
    n_samples: int,
    learner_id: str,
    mode: str = MONTE_CARLO,
    trials: int | None = None,
    seed: int | None = None,
) -> NflReport:
    """Measure a learner's exact-recovery rate against the 2^-(m*m) bound.

    Exact mode enumerates every graph (and the dataset's sufficient
    statistic where the learner reads data) and returns the closed-form
    rate. Monte-Carlo mode samples `trials` full episodes: hidden graph,
    observational dataset, prediction, byte-exact comparison.
    """
    _check_m("nfl on m={}", m)
    _check_count("n_samples", n_samples)
    if learner_id not in LEARNERS:
        raise BadRangeError(f"unknown learner {learner_id!r}")
    learner = LEARNERS[learner_id]
    if mode == EXACT:
        trials = successes = seed = None
        rate = learner.exact_rate(m, n_samples)
    elif mode == MONTE_CARLO:
        successes = 0
        episodes = _episodes(m, n_samples, trials, seed, ("graph", "data"), learner.reads_data)
        guesses = _Stream(seed, "learner") if learner.draws else None
        for trial, _, graph, dataset, table in episodes:
            learner_rng = guesses.rng(guesses.seed(trial)) if guesses else None
            if learner.predict_bytes(dataset, table, learner_rng) == graph.data:
                successes += 1
        rate = Fraction(successes, trials)
    else:
        raise BadRangeError(f"unknown mode {mode!r}")
    bound = Fraction(1, 1 << (m * m))
    return NflReport(m, n_samples, learner_id, mode, trials, successes, rate, bound, seed, PRNG_ID)


def per_query_error(
    m: int,
    predictor,
    mode: str = EXACT,
    n_samples: int | None = None,
    trials: int | None = None,
    seed: int | None = None,
) -> Fraction:
    """Expected error on the query P(b_j = 0 | do(a_i = 0)).

    The true value is 1 when (i, j) is an edge and 1/2 otherwise, and
    under the uniform prior each case has probability 1/2, so a fixed
    answer a errs by (1/2)|a - 1| + (1/2)|a - 1/2| >= 1/4. Exact mode
    takes a constant predictor (a Fraction) and returns that closed form.
    Monte-Carlo mode accepts a callable predictor(dataset) as well and
    averages the exact per-trial errors over sampled episodes; only a
    callable predictor gets a dataset, so only its episodes draw data.
    """
    _check_m("per-query error on m={}", m)
    if mode == EXACT:
        if callable(predictor):
            raise BadRangeError("exact mode needs a constant predictor")
        answer = Fraction(predictor)
        error = HALF * abs(answer - ONE) + HALF * abs(answer - HALF)
        if error < Fraction(1, 4):
            raise ScmLabError(f"per-query error {error} fell below 1/4; math bug")
        return error
    if mode != MONTE_CARLO:
        raise BadRangeError(f"unknown mode {mode!r}")
    reads = callable(predictor)
    constant = None if reads else _pair(Fraction(predictor))
    labels = ("query-episode", "query-data")
    tally = Counter()  # episodes per distinct (answer, truth), each a _pair
    for _, rng, graph, dataset, _ in _episodes(m, n_samples, trials, seed, labels, reads):
        i = _below(rng.getrandbits, m)
        j = _below(rng.getrandbits, m)
        answer = _pair(Fraction(predictor(dataset))) if reads else constant
        tally[answer, graph.truths(i)[j]] += 1
    total = sum([count * abs(Fraction(*answer) - Fraction(*truth))
                 for (answer, truth), count in tally.items()])
    return total / trials


@dataclass(frozen=True)
class MutualInfoReport:
    """Whether the graph can leak through observational data at all.

    `mutual_information_bits` is None when the laws differ (positive but
    not computed here); it is exactly 0 when they coincide.
    """

    m: int
    graph_count: int
    identical_laws: bool
    mutual_information_bits: int | None


def mutual_information_check(m: int) -> MutualInfoReport:
    """I(graph; dataset) is exactly 0 iff every graph shares one
    observational law; check that by byte equality over the family."""
    laws = oracle_index(Family(BIPARTITE, m), OBS)
    identical = len(set(laws)) == 1
    return MutualInfoReport(m, len(laws), identical, 0 if identical else None)
