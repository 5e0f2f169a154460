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
isolation. The underlying generator is recorded in every report.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .caps import cap
from .errors import BadRangeError, MTooLargeError, ScmLabError
from .families import BIPARTITE, Family, graph_of_mask
from .oracle import INT1, OBS, AnswerOracle, compute_oracle, oracle_index, serialize
from .rational import HALF, ONE, ZERO
from .scm_core import Intervention, NoiseDist, Mechanism, Scm, interventional, observational
from . import gates

PRNG_ID = "mt19937+sha256-stream"

EXACT = "exact"
MONTE_CARLO = "mc"


def derive_seed(master: int, *labels) -> int:
    """Stable 64-bit stream seed from the master seed and labels."""
    text = repr((int(master),) + tuple(labels)).encode("ascii")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


@dataclass(frozen=True)
class Dataset:
    """Observational sample: i.i.d. outcome rows plus its provenance."""

    n: int
    rows: tuple[str, ...]
    seed: int
    source: str


def sample_obs(scm: Scm, count: int, seed: int, source: str = "scm") -> Dataset:
    """Draw `count` i.i.d. rows from the exact observational law.

    Sampling is exact: one uniform integer below the lcm of the mass
    denominators is compared against cumulative numerators, so no float
    ever enters.
    """
    if count < 0:
        raise BadRangeError(f"count must be nonnegative, got {count}")
    dist = observational(scm)
    outcomes = dist.outcomes()
    denominator = math.lcm(*(dist.mass[o].denominator for o in outcomes))
    cumulative = []
    running = 0
    for o in outcomes:
        running += dist.mass[o].numerator * (denominator // dist.mass[o].denominator)
        cumulative.append(running)
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        draw = rng.randrange(denominator)
        for o, bound in zip(outcomes, cumulative):
            if draw < bound:
                rows.append(o)
                break
    return Dataset(scm.n, tuple(rows), seed, source)


@lru_cache(maxsize=None)
def _graph_oracle(m: int, mask: int) -> AnswerOracle:
    """INT1 oracle for the graph with adjacency mask `mask` (frozen, shared)."""
    return compute_oracle(Family(BIPARTITE, m).build(graph_of_mask(m, mask)), INT1)


@lru_cache(maxsize=None)
def _graph_oracle_bytes(m: int, mask: int) -> bytes:
    return serialize(_graph_oracle(m, mask))


def _int1_counts(m: int) -> Counter:
    """How many graphs share each INT1 oracle, keyed by its bytes."""
    return Counter(oracle_index(Family(BIPARTITE, m), INT1))


def _independent_fit_oracle(dataset: Dataset) -> AnswerOracle:
    """INT1 oracle of the independent product model fitted to the rows.

    Each variable gets a source mechanism at its empirical frequency
    (exactly 1/2 on an empty dataset), so the prediction flows through
    the same oracle pipeline as the truth.
    """
    n = dataset.n
    count = len(dataset.rows)
    mechanisms = []
    for i in range(n):
        if count:
            p = Fraction(sum(1 for row in dataset.rows if row[i] == "1"), count)
        else:
            p = HALF
        mechanisms.append(Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(p)))
    return compute_oracle(Scm(n, tuple(mechanisms)), INT1)


class UniformGuessLearner:
    """Ignores the data; guesses a graph uniformly from its rng stream."""

    id = "uniform-guess"
    stochastic = True

    def predict(self, dataset: Dataset, m: int, rng: random.Random) -> AnswerOracle:
        mask = rng.randrange(1 << (m * m))
        return _graph_oracle(m, mask)

    def exact_rate(self, m: int, n_samples: int) -> Fraction:
        # a guess matches a truth exactly when both land in the same class
        count = 1 << (m * m)
        matches = sum(c * c for c in _int1_counts(m).values())
        return Fraction(matches, count * count)


class ConstantEmptyLearner:
    """Always predicts the empty graph."""

    id = "constant-empty"
    stochastic = False

    def predict(self, dataset: Dataset, m: int, rng: random.Random) -> AnswerOracle:
        return _graph_oracle(m, 0)

    def exact_rate(self, m: int, n_samples: int) -> Fraction:
        count = 1 << (m * m)
        return Fraction(_int1_counts(m)[_graph_oracle_bytes(m, 0)], count)


class EmpiricalIndependentLearner:
    """Fits independent per-variable marginals; predicts that product."""

    id = "empirical-independent"
    stochastic = False

    def predict(self, dataset: Dataset, m: int, rng: random.Random) -> AnswerOracle:
        return _independent_fit_oracle(dataset)

    def exact_rate(self, m: int, n_samples: int) -> Fraction:
        # Rows are i.i.d. over {all-zeros, all-ones} with probability 1/2
        # each (the one shared observational law), so the dataset's
        # sufficient statistic is k = number of all-ones rows.
        count = 1 << (m * m)
        n = 2 * m + 1
        truth_counts = _int1_counts(m)
        rate = ZERO
        for k in range(n_samples + 1):
            rows = ("1" * n,) * k + ("0" * n,) * (n_samples - k)
            dataset = Dataset(n, rows, 0, "sufficient-statistic")
            predicted = serialize(self.predict(dataset, m, random.Random(0)))
            matches = truth_counts[predicted]
            weight = Fraction(math.comb(n_samples, k), 2**n_samples)
            rate += weight * Fraction(matches, count)
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


def run_nfl(
    m: int,
    n_samples: int,
    learner_id: str,
    mode: str = MONTE_CARLO,
    trials: int | None = None,
    seed: int | None = None,
    m_cap: int | None = None,
) -> NflReport:
    """Measure a learner's exact-recovery rate against the 2^-(m*m) bound.

    Exact mode enumerates every graph (and the dataset's sufficient
    statistic where the learner reads data) and returns the closed-form
    rate. Monte-Carlo mode samples `trials` full episodes: hidden graph,
    observational dataset, prediction, byte-exact comparison.
    """
    limit = cap("SCMLAB_NFL_MMAX") if m_cap is None else m_cap
    if m > limit:
        raise MTooLargeError(f"nfl on m={m} exceeds cap {limit}")
    if m < 1:
        raise BadRangeError(f"m must be at least 1, got {m}")
    if n_samples < 0:
        raise BadRangeError(f"n_samples must be nonnegative, got {n_samples}")
    if learner_id not in LEARNERS:
        raise BadRangeError(f"unknown learner {learner_id!r}")
    learner = LEARNERS[learner_id]
    bound = Fraction(1, 1 << (m * m))
    if mode == EXACT:
        rate = learner.exact_rate(m, n_samples)
        return NflReport(
            m, n_samples, learner_id, EXACT, None, None, rate, bound, None, PRNG_ID
        )
    if mode != MONTE_CARLO:
        raise BadRangeError(f"unknown mode {mode!r}")
    if trials is None or trials < 1:
        raise BadRangeError("monte-carlo mode needs trials >= 1")
    if seed is None:
        raise BadRangeError("monte-carlo mode needs a seed")
    count = 1 << (m * m)
    family = Family(BIPARTITE, m)
    successes = 0
    for trial in range(trials):
        graph_rng = random.Random(derive_seed(seed, "graph", trial))
        mask = graph_rng.randrange(count)
        truth = _graph_oracle_bytes(m, mask)
        scm = family.build(graph_of_mask(m, mask))
        dataset = sample_obs(
            scm, n_samples, derive_seed(seed, "data", trial), source=f"bipartite m={m}"
        )
        learner_rng = random.Random(derive_seed(seed, "learner", trial))
        predicted = serialize(learner.predict(dataset, m, learner_rng))
        if predicted == truth:
            successes += 1
    return NflReport(
        m,
        n_samples,
        learner_id,
        MONTE_CARLO,
        trials,
        successes,
        Fraction(successes, trials),
        bound,
        seed,
        PRNG_ID,
    )


def per_query_error(
    m: int,
    predictor,
    mode: str = EXACT,
    n_samples: int | None = None,
    trials: int | None = None,
    seed: int | None = None,
    m_cap: int | None = None,
) -> Fraction:
    """Expected error on the query P(b_j = 0 | do(a_i = 0)).

    The true value is 1 when (i, j) is an edge and 1/2 otherwise, and
    under the uniform prior each case has probability 1/2, so a fixed
    answer a errs by (1/2)|a - 1| + (1/2)|a - 1/2| >= 1/4. Exact mode
    takes a constant predictor (a Fraction) and returns that closed form.
    Monte-Carlo mode accepts a callable predictor(dataset) as well and
    averages the exact per-trial errors over sampled episodes.
    """
    limit = cap("SCMLAB_NFL_MMAX") if m_cap is None else m_cap
    if m > limit:
        raise MTooLargeError(f"per-query error on m={m} exceeds cap {limit}")
    if m < 1:
        raise BadRangeError(f"m must be at least 1, got {m}")
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
    if trials is None or trials < 1 or seed is None or n_samples is None:
        raise BadRangeError("monte-carlo mode needs n_samples, trials, and a seed")
    family = Family(BIPARTITE, m)
    count = 1 << (m * m)
    total = ZERO
    for trial in range(trials):
        episode_rng = random.Random(derive_seed(seed, "query-episode", trial))
        mask = episode_rng.randrange(count)
        i = episode_rng.randrange(m)
        j = episode_rng.randrange(m)
        scm = family.build(graph_of_mask(m, mask))
        dataset = sample_obs(
            scm, n_samples, derive_seed(seed, "query-data", trial),
            source=f"bipartite m={m}",
        )
        answer = Fraction(predictor(dataset) if callable(predictor) else predictor)
        truth_dist = interventional(scm, Intervention.of({1 + i: 0}))
        truth = truth_dist.prob_bit(1 + m + j, 0)
        total += abs(answer - truth)
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
