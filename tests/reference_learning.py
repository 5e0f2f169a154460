"""Reference Monte-Carlo episodes: every stream drawn, every oracle fresh.

This is the episode loop `scmlab.learning` ran before an episode drew
its data only when a learner or predictor reads it. Each trial seeds the
graph stream, draws the hidden graph, seeds the data stream and samples
the dataset whatever reads it, and seeds the learner stream whether or
not the learner guesses. The hidden graph's INT1 oracle is computed from
its own SCM by the reference enumerator in every episode, with no
per-graph memo, and the rows are drawn by a linear scan of its obs law.
Streams are independent, so the fast loop must give the same counts,
errors and datasets as this one.
"""

import math
import random
from fractions import Fraction

from scmlab import (
    INT1,
    LEARNERS,
    MONTE_CARLO,
    PRNG_ID,
    ExactDist,
    Family,
    derive_seed,
    serialize,
)
from scmlab.families import BIPARTITE, graph_of_mask
from scmlab.learning import Dataset, NflReport

from reference_enumerator import reference_oracle
from reference_probes import prob_bit


def scan_rows(dist: ExactDist, count: int, seed: int) -> tuple[str, ...]:
    """Reference draw: one randrange below the lcm of the denominators per
    row, then a linear scan for the first cumulative numerator above it."""
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
    return tuple(rows)


def episode(m: int, n_samples: int, seed: int, labels: tuple[str, str], trial: int):
    """The episode's graph stream (for further draws), the hidden graph's
    INT1 oracle and its dataset."""
    rng = random.Random(derive_seed(seed, labels[0], trial))
    scm = Family(BIPARTITE, m).build(graph_of_mask(m, rng.randrange(1 << (m * m))))
    truth = reference_oracle(scm, INT1)
    data_seed = derive_seed(seed, labels[1], trial)
    rows = scan_rows(truth.component("obs"), n_samples, data_seed)
    return rng, truth, Dataset(scm.n, rows, data_seed, f"bipartite m={m}")


def run_nfl(m: int, n_samples: int, learner_id: str, trials: int, seed: int) -> NflReport:
    """`scmlab.run_nfl` in Monte-Carlo mode."""
    learner = LEARNERS[learner_id]
    successes = 0
    for trial in range(trials):
        _, truth, dataset = episode(m, n_samples, seed, ("graph", "data"), trial)
        learner_rng = random.Random(derive_seed(seed, "learner", trial))
        if serialize(learner.predict(dataset, m, learner_rng)) == serialize(truth):
            successes += 1
    return NflReport(
        m,
        n_samples,
        learner_id,
        MONTE_CARLO,
        trials,
        successes,
        Fraction(successes, trials),
        Fraction(1, 1 << (m * m)),
        seed,
        PRNG_ID,
    )


def per_query_error(m: int, predictor, n_samples: int, trials: int, seed: int) -> Fraction:
    """`scmlab.per_query_error` in Monte-Carlo mode: a callable predictor
    is called once per trial, in trial order."""
    total = Fraction(0)
    for trial in range(trials):
        rng, truth, dataset = episode(m, n_samples, seed, ("query-episode", "query-data"), trial)
        i = rng.randrange(m)
        j = rng.randrange(m)
        answer = Fraction(predictor(dataset) if callable(predictor) else predictor)
        total += abs(answer - prob_bit(truth.component(f"do i={1 + i} b=0"), 1 + m + j, 0))
    return total / trials
