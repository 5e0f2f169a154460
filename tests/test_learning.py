"""Seeded no-free-lunch measurements and their exact counterparts."""

import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scmlab import (
    EXACT,
    LEARNERS,
    MONTE_CARLO,
    PRNG_ID,
    INT1,
    ExactDist,
    Family,
    Mechanism,
    NoiseDist,
    Scm,
    RootedTree,
    build_tree_scm,
    compute_oracle,
    derive_seed,
    mutual_information_check,
    observational,
    per_query_error,
    run_nfl,
    sample_obs,
    serialize,
)
from scmlab import catalog, gates, learning
from scmlab.caps import all_caps, snapshot
from scmlab.errors import BadRangeError, MTooLargeError, SupportTooLargeError
from scmlab.families import graph_of_mask
from scmlab.learning import Dataset

import reference_learning
from reference_learning import scan_rows

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
THIRD = Fraction(1, 3)

# eight outcomes with masses over 36: Bernoulli 1/3 and 3/4 sources, a
# noisy xor, and an OR whose three-symbol noise the law sums out
NON_DYADIC = Scm(4, (
    Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(THIRD)),
    Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(3, 4))),
    Mechanism(gates.XOR_NOISE, (0, 1), NoiseDist.bernoulli(THIRD)),
    Mechanism(gates.OR, (0, 2), NoiseDist((0, 1, 2), (Fraction(1, 6), THIRD, Fraction(1, 2)))),
))


def rows_digest(rows) -> str:
    return hashlib.sha256("\n".join(rows).encode("ascii")).hexdigest()


@st.composite
def rational_laws(draw) -> ExactDist:
    """Positive rational laws on 2 to 8 three-bit outcomes, with weights
    of unrelated denominators normalised to sum to one."""
    size = draw(st.integers(2, 8))
    outcomes = draw(st.lists(st.integers(0, 7), min_size=size, max_size=size, unique=True))
    weights = [
        Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 60))) for _ in outcomes
    ]
    total = sum(weights)
    return ExactDist(3, {format(o, "03b"): w / total for o, w in zip(outcomes, weights)})


def all_ones_share(dataset: Dataset) -> Fraction:
    return Fraction(sum(row == "1" * dataset.n for row in dataset.rows), len(dataset.rows))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "graph", 0) == derive_seed(42, "graph", 0)
        assert derive_seed(42, "graph", 0) == 2712432163083669725

    def test_streams_are_distinct(self):
        seeds = {
            derive_seed(42, "graph", 0),
            derive_seed(42, "graph", 1),
            derive_seed(42, "data", 0),
            derive_seed(42, "learner", 0),
            derive_seed(43, "graph", 0),
        }
        assert len(seeds) == 5

    def test_fits_64_bits(self):
        assert 0 <= derive_seed(123456789, "x") < 2**64

    def test_a_non_ascii_label_is_escaped(self):
        # the text is ascii(), so "é" is written \xe9 instead of failing to encode
        want = int.from_bytes(hashlib.sha256(b"(1, '\\xe9')").digest()[:8], "big")
        assert derive_seed(1, "é") == want
        assert derive_seed(1, "é") != derive_seed(1, "e")

    @given(st.integers(), st.text(st.characters(max_codepoint=127)), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_an_ascii_label_hashes_its_repr(self, master, label, trial):
        text = repr((master, label, trial)).encode("ascii")
        assert derive_seed(master, label, trial) == int.from_bytes(
            hashlib.sha256(text).digest()[:8], "big"
        )


class TestSampleObs:
    def scm(self):
        return build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2}))

    def test_rows_come_from_support(self):
        data = sample_obs(self.scm(), 100, seed=5)
        assert set(data.rows) <= {"000", "111"}
        assert len(data.rows) == 100

    def test_reproducible(self):
        a = sample_obs(self.scm(), 50, seed=5)
        b = sample_obs(self.scm(), 50, seed=5)
        assert a == b
        c = sample_obs(self.scm(), 50, seed=6)
        assert a.rows != c.rows

    def test_empty_sample(self):
        assert sample_obs(self.scm(), 0, seed=1).rows == ()

    def test_metadata(self):
        data = sample_obs(self.scm(), 3, seed=9, source="demo")
        assert (data.n, data.seed, data.source) == (3, 9, "demo")

    def test_rejects_negative_count(self):
        with pytest.raises(BadRangeError):
            sample_obs(self.scm(), -1, seed=0)

    def test_negative_count_is_refused_before_the_law(self, no_pass, monkeypatch):
        monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "1")
        with pytest.raises(BadRangeError):
            sample_obs(NON_DYADIC, -1, seed=0)

    def test_no_rows_still_compute_the_law(self, monkeypatch):
        # only the draw is skipped for no rows: a law over the caps is refused
        monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "1")
        with pytest.raises(SupportTooLargeError):
            sample_obs(NON_DYADIC, 0, seed=0)

    @pytest.mark.parametrize(
        "seed, count, digest",
        [
            (7, 1000, "639ab7fa7ac37f500581e4bc0a795f0415295f8e1c84ff5ddc563b36aa0b4b8c"),
            (2026, 257, "e6d6be7c37adbf753c349a639c1f459a43a7ca41020b3691b7a99368891d5981"),
        ],
    )
    def test_pinned_rows_on_a_non_dyadic_law(self, seed, count, digest):
        rows = sample_obs(NON_DYADIC, count, seed).rows
        assert len(set(rows)) == 8
        assert rows_digest(rows) == digest

    @given(rational_laws(), st.integers(0, 2**64 - 1), st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_bisect_draw_matches_the_linear_scan(self, law, seed, count):
        rows = learning._draw(learning._sampler(law), count, random.Random(seed))
        assert rows == scan_rows(law, count, seed)


@pytest.mark.parametrize("seed", [None, 1.5, True, "7"], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda seed: sample_obs(NON_DYADIC, 3, seed),
        lambda seed: sample_obs(NON_DYADIC, 0, seed),
        lambda seed: run_nfl(1, 2, "uniform-guess", MONTE_CARLO, trials=4, seed=seed),
        lambda seed: per_query_error(1, HALF, MONTE_CARLO, n_samples=2, trials=4, seed=seed),
    ],
    ids=["sample_obs", "sample_obs-no-rows", "run_nfl", "per_query_error"],
)
def test_a_seed_that_is_not_an_int_is_refused(call, seed, no_pass):
    # None would seed from OS entropy, and 1.5 would run seed 1's streams
    with pytest.raises(BadRangeError):
        call(seed)


# each call takes (m, n_samples, trials, seed) and names the ones it reads
HARNESS_CALLS = {
    "run_nfl-exact": (
        lambda m, n, trials, seed: run_nfl(m, n, "constant-empty", EXACT),
        ("m", "n_samples"),
    ),
    "run_nfl-mc": (
        lambda m, n, trials, seed: run_nfl(
            m, n, "empirical-independent", MONTE_CARLO, trials, seed
        ),
        ("m", "n_samples", "trials", "seed"),
    ),
    "per_query_error-mc": (
        lambda m, n, trials, seed: per_query_error(
            m, all_ones_share, MONTE_CARLO, n, trials, seed
        ),
        ("m", "n_samples", "trials", "seed"),
    ),
    "sample_obs": (
        lambda m, n, trials, seed: sample_obs(NON_DYADIC, n, seed),
        ("n_samples", "seed"),
    ),
}
REFUSALS = [
    pytest.param(name, arg, bad, id=f"{name}-{arg}={bad!r}")
    for name, (_, args) in HARNESS_CALLS.items()
    for arg in args
    for bad in (1.5, True, None, -1)
    if (arg, bad) != ("seed", -1)  # a negative int is a seed
]


@pytest.mark.parametrize("name, arg, bad", REFUSALS)
def test_the_harness_refuses_a_bad_argument_before_any_graph(
    name, arg, bad, no_pass, monkeypatch
):
    def spy(*args):
        raise AssertionError("a graph or stream was made before the check")

    monkeypatch.setattr(learning, "_table", spy)
    monkeypatch.setattr(learning, "_Stream", spy)
    call, _ = HARNESS_CALLS[name]
    args = {"m": 1, "n_samples": 2, "trials": 4, "seed": 7, arg: bad}
    with pytest.raises(BadRangeError) as refused:
        call(args["m"], args["n_samples"], args["trials"], args["seed"])
    assert str(refused.value).endswith(f"got {bad!r}")


class TestLearnerRegistry:
    def test_ids(self):
        assert set(LEARNERS) == {
            "uniform-guess",
            "constant-empty",
            "empirical-independent",
        }

    def test_empirical_fit_degenerates_on_constant_data(self):
        learner = LEARNERS["empirical-independent"]
        data = Dataset(3, ("000",) * 4, 0, "fixed")
        oracle = learner.predict(data, 1, random.Random(0))
        assert oracle.component("obs").mass == {"000": Fraction(1)}

    @given(st.integers(1, 3).flatmap(
        lambda n: st.lists(st.text("01", min_size=n, max_size=n), max_size=12)
    ))
    @settings(max_examples=60, deadline=None)
    def test_empirical_fit_counts_each_variables_ones(self, rows):
        # the fit reads one count of ones per variable, however it tallies
        # the rows, so it predicts the oracle of those per-variable counts
        n = len(rows[0]) if rows else 2
        ones = tuple(sum(row[i] == "1" for row in rows) for i in range(n))
        oracle = LEARNERS["empirical-independent"].predict(
            Dataset(n, tuple(rows), 0, "drawn"), 1, None
        )
        assert serialize(oracle) == serialize(
            learning._independent_fit_oracle(n, len(rows), ones)
        )

    def test_constant_empty_predicts_empty_graph(self):
        learner = LEARNERS["constant-empty"]
        data = Dataset(3, (), 0, "empty")
        oracle = learner.predict(data, 1, random.Random(0))
        empty = Family("bipartite", 1).build(graph_of_mask(1, 0))
        assert serialize(oracle) == serialize(compute_oracle(empty, INT1))

    def test_graph_cache_reads_each_graphs_own_law(self, monkeypatch):
        # every member shares one law, so give each graph a law of its own
        # to tell a per-graph computation from one law reused across masks
        def edge_count_law(graph):
            source = Mechanism(
                gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 2 + len(graph.edges)))
            )
            return Scm(2 * graph.m + 1, (source,) * (2 * graph.m + 1))

        row = dataclasses.replace(catalog.FAMILIES["bipartite"], build=edge_count_law)
        monkeypatch.setitem(catalog.FAMILIES, "bipartite", row)
        caps = tuple(all_caps().items())
        for mask in range(16):
            scm = edge_count_law(graph_of_mask(2, mask))
            graph = learning._table(2, caps)[mask]
            assert graph.data == serialize(compute_oracle(scm, INT1))
            # the sampler is built on the graph's first draw, once
            assert "sampler" not in vars(graph)
            assert graph.sampler == learning._sampler(observational(scm))
            assert learning._table(2, caps)[mask].sampler is graph.sampler

    def test_learners_that_read_no_data_build_no_sampler(self):
        for learner_id in ("uniform-guess", "constant-empty"):
            run_nfl(2, 4, learner_id, MONTE_CARLO, trials=40, seed=7)
        caps = tuple(all_caps().items())
        table = learning._table(2, caps)
        graphs = [table[mask] for mask in range(16)]
        assert list(learning._TABLES) == [(2, caps)] and len(table) == 16
        assert not any("sampler" in vars(graph) for graph in graphs)
        run_nfl(2, 4, "empirical-independent", MONTE_CARLO, trials=40, seed=7)
        assert any("sampler" in vars(graph) for graph in graphs)

    def test_the_tables_hold_at_most_1024_graphs(self, monkeypatch):
        # each table counts as the graphs it may hold: every graph of m <= 3
        # under one snapshot fits, a second snapshot's m=3 table drops them,
        # and an m=4 table holds at most 1,024 of its 65,536
        caps = snapshot()
        tables = [learning._table(m, caps) for m in (1, 2, 3)]
        assert [table.limit for table in tables] == [2, 16, 512]
        assert learning._TABLES.held == 530 and len(learning._TABLES) == 3
        assert all(learning._table(m, caps) is table for m, table in zip((1, 2, 3), tables))
        monkeypatch.setenv("SCMLAB_TREE_NMAX", "6")
        learning._table(3, snapshot())
        assert list(learning._TABLES) == [(3, snapshot())] and learning._TABLES.held == 512
        assert learning._table(4, snapshot()).limit == 1024
        assert list(learning._TABLES) == [(4, snapshot())] and learning._TABLES.held == 1024

    def test_a_lowered_cap_reads_a_fresh_table(self, monkeypatch):
        # a table is keyed by its caps snapshot, so under a lowered cap no
        # graph held under the old snapshot is read: each is computed again,
        # or refused
        held = learning._table(2, snapshot())
        graphs = [held[mask] for mask in range(16)]
        before = run_nfl(2, 0, "uniform-guess", MONTE_CARLO, trials=40, seed=7)
        monkeypatch.setenv("SCMLAB_TREE_NMAX", "6")  # a cap no episode reads
        after = run_nfl(2, 0, "uniform-guess", MONTE_CARLO, trials=40, seed=7)
        assert after.successes == before.successes
        fresh = learning._table(2, snapshot())
        assert fresh is not held and len(fresh) > 0 and len(held) == 16
        assert not any(graph is graphs[mask] for mask, graph in fresh.items())
        monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "1")
        for learner_id in LEARNERS:
            with pytest.raises(SupportTooLargeError):
                run_nfl(2, 0, learner_id, MONTE_CARLO, trials=1, seed=7)
        with pytest.raises(SupportTooLargeError):
            run_nfl(2, 0, "constant-empty", EXACT)


class TestExactRates:
    def test_uniform_guess_meets_bound(self):
        for m in (1, 2):
            report = run_nfl(m, 0, "uniform-guess", EXACT)
            assert report.success_rate == Fraction(1, 1 << (m * m))
            assert report.success_rate == report.bound

    def test_constant_empty_meets_bound(self):
        report = run_nfl(2, 0, "constant-empty", EXACT)
        assert report.success_rate == Fraction(1, 16) == report.bound

    def test_empirical_independent_never_recovers(self):
        report = run_nfl(2, 4, "empirical-independent", EXACT)
        assert report.success_rate == 0

    def test_every_learner_respects_bound(self):
        for learner_id in LEARNERS:
            report = run_nfl(2, 6, learner_id, EXACT)
            assert report.success_rate <= report.bound, learner_id

    def test_exact_rate_and_episodes_share_one_fit_memo(self, monkeypatch):
        fits, made = learning._FIT_BYTES, []  # empty, as every memo is when a test starts
        make = fits.make
        monkeypatch.setattr(fits, "make", lambda key: made.append(key) or make(key))
        run_nfl(2, 4, "empirical-independent", EXACT)
        assert len(fits) == fits.held == len(made) == 5
        # episode rows are all zeros or all ones, so every fit is one of those five
        run_nfl(2, 4, "empirical-independent", MONTE_CARLO, trials=30, seed=3)
        assert len(made) == 5

    def test_pinned_reports(self):
        # exact mode reads neither trials nor seed, and reports neither
        assert run_nfl(2, 3, "constant-empty", EXACT, trials=5, seed=9) == learning.NflReport(
            2, 3, "constant-empty", EXACT, None, None, Fraction(1, 16), Fraction(1, 16),
            None, PRNG_ID,
        )
        assert run_nfl(2, 3, "constant-empty", MONTE_CARLO, 64, 11) == learning.NflReport(
            2, 3, "constant-empty", MONTE_CARLO, 64, 7, Fraction(7, 64), Fraction(1, 16),
            11, PRNG_ID,
        )

    def test_exact_report_shape(self):
        report = run_nfl(1, 3, "uniform-guess", EXACT)
        assert (report.mode, report.trials, report.successes) == (EXACT, None, None)
        assert report.seed is None
        assert report.prng == PRNG_ID


class TestMonteCarlo:
    def test_frozen_run(self):
        report = run_nfl(1, 2, "uniform-guess", MONTE_CARLO, trials=200, seed=7)
        assert report.successes == 97
        assert report.success_rate == Fraction(97, 200)
        assert report.bound == Fraction(1, 2)
        assert report.prng == PRNG_ID

    def test_deterministic_across_runs(self):
        a = run_nfl(2, 3, "constant-empty", MONTE_CARLO, trials=64, seed=11)
        b = run_nfl(2, 3, "constant-empty", MONTE_CARLO, trials=64, seed=11)
        assert a == b
        assert a.successes == 7

    def test_streams_isolate_data_from_learner(self):
        # uniform-guess never reads the dataset, so changing the sample
        # count must not shift the graph or guess streams
        small = run_nfl(1, 2, "uniform-guess", MONTE_CARLO, trials=200, seed=7)
        large = run_nfl(1, 5, "uniform-guess", MONTE_CARLO, trials=200, seed=7)
        assert small.successes == large.successes == 97
        # nor, for either data-blind learner, a hundred rows against none
        for learner_id, successes in (("uniform-guess", 18), ("constant-empty", 13)):
            counts = [
                run_nfl(2, n, learner_id, MONTE_CARLO, trials=250, seed=15).successes
                for n in (0, 100)
            ]
            assert counts == [successes, successes]

    def test_argument_validation(self):
        with pytest.raises(BadRangeError):
            run_nfl(1, 2, "uniform-guess", MONTE_CARLO, trials=None, seed=7)
        with pytest.raises(BadRangeError):
            run_nfl(1, 2, "uniform-guess", MONTE_CARLO, trials=10, seed=None)
        with pytest.raises(BadRangeError):
            run_nfl(1, 2, "no-such-learner", EXACT)
        with pytest.raises(BadRangeError):
            run_nfl(0, 2, "uniform-guess", EXACT)
        with pytest.raises(BadRangeError):
            run_nfl(1, -1, "uniform-guess", EXACT)
        with pytest.raises(BadRangeError):
            run_nfl(1, 2, "uniform-guess", "bootstrap")

    @pytest.mark.parametrize(
        "m, learner_id, trials, successes",
        [
            (2, "uniform-guess", 300, 11),
            (2, "constant-empty", 300, 21),
            (2, "empirical-independent", 150, 0),
            (3, "uniform-guess", 3000, 2),
            (3, "constant-empty", 3000, 4),
            (3, "empirical-independent", 150, 0),
        ],
    )
    def test_pinned_success_counts(self, m, learner_id, trials, successes):
        report = run_nfl(m, 3, learner_id, MONTE_CARLO, trials=trials, seed=1018)
        assert report.successes == successes

    def test_m_cap(self, monkeypatch):
        with pytest.raises(MTooLargeError):
            run_nfl(4, 2, "uniform-guess", EXACT)
        monkeypatch.setenv("SCMLAB_NFL_MMAX", "1")
        report = run_nfl(1, 2, "uniform-guess", EXACT)
        assert report.m == 1
        with pytest.raises(MTooLargeError):
            run_nfl(2, 2, "uniform-guess", EXACT)


class TestStreamSeeding:
    """An episode seeds only the streams it draws from, and every seed it
    derives is the documented one."""

    @staticmethod
    def spy(patch) -> list:
        """The seeds every stream generator of `learning` takes from now
        on: one is seeded through `seed` when it is made and each time a
        stream re-seeds it."""
        seeds = []

        class Counted(learning._Generator):
            def seed(self, a):
                seeds.append(a)
                super().seed(a)

        patch.setattr(learning, "_Generator", Counted)
        return seeds

    @pytest.fixture
    def seeded(self, monkeypatch):
        return self.spy(monkeypatch)

    @pytest.mark.parametrize("n_samples", [0, 3])
    @pytest.mark.parametrize(
        "learner_id, guesses",
        [("uniform-guess", True), ("constant-empty", False), ("empirical-independent", False)],
    )
    def test_run_nfl(self, seeded, learner_id, guesses, n_samples):
        trials, seed = 40, 5
        run_nfl(2, n_samples, learner_id, MONTE_CARLO, trials=trials, seed=seed)
        # only the empirical learner reads the dataset, so only its
        # episodes seed a data stream
        reads = learner_id == "empirical-independent"
        want = []
        for trial in range(trials):
            want.append(derive_seed(seed, "graph", trial))
            if n_samples and reads:
                want.append(derive_seed(seed, "data", trial))
            if guesses:
                want.append(derive_seed(seed, "learner", trial))
        assert seeded == want

    @pytest.mark.parametrize("n_samples", [0, 3])
    def test_per_query_error(self, seeded, n_samples):
        datasets = []

        def predictor(dataset):
            datasets.append(dataset)
            return HALF

        per_query_error(2, predictor, MONTE_CARLO, n_samples=n_samples, trials=30, seed=5)
        want = []
        for trial in range(30):
            want.append(derive_seed(5, "query-episode", trial))
            if n_samples:
                want.append(derive_seed(5, "query-data", trial))
        assert seeded == want
        assert [d.seed for d in datasets] == [derive_seed(5, "query-data", t) for t in range(30)]
        assert all(len(d.rows) == n_samples for d in datasets)

    @pytest.mark.parametrize("n_samples", [0, 3])
    def test_per_query_error_with_a_constant(self, seeded, n_samples):
        # a constant answer reads no dataset, so no data stream is seeded
        per_query_error(2, HALF, MONTE_CARLO, n_samples=n_samples, trials=30, seed=5)
        assert seeded == [derive_seed(5, "query-episode", t) for t in range(30)]

    @given(seed=st.integers(0, 2**64 - 1))
    @example(seed=0)
    @example(seed=1)
    @example(seed=2**32 - 1)
    @example(seed=2**32)
    @example(seed=2**63 - 1)
    @example(seed=2**64 - 1)
    @settings(max_examples=100, deadline=None)
    def test_a_stream_generator_draws_as_random_random(self, seed):
        # a stream's generator, made on its first call and re-seeded on each
        # later one, starts where random.Random(seed) does
        stream = learning._Stream(5, "graph")
        for each in (seed, seed ^ 1, seed):
            rng, want = stream.rng(each), random.Random(each)
            for bound in (2, 16, 512, 3, 2**64, 10**30):
                assert rng.getrandbits(32) == want.getrandbits(32)
                assert rng.getrandbits(70) == want.getrandbits(70)
                assert rng.randrange(bound) == want.randrange(bound)

    # every bound the Monte-Carlo harness draws below: the query indices' m
    # and the graph counts 2^(m*m) for m = 1 to 4, the observational laws'
    # denominator of every graph table (2), and the denominators `sample_obs`
    # draws below for other models
    BOUNDS = (1, 2, 3, 4, 16, 512, 65536, 6, 72, 2**64, 10**30)

    def test_the_harness_draws_below_these_bounds(self):
        for m in (1, 2, 3):
            table = learning._table(m, snapshot())
            dens = {table[mask].sampler.denominator for mask in range(1 << m * m)}
            assert {m, 1 << m * m} | dens <= set(self.BOUNDS)

    @given(seed=st.integers(0, 2**64 - 1), bound=st.sampled_from(BOUNDS))
    @example(seed=0, bound=1)
    @example(seed=2**64 - 1, bound=3)
    @settings(max_examples=200, deadline=None)
    def test_a_draw_below_n_is_randrange(self, seed, bound):
        # CPython's rule, one frame around getrandbits: the same draws, and
        # the generator left where randrange leaves it
        rng, want = random.Random(seed), random.Random(seed)
        for _ in range(6):
            assert learning._below(rng.getrandbits, bound) == want.randrange(bound)
        assert rng.getstate() == want.getstate()

    @given(
        master=st.one_of(st.integers(max_value=-1), st.just(0), st.integers(min_value=2**64)),
        label=st.text(max_size=8),
        trial=st.integers(0, 10**9),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_stream_seed_is_derive_seed(self, master, label, trial):
        assert learning._Stream(master, label).seed(trial) == derive_seed(master, label, trial)

    @given(
        seed=st.one_of(st.integers(max_value=-1), st.just(0), st.integers(min_value=2**64)),
        trials=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_episode_seed_is_derive_seed(self, seed, trials):
        # the graph, data and learner streams of run_nfl and the episode and
        # data streams of per_query_error, for masters outside 0..2^64
        with pytest.MonkeyPatch.context() as patch:
            seeded = self.spy(patch)
            run_nfl(2, 3, "uniform-guess", MONTE_CARLO, trials=trials, seed=seed)
            run_nfl(2, 3, "empirical-independent", MONTE_CARLO, trials=trials, seed=seed)
            per_query_error(2, all_ones_share, MONTE_CARLO, 3, trials, seed)
        want = []
        for labels in (("graph", "learner"), ("graph", "data"), ("query-episode", "query-data")):
            for trial in range(trials):
                want += [derive_seed(seed, label, trial) for label in labels]
        assert seeded == want

    def test_counts_without_data_are_unchanged(self):
        # with no samples the data stream is not seeded, and no other draw moves
        report = run_nfl(1, 0, "uniform-guess", MONTE_CARLO, trials=200, seed=7)
        assert report.successes == 97
        assert sample_obs(NON_DYADIC, 0, 3).rows == ()


class TestAgainstReference:
    """Monte-Carlo episodes against `reference_learning`, which draws
    every stream and computes every oracle afresh in every episode."""

    @given(
        m=st.integers(1, 2),
        n_samples=st.integers(0, 5),
        trials=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        learner_id=st.sampled_from(sorted(LEARNERS)),
    )
    @settings(max_examples=60, deadline=None)
    @example(m=3, n_samples=4, trials=5, seed=2**70, learner_id="uniform-guess")
    @example(m=3, n_samples=0, trials=4, seed=-3, learner_id="constant-empty")
    @example(m=3, n_samples=4, trials=3, seed=0, learner_id="empirical-independent")
    def test_run_nfl(self, m, n_samples, trials, seed, learner_id):
        report = run_nfl(m, n_samples, learner_id, MONTE_CARLO, trials=trials, seed=seed)
        assert report == reference_learning.run_nfl(m, n_samples, learner_id, trials, seed)

    @given(
        m=st.integers(1, 2),
        n_samples=st.integers(0, 5),
        trials=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        answer=st.fractions(min_value=0, max_value=1, max_denominator=16),
    )
    @settings(max_examples=60, deadline=None)
    @example(m=3, n_samples=4, trials=6, seed=2**70, answer=Fraction(1, 3))
    @example(m=3, n_samples=0, trials=5, seed=-3, answer=Fraction(3, 4))
    @example(m=3, n_samples=2, trials=8, seed=31, answer=Fraction(0))
    def test_per_query_error(self, m, n_samples, trials, seed, answer):
        assert per_query_error(
            m, answer, MONTE_CARLO, n_samples=n_samples, trials=trials, seed=seed
        ) == reference_learning.per_query_error(m, answer, n_samples, trials, seed)
        # a predictor that reads the data sees the reference's datasets
        fast, slow = [], []

        def recorder(seen):
            def predictor(dataset):
                seen.append(dataset)
                ones = sum(row.count("1") for row in dataset.rows)
                return Fraction(ones + 1, dataset.n * len(dataset.rows) + 2)
            return predictor

        error = per_query_error(
            m, recorder(fast), MONTE_CARLO, n_samples=n_samples, trials=trials, seed=seed
        )
        assert error == reference_learning.per_query_error(
            m, recorder(slow), n_samples, trials, seed
        )
        assert fast == slow


class TestPerQueryError:
    def test_exact_grid(self):
        grid = {
            Fraction(0): Fraction(3, 4),
            Fraction(1, 8): Fraction(5, 8),
            Fraction(1, 4): Fraction(1, 2),
            Fraction(3, 8): Fraction(3, 8),
            Fraction(1, 2): QUARTER,
            Fraction(5, 8): QUARTER,
            Fraction(3, 4): QUARTER,
            Fraction(7, 8): QUARTER,
            Fraction(1): QUARTER,
        }
        for answer, expected in grid.items():
            assert per_query_error(1, answer) == expected, answer

    @given(st.fractions(min_value=0, max_value=1, max_denominator=64))
    @settings(max_examples=80, deadline=None)
    def test_every_constant_errs_at_least_a_quarter(self, answer):
        assert per_query_error(1, answer) >= QUARTER

    def test_mc_constant_hits_quarter_exactly(self):
        error = per_query_error(
            1, Fraction(3, 4), MONTE_CARLO, n_samples=2, trials=20, seed=11
        )
        assert error == QUARTER

    def test_mc_accepts_callable(self):
        error = per_query_error(
            1,
            lambda dataset: Fraction(3, 4),
            MONTE_CARLO,
            n_samples=2,
            trials=20,
            seed=11,
        )
        assert error == QUARTER

    @pytest.mark.parametrize(
        "m, trials, error", [(2, 120, Fraction(17, 48)), (3, 80, Fraction(277, 800))]
    )
    def test_mc_pinned_with_a_data_reading_predictor(self, m, trials, error):
        assert per_query_error(
            m, all_ones_share, MONTE_CARLO, n_samples=5, trials=trials, seed=31
        ) == error

    def test_exact_rejects_callable(self):
        with pytest.raises(BadRangeError):
            per_query_error(1, lambda dataset: Fraction(1, 2))

    def test_mc_requires_full_arguments(self):
        with pytest.raises(BadRangeError):
            per_query_error(1, Fraction(1, 2), MONTE_CARLO, trials=5, seed=1)
        with pytest.raises(BadRangeError):
            per_query_error(1, Fraction(1, 2), MONTE_CARLO, n_samples=2, seed=1)
        with pytest.raises(BadRangeError):
            per_query_error(1, Fraction(1, 2), MONTE_CARLO, n_samples=2, trials=5)
        with pytest.raises(BadRangeError, match="unknown mode 'bootstrap'"):
            per_query_error(1, Fraction(1, 2), "bootstrap", n_samples=2, trials=5, seed=1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: run_nfl(1, -1, "uniform-guess", EXACT),
            lambda: per_query_error(
                1, Fraction(1, 2), MONTE_CARLO, n_samples=-1, trials=5, seed=1
            ),
        ],
        ids=["run_nfl", "per_query_error"],
    )
    def test_a_negative_sample_count_is_named(self, call):
        with pytest.raises(BadRangeError) as refused:
            call()
        assert str(refused.value) == "n_samples must be nonnegative, got -1"

    def test_m_cap(self):
        with pytest.raises(MTooLargeError):
            per_query_error(4, Fraction(1, 2))


class TestMutualInformation:
    def test_identical_laws_mean_zero_bits(self):
        for m in (1, 2):
            report = mutual_information_check(m)
            assert report.graph_count == 1 << (m * m)
            assert report.identical_laws is True
            assert report.mutual_information_bits == 0

    def test_family_size(self):
        assert mutual_information_check(2).graph_count == 16
