"""Acceptance suite: one test per criterion, each exhaustive and exact.

Every criterion prints a single PASS/FAIL line (echoed again in the
terminal summary). All probability and distance comparisons are exact
rational equalities; the only inequalities are runtime budgets and the
Monte-Carlo standard-error band, both stated in the criterion itself.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from scmlab import (
    CF1,
    EXACT,
    INT1,
    LEARNERS,
    MONTE_CARLO,
    BipartiteGraph,
    Family,
    HiddenString,
    RootedTree,
    build_bipartite_scm,
    build_tree_scm,
    build_xor_scm,
    compute_oracle,
    degree_bound,
    mutual_information_check,
    pairwise_separation_check,
    per_query_error,
    run_nfl,
    separation_table,
    serialize,
    verify_family,
)
from scmlab.cli import main as cli_main

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def suites():
    """Each family suite is computed once and shared across criteria,
    with the wall-clock cost attributed to its first computation."""
    cache: dict[tuple[str, int], tuple[dict, float]] = {}

    def get(kind: str, size: int):
        key = (kind, size)
        if key not in cache:
            start = time.perf_counter()
            results = verify_family(Family(kind, size))
            elapsed = time.perf_counter() - start
            cache[key] = ({r.name: r for r in results}, elapsed)
        return cache[key]

    return get


def test_criterion_1_tree_family(suites, acceptance):
    acceptance.start("criterion-1")
    by_name, elapsed = suites("tree", 5)
    obs = by_name["observational-identical"]
    int1 = by_name["int1-all-distinct"]
    decode = by_name["decoder-round-trip"]
    ok = (
        obs.passed
        and obs.details == {"parameters": 625, "distinct_laws": 1}
        and int1.passed
        and int1.details["distinct_oracles"] == 625
        and decode.passed
        and decode.details["recovered"] == 625
        and elapsed < 10.0
    )
    acceptance.verdict(
        "criterion-1",
        ok,
        "tree n=5: 625 SCMs share one OBS law, 625 distinct INT1 oracles, "
        f"decoder recovered 625/625, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_bipartite_family(suites, acceptance):
    acceptance.start("criterion-2")
    by_name, verify_elapsed = suites("bipartite", 3)
    start = time.perf_counter()
    (row,) = separation_table(Family("bipartite", 3))
    table_elapsed = time.perf_counter() - start
    elapsed = verify_elapsed + table_elapsed
    ok = (
        by_name["observational-identical"].passed
        and by_name["observational-identical"].details["parameters"] == 512
        and by_name["int1-all-distinct"].details["distinct_oracles"] == 512
        and by_name["decoder-round-trip"].details["recovered"] == 512
        and row.ambiguity_count == 512
        and row.log2_ambiguity == 9.0
        and row.encoder_bits == 9
        and row.entropy_bits == 9.0
        and elapsed < 30.0
    )
    acceptance.verdict(
        "criterion-2",
        ok,
        "bipartite m=3: 512 SCMs share one OBS law, 512 distinct INT1, decoder "
        f"recovered 512/512, ambiguity 512 with log2 9.0 = 9 encoder bits = "
        f"9.0 entropy bits, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_3_pairwise_separation(acceptance):
    acceptance.start("criterion-3")
    start = time.perf_counter()
    wide = pairwise_separation_check(2, Fraction(1, 5))
    tight = pairwise_separation_check(2, Fraction(1, 4))
    elapsed = time.perf_counter() - start
    ok = (
        wide.pair_count == 120
        and wide.min_pairwise_d_int == Fraction(1, 2)
        and tight.min_pairwise_d_int == Fraction(1, 2)
        and wide.disjoint is True
        and tight.disjoint is False
        and elapsed < 10.0
    )
    acceptance.verdict(
        "criterion-3",
        ok,
        "bipartite m=2: min pairwise d_int over 120 pairs = 1/2 exactly; "
        f"epsilon-balls disjoint at 1/5, not at 1/4, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_4_xor_family(suites, acceptance):
    acceptance.start("criterion-4")
    by_name, verify_elapsed = suites("xor", 4)
    start = time.perf_counter()
    (row,) = separation_table(Family("xor", 4))
    table_elapsed = time.perf_counter() - start
    elapsed = verify_elapsed + table_elapsed
    ok = (
        by_name["int-all-identical"].passed
        and by_name["int-all-identical"].details
        == {"parameters": 16, "distinct_oracles": 1}
        and by_name["cf1-all-distinct"].details["distinct_oracles"] == 16
        and by_name["decoder-round-trip"].details["recovered"] == 16
        and row.ambiguity_count == 16
        and row.log2_ambiguity == 4.0
        and row.entropy_bits == 4.0
        and elapsed < 300.0
    )
    acceptance.verdict(
        "criterion-4",
        ok,
        "xor m=4: 16 SCMs share one INT_ALL oracle (6561 mutilations each), "
        f"16 distinct CF1, decoder recovered 16/16, ambiguity 16 with log2 4.0 "
        f"= 4.0 entropy bits, {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_5_hierarchy_consistency(suites, acceptance):
    acceptance.start("criterion-5")
    instances = [("tree", 5), ("bipartite", 3), ("bipartite", 2), ("xor", 4)]
    ok = True
    covered = 0
    for kind, size in instances:
        by_name, _ = suites(kind, size)
        marginals = by_name["counterfactual-marginal-consistency"]
        embeds = by_name["observational-component-embeds"]
        ok = ok and marginals.passed and embeds.passed
        covered += marginals.details["parameters"]
    acceptance.verdict(
        "criterion-5",
        ok,
        f"every CF1 world block marginalizes to its do-distribution and OBS "
        f"embeds in INT1 across all {covered} SCMs of criteria 1-4",
    )


def test_criterion_6_degree_bound(acceptance):
    acceptance.start("criterion-6")
    expected = {(4, 1): 4, (4, 3): 8, (7, 1): 7, (7, 6): 64}
    choices_ok = all(
        degree_bound(n, d).parent_choices == want
        for (n, d), want in expected.items()
    )
    sweep_ok = all(
        degree_bound(n, d).inequality_holds
        for n in range(2, 22)
        for d in range(1, n)
    )
    pairs = sum(n - 1 for n in range(2, 22))
    acceptance.verdict(
        "criterion-6",
        choices_ok and sweep_ok,
        "parent_choices exact on {(4,1):4,(4,3):8,(7,1):7,(7,6):64}; "
        f"counting bound holds for all {pairs} pairs with 1 <= d <= n-1 <= 20",
    )


def test_criterion_7_no_free_lunch(acceptance):
    acceptance.start("criterion-7")
    bound = Fraction(1, 16)
    uniform = run_nfl(2, 0, "uniform-guess", EXACT)
    uniform_ok = uniform.success_rate == bound == uniform.bound
    learners_ok = all(
        run_nfl(2, 100, learner_id, EXACT).success_rate <= bound
        for learner_id in LEARNERS
    )
    grid = [Fraction(k, 8) for k in range(9)]
    errors = {a: per_query_error(2, a) for a in grid}
    grid_ok = all(err >= Fraction(1, 4) for err in errors.values())
    equality_ok = (
        errors[Fraction(3, 4)] == Fraction(1, 4)
        and errors[Fraction(1)] == Fraction(1, 4)
    )
    start = time.perf_counter()
    mc = run_nfl(2, 0, "uniform-guess", MONTE_CARLO, trials=100000, seed=42)
    elapsed = time.perf_counter() - start
    # exact-rational 3-standard-error band around p = 1/16
    band = 9 * bound * (1 - bound) / 100000
    # the seeded streams pin the count exactly, inside that band
    mc_ok = (
        mc.successes == 6316
        and (mc.success_rate - bound) ** 2 <= band
        and elapsed < 60.0
    )
    acceptance.verdict(
        "criterion-7",
        uniform_ok and learners_ok and grid_ok and equality_ok and mc_ok,
        f"uniform-guess exact rate = 1/16 = bound; all {len(LEARNERS)} learners "
        "<= 1/16; per-query error >= 1/4 on the eighth-grid with equality at "
        f"3/4 and 1; mc 100000 trials seed 42 gave {mc.successes} successes "
        f"(pinned 6316, within 3 SE of 6250), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_8_mutual_information(acceptance):
    acceptance.start("criterion-8")
    reports = [mutual_information_check(m) for m in (1, 2, 3)]
    ok = all(
        r.identical_laws and r.mutual_information_bits == 0 for r in reports
    ) and [r.graph_count for r in reports] == [2, 16, 512]
    acceptance.verdict(
        "criterion-8",
        ok,
        "observational law identical across all graphs at m=1 (2), m=2 (16), "
        "m=3 (512); I(graph; data) = 0 bits",
    )


def test_criterion_9_determinism(tmp_path, acceptance):
    acceptance.start("criterion-9")
    golden = {
        "tree_chain3_int1.oracle": serialize(
            compute_oracle(build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2})), INT1)
        ),
        "bipartite_m2_edge00_int1.oracle": serialize(
            compute_oracle(
                build_bipartite_scm(BipartiteGraph(2, frozenset({(0, 0)}))), INT1
            )
        ),
        "xor_m2_s10_cf1.oracle": serialize(
            compute_oracle(build_xor_scm(HiddenString(2, "10")), CF1)
        ),
    }
    golden_ok = all(
        (GOLDEN_DIR / name).read_bytes() == fresh for name, fresh in golden.items()
    )
    commands = [
        ["gaps", "--family", "xor", "--m", "2"],
        ["verify", "--family", "tree", "--n", "3"],
        ["sep", "--m", "1", "--epsilon", "1/5"],
        [
            "nfl", "--m", "1", "--n-samples", "2", "--learner", "uniform-guess",
            "--trials", "50", "--seed", "7",
        ],
    ]
    cli_ok = True
    for index, argv in enumerate(commands):
        first = tmp_path / f"first_{index}.json"
        second = tmp_path / f"second_{index}.json"
        for target in (first, second):
            code = cli_main(argv + ["--out", str(target)])
            cli_ok = cli_ok and code == 0
        cli_ok = cli_ok and first.read_bytes() == second.read_bytes()
        cli_ok = cli_ok and json.loads(first.read_text())["command"] == argv[0]
    acceptance.verdict(
        "criterion-9",
        golden_ok and cli_ok,
        f"{len(golden)} pinned golden oracles match fresh serializations; "
        f"{len(commands)} CLI commands repeated with identical config gave "
        "byte-identical reports",
    )
