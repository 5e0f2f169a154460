"""Cap overrides: a nonnegative integer or a typed refusal."""

import inspect
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import scmlab
from scmlab import (
    LEARNERS,
    MONTE_CARLO,
    OBS,
    Family,
    Mechanism,
    NoiseDist,
    Scm,
    compute_oracle,
    enumerate_graphs,
    enumerate_trees,
    int_all,
    per_query_error,
    run_nfl,
    separation_table,
    verify_family,
)
from scmlab import gates, scm_core
from scmlab.caps import CAPS, all_caps, cap, work_text
from scmlab.cli import main
from scmlab.errors import BadRangeError, MTooLargeError, NTooLargeError, SupportTooLargeError
from scmlab.learning import Dataset


def test_default_and_override(monkeypatch):
    assert cap("SCMLAB_SUPPORT_CAP") == 2**24
    monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "0")
    assert cap("SCMLAB_SUPPORT_CAP") == 0


@pytest.mark.parametrize("raw", ["-5", "-1", "abc", "", "2.5", "1e3"])
def test_bad_override_is_a_range_error(monkeypatch, raw):
    monkeypatch.setenv("SCMLAB_SUPPORT_CAP", raw)
    with pytest.raises(BadRangeError):
        cap("SCMLAB_SUPPORT_CAP")
    with pytest.raises(BadRangeError):
        all_caps()


@pytest.mark.parametrize(
    "factors, text", [({}, "1"), ({3: 9}, "3^9 = 19683"), ({2: 5, 3: 2}, "2^5*3^2 = 288")]
)
def test_work_text(factors, text):
    assert work_text(factors) == text


def test_unknown_cap_name():
    with pytest.raises(KeyError):
        cap("SCMLAB_NOT_A_CAP")


def test_no_entry_point_takes_a_cap_argument():
    # the environment is the only source of a cap
    entry_points = [getattr(scmlab, name) for name in scmlab.__all__]
    entry_points += [scm_core.kernel_laws, scm_core.cf1, scm_core.int_all_laws]
    for fn in filter(callable, entry_points):
        try:
            parameters = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue
        assert [name for name in parameters if name.endswith("_cap")] == [], fn


def test_readme_lists_exactly_the_cap_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scale caps\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\d+)(?:\^(\d+))? \|", section, re.MULTILINE)
    listed = {name: int(base) ** int(exp or 1) for name, base, exp in rows}
    assert listed == {name: row.default for name, row in CAPS.items()}


@pytest.mark.parametrize("raw", ["-5", "garbage"])
def test_cli_exits_2_on_bad_override(monkeypatch, capfd, raw):
    monkeypatch.setenv("SCMLAB_TREE_NMAX", raw)
    assert main(["verify", "--family", "tree", "--n", "3"]) == 2
    assert "error[BAD_RANGE]" in capfd.readouterr().err


def test_lowered_cap_refuses_a_cached_family(monkeypatch):
    family = Family("tree", 3)
    assert separation_table(family)[0].ambiguity_count == 9
    monkeypatch.setenv("SCMLAB_TREE_NMAX", "2")
    with pytest.raises(NTooLargeError):
        separation_table(family)
    with pytest.raises(NTooLargeError):
        verify_family(family)


def test_lowered_cap_refuses_a_memoized_int_all_index(monkeypatch):
    family = Family("xor", 2)
    assert separation_table(family)[0].ambiguity_count == 4
    monkeypatch.setenv("SCMLAB_INTALL_NMAX", "2")
    with pytest.raises(NTooLargeError):
        separation_table(family)
    with pytest.raises(NTooLargeError):
        verify_family(family)


def test_lowered_cap_refuses_warm_monte_carlo_caches(monkeypatch):
    def predict():
        empty = Dataset(3, (), 0, "empty")
        return LEARNERS["uniform-guess"].predict(empty, 1, random.Random(0))

    def episodes(learner_id):
        return lambda: run_nfl(1, 2, learner_id, MONTE_CARLO, trials=8, seed=5)

    def query():
        return per_query_error(1, Fraction(1, 2), MONTE_CARLO, n_samples=2, trials=8, seed=5)

    paths = [predict, query] + [episodes(learner_id) for learner_id in LEARNERS]
    for path in paths:
        path()
    monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "1")
    for path in paths:
        with pytest.raises(SupportTooLargeError):
            path()


def _sources(n: int) -> Scm:
    fair = NoiseDist.bernoulli(Fraction(1, 2))
    return Scm(n, tuple(Mechanism(gates.BERN_SOURCE, (), fair) for _ in range(n)))


def test_refusals_name_the_cap_its_value_and_the_work(monkeypatch, capfd):
    with pytest.raises(SupportTooLargeError, match=(
            r"exceeds SCMLAB_SUPPORT_CAP=16777216: refused 2\^30 = 1073741824 noise points")):
        compute_oracle(_sources(30), OBS)
    mixed = Scm(2, (Mechanism(gates.CONST0, (), NoiseDist((0, 1, 2), (Fraction(1, 3),) * 3)),
                    _sources(1).mechanisms[0]))
    monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "5")
    with pytest.raises(SupportTooLargeError, match=r"refused 2\^1\*3\^1 = 6 noise points"):
        compute_oracle(mixed, OBS)
    monkeypatch.delenv("SCMLAB_SUPPORT_CAP")
    monkeypatch.setenv("SCMLAB_INTALL_NMAX", "8")
    with pytest.raises(NTooLargeError, match=r"exceeds SCMLAB_INTALL_NMAX=8: refused 3\^9 = 19683"):
        int_all(_sources(9))
    # the CLI keeps its exit code and prints the same statement
    monkeypatch.setenv("SCMLAB_INTALL_NMAX", "1")
    args = ["gaps", "--family", "xor", "--m", "1", "--lower", "INT1", "--higher", "INT_ALL"]
    assert main(args) == 3
    err = capfd.readouterr().err
    assert "SCMLAB_INTALL_NMAX=1: refused 3^2 = 9 interventions" in err


@pytest.mark.parametrize(
    "variable, value, call, error, statement",
    [
        ("SCMLAB_SUPPORT_CAP", 7, lambda: compute_oracle(_sources(3), OBS), SupportTooLargeError,
         "noise support product exceeds SCMLAB_SUPPORT_CAP=7: refused 2^3 = 8 noise points"),
        ("SCMLAB_INTALL_NMAX", 8, lambda: int_all(_sources(9)), NTooLargeError,
         "int_all on n=9 exceeds SCMLAB_INTALL_NMAX=8: refused 3^9 = 19683 interventions"),
        ("SCMLAB_INTALL_LINE_CAP", 255, lambda: int_all(_sources(4)), SupportTooLargeError,
         "int_all output exceeds SCMLAB_INTALL_LINE_CAP=255: refused 4^4 = 256 mass lines"),
        ("SCMLAB_TREE_NMAX", 3, lambda: list(enumerate_trees(4)), NTooLargeError,
         "enumerating trees on n=4 exceeds SCMLAB_TREE_NMAX=3: refused 4^3 = 64 trees"),
        ("SCMLAB_GRAPH_MMAX", 1, lambda: list(enumerate_graphs(2)), MTooLargeError,
         "enumerating graphs on m=2 exceeds SCMLAB_GRAPH_MMAX=1: refused 2^4 = 16 graphs"),
        ("SCMLAB_NFL_MMAX", 2, lambda: run_nfl(3, 2, "uniform-guess", MONTE_CARLO, 5, 1),
         MTooLargeError, "nfl on m=3 exceeds SCMLAB_NFL_MMAX=2: refused 2^9 = 512 graphs"),
        ("SCMLAB_NFL_MMAX", 2, lambda: per_query_error(3, Fraction(1, 2)), MTooLargeError,
         "per-query error on m=3 exceeds SCMLAB_NFL_MMAX=2: refused 2^9 = 512 graphs"),
    ],
    ids=["support-cap", "int_all", "int_all-lines", "tree-enumerator", "graph-enumerator", "run_nfl",
         "per_query_error"],
)
def test_family_refusals_name_the_cap_its_value_and_the_work(
    variable, value, call, error, statement, monkeypatch
):
    monkeypatch.setenv(variable, str(value))
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == statement


def test_cli_tree_refusal_exits_3_and_names_the_default_cap(capfd):
    assert main(["verify", "--family", "tree", "--n", "8"]) == 3
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error[N_TOO_LARGE]: enumerating trees on n=8 exceeds "
        "SCMLAB_TREE_NMAX=7: refused 8^7 = 2097152 trees\n"
    )


def test_refusal_of_a_huge_support_product_does_not_print_it():
    # 2^20000 has more digits than int-to-str conversion allows
    with pytest.raises(SupportTooLargeError, match=r"refused 2\^20000 noise points$"):
        compute_oracle(_sources(20000), OBS)
