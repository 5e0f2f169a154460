"""The one memo registry (`scm_core.MEMOS`): every process-wide memo is a
`scm_core._Bounded` listed there under its qualified name, and the
README's memo table lists each with its bound.

Memos change no result, so a fixed set of requests gives the same results
with any one memo switched off (bound 0) or shrunk to a bound it must
drop its entries at, and every memo stays within its bound.
"""

import functools
import importlib
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

import scmlab
from scmlab import (
    INT1,
    INT_ALL,
    HiddenString,
    RootedTree,
    build_tree_scm,
    build_xor_scm,
    compute_oracle,
    parse,
    per_query_error,
    run_nfl,
    separation_table,
    serialize,
    verify_family,
)
from scmlab import oracle, scm_core
from scmlab.catalog import Family
from scmlab.decoders import tree_from_int1
from scmlab.errors import OracleFormatError
from scmlab.learning import EXACT, LEARNERS, MONTE_CARLO
from scmlab.rational import HALF, frac_parse

from conftest import GOLDEN_BYTES, MIXED_LEAVES

MEMOS = scm_core.MEMOS


def module_globals():
    """(qualified name, value) of every global of every scmlab module."""
    for info in pkgutil.iter_modules(scmlab.__path__):
        module = importlib.import_module(f"scmlab.{info.name}")
        for attr, value in vars(module).items():
            yield f"{info.name}.{attr}", value


def test_every_memo_is_registered_under_its_qualified_name():
    # a memo may be imported into other modules too: it is registered under
    # one of its names, the one it was made under
    names: dict[int, set] = {}
    for qualified, value in module_globals():
        if isinstance(value, scm_core._Bounded):
            names.setdefault(id(value), set()).add(qualified)
    registered = {id(memo): name for name, memo in MEMOS.items()}
    assert len(registered) == len(MEMOS)  # no memo under two names
    assert registered.keys() == names.keys()
    for key, name in registered.items():
        assert name in names[key]
        module, _, attr = name.partition(".")
        assert getattr(importlib.import_module(f"scmlab.{module}"), attr) is MEMOS[name]


def test_no_functools_cache_is_left():
    for qualified, value in module_globals():
        members = vars(value).values() if isinstance(value, type) else ()
        for each in (value, *members):
            assert not isinstance(each, functools._lru_cache_wrapper), qualified


def test_a_maker_memo_keeps_what_it_makes(monkeypatch):
    fractions, made = scm_core._FRACTIONS, []
    monkeypatch.setattr(fractions, "make", lambda text: made.append(text) or frac_parse(text))
    third = fractions["1/3"]
    assert third == Fraction(1, 3) and fractions["1/3"] is third
    assert made == ["1/3"] and dict(fractions) == {"1/3": third} and fractions.held == 1
    # a maker that raises keeps nothing
    with pytest.raises(OracleFormatError):
        fractions["2/4"]
    assert list(fractions) == ["1/3"] and fractions.held == 1
    # at its bound the memo drops every entry before it keeps the next
    monkeypatch.setattr(fractions, "limit", 2)
    assert [fractions[text] for text in ("1/2", "1/4")] == [HALF, Fraction(1, 4)]
    assert list(fractions) == ["1/4"] and fractions.held == 1
    # a memo without a maker is a dict on a miss
    with pytest.raises(KeyError):
        oracle._WRITTEN[(b"INT1 n=1\n", 20)]
    assert len(oracle._WRITTEN) == 0


def test_a_run_is_kept_by_the_keep_rule():
    memo = scm_core._Bounded(10)

    def run(**sizes):  # entries kept one after another, each by `keep`
        for key, size in sizes.items():
            assert memo.keep(key, size, size) == size

    run(a=4, b=4)  # fits: kept beside each other
    assert dict(memo) == {"a": 4, "b": 4} and memo.held == 8
    run(c=3)  # passes the limit beside what is held: drops it first
    assert dict(memo) == {"c": 3} and memo.held == 3
    run(d=11, e=2, f=6)  # d alone is past the limit and drops nothing, and f drops c and e
    assert dict(memo) == {"f": 6} and memo.held == 6
    run()
    assert dict(memo) == {"f": 6} and memo.held == 6


def requests() -> list:
    """The fixed request set, each result a comparable value: a parse of
    bytes no `serialize` wrote, two INT_ALL round trips, a tree n=3 verify
    and gap table, one INT1 decode, short Monte-Carlo runs of every
    learner and the query error."""
    results = [parse(GOLDEN_BYTES[0])]
    for scm in (build_xor_scm(HiddenString(2, "10")), MIXED_LEAVES):
        data = serialize(compute_oracle(scm, INT_ALL))
        results += [data, serialize(parse(data))]
    family = Family("tree", 3)
    results += [verify_family(family), separation_table(family)]
    tree = RootedTree(4, 2, {1: 2, 3: 2, 4: 3})
    results.append(tree_from_int1(parse(serialize(compute_oracle(build_tree_scm(tree), INT1)))))
    results += [run_nfl(2, 3, learner_id, MONTE_CARLO, trials=12, seed=5) for learner_id in LEARNERS]
    results += [run_nfl(2, 2, "empirical-independent", EXACT),
                per_query_error(2, HALF, MONTE_CARLO, n_samples=2, trials=12, seed=5)]
    return results


@pytest.fixture(scope="module")
def baseline():
    """The requests' results at every default bound, from empty memos, and
    what each memo then holds."""
    for memo in MEMOS.values():
        memo.clear()
    results = requests()
    return results, {name: memo.held for name, memo in MEMOS.items()}


@pytest.mark.parametrize("name", sorted(MEMOS))
def test_each_memo_off_or_shrunk_changes_no_result(name, baseline, monkeypatch):
    want, held = baseline
    memo = MEMOS[name]
    default = {other: each.limit for other, each in MEMOS.items()}
    assert held[name] > 0  # the requests use every memo
    # off, then at half of what the requests keep in it, so it drops them
    for bound in (0, held[name] // 2):
        monkeypatch.setattr(memo, "limit", bound)
        for each in MEMOS.values():
            each.clear()
        assert requests() == want
        assert all(each.held <= each.limit for each in MEMOS.values())
    monkeypatch.undo()
    assert {other: each.limit for other, each in MEMOS.items()} == default


def test_readme_lists_exactly_the_memo_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Memos\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| (\d+)(?:\^(\d+))? \| \w", section, re.MULTILINE)
    listed = {name: int(base) ** int(exp or 1) for name, base, exp in rows}
    assert listed == {name: memo.limit for name, memo in MEMOS.items()}
