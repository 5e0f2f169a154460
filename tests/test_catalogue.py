"""The mutation catalogue (`tests/mutants.py`) matches the code it
mutates: each entry's snippets occur exactly once in its file, and each
test it names exists. No mutant runs here; the catalogue itself runs
them (`python tests/mutants.py`)."""

import re

import pytest

import mutants

CATALOGUE = mutants.CATALOGUE


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in CATALOGUE]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[mutant.name for mutant in CATALOGUE])
def test_each_snippet_occurs_once(mutant):
    text = (mutants.ROOT / mutant.file).read_text()
    for old, new in mutant.edits:
        assert old != new
        assert text.count(old) == 1, old
    mutated = mutants._mutated(text, mutant)  # the catalogue's own rule for a stale entry
    assert mutated is not None and mutated != text


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[mutant.name for mutant in CATALOGUE])
def test_each_named_test_exists(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        assert path.startswith("tests/test_") and path.endswith(".py"), node
        text = (mutants.ROOT / path).read_text()
        for name in names:  # a class, then a test function or method
            name = name.partition("[")[0]  # a parametrized case's own ID
            assert re.search(rf"^\s*(?:class|def) {re.escape(name)}\b", text, re.M), node
