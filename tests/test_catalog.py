"""The family table: every row is exercised by every reader, and the
module layering it sits in imports in any order."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import scmlab
from scmlab import (
    FAMILIES,
    Family,
    all_passed,
    param_from_json,
    param_to_json,
    separation_table,
    verify_family,
)
from scmlab.cli import build_parser
from scmlab.errors import KindMismatchError


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@pytest.mark.parametrize("size", [1, 2])
def test_every_row_serves_every_reader(kind, size):
    family = Family(kind, size)
    assert all_passed(verify_family(family))
    (row,) = separation_table(family)
    assert (row.family, row.n) == (kind, family.n_vars())
    for param in family.parameters():
        assert family.build(param).n == family.n_vars()
        doc = json.loads(json.dumps(param_to_json(kind, param)))
        assert param_from_json(kind, doc) == param


@pytest.mark.parametrize("reader", sorted(FAMILIES))
def test_a_document_of_another_shape_is_a_typed_error(reader):
    docs = [param_to_json(kind, list(Family(kind, 2).parameters())[-1])
            for kind in sorted(FAMILIES) if kind != reader]
    wording = f"^not a parameter document of family {reader}:"
    for doc in [*docs, [1, 2, 3]]:
        with pytest.raises(KindMismatchError, match=wording):
            param_from_json(reader, json.loads(json.dumps(doc)))


def test_cli_family_choices_are_the_table_keys():
    commands = build_parser()._subparsers._group_actions[0].choices
    choices = {
        name: action.choices
        for name, sub in commands.items()
        for action in sub._actions
        if action.dest == "family"
    }
    assert sorted(choices) == ["decode", "dump-oracle", "dump-scm", "gaps", "verify"]
    for listed in choices.values():
        assert listed == list(FAMILIES)


SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(scmlab.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_imports_first(name):
    # a fresh interpreter per module, so an import cycle that only one
    # entry point reaches fails here
    src = str(Path(scmlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import scmlab.{name}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
