"""Cap overrides: a nonnegative integer or a typed refusal."""

import pytest

from scmlab.caps import all_caps, cap
from scmlab.cli import main
from scmlab.errors import BadRangeError


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


def test_unknown_cap_name():
    with pytest.raises(KeyError):
        cap("SCMLAB_NOT_A_CAP")


@pytest.mark.parametrize("raw", ["-5", "garbage"])
def test_cli_exits_2_on_bad_override(monkeypatch, capfd, raw):
    monkeypatch.setenv("SCMLAB_TREE_NMAX", raw)
    assert main(["verify", "--family", "tree", "--n", "3"]) == 2
    assert "error[BAD_RANGE]" in capfd.readouterr().err
