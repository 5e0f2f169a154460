"""End-to-end command-line checks: exit codes, formats, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import scmlab

from scmlab import (
    ExactDist,
    HiddenString,
    RootedTree,
    __version__,
    build_tree_scm,
    build_xor_scm,
    compute_oracle,
    param_to_json,
    scm_from_json,
    serialize,
)
from scmlab import cli, errors
from scmlab.cli import main


def run_cli(*argv, capfd):
    code = main(list(argv))
    captured = capfd.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_tree_family_passes(self, capfd):
        code, out, err = run_cli("verify", "--family", "tree", "--n", "3", capfd=capfd)
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == {"name": "scmlab", "version": __version__}
        assert doc["command"] == "verify"
        assert doc["config"]["family"] == "tree"
        assert doc["config"]["n"] == 3
        assert "caps" in doc["config"]
        assert doc["results"]
        assert all(result["passed"] for result in doc["results"])

    def test_cap_exceeded_exits_3(self, capfd):
        code, out, err = run_cli("verify", "--family", "tree", "--n", "9", capfd=capfd)
        assert code == 3
        assert "error[" in err

    def test_out_file(self, tmp_path, capfd):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            "verify", "--family", "xor", "--m", "1", "--out", str(target), capfd=capfd
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "verify"


class TestGapsCommand:
    def test_bipartite_csv_frozen(self, capfd):
        code, out, _ = run_cli(
            "gaps", "--family", "bipartite", "--m", "2", "--format", "csv", capfd=capfd
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "family,size_param,n,lower_kind,higher_kind,ambiguity_count,"
            "log2_ambiguity,encoder_bits,entropy_bits,min_pairwise_d_int"
        )
        assert lines[1] == "bipartite,2,5,OBS,INT1,16,4.0,4,4.0,"

    def test_xor_csv_frozen(self, capfd):
        code, out, _ = run_cli(
            "gaps", "--family", "xor", "--m", "2", "--format", "csv", capfd=capfd
        )
        assert code == 0
        assert out.splitlines()[1] == "xor,2,4,INT_ALL,CF1,4,2.0,2,2.0,"

    def test_json_envelope(self, capfd):
        code, out, _ = run_cli("gaps", "--family", "tree", "--n", "3", capfd=capfd)
        assert code == 0
        doc = json.loads(out)
        (row,) = doc["results"]
        assert row["ambiguity_count"] == 9
        assert row["encoder_bits"] == 4
        assert row["min_pairwise_d_int"] is None

    def test_rung_override(self, capfd):
        code, out, _ = run_cli(
            "gaps",
            "--family",
            "xor",
            "--m",
            "1",
            "--lower",
            "INT1",
            "--higher",
            "CF1",
            capfd=capfd,
        )
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert (row["lower_kind"], row["higher_kind"]) == ("INT1", "CF1")

    @pytest.mark.parametrize(
        "flag, kind, line",
        [
            ("--lower", "INT_ALL", "tree,3,3,INT_ALL,INT1,1,0.0,4,0.0,"),
            ("--higher", "CF1", "tree,3,3,OBS,CF1,9,3.169925001442312,4,3.169925001442312,"),
        ],
        ids=["lower", "higher"],
    )
    def test_a_lone_rung_keeps_the_rows_other(self, flag, kind, line, capfd):
        code, out, _ = run_cli(
            "gaps", "--family", "tree", "--n", "3", flag, kind, "--format", "csv", capfd=capfd
        )
        assert code == 0
        assert out.splitlines()[1] == line


class TestSepCommand:
    def test_json_report(self, capfd):
        code, out, _ = run_cli("sep", "--m", "1", "--epsilon", "1/5", capfd=capfd)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["min_pairwise_d_int"] == "1/2"
        assert doc["results"]["pair_count"] == 1
        assert doc["results"]["disjoint"] is True
        assert doc["config"]["epsilon"] == "1/5"

    def test_boundary_epsilon_not_disjoint(self, capfd):
        code, out, _ = run_cli("sep", "--m", "1", "--epsilon", "1/4", capfd=capfd)
        assert code == 0
        assert json.loads(out)["results"]["disjoint"] is False

    def test_csv_fills_min_column(self, capfd):
        code, out, _ = run_cli(
            "sep", "--m", "1", "--epsilon", "1/5", "--format", "csv", capfd=capfd
        )
        assert code == 0
        assert out.splitlines()[1] == "bipartite,1,3,OBS,INT1,2,1.0,1,1.0,1/2"

    def test_bad_epsilon_exits_2(self, capfd):
        code, _, err = run_cli("sep", "--m", "1", "--epsilon", "fast", capfd=capfd)
        assert code == 2
        assert "error[" in err


class TestDecodeCommand:
    def test_round_trip_through_files(self, tmp_path, capfd):
        tree = RootedTree(4, 2, {1: 2, 3: 1, 4: 1})
        param_file = tmp_path / "tree.json"
        param_file.write_text(json.dumps(param_to_json("tree", tree)))
        oracle_file = tmp_path / "oracle.bin"
        code, _, _ = run_cli(
            "dump-oracle",
            "--family",
            "tree",
            "--n",
            "4",
            "--param-file",
            str(param_file),
            "--kind",
            "INT1",
            "--out",
            str(oracle_file),
            capfd=capfd,
        )
        assert code == 0
        assert oracle_file.read_bytes() == serialize(
            compute_oracle(build_tree_scm(tree), "INT1")
        )
        code, out, _ = run_cli(
            "decode",
            "--family",
            "tree",
            "--oracle-file",
            str(oracle_file),
            capfd=capfd,
        )
        assert code == 0
        assert json.loads(out) == param_to_json("tree", tree)

    def test_wrong_family_exits_2(self, tmp_path, capfd):
        oracle_file = tmp_path / "xor.bin"
        oracle_file.write_bytes(
            serialize(compute_oracle(build_xor_scm(HiddenString(1, "0")), "INT1"))
        )
        code, _, err = run_cli(
            "decode",
            "--family",
            "tree",
            "--oracle-file",
            str(oracle_file),
            capfd=capfd,
        )
        assert code == 2
        assert "error[" in err

    def test_malformed_oracle_exits_2(self, tmp_path, capfd):
        oracle_file = tmp_path / "bad.bin"
        oracle_file.write_bytes(b"OBS n=1\n#obs\n0=1/2\n")
        code, _, err = run_cli(
            "decode",
            "--family",
            "tree",
            "--oracle-file",
            str(oracle_file),
            capfd=capfd,
        )
        assert code == 2

    def test_decoder_refusals_exit_2(self, tmp_path, capfd):
        chain = compute_oracle(build_tree_scm(RootedTree(3, 1, {2: 1, 3: 2})), "INT1")
        components = list(chain.components)
        # do(X_3=0) pins X_2 too: nodes 2 and 3 name each other as parent
        half = Fraction(1, 2)
        crossed = components[:5] + [("do i=2 b=0", ExactDist(3, {"000": half, "100": half}))]
        # the do(X_1=0) and do(X_1=1) components under each other's keys
        swapped = [components[0], (components[2][0], components[1][1]),
                   (components[1][0], components[2][1])]
        for parts, code_text in [
            (crossed + components[6:], "error[NOT_TREE_LIKE]: recovered parent map is not a tree"),
            (swapped + components[3:], "error[BAD_ORACLE]: component key 'do i=0 b=1'"),
        ]:
            oracle_file = tmp_path / "refused.bin"
            oracle_file.write_bytes(serialize(dataclasses.replace(chain, components=tuple(parts))))
            code, _, err = run_cli(
                "decode", "--family", "tree", "--oracle-file", str(oracle_file), capfd=capfd
            )
            assert code == 2
            assert err.startswith(code_text)

    def test_missing_file_exits_2(self, capfd):
        code, _, _ = run_cli(
            "decode", "--family", "tree", "--oracle-file", "/no/such/file", capfd=capfd
        )
        assert code == 2


class TestNflCommand:
    def test_exact_mode(self, capfd):
        code, out, _ = run_cli(
            "nfl",
            "--m",
            "2",
            "--n-samples",
            "0",
            "--learner",
            "uniform-guess",
            "--mode",
            "exact",
            capfd=capfd,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["success_rate"] == "1/16"
        assert doc["results"]["bound"] == "1/16"

    def test_mc_missing_seed_exits_2(self, capfd):
        code, _, err = run_cli(
            "nfl",
            "--m",
            "1",
            "--n-samples",
            "2",
            "--learner",
            "uniform-guess",
            "--trials",
            "10",
            capfd=capfd,
        )
        assert code == 2
        assert "error[" in err

    def test_mc_report(self, capfd):
        code, out, _ = run_cli(
            "nfl",
            "--m",
            "1",
            "--n-samples",
            "2",
            "--learner",
            "uniform-guess",
            "--trials",
            "200",
            "--seed",
            "7",
            capfd=capfd,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["successes"] == 97
        assert doc["results"]["prng"] == "mt19937+sha256-stream"


class TestDumpScm:
    def test_document_builds_back(self, tmp_path, capfd):
        param_file = tmp_path / "xor.json"
        param_file.write_text(json.dumps(param_to_json("xor", HiddenString(2, "10"))))
        code, out, _ = run_cli(
            "dump-scm",
            "--family",
            "xor",
            "--m",
            "2",
            "--param-file",
            str(param_file),
            capfd=capfd,
        )
        assert code == 0
        assert scm_from_json(json.loads(out)) == build_xor_scm(HiddenString(2, "10"))


class TestParamFile:
    """dump-oracle and dump-scm refuse a parameter file that does not
    describe a member of the family at the size given."""

    KIND = {"dump-oracle": ["--kind", "OBS"], "dump-scm": []}

    def run(self, tmp_path, capfd, command, family, flag, size, doc):
        param_file = tmp_path / "param.json"
        param_file.write_text(json.dumps(doc))
        return run_cli(command, "--family", family, flag, str(size),
                       "--param-file", str(param_file), *self.KIND[command], capfd=capfd)

    @pytest.mark.parametrize("command", ["dump-oracle", "dump-scm"])
    @pytest.mark.parametrize(
        "family, flag, doc",
        [
            ("tree", "--n", {"m": 3, "bits": "101"}),
            ("xor", "--m", {"m": 2, "edges": [[0, 1]]}),
            ("bipartite", "--m", {"n": 2, "root": 1, "parent": {"2": 1}}),
            ("tree", "--n", [1, 2, 3]),
        ],
        ids=["tree-given-xor", "xor-given-bipartite", "bipartite-given-tree", "list"],
    )
    def test_wrong_shape_exits_2(self, tmp_path, capfd, command, family, flag, doc):
        code, out, err = self.run(tmp_path, capfd, command, family, flag, 3, doc)
        assert (code, out) == (2, "")
        wording = f"error[KIND_MISMATCH]: not a parameter document of family {family}:"
        assert err.startswith(wording)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["dump-oracle", "dump-scm"])
    @pytest.mark.parametrize(
        "family, flag, size, docs",
        [
            ("tree", "--n", 2, [
                {"n": 2, "root": 1.0, "parent": {"2": 1}},
                {"n": "2", "root": 1, "parent": {"2": 1}},
                {"n": 2, "root": 1, "parent": {"02": 1}},
                {"n": 2, "root": 1, "parent": {"2": True}},
                {"n": 2, "root": 1, "parent": {"2": 1}, "m": 2},
            ]),
            ("bipartite", "--m", 1, [
                {"m": 1.0, "edges": [[0, 0]]},
                {"m": 1, "edges": [[0, False]]},
                {"m": 1, "edges": ["00"]},
                {"m": 1, "edges": [[0, 0, 0]]},
                {"m": 1, "edges": [[0, 0]], "bits": "1"},
                {"m": 1, "edges": [[0, 0], [0, 0]]},
            ]),
            ("xor", "--m", 2, [
                {"m": 2.9, "bits": "10"},
                {"m": 2, "bits": 10},
                {"m": 2, "bits": "10", "edges": []},
            ]),
            ("xor", "--m", 1, [{"m": True, "bits": "1"}]),
        ],
        ids=["tree", "bipartite", "xor", "xor-bool"],
    )
    def test_a_field_of_the_wrong_json_type_exits_2(
        self, tmp_path, capfd, command, family, flag, size, docs
    ):
        # each document would be read as a member by coercing a field,
        # dropping an extra key or merging a repeated edge
        for doc in docs:
            code, out, err = self.run(tmp_path, capfd, command, family, flag, size, doc)
            assert (code, out) == (2, ""), doc
            assert err.startswith(
                f"error[KIND_MISMATCH]: not a parameter document of family {family}:"
            )
            assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["dump-oracle", "dump-scm"])
    def test_size_flag_must_match_the_file(self, tmp_path, capfd, command):
        doc = param_to_json("xor", HiddenString(3, "101"))
        code, out, err = self.run(tmp_path, capfd, command, "xor", "--m", 1, doc)
        assert (code, out) == (2, "")
        assert err == (
            "error[LENGTH_MISMATCH]: xor size 1 has n=2, "
            "but the parameter file describes n=6\n"
        )
        code, out, err = self.run(tmp_path, capfd, command, "xor", "--m", 3, doc)
        assert (code, err) == (0, "")


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path, capfd):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for target in (first, second):
            code, _, _ = run_cli(
                "gaps", "--family", "xor", "--m", "2", "--out", str(target), capfd=capfd
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()


class TestParserBasics:
    def test_version_flag(self, capfd):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"scmlab {__version__}" in capfd.readouterr().out

    def test_unknown_family_exits_2(self, capfd):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--family", "dag", "--n", "3"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_2(self, capfd):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_module_entry_point(self):
        # the child imports the same package as this process, also when
        # pytest's `pythonpath` setting is what put it on sys.path
        src = str(Path(scmlab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "scmlab.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert f"scmlab {__version__}" in proc.stdout


# the exit code of every package error, written out so that a new error
# class has to be given its code on purpose
EXIT_CODES = {
    "NTooLargeError": 3,
    "MTooLargeError": 3,
    "SupportTooLargeError": 3,
    "OracleDecodeError": 2,
    "NotTreeLikeError": 2,
    "AmbiguousParentError": 2,
    "NotBipartiteLikeError": 2,
    "NotXorLikeError": 2,
    "OracleFormatError": 2,
    "InvalidScmError": 2,
    "InvalidTreeError": 2,
    "InvalidSequenceError": 2,
    "LengthMismatchError": 2,
    "KindMismatchError": 2,
    "BadRangeError": 2,
    "BadPositionError": 2,
    "NotMemberError": 2,
    "ScmLabError": 1,
    "CycleError": 1,
    "ArityMismatchError": 1,
}


def _error_classes(cls=errors.ScmLabError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


class TestExitCodes:
    def test_every_error_class_is_mapped(self):
        assert sorted(cls.__name__ for cls in _error_classes()) == sorted(EXIT_CODES)

    @pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda c: c.__name__)
    def test_main_returns_the_class_exit_code(self, cls, monkeypatch, capfd):
        exc = cls(["boom"]) if cls is errors.InvalidScmError else cls("boom")

        def raising(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_verify", raising)
        code, out, err = run_cli("verify", "--family", "tree", "--n", "2", capfd=capfd)
        assert cls.exit_code == EXIT_CODES[cls.__name__]
        assert code == EXIT_CODES[cls.__name__]
        assert out == ""
        assert err == f"error[{cls.code}]: boom\n"
