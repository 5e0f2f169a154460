"""JSON codecs must round-trip exactly and reject invalid documents."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from scmlab import (
    BipartiteGraph,
    HiddenString,
    Mechanism,
    NoiseDist,
    RootedTree,
    Scm,
    build_bipartite_scm,
    build_xor_scm,
    param_from_json,
    param_to_json,
    scm_from_json,
    scm_to_json,
)
from scmlab import cli, gates
from scmlab.errors import (
    BadRangeError,
    InvalidScmError,
    InvalidTreeError,
    LengthMismatchError,
    OracleFormatError,
)

from conftest import small_scms


class TestScmCodec:
    def test_round_trip_xor_family(self):
        scm = build_xor_scm(HiddenString(2, "01"))
        assert scm_from_json(scm_to_json(scm)) == scm

    def test_round_trip_survives_json_text(self):
        scm = build_bipartite_scm(BipartiteGraph(2, frozenset({(0, 1)})))
        assert scm_from_json(json.loads(json.dumps(scm_to_json(scm)))) == scm

    def test_probs_stay_exact_strings(self):
        scm = Scm(
            1,
            (
                Mechanism(
                    gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 3))
                ),
            ),
        )
        doc = scm_to_json(scm)
        assert doc["variables"][0]["noise"]["probs"] == ["2/3", "1/3"]
        assert scm_from_json(doc) == scm

    @given(small_scms())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random_scms(self, scm):
        assert scm_from_json(json.loads(json.dumps(scm_to_json(scm)))) == scm

    def test_rejects_unknown_gate(self):
        doc = scm_to_json(build_xor_scm(HiddenString(1, "0")))
        doc["variables"][0]["gate"] = "NAND"
        with pytest.raises(InvalidScmError) as excinfo:
            scm_from_json(doc)
        assert any("BAD_GATE" in issue for issue in excinfo.value.issues)

    def test_rejects_bad_probability_sum(self):
        doc = {
            "n": 1,
            "variables": [
                {
                    "id": 0,
                    "parents": [],
                    "gate": "BERN_SOURCE",
                    "noise": {"support": [0, 1], "probs": ["1/2", "1/3"]},
                }
            ],
        }
        with pytest.raises(InvalidScmError) as excinfo:
            scm_from_json(doc)
        assert any("BAD_NOISE" in issue for issue in excinfo.value.issues)

    def test_rejects_cycle(self):
        doc = {
            "n": 2,
            "variables": [
                {
                    "id": 0,
                    "parents": [1],
                    "gate": "COPY",
                    "noise": {"support": [0], "probs": ["1/1"]},
                },
                {
                    "id": 1,
                    "parents": [0],
                    "gate": "COPY",
                    "noise": {"support": [0], "probs": ["1/1"]},
                },
            ],
        }
        with pytest.raises(InvalidScmError) as excinfo:
            scm_from_json(doc)
        assert any("CYCLE" in issue for issue in excinfo.value.issues)

    def test_rejects_bad_ids(self):
        doc = scm_to_json(build_xor_scm(HiddenString(1, "1")))
        doc["variables"][0]["id"] = 5
        with pytest.raises(InvalidScmError) as excinfo:
            scm_from_json(doc)
        assert any("BAD_SHAPE" in issue for issue in excinfo.value.issues)

    def test_rejects_missing_keys(self):
        with pytest.raises(InvalidScmError):
            scm_from_json({"n": 1})

    def test_rejects_prob_past_the_int_conversion_limit(self):
        doc = {
            "n": 1,
            "variables": [
                {
                    "id": 0,
                    "parents": [],
                    "gate": "BERN_SOURCE",
                    "noise": {"support": [0, 1], "probs": ["1/1" + "0" * 4400, "1/1"]},
                }
            ],
        }
        with pytest.raises(InvalidScmError):
            scm_from_json(doc)

    def test_a_prob_too_long_to_write_is_a_typed_error(self):
        # past the interpreter's 4300-digit limit for int-to-text conversion
        tiny = Fraction(1, 10**4400)
        scm = Scm(1, (Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(tiny)),))
        with pytest.raises(OracleFormatError, match="too long to write"):
            scm_to_json(scm)
        with pytest.raises(OracleFormatError, match="too long to write"):
            cli._jsonable({"mass": tiny})

    def test_rejects_non_lowest_terms_prob(self):
        doc = {
            "n": 1,
            "variables": [
                {
                    "id": 0,
                    "parents": [],
                    "gate": "BERN_SOURCE",
                    "noise": {"support": [0, 1], "probs": ["2/4", "1/2"]},
                }
            ],
        }
        with pytest.raises(InvalidScmError):
            scm_from_json(doc)


class TestParamCodec:
    def test_tree_round_trip(self):
        tree = RootedTree(4, 3, {1: 3, 2: 1, 4: 1})
        doc = json.loads(json.dumps(param_to_json("tree", tree)))
        assert param_from_json("tree", doc) == tree

    def test_tree_document_shape(self):
        doc = param_to_json("tree", RootedTree(3, 1, {2: 1, 3: 2}))
        assert doc == {"n": 3, "root": 1, "parent": {"2": 1, "3": 2}}

    def test_graph_round_trip(self):
        graph = BipartiteGraph(3, frozenset({(0, 2), (1, 0)}))
        doc = json.loads(json.dumps(param_to_json("bipartite", graph)))
        assert param_from_json("bipartite", doc) == graph

    def test_graph_document_shape(self):
        doc = param_to_json("bipartite", BipartiteGraph(2, frozenset({(1, 0), (0, 0)})))
        assert doc == {"m": 2, "edges": [[0, 0], [1, 0]]}

    def test_string_round_trip(self):
        hidden = HiddenString(3, "101")
        doc = json.loads(json.dumps(param_to_json("xor", hidden)))
        assert param_from_json("xor", doc) == hidden

    def test_unknown_kind(self):
        with pytest.raises(BadRangeError, match="unknown family 'dag'"):
            param_to_json("dag", RootedTree(1, 1, {}))

    def test_tree_checked_on_load(self):
        with pytest.raises(InvalidTreeError):
            param_from_json("tree", {"n": 2, "root": 1, "parent": {}})

    def test_graph_checked_on_load(self):
        with pytest.raises(BadRangeError):
            param_from_json("bipartite", {"m": 2, "edges": [[0, 5]]})

    def test_string_checked_on_load(self):
        with pytest.raises(LengthMismatchError):
            param_from_json("xor", {"m": 3, "bits": "01"})
