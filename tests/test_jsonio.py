"""JSON codecs must round-trip exactly and reject invalid documents."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from scmlab.catalog import Family
from scmlab.errors import (
    BadRangeError,
    InvalidScmError,
    InvalidTreeError,
    KindMismatchError,
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


def _one_variable_doc(**fields) -> dict:
    """The document of one fair source, with `fields` replacing its own."""
    fair = Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 2)))
    doc = scm_to_json(Scm(1, (fair,)))
    variable = doc["variables"][0]
    for name, value in fields.items():
        if name in variable:
            variable[name] = value
        elif name in variable["noise"]:
            variable["noise"][name] = value
        else:
            doc[name] = value
    return doc


class TestScmReaderTypes:
    """Each field is read in its own JSON type, so a value of another type,
    one too large for a float (JSON 1e400 is inf) or a variable count the
    document cannot back is a typed error."""

    @pytest.mark.parametrize(
        "doc",
        [
            _one_variable_doc(n=1.9),
            _one_variable_doc(id=False),
            _one_variable_doc(support=[False, True]),
            _one_variable_doc(support=["0", "1"]),
            _one_variable_doc(n=json.loads("1e400")),
            _one_variable_doc(id=json.loads("1e400")),
            _one_variable_doc(support=[json.loads("1e400"), 1]),
            {"n": 10**18, "variables": []},
        ],
        ids=["n float", "id bool", "support bools", "support strings",
             "n inf", "id inf", "support inf", "n past the variables"],
    )
    def test_rejected_as_invalid_scm(self, doc):
        with pytest.raises(InvalidScmError):
            scm_from_json(doc)

    def test_the_valid_document_is_accepted(self):
        assert scm_from_json(_one_variable_doc()).n == 1


_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([0, 1, 2, -1, 1.0, "1/2", "1/1", "n", "id", gates.COPY, gates.BERN_SOURCE])
)
json_values = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "variables", "id", "x"]) | st.text(max_size=4),
                      inner, max_size=4),
    max_leaves=10,
)


def _slots(value):
    """(container, key) of every value inside `value`, at any depth."""
    if isinstance(value, dict):
        items = list(value.items())
    else:
        items = list(enumerate(value)) if isinstance(value, list) else []
    for key, child in items:
        yield value, key
        yield from _slots(child)


@st.composite
def mutated_scm_docs(draw):
    """`scm_to_json` of a small SCM after one to three `_mutate` edits."""
    return _mutate(draw, scm_to_json(draw(small_scms(max_n=3))),
                   ["n", "id", "gate", "noise", "probs", "x"])


def _mutate(draw, doc, names):
    """`doc` after one to three edits: a value replaced by any JSON value,
    removed, or a value inserted beside it, under one of `names` in an
    object."""
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:  # every key deleted
            break
        container, key = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(["replace", "delete", "insert", "copy"]))
        if op == "replace":
            container[key] = draw(json_values)
        elif op == "delete":
            del container[key]
        elif isinstance(container, list):
            value = copy.deepcopy(container[key]) if op == "copy" else draw(json_values)
            container.insert(key, value)
        else:
            container[draw(st.sampled_from(names))] = draw(json_values)
    return doc


def check_scm_document(doc) -> None:
    """`doc` is rejected with InvalidScmError, or it is the document of the
    model it gives, once its variables are sorted by id; compared as JSON
    text, so a bool or a float never passes for an integer."""
    try:
        scm = scm_from_json(doc)
    except InvalidScmError:
        return
    ordered = dict(doc, variables=sorted(doc["variables"], key=lambda v: v["id"]))
    assert json.dumps(ordered, sort_keys=True) == json.dumps(scm_to_json(scm), sort_keys=True)


class TestScmReaderFuzz:
    @given(json_values)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value(self, doc):
        check_scm_document(doc)

    @given(mutated_scm_docs())
    @settings(max_examples=300, deadline=None)
    def test_mutated_documents(self, doc):
        check_scm_document(doc)

    @given(small_scms(max_n=3))
    @settings(max_examples=30, deadline=None)
    def test_valid_documents_are_accepted(self, scm):
        check_scm_document(scm_to_json(scm))
        assert scm_from_json(scm_to_json(scm)) == scm


PARAM_SIZES = {"tree": 4, "bipartite": 2, "xor": 3}


@st.composite
def mutated_param_docs(draw):
    """(family, `param_to_json` of one of its small members after one to
    three `_mutate` edits)."""
    kind = draw(st.sampled_from(sorted(PARAM_SIZES)))
    param = draw(st.sampled_from(list(Family(kind, PARAM_SIZES[kind]).parameters())))
    names = ["n", "root", "parent", "m", "edges", "bits", "1", "2", "x"]
    return kind, _mutate(draw, param_to_json(kind, param), names)


def check_param_document(kind, doc) -> None:
    """`doc` is refused with a typed error, or it is the `param_to_json`
    document of the member it gives, its edges compared as a sorted list;
    compared as JSON text, so a bool or a float never passes for an
    integer."""
    try:
        param = param_from_json(kind, doc)
    except (KindMismatchError, InvalidTreeError, BadRangeError, LengthMismatchError):
        return
    if kind == "bipartite":
        doc = dict(doc, edges=sorted(doc["edges"]))
    assert json.dumps(doc, sort_keys=True) == json.dumps(param_to_json(kind, param), sort_keys=True)


class TestParamReaderFuzz:
    @given(st.sampled_from(sorted(PARAM_SIZES)), json_values)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value(self, kind, doc):
        check_param_document(kind, doc)

    @given(mutated_param_docs())
    @settings(max_examples=300, deadline=None)
    def test_mutated_documents(self, kind_doc):
        check_param_document(*kind_doc)

    @pytest.mark.parametrize("kind", sorted(PARAM_SIZES))
    def test_every_small_member_is_accepted(self, kind):
        for param in Family(kind, PARAM_SIZES[kind]).parameters():
            doc = json.loads(json.dumps(param_to_json(kind, param)))
            check_param_document(kind, doc)
            assert param_from_json(kind, doc) == param


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

    def test_graph_edges_in_any_order_but_each_once(self):
        graph = BipartiteGraph(2, frozenset({(1, 0), (0, 0)}))
        assert param_from_json("bipartite", {"m": 2, "edges": [[1, 0], [0, 0]]}) == graph
        with pytest.raises(KindMismatchError, match="repeat an edge"):
            param_from_json("bipartite", {"m": 2, "edges": [[1, 0], [0, 0], [1, 0]]})

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
