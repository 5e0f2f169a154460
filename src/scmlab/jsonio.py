"""JSON codecs for SCMs and family parameters.

SCM document shape:

    {"n": 3,
     "variables": [
        {"id": 0, "parents": [], "gate": "BERN_SOURCE",
         "noise": {"support": [0, 1], "probs": ["1/2", "1/2"]}},
        ...]}

Probabilities are "num/den" strings so documents stay exact. Loading
reads each field only in its own JSON type and each object only with
exactly its keys, so an accepted document is the one `scm_to_json`
writes, up to the order of its variables; it then validates the SCM and
raises InvalidScmError with the full issue list.
Parameter documents: {"n", "root", "parent"} for trees (keys of `parent`
are strings, a JSON restriction), {"m", "edges"} for layer graphs,
{"m", "bits"} for hidden strings. `catalog.param_to_json` and
`catalog.param_from_json` pick the codec from the family's row. The
parameter readers take each document only with exactly its keys, each
field only in its own JSON type, integers (not booleans) and strings, a
tree node key only as the decimal spelling `tree_to_json` writes, and
each edge once, so one member has one document, up to the order of its
edges; any other value raises TypeError or ValueError, which
`param_from_json` reports as KindMismatchError.
"""

from __future__ import annotations

from .errors import InvalidScmError, OracleFormatError
from .families import BipartiteGraph, HiddenString, RootedTree
from .rational import frac_parse, frac_str
from .scm_core import Mechanism, NoiseDist, Scm, validate


def scm_to_json(scm: Scm) -> dict:
    variables = []
    for i, mech in enumerate(scm.mechanisms):
        variables.append(
            {
                "id": i,
                "parents": list(mech.parents),
                "gate": mech.gate,
                "noise": {
                    "support": list(mech.noise.support),
                    "probs": [frac_str(p) for p in mech.noise.probs],
                },
            }
        )
    return {"n": scm.n, "variables": variables}


def scm_from_json(doc: dict) -> Scm:
    """The SCM of a document in the shape `scm_to_json` writes. Each field
    is read only in its own JSON type, every object has exactly its keys,
    and the variable count is checked against n before any range is
    built; anything else raises InvalidScmError."""
    try:
        n = _int(_object(doc, "n", "variables")["n"])
        raw_variables = _list(doc["variables"])
        if len(raw_variables) != n:
            raise InvalidScmError([f"BAD_SHAPE: {len(raw_variables)} variables for n={n}"])
        by_id = {_int(_object(v, "id", "parents", "gate", "noise")["id"]): v
                 for v in raw_variables}
        if sorted(by_id) != list(range(n)):
            raise InvalidScmError(
                [f"BAD_SHAPE: variable ids {sorted(by_id)} are not 0..{n - 1}"]
            )
        mechanisms = []
        for i in range(n):
            v = by_id[i]
            law = _object(v["noise"], "support", "probs")
            noise = NoiseDist(
                tuple(map(_int, _list(law["support"]))),
                tuple(frac_parse(_str(p)) for p in _list(law["probs"])),
            )
            mechanisms.append(
                Mechanism(_str(v["gate"]), tuple(map(_int, _list(v["parents"]))), noise)
            )
    except (KeyError, TypeError, ValueError, OracleFormatError) as exc:
        raise InvalidScmError([f"BAD_SHAPE: malformed document: {exc}"]) from None
    scm = Scm(n, tuple(mechanisms))
    issues = validate(scm)
    if issues:
        raise InvalidScmError(issues)
    return scm


def _int(value) -> int:
    """A JSON integer as it is; a float, bool, string or other value is a
    TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _str(value) -> str:
    if type(value) is not str:
        raise TypeError(f"expected a JSON string, got {value!r}")
    return value


def _list(value) -> list:
    if type(value) is not list:
        raise TypeError(f"expected a JSON array, got {type(value).__name__}")
    return value


def _object(value, *keys: str) -> dict:
    """A JSON object with exactly `keys`; any other value is a TypeError."""
    if type(value) is not dict or value.keys() != set(keys):
        raise TypeError(f"expected a JSON object with the keys {', '.join(keys)}")
    return value


def _node_key(key: str) -> int:
    """A tree node named by an object key, which JSON makes a string."""
    node = int(key)
    if str(node) != key:
        raise ValueError(f"node key {key!r} is not a decimal integer")
    return node


def tree_to_json(tree: RootedTree) -> dict:
    return {
        "n": tree.n,
        "root": tree.root,
        "parent": {str(v): p for v, p in sorted(tree.parent.items())},
    }


def tree_from_json(doc: dict) -> RootedTree:
    doc = _object(doc, "n", "root", "parent")
    tree = RootedTree(
        _int(doc["n"]),
        _int(doc["root"]),
        {_node_key(v): _int(p) for v, p in doc["parent"].items()},
    )
    tree.check()
    return tree


def graph_to_json(graph: BipartiteGraph) -> dict:
    return {"m": graph.m, "edges": sorted([i, j] for i, j in graph.edges)}


def graph_from_json(doc: dict) -> BipartiteGraph:
    edges = _object(doc, "m", "edges")["edges"]
    if type(edges) is not list or any(type(e) is not list or len(e) != 2 for e in edges):
        raise TypeError(f"edges must be a list of [i, j] pairs, got {edges!r}")
    graph = BipartiteGraph(_int(doc["m"]), frozenset((_int(i), _int(j)) for i, j in edges))
    if len(graph.edges) != len(edges):
        raise ValueError(f"edges {edges!r} repeat an edge")
    graph.check()
    return graph


def string_to_json(hidden: HiddenString) -> dict:
    return {"m": hidden.m, "bits": hidden.bits}


def string_from_json(doc: dict) -> HiddenString:
    doc = _object(doc, "m", "bits")
    hidden = HiddenString(_int(doc["m"]), _str(doc["bits"]))
    hidden.check()
    return hidden
