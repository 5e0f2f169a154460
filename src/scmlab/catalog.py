"""The separating families, one row each.

The paper's three separations each tie one family to one rung pair, one
decoder and one constructive encoder. `FAMILIES` holds one `FamilySpec`
row per family kind with every such fact, and `Family`, the gap table,
the verify suite, the parameter JSON functions and the CLI read the row.
Adding a family takes one row plus its builder, enumerator, decoder and
JSON codec. This module sits above `families`, `decoders`, `jsonio` and
`prufer`, which fill the rows, and below the modules that read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import decoders, families, jsonio
from .errors import BadRangeError, KindMismatchError
from .families import BIPARTITE, TREE, XOR
from .oracle import CF1, INT1, INT_ALL, OBS
from .prufer import tree_bit_budget
from .rational import HALF
from .scm_core import ExactDist, Scm


def expected_two_point(n: int) -> ExactDist:
    """The shared tree/bipartite observational law: all-zeros or all-ones."""
    return ExactDist(n, {"0" * n: HALF, "1" * n: HALF})


def expected_uniform(n: int) -> ExactDist:
    weight = HALF**n
    return ExactDist(n, {format(v, f"0{n}b"): weight for v in range(1 << n)})


@dataclass(frozen=True)
class FamilySpec:
    """Every fact about one family. Functions of the size take the size
    parameter (n for trees, m otherwise); `build`, `probe`, `decode` and
    the JSON codec take or return one member.

    `decode` is the public decoder of a `rungs[1]` oracle: `probe`,
    the step that reads the oracle's probabilities and names a member or
    raises a typed error, followed by the rebuild check that the named
    member's oracle is the input."""

    n_vars: Callable[[int], int]
    members: Callable  # size -> every member, in the family's fixed order
    build: Callable[..., Scm]
    rungs: tuple[str, str]  # (lower, higher) oracle kinds the separation compares
    encoder_bits: Callable[[int], int]
    # a tight encoder's budget bounds the ambiguity; a loose one reports slack
    encoder_tight: bool
    obs_check: str  # the verify suite's name for the shared-law check
    obs_law: Callable[[int], ExactDist]
    also_identical: tuple[str, ...]  # kinds shared by all members besides rungs[0]
    probe: Callable
    decode: Callable
    to_json: Callable[..., dict]
    from_json: Callable[[dict], object]


FAMILIES: dict[str, FamilySpec] = {
    TREE: FamilySpec(
        n_vars=lambda n: n, members=families.enumerate_trees, build=families.build_tree_scm,
        rungs=(OBS, INT1), encoder_bits=lambda n: tree_bit_budget(n).total_bits,
        encoder_tight=False, obs_check="observational-identical", obs_law=expected_two_point,
        also_identical=(), probe=decoders.tree_probe,
        decode=decoders.tree_from_int1,
        to_json=jsonio.tree_to_json, from_json=jsonio.tree_from_json,
    ),
    BIPARTITE: FamilySpec(
        n_vars=lambda m: 2 * m + 1, members=families.enumerate_graphs,
        build=families.build_bipartite_scm, rungs=(OBS, INT1), encoder_bits=lambda m: m * m,
        encoder_tight=True, obs_check="observational-identical", obs_law=expected_two_point,
        also_identical=(), probe=decoders.graph_probe,
        decode=decoders.graph_from_int1,
        to_json=jsonio.graph_to_json, from_json=jsonio.graph_from_json,
    ),
    XOR: FamilySpec(
        n_vars=lambda m: 2 * m, members=families.enumerate_strings, build=families.build_xor_scm,
        rungs=(INT_ALL, CF1), encoder_bits=lambda m: m,
        encoder_tight=True, obs_check="observational-identical-uniform", obs_law=expected_uniform,
        also_identical=(OBS, INT1), probe=decoders.string_probe,
        decode=decoders.string_from_cf1,
        to_json=jsonio.string_to_json, from_json=jsonio.string_from_json,
    ),
}


def spec_of(kind: str) -> FamilySpec:
    """The row of family `kind`; an unknown kind raises BadRangeError."""
    spec = FAMILIES.get(kind)
    if spec is None:
        raise BadRangeError(f"unknown family {kind!r}")
    return spec


@dataclass(frozen=True)
class Family:
    """One family instance: kind plus its size parameter (n or m)."""

    kind: str
    size: int

    def __post_init__(self):
        spec_of(self.kind)

    @property
    def spec(self) -> FamilySpec:
        return spec_of(self.kind)

    def n_vars(self) -> int:
        return self.spec.n_vars(self.size)

    def parameters(self):
        return self.spec.members(self.size)

    def build(self, param) -> Scm:
        return self.spec.build(param)


def param_to_json(kind: str, param) -> dict:
    return spec_of(kind).to_json(param)


def param_from_json(kind: str, doc: dict):
    """The member of family `kind` that `doc` describes; a document of
    another shape raises KindMismatchError naming the family."""
    try:
        return spec_of(kind).from_json(doc)
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise KindMismatchError(f"not a parameter document of family {kind}: {exc!r}") from None
