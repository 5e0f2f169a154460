"""Finite gate-schema library for binary structural equations.

A gate maps k parent bits plus one exogenous noise symbol to an output bit.
Arity contracts: COPY and NEG take exactly one parent, BERN_SOURCE takes
none, the rest accept any arity (AND of nothing is 1, OR of nothing is 0,
PARITY of nothing is 0). XOR_NOISE and BERN_SOURCE are the only schemas
that read the noise symbol, which must itself be a bit.

Every gate is one row of `TABLE`: a test on its parent bits, an output
inversion, whether the noise bit is xored in, and a fixed arity. The
exact kernel in `scm_core` compiles each mechanism from its row into a
test code plus a parent bitmask.
"""

from typing import NamedTuple

CONST0 = "CONST0"
CONST1 = "CONST1"
COPY = "COPY"
NEG = "NEG"
AND = "AND"
OR = "OR"
PARITY = "PARITY"
XOR_NOISE = "XOR_NOISE"
BERN_SOURCE = "BERN_SOURCE"

# tests on the parent bits: CONST ignores them, ANY is 1 when some parent
# is 1, ALL when every parent is 1, XOR when an odd number of them are 1
CONST, ANY, ALL, XOR = range(4)


class GateSpec(NamedTuple):
    test: int
    invert: int
    reads_noise: bool
    arity: int | None  # None: any arity


TABLE = {
    CONST0: GateSpec(CONST, 0, False, None),
    CONST1: GateSpec(CONST, 1, False, None),
    COPY: GateSpec(ANY, 0, False, 1),
    NEG: GateSpec(ANY, 1, False, 1),
    AND: GateSpec(ALL, 0, False, None),
    OR: GateSpec(ANY, 0, False, None),
    PARITY: GateSpec(XOR, 0, False, None),
    XOR_NOISE: GateSpec(XOR, 0, True, None),
    BERN_SOURCE: GateSpec(CONST, 0, True, 0),
}

# schemas whose output depends on the noise symbol
NOISE_READING = frozenset(g for g, spec in TABLE.items() if spec.reads_noise)


def spec(gate: str) -> GateSpec:
    """The table row of `gate`; ValueError for a gate outside the library."""
    row = TABLE.get(gate)
    if row is None:
        raise ValueError(f"unknown gate {gate!r}")
    return row


def arity_issue(gate: str, k: int) -> str | None:
    """Describe the arity violation for `gate` with k parents, if any."""
    if gate not in TABLE:
        return f"unknown gate {gate!r}"
    want = TABLE[gate].arity
    if want is not None and k != want:
        return f"{gate} takes exactly {want} parent(s), got {k}"
    return None


def check_noise_symbol(gate: str, row: GateSpec, noise: int) -> None:
    if row.reads_noise and noise not in (0, 1):
        raise ValueError(f"{gate} needs a bit-valued noise symbol, got {noise}")
