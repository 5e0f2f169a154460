"""Plain brute-force INT_ALL enumerator, independent of the scmlab package.

It reads the same JSON SCM documents the benchmark hands to
`scmlab.scm_from_json` and writes the canonical INT_ALL bytes straight from
the documented grammar: for each of the 3^n hard interventions (by target
set size, then the set lexicographically, then the forced bits in binary
order), enumerate every point of the non-intervened noise supports, run the
gates in parents-first order, sum exact weights per outcome, and print the
outcomes in ascending order as lowest-terms "num/den" lines.

Nothing here is shared with the code it checks, so a faster kernel in the
package is checked by code it did not write. Only the standard library is
used, and no shortcut is taken.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _gate(gate: str, inputs: list[int], noise: int) -> int:
    if gate == "CONST0":
        return 0
    if gate == "CONST1":
        return 1
    if gate == "COPY":
        return inputs[0]
    if gate == "NEG":
        return 1 - inputs[0]
    if gate == "AND":
        return int(all(inputs))
    if gate == "OR":
        return int(any(inputs))
    if gate == "PARITY":
        return sum(inputs) % 2
    if gate == "XOR_NOISE":
        return (noise + sum(inputs)) % 2
    if gate == "BERN_SOURCE":
        return noise
    raise ValueError(f"unknown gate {gate!r}")


def _parents_first(parents: list[list[int]]) -> list[int]:
    order: list[int] = []
    placed: set[int] = set()

    def place(v: int, path: frozenset) -> None:
        if v in placed:
            return
        if v in path:
            raise ValueError(f"cycle through variable {v}")
        for p in parents[v]:
            place(p, path | {v})
        placed.add(v)
        order.append(v)

    for v in range(len(parents)):
        place(v, frozenset())
    return order


def int_all_bytes(doc: dict) -> bytes:
    """Canonical INT_ALL oracle bytes of the SCM described by `doc`."""
    n = doc["n"]
    variables = sorted(doc["variables"], key=lambda v: v["id"])
    gates = [v["gate"] for v in variables]
    parents = [list(v["parents"]) for v in variables]
    supports = [list(v["noise"]["support"]) for v in variables]
    probs = [[Fraction(p) for p in v["noise"]["probs"]] for v in variables]
    order = _parents_first(parents)

    lines = [f"INT_ALL n={n}"]
    for size in range(n + 1):
        for targets in itertools.combinations(range(n), size):
            for forced_bits in itertools.product((0, 1), repeat=size):
                forced = dict(zip(targets, forced_bits))
                free = [v for v in range(n) if v not in forced]
                mass: dict[str, Fraction] = {}
                for picks in itertools.product(*(range(len(supports[v])) for v in free)):
                    noise = [0] * n
                    weight = Fraction(1)
                    for v, k in zip(free, picks):
                        noise[v] = supports[v][k]
                        weight *= probs[v][k]
                    values = [0] * n
                    for v in order:
                        if v in forced:
                            values[v] = forced[v]
                        else:
                            values[v] = _gate(
                                gates[v], [values[p] for p in parents[v]], noise[v]
                            )
                    key = "".join(str(b) for b in values)
                    mass[key] = mass.get(key, Fraction(0)) + weight
                lines.append(
                    "#do S=" + ",".join(str(v) for v in targets)
                    + " x=" + "".join(str(b) for b in forced_bits)
                )
                for key in sorted(mass):
                    w = mass[key]
                    lines.append(f"{key}={w.numerator}/{w.denominator}")
    return ("\n".join(lines) + "\n").encode("ascii")
