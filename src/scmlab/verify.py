"""Exhaustive family verification.

Each family instance gets a suite of named checks, every one computed by
full enumeration in exact arithmetic: the shared lower-rung law, the
higher-rung distinctness, decoder round-trips over the whole parameter
space, and the cross-rung consistency properties (counterfactual blocks
marginalize to the matching interventional laws; the observational
component embeds verbatim in INT1). A suite passes only if every check
passes on every parameter.

One suite serves every family. The family's row in `catalog.FAMILIES`
gives its rung pair, the name and expected law of its observational
check, the kinds that must be identical beyond the lower rung, and its
decoder, split into its probe and the full decoder, with the kind they
read.

The suite walks the family once. INT_ALL, when the rung pair asks for
it, is read first from its memoized index (shared with the gap tables),
so its cap refuses before any other work. Then one `oracle.family_sweep`
builds, compiles and runs the kernel once per member for OBS, INT1 and
CF1, and every per-member check reads that member's in-memory oracles
as the sweep yields them; only the bytes that the distinctness checks
group are kept, and nothing is parsed back. The decoder's probe runs on
the in-memory oracle: when it names the member itself, the rebuild check
would recompute that same oracle, so the round trip counts without it.
Anything else goes through the public decoder on the same oracle, so a
wrong member or a typed error comes out exactly as from the decoder. The
cross-rung check is one integer pass per CF1 triple (`blocks_match`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Family
from .oracle import (
    CF1, INT1, INT_ALL, OBS, AnswerOracle, blocks_match, family_sweep, oracle_index, serialize,
)


@dataclass(frozen=True)
class CheckResult:
    """One named check over a whole family instance."""

    name: str
    passed: bool
    details: dict


def _marginal_consistency(obs: AnswerOracle, int1: AnswerOracle, cf1: AnswerOracle) -> bool:
    """Factual block must be the observational law; each world block must
    be the matching single-variable interventional law. Each law is read
    by its layout position: CF1 triple i, and INT1's do(X_i=0) and
    do(X_i=1) at 1 + 2i and 2 + 2i, after obs."""
    obs_dist = obs.components[0][1]
    int1_laws = [dist for _, dist in int1.components]
    return all(
        blocks_match(triple, (obs_dist, int1_laws[1 + 2 * i], int1_laws[2 + 2 * i]))
        for i, (_, triple) in enumerate(cf1.components)
    )


def _obs_embeds(obs: bytes, int1: bytes) -> bool:
    """The OBS oracle's `#obs` block must be INT1's leading block, verbatim
    and whole: INT1 continues with its first do() header."""
    return int1.split(b"\n", 1)[1].startswith(obs.split(b"\n", 1)[1] + b"#")


def verify_family(family: Family) -> list[CheckResult]:
    """Run the family's full suite; exhaustive over its parameter space."""
    spec = family.spec
    lower_kind, higher_kind = spec.rungs
    n = family.n_vars()
    grouped = (*spec.also_identical, lower_kind, higher_kind)
    # INT_ALL, the costliest kind, is read first, so its cap refuses before any work
    index = {INT_ALL: oracle_index(family, INT_ALL)} if INT_ALL in grouped else {}
    swept = (OBS, INT1, CF1)
    columns: dict[str, list[bytes]] = {kind: [] for kind in swept}
    round_trips = 0
    marginals_ok = True
    embeddings_ok = True
    for param, oracles, data in family_sweep(family, swept):
        for kind in swept:
            columns[kind].append(data[kind])
        oracle = oracles[spec.decoder_kind]
        if spec.probe(oracle) == param or spec.decode(oracle) == param:
            round_trips += 1
        marginals_ok &= _marginal_consistency(oracles[OBS], oracles[INT1], oracles[CF1])
        embeddings_ok &= _obs_embeds(data[OBS], data[INT1])
    index.update(columns)
    count = len(columns[OBS])
    results = []

    def check(name: str, passed: bool, **details) -> None:
        results.append(CheckResult(name, passed, {"parameters": count, **details}))

    for kind in (*spec.also_identical, lower_kind):
        distinct = set(index[kind])
        if kind == OBS:
            expected = serialize(AnswerOracle(OBS, n, (("obs", spec.obs_law(n)),)))
            check(spec.obs_check, distinct == {expected}, distinct_laws=len(distinct))
        else:
            name = f"{kind.lower().replace('_', '-')}-identical"
            check(name, len(distinct) == 1, distinct_oracles=len(distinct))
    distinct = set(index[higher_kind])
    name = f"{higher_kind.lower().replace('_', '-')}-all-distinct"
    check(name, len(distinct) == count, distinct_oracles=len(distinct))
    check("decoder-round-trip", round_trips == count, recovered=round_trips)
    check("counterfactual-marginal-consistency", marginals_ok)
    check("observational-component-embeds", embeddings_ok)
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
