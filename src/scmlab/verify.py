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
decoder with the kind that decoder reads. All oracle bytes come from
one `oracle.oracle_indexes` call: the INT_ALL index, shared with the gap
tables, and one sweep that builds, compiles and runs the kernel once per
member for every other kind. The cross-rung checks read each dist's
integer view, not Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Family
from .oracle import CF1, INT1, OBS, AnswerOracle, marginal, oracle_indexes, parse, serialize


@dataclass(frozen=True)
class CheckResult:
    """One named check over a whole family instance."""

    name: str
    passed: bool
    details: dict


def _marginal_consistency(n: int, obs_dist, int1, cf1) -> bool:
    """Factual block must be the observational law; each world block must
    be the matching single-variable interventional law."""
    for i in range(n):
        triple = cf1.component(f"cf i={i}")
        if marginal(triple, range(n)) != obs_dist:
            return False
        if marginal(triple, range(n, 2 * n)) != int1.component(f"do i={i} b=0"):
            return False
        if marginal(triple, range(2 * n, 3 * n)) != int1.component(f"do i={i} b=1"):
            return False
    return True


def _obs_embeds(obs: bytes, int1: bytes) -> bool:
    """The OBS oracle's `#obs` block must be INT1's leading block, verbatim
    and whole: INT1 continues with its first do() header."""
    return int1.split(b"\n", 1)[1].startswith(obs.split(b"\n", 1)[1] + b"#")


def verify_family(family: Family) -> list[CheckResult]:
    """Run the family's full suite; exhaustive over its parameter space."""
    spec = family.spec
    lower_kind, higher_kind = spec.rungs
    n = family.n_vars()
    # INT_ALL, the costliest kind, is read first, so its cap refuses before any work
    index = oracle_indexes(family, (lower_kind, higher_kind, *spec.also_identical, OBS, INT1, CF1))
    obs, int1, cf1 = index[OBS], index[INT1], index[CF1]
    count = len(obs)
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

    obs_dists = {data: parse(data).components[0][1] for data in set(obs)}
    round_trips = 0
    marginals_ok = True
    embeddings_ok = True
    for param, obs_data, int1_data, cf1_data in zip(family.parameters(), obs, int1, cf1):
        parsed = {INT1: parse(int1_data), CF1: parse(cf1_data)}
        if spec.decode(parsed[spec.decoder_kind]) == param:
            round_trips += 1
        marginals_ok &= _marginal_consistency(
            n, obs_dists[obs_data], parsed[INT1], parsed[CF1]
        )
        embeddings_ok &= _obs_embeds(obs_data, int1_data)
    check("decoder-round-trip", round_trips == count, recovered=round_trips)
    check("counterfactual-marginal-consistency", marginals_ok)
    check("observational-component-embeds", embeddings_ok)
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
