"""Plain reference for the family verification suite.

It serializes each member's oracle of each kind, computed one model and
one kind at a time (`compute_oracle`, with no family column), parses
every oracle back from those bytes, runs the public decoder (probe and
rebuild check) on each parsed oracle, and compares each CF1 block's
`marginal` with its law by `==`. It does each member's work more than once on purpose: `verify_family`,
which reads each member's in-memory oracles from one sweep, must return
the same `CheckResult`s for every family and raise the same errors.
"""

from scmlab.catalog import Family
from scmlab.oracle import (
    CF1, INT1, OBS, AnswerOracle, compute_oracle, marginal, parse, serialize,
)
from scmlab.verify import CheckResult


def _marginal_consistency(n: int, obs_dist, int1, cf1) -> bool:
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
    return int1.split(b"\n", 1)[1].startswith(obs.split(b"\n", 1)[1] + b"#")


def reference_verify(family: Family) -> list[CheckResult]:
    spec = family.spec
    lower_kind, higher_kind = spec.rungs
    n = family.n_vars()
    members = [family.build(param) for param in family.parameters()]
    index = {kind: [serialize(compute_oracle(scm, kind)) for scm in members]
             for kind in dict.fromkeys((lower_kind, higher_kind, *spec.also_identical, OBS, INT1, CF1))}
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

    round_trips = 0
    marginals_ok = True
    embeddings_ok = True
    for param, obs_data, int1_data, cf1_data in zip(family.parameters(), obs, int1, cf1):
        parsed = {INT1: parse(int1_data), CF1: parse(cf1_data)}
        if spec.decode(parsed[spec.rungs[1]]) == param:
            round_trips += 1
        obs_dist = parse(obs_data).components[0][1]
        marginals_ok &= _marginal_consistency(n, obs_dist, parsed[INT1], parsed[CF1])
        embeddings_ok &= _obs_embeds(obs_data, int1_data)
    check("decoder-round-trip", round_trips == count, recovered=round_trips)
    check("counterfactual-marginal-consistency", marginals_ok)
    check("observational-component-embeds", embeddings_ok)
    return results
