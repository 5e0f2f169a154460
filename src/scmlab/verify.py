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

The suite walks the family once, through `oracle.family_sweep`: each
member is built and compiled once, its OBS, INT1 and CF1 are read off one
parallel-worlds pass, and every per-member check reads that member's
in-memory oracles. The distinctness checks group the columns the sweep
fills, each member's tuple of component bodies, equal exactly when the
bytes are; the sweep owns the rule for getting them, so a column a gap
table or an earlier suite left is read, not swept again, and a cap
refuses before any other work. Nothing is serialized per member or parsed
back. The embedding check serializes one (OBS, INT1) pair per distinct
(OBS body, INT1 obs body). When the decoder's probe names the member
itself, the rebuild check would read back that same oracle, so the round
trip counts without it; anything else goes through the public decoder, so
a wrong member or a typed error comes out exactly as from the decoder.
The cross-rung check compares each CF1 triple's three world blocks,
`marginal(triple, range(k * n, k * n + n))` for k = 0, 1, 2, with the
obs, do 0 and do 1 laws, once per distinct (triple, obs, do 0, do 1)
dists, which members share: the 46,656 triples of tree n=6 reach only 63.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Family
from .oracle import CF1, INT1, OBS, AnswerOracle, family_sweep, marginal, serialize


@dataclass(frozen=True)
class CheckResult:
    """One named check over a whole family instance."""

    name: str
    passed: bool
    details: dict


def _marginal_consistency(obs: AnswerOracle, int1: AnswerOracle, cf1: AnswerOracle,
                          seen: dict) -> bool:
    """Factual block must be the observational law; each world block must
    be the matching single-variable interventional law. Each law is read
    by its layout position: CF1 triple i, and INT1's do(X_i=0) and
    do(X_i=1) at 1 + 2i and 2 + 2i, after obs. `seen` holds the verdict of
    each (triple, obs, do 0, do 1) checked so far, keyed by the ids of the
    dists, which members share and which it holds beside the verdict."""
    obs_dist, n = obs.components[0][1], obs.n
    laws = int1.components
    for i, (_, triple) in enumerate(cf1.components):
        do0, do1 = laws[1 + 2 * i][1], laws[2 + 2 * i][1]
        key = (id(triple), id(obs_dist), id(do0), id(do1))
        held = seen.get(key)
        if held is None:
            held = seen[key] = (all(marginal(triple, range(k * n, k * n + n)) == law
                                    for k, law in enumerate((obs_dist, do0, do1))),
                                (triple, obs_dist, do0, do1))
        if not held[0]:
            return False
    return True


def _obs_embeds(obs: bytes, int1: bytes) -> bool:
    """The OBS oracle's `#obs` block must be INT1's leading block, verbatim
    and whole: INT1 continues with its first do() header."""
    return int1.split(b"\n", 1)[1].startswith(obs.split(b"\n", 1)[1] + b"#")


def verify_family(family: Family) -> list[CheckResult]:
    """Run the family's full suite, exhaustive over its parameter space:
    one `family_sweep` for OBS, INT1 and CF1 serves every per-member check
    and fills the columns the distinctness checks group."""
    spec = family.spec
    lower_kind, higher_kind = spec.rungs
    n = family.n_vars()
    columns = dict.fromkeys((*spec.also_identical, lower_kind, higher_kind))
    count = round_trips = 0
    marginals_ok = embeddings_ok = True
    checked: dict[tuple, tuple] = {}  # by (triple, obs, do 0, do 1) ids
    embedded: dict[tuple, bool] = {}  # by (OBS body, INT1 obs body), which fix the verdict
    for count, (param, oracles) in enumerate(family_sweep(family, (OBS, INT1, CF1), columns), 1):
        oracle = oracles[higher_kind]
        if spec.probe(oracle) == param or spec.decode(oracle) == param:
            round_trips += 1
        marginals_ok &= _marginal_consistency(oracles[OBS], oracles[INT1], oracles[CF1], checked)
        key = (oracles[OBS].components[0][1]._text(), oracles[INT1].components[0][1]._text())
        if key not in embedded:
            embedded[key] = _obs_embeds(serialize(oracles[OBS]), serialize(oracles[INT1]))
        embeddings_ok &= embedded[key]
    results = []

    def check(name: str, passed: bool, **details) -> None:
        results.append(CheckResult(name, passed, {"parameters": count, **details}))

    for kind in (*spec.also_identical, lower_kind):
        distinct = set(columns[kind])
        if kind == OBS:
            expected = (spec.obs_law(n)._text(),)
            check(spec.obs_check, distinct == {expected}, distinct_laws=len(distinct))
        else:
            name = f"{kind.lower().replace('_', '-')}-identical"
            check(name, len(distinct) == 1, distinct_oracles=len(distinct))
    distinct = set(columns[higher_kind])
    name = f"{higher_kind.lower().replace('_', '-')}-all-distinct"
    check(name, len(distinct) == count, distinct_oracles=len(distinct))
    check("decoder-round-trip", round_trips == count, recovered=round_trips)
    check("counterfactual-marginal-consistency", marginals_ok)
    check("observational-component-embeds", embeddings_ok)
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
