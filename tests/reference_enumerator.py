"""Plain brute-force reference for the exact kernel.

Enumerates the full product of noise supports, runs every mechanism on
each point with a gate if-chain of its own, and accumulates Fraction
weights per outcome. It is slow and simple on purpose: the kernel in
`scm_core` must give byte-identical oracles for every SCM, and must fail
with the same exception types on malformed ones.
"""

import itertools
import math
from fractions import Fraction

from scmlab import gates
from scmlab.errors import ArityMismatchError, SupportTooLargeError
from scmlab.oracle import CF1, INT1, INT_ALL, OBS, AnswerOracle, intervention_key
from scmlab.scm_core import (
    ExactDist,
    Intervention,
    all_interventions,
    apply_do,
    topo_order,
)

SUPPORT_CAP = 2**24


def eval_gate(gate, inputs, noise):
    if gate == gates.COPY:
        if len(inputs) != 1:
            raise ArityMismatchError(f"COPY takes 1 parent, got {len(inputs)}")
        return inputs[0]
    if gate == gates.AND:
        return 0 if 0 in inputs else 1
    if gate == gates.BERN_SOURCE:
        if len(inputs) != 0:
            raise ArityMismatchError(f"BERN_SOURCE takes no parents, got {len(inputs)}")
        if noise not in (0, 1):
            raise ValueError(f"BERN_SOURCE needs a bit-valued noise symbol, got {noise}")
        return noise
    if gate == gates.XOR_NOISE:
        if noise not in (0, 1):
            raise ValueError(f"XOR_NOISE needs a bit-valued noise symbol, got {noise}")
        acc = noise
        for b in inputs:
            acc ^= b
        return acc
    if gate == gates.CONST0:
        return 0
    if gate == gates.CONST1:
        return 1
    if gate == gates.OR:
        return 1 if 1 in inputs else 0
    if gate == gates.PARITY:
        acc = 0
        for b in inputs:
            acc ^= b
        return acc
    if gate == gates.NEG:
        if len(inputs) != 1:
            raise ArityMismatchError(f"NEG takes 1 parent, got {len(inputs)}")
        return 1 - inputs[0]
    raise ValueError(f"unknown gate {gate!r}")


def enumerate_exogenous(scm, support_cap=SUPPORT_CAP):
    """Yield (symbols, weight) over the product of noise supports; every
    symbol's probability is multiplied in, a fixed symbol's too."""
    supports = [m.noise.support for m in scm.mechanisms]
    probs = [m.noise.probs for m in scm.mechanisms]
    total = math.prod(map(len, supports))
    if total > support_cap:
        raise SupportTooLargeError(f"noise support product {total} exceeds cap {support_cap}")
    if total == 0:
        raise IndexError("a noise distribution has an empty support")
    for picks in itertools.product(*(range(len(s)) for s in supports)):
        symbols = [support[k] for support, k in zip(supports, picks)]
        weight = Fraction(1)
        for p, k in zip(probs, picks):
            weight *= p[k]
        yield symbols, weight


def evaluate(scm, order, symbols):
    values = [0] * len(scm.mechanisms)
    for v in order:
        mech = scm.mechanisms[v]
        values[v] = eval_gate(mech.gate, [values[p] for p in mech.parents], symbols[v])
    return values


def bits(values):
    return "".join("1" if b else "0" for b in values)


def observational(scm, support_cap=SUPPORT_CAP):
    order = topo_order(scm)
    acc = {}
    for symbols, weight in enumerate_exogenous(scm, support_cap):
        key = bits(evaluate(scm, order, symbols))
        acc[key] = acc.get(key, 0) + weight
    return ExactDist(scm.n, acc)


def interventional(scm, intervention, support_cap=SUPPORT_CAP):
    return observational(apply_do(scm, intervention), support_cap)


def counterfactual_triple(scm, i, support_cap=SUPPORT_CAP):
    worlds = [scm, apply_do(scm, Intervention.of({i: 0})), apply_do(scm, Intervention.of({i: 1}))]
    orders = [topo_order(w) for w in worlds]
    acc = {}
    for symbols, weight in enumerate_exogenous(scm, support_cap):
        key = "".join(bits(evaluate(w, o, symbols)) for w, o in zip(worlds, orders))
        acc[key] = acc.get(key, 0) + weight
    return ExactDist(3 * scm.n, acc)


def reference_oracle(scm, kind, support_cap=SUPPORT_CAP):
    """The oracle `compute_oracle(scm, kind)` must serialize identically to."""
    if kind == OBS:
        components = [("obs", observational(scm, support_cap))]
    elif kind == INT1:
        components = [("obs", observational(scm, support_cap))]
        for i in range(scm.n):
            for b in (0, 1):
                components.append(
                    (f"do i={i} b={b}", interventional(scm, Intervention.of({i: b}), support_cap))
                )
    elif kind == CF1:
        components = [
            (f"cf i={i}", counterfactual_triple(scm, i, support_cap)) for i in range(scm.n)
        ]
    elif kind == INT_ALL:
        components = [
            (intervention_key(iv), interventional(scm, iv, support_cap))
            for iv in all_interventions(scm.n)
        ]
    else:
        raise ValueError(kind)
    return AnswerOracle(kind, scm.n, tuple(components))
