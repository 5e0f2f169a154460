"""Seeded rounds of the three workloads: inputs, requests and checks.

A round is the unit one fresh child process runs. Its inputs are a pure
function of (workload seed, round index); the package sees only those
inputs. Every round of a workload has the same composition, so rounds
differ in their random draws but not in their mix of request shapes.

* intall: fifteen INT_ALL requests per round in seeded order: xor m=3
  x5, xor m=4 x1, random DAG n=6 x5, n=7 x3 and n=8 x1. A request is
  compute_oracle(INT_ALL) -> serialize -> parse -> byte round trip. The
  two n=8 shapes take most of the time. The cheaper shapes are repeated
  so a run holds enough requests for a tail percentile: over three rounds
  the median falls in the middle of the xor m=3 requests and the tail
  rank (10 requests beyond it) in the middle of the n=7 ones.
* sweep: verify_family and separation_table on tree n=5 and bipartite
  m=3, one INT1 decode request per family parameter (625 + 512), and the
  8 xor m=3 CF1 decode requests, all in seeded order.
* nfl_mc: Monte-Carlo run_nfl calls for every learner at m=2 and m=3 and
  per_query_error calls at m=2 and m=3, round-robin, each with its own
  derived master seed and a trial count fixed per call shape.

Package functions are looked up on the `scmlab` module at call time, so a
tracer that replaces them sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import scmlab as sl

from reference import int_all_bytes

class CheckFailed(Exception):
    """A request or post-run check produced a wrong result."""


@dataclass
class Request:
    """One closed-loop request.

    `run` is the timed call; `check` gets its result outside the timed
    region, raises CheckFailed on a wrong result and returns the bytes that
    go into the round digest.
    """

    label: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], bytes]


@dataclass
class Round:
    inputs: list
    requests: list[Request]
    # named checks run after the timed phase; each raises CheckFailed
    post_checks: list[tuple[str, Callable[[], None]]] = field(default_factory=list)

    def input_digest(self) -> str:
        text = json.dumps(self.inputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("ascii")).hexdigest()


def stream_seed(seed: int, *labels) -> int:
    """64-bit seed of one named random stream of a workload."""
    text = repr((int(seed),) + labels).encode("ascii")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def make_round(workload: str, seed: int, index: int, pins: dict) -> Round:
    rng = random.Random(stream_seed(seed, workload, index))
    if workload == "intall":
        return _intall_round(rng, pins)
    if workload == "sweep":
        return _sweep_round(rng)
    if workload == "nfl_mc":
        return _nfl_round(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- intall

_FAIR_THIRD = ([0, 1], ["2/3", "1/3"])
_THREE_QUARTERS = ([0, 1], ["1/4", "3/4"])
_THREE_SYMBOL = ([0, 1, 2], ["1/6", "1/3", "1/2"])
_CONSTANT = ([0], ["1/1"])

# Variable kinds per DAG size. Fixing the multiset fixes the INT_ALL
# enumeration size, prod over variables of (support size + 2), so rounds
# cost about the same; only the wiring and gates vary with the seed.
_DAG_KINDS = {
    6: ["source", "source", "xor", "three", "det", "det"],
    7: ["source", "source", "xor", "xor", "three", "det", "det"],
    8: ["source", "source", "xor", "xor", "three", "det", "det", "det"],
}
_GATES = {
    "xor": ["XOR_NOISE"],
    "three": ["AND", "OR", "PARITY"],
    "det": ["AND", "OR", "PARITY", "COPY", "NEG"],
}


def random_dag(rng: random.Random, n: int) -> dict:
    """Seeded random SCM document with mixed gates and non-dyadic noise."""
    kinds = _DAG_KINDS[n][:1] + rng.sample(_DAG_KINDS[n][1:], n - 1)
    label = rng.sample(range(n), n)  # position in build order -> variable id
    variables = []
    for pos, kind in enumerate(kinds):
        if kind == "source":
            gate, parents = "BERN_SOURCE", []
            support, probs = rng.choice([_FAIR_THIRD, _THREE_QUARTERS])
        else:
            gate = rng.choice(_GATES[kind])
            k = 1 if gate in ("COPY", "NEG") else rng.randint(1, min(3, pos))
            parents = sorted(label[p] for p in rng.sample(range(pos), k))
            if kind == "xor":
                support, probs = rng.choice([_FAIR_THIRD, _THREE_QUARTERS])
            else:
                support, probs = _THREE_SYMBOL if kind == "three" else _CONSTANT
        variables.append(
            {
                "id": label[pos],
                "parents": parents,
                "gate": gate,
                "noise": {"support": list(support), "probs": list(probs)},
            }
        )
    variables.sort(key=lambda v: v["id"])
    return {"n": n, "variables": variables}


def _intall_round(rng: random.Random, pins: dict) -> Round:
    shapes = ["xor3"] * 5 + ["xor4"] + ["dag6"] * 5 + ["dag7"] * 3 + ["dag8"]
    rng.shuffle(shapes)
    inputs = []
    for shape in shapes:
        size = int(shape[-1])
        if shape.startswith("xor"):
            bits = format(rng.randrange(1 << size), f"0{size}b")
            inputs.append({"xor": {"m": size, "bits": bits}})
        else:
            inputs.append({"scm": random_dag(rng, size)})
    produced: dict[int, tuple] = {}  # request index -> (scm, digest, obs dist)

    def build(doc):
        if "xor" in doc:
            return sl.build_xor_scm(sl.HiddenString(doc["xor"]["m"], doc["xor"]["bits"]))
        return sl.scm_from_json(doc["scm"])

    def make(i, doc):
        def run():
            scm = build(doc)
            data = sl.serialize(sl.compute_oracle(scm, sl.INT_ALL))
            parsed = sl.parse(data)
            if sl.serialize(parsed) != data:
                raise CheckFailed("INT_ALL parse->serialize round trip changed bytes")
            return scm, data, parsed

        def check(result):
            scm, data, parsed = result
            digest = hashlib.sha256(data).hexdigest()
            if "xor" in doc and digest != pins["xor_int_all_sha256"][str(doc["xor"]["m"])]:
                raise CheckFailed(f"xor m={doc['xor']['m']} INT_ALL bytes differ from the pinned family string")
            produced[i] = (scm, digest, parsed.component("do S= x="))
            return data

        return Request(shapes[i], 1, run, check)

    requests = [make(i, doc) for i, doc in enumerate(inputs)]

    def obs_components():
        for scm, _, obs in produced.values():
            embedded = sl.AnswerOracle(sl.OBS, scm.n, (("obs", obs),))
            if sl.serialize(embedded) != sl.serialize(sl.compute_oracle(scm, sl.OBS)):
                raise CheckFailed("INT_ALL component 'do S= x=' differs from OBS")

    # one seeded random DAG of the round is re-derived by the reference
    ref_index = rng.choice([i for i, doc in enumerate(inputs) if "scm" in doc])

    def reference():
        if ref_index not in produced:
            raise CheckFailed("reference pick has no output")
        want = hashlib.sha256(int_all_bytes(inputs[ref_index]["scm"])).hexdigest()
        if produced[ref_index][1] != want:
            raise CheckFailed(f"{shapes[ref_index]} INT_ALL differs from the reference enumerator")

    post = [("int_all-empty-component-is-obs", obs_components),
            (f"reference-enumerator-{shapes[ref_index]}", reference)]
    return Round(inputs, requests, post)


# ---------------------------------------------------------------- sweep


def family_size(family) -> int:
    """Number of parameters in a family instance."""
    if family.kind == sl.TREE:
        return family.size ** (family.size - 1)
    if family.kind == sl.BIPARTITE:
        return 1 << (family.size * family.size)
    return 1 << family.size


# expected separation_table row values: (ambiguity, encoder bits, entropy bits)
_SEPARATION = {"tree": (625, None, None), "bipartite": (512, 9, 9.0)}


def _sweep_round(rng: random.Random) -> Round:
    tree = sl.Family(sl.TREE, 5)
    graph = sl.Family(sl.BIPARTITE, 3)
    xor = sl.Family(sl.XOR, 3)
    decode_jobs = [
        (tree, sl.INT1, "tree_from_int1"),
        (graph, sl.INT1, "graph_from_int1"),
        (xor, sl.CF1, "string_from_cf1"),
    ]
    requests = []
    for family in (tree, graph):
        requests.append(_verify_request(family))
        requests.append(_separation_request(family))
    for family, kind, decoder in decode_jobs:
        for index, param in enumerate(family.parameters()):
            requests.append(_decode_request(family, index, param, kind, decoder))
    rng.shuffle(requests)
    return Round([r.label for r in requests], requests)


def _verify_request(family) -> Request:
    def check(results):
        failed = [r.name for r in results if not r.passed]
        if failed:
            raise CheckFailed(f"verify_family({family.kind}) failed {failed}")
        return repr([(r.name, r.passed, sorted(r.details.items())) for r in results]).encode()

    return Request(f"verify:{family.kind}", family_size(family),
                   lambda: sl.verify_family(family), check)


def _separation_request(family) -> Request:
    ambiguity, encoder_bits, entropy_bits = _SEPARATION[family.kind]

    def check(rows):
        row = rows[0]
        if row.ambiguity_count != ambiguity:
            raise CheckFailed(f"{family.kind} ambiguity {row.ambiguity_count} != {ambiguity}")
        if encoder_bits is not None and (row.encoder_bits, row.entropy_bits) != (encoder_bits, entropy_bits):
            raise CheckFailed(f"{family.kind} bits {row.encoder_bits}/{row.entropy_bits}")
        return repr(rows).encode()

    return Request(f"separation:{family.kind}", family_size(family),
                   lambda: sl.separation_table(family), check)


def _decode_request(family, index, param, kind, decoder) -> Request:
    builder = {sl.TREE: "build_tree_scm", sl.BIPARTITE: "build_bipartite_scm",
               sl.XOR: "build_xor_scm"}[family.kind]

    def run():
        data = sl.serialize(sl.compute_oracle(getattr(sl, builder)(param), kind))
        parsed = sl.parse(data)
        if sl.serialize(parsed) != data:
            raise CheckFailed(f"{kind} parse->serialize round trip changed bytes")
        return data, getattr(sl, decoder)(parsed)

    def check(result):
        data, decoded = result
        if decoded != param:
            raise CheckFailed(f"{decoder} returned {decoded!r} for {param!r}")
        return data

    return Request(f"decode:{family.kind}:{index}", 1, run, check)


# ---------------------------------------------------------------- nfl_mc

NFL_SAMPLES = 8
# Trials per call, fixed per (learner, m). Most shapes cost about 25 ms per
# call once the learners' oracle caches are warm; the empirical learner at
# m=3 costs about 150 ms and is the densest block at the top of the latency
# distribution, where req_tail_ms reads. The m=3 guess and constant calls
# keep few trials, so filling the cold m=3 oracle cache is spread over many
# calls instead of making a few of them the tail.
_NFL_TRIALS = {
    ("uniform-guess", 2): 130,
    ("constant-empty", 2): 140,
    ("empirical-independent", 2): 6,
    ("uniform-guess", 3): 15,
    ("constant-empty", 3): 25,
    ("empirical-independent", 3): 6,
}
_QUERY_TRIALS = {2: 110, 3: 100}
_CALLS_PER_SHAPE = 20
_ANSWERS = (Fraction(1, 2), Fraction(3, 4), Fraction(1))


def _derive(master: int, *labels) -> int:
    # the documented stream rule: sha256 of repr((master, *labels)), first 8 bytes
    text = repr((int(master),) + tuple(labels)).encode("ascii")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def _expected_successes(m: int, learner: str, trials: int, seed: int) -> int:
    """Successes implied by the seeded streams alone.

    Every INT1 oracle of the family is distinct, so the uniform guess
    succeeds exactly when its mask equals the hidden one, the constant
    learner exactly when the hidden graph is empty, and the independent
    product fit never equals a member's oracle.
    """
    if learner == "empirical-independent":
        return 0
    count = 1 << (m * m)
    hits = 0
    for trial in range(trials):
        mask = random.Random(_derive(seed, "graph", trial)).randrange(count)
        if learner == "constant-empty":
            hits += mask == 0
        else:
            hits += mask == random.Random(_derive(seed, "learner", trial)).randrange(count)
    return hits


def _expected_query_error(m: int, answer: Fraction, trials: int, seed: int) -> Fraction:
    count = 1 << (m * m)
    total = Fraction(0)
    for trial in range(trials):
        rng = random.Random(_derive(seed, "query-episode", trial))
        mask = rng.randrange(count)
        i, j = rng.randrange(m), rng.randrange(m)
        truth = Fraction(1) if (mask >> (i * m + j)) & 1 else Fraction(1, 2)
        total += abs(answer - truth)
    return total / trials


def _nfl_round(rng: random.Random) -> Round:
    shapes = [("run_nfl", learner, m) for (learner, m) in _NFL_TRIALS]
    shapes += [("per_query_error", None, m) for m in _QUERY_TRIALS]
    # Round-robin over the shapes, the same order every round: the learners'
    # oracle caches start cold in each child, and a fixed order makes them
    # warm up alike in every round and under every seed.
    calls = shapes * _CALLS_PER_SHAPE
    inputs, requests = [], []
    for call, learner, m in calls:
        master = rng.getrandbits(63)
        if call == "run_nfl":
            trials = _NFL_TRIALS[(learner, m)]
            inputs.append([call, learner, m, trials, master])
            requests.append(_nfl_request(learner, m, trials, master))
        else:
            trials = _QUERY_TRIALS[m]
            answer = rng.choice(_ANSWERS)
            inputs.append([call, str(answer), m, trials, master])
            requests.append(_query_request(m, answer, trials, master))

    def exact_bound(m):
        def check():
            report = sl.run_nfl(m, NFL_SAMPLES, "uniform-guess", mode=sl.EXACT)
            if report.success_rate != Fraction(1, 1 << (m * m)):
                raise CheckFailed(f"exact uniform-guess rate {report.success_rate} at m={m}")
        return check

    post = [(f"exact-uniform-guess-m{m}", exact_bound(m)) for m in (2, 3)]
    return Round(inputs, requests, post)


def _nfl_request(learner: str, m: int, trials: int, master: int) -> Request:
    def run():
        return sl.run_nfl(m, NFL_SAMPLES, learner, mode=sl.MONTE_CARLO,
                          trials=trials, seed=master)

    def check(report):
        want = _expected_successes(m, learner, trials, master)
        if report.successes != want:
            raise CheckFailed(f"run_nfl {learner} m={m}: {report.successes} successes, expected {want}")
        return repr((report.successes, report.trials, report.success_rate, report.bound)).encode()

    return Request(f"run_nfl:{learner}:m{m}", trials, run, check)


def _query_request(m: int, answer: Fraction, trials: int, master: int) -> Request:
    def run():
        return sl.per_query_error(m, answer, mode=sl.MONTE_CARLO,
                                  n_samples=NFL_SAMPLES, trials=trials, seed=master)

    def check(error):
        want = _expected_query_error(m, answer, trials, master)
        if error != want:
            raise CheckFailed(f"per_query_error m={m}: {error}, expected {want}")
        return repr(error).encode()

    return Request(f"per_query_error:m{m}", trials, run, check)
