"""In-memory spans around calls into the package's public functions.

The tracer replaces selected public functions on every loaded `scmlab`
module with a wrapper that records one span per call: name, start, end,
index of the enclosing span and request id. Calls made inside the package
(verify_family calling compute_oracle, a decoder's rebuild check, the
learners' oracle lookups) pass through the same module attributes, so they
appear as nested spans. Nothing in the package itself changes.

`scm_core` has no span of its own; its work is reported as counts the
benchmark computes from each SCM handed to compute_oracle and the
interventions its kind implies (the naive enumeration size). `gates`,
`rational`, `prufer` and `jsonio` run inside other spans and get none.

Every layer is single-threaded with no queue, so no span waits; the
reported waiting time is 0 by construction, not by omission.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

LEARNERS = ("uniform-guess", "constant-empty", "empirical-independent")
KINDS = ("OBS", "INT1", "CF1", "INT_ALL")
LAYERS = ("oracle", "decoders", "verify", "gap", "families", "learning", "bench")


def _kind_arg(args, kwargs):
    return kwargs["kind"] if "kind" in kwargs else args[1]


def noise_points(scm, kind: str) -> int:
    """Naive enumeration points behind compute_oracle(scm, kind)."""
    sizes = [len(m.noise.support) for m in scm.mechanisms]
    full = math.prod(sizes)
    if kind == "OBS":
        return full
    if kind == "INT1":
        return full + sum(2 * (full // s) for s in sizes)
    if kind == "CF1":
        return scm.n * full
    return math.prod(s + 2 for s in sizes)


def evaluations(scm, kind: str) -> int:
    """Mechanism evaluations of the naive enumeration (3 worlds for CF1)."""
    per_point = 3 * scm.n if kind == "CF1" else scm.n
    return noise_points(scm, kind) * per_point


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []

    def _wrap(self, fn, name_of, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_of(args, kwargs), clock(), 0.0,
                    stack[-1] if stack else -1, self.request_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def request(self, request_id: int, fn):
        """Run one benchmark request as the root span of its layer spans."""
        self.request_id = request_id
        return self._wrap(fn, lambda a, k: "bench.request")()

    def install(self) -> None:
        from scmlab import decoders, families, gap, learning, oracle, verify
        from workloads import family_size

        counts = self.counts

        def after_compute(args, kwargs, result):
            scm, kind = args[0], _kind_arg(args, kwargs)
            counts["scm_core.noise_points_computed"] += noise_points(scm, kind)
            counts["scm_core.evaluations_computed"] += evaluations(scm, kind)
            counts["oracle.components"] += len(result.components)
            counts["oracle.outcomes"] += sum(len(d.mass) for _, d in result.components)

        def after_serialize(args, kwargs, result):
            counts["oracle.serialize.bytes"] += len(result)

        def after_parse(args, kwargs, result):
            counts["oracle.parse.bytes"] += len(args[0])

        def after_decode(args, kwargs, result):
            counts["decoders.recovered"] += 1

        def after_verify(args, kwargs, results):
            counts["verify.checks"] += len(results)
            counts["verify.checks_passed"] += sum(1 for r in results if r.passed)

        def after_separation(args, kwargs, rows):
            counts["gap.parameters_grouped"] += family_size(args[0])

        def after_nfl(args, kwargs, report):
            counts["learning.run_nfl.episodes"] += report.trials or 0

        def fixed(name):
            return lambda a, k: name

        def nfl_name(a, k):
            return "learning.run_nfl." + (k["learner_id"] if "learner_id" in k else a[2])

        targets = [
            (oracle.compute_oracle,
             lambda a, k: "oracle.compute_oracle." + _kind_arg(a, k), after_compute),
            (oracle.serialize, fixed("oracle.serialize"), after_serialize),
            (oracle.parse, fixed("oracle.parse"), after_parse),
            (verify.verify_family, fixed("verify.verify_family"), after_verify),
            (gap.separation_table, fixed("gap.separation_table"), after_separation),
            (learning.run_nfl, nfl_name, after_nfl),
            (learning.per_query_error, fixed("learning.per_query_error"), None),
            (learning.sample_obs, fixed("learning.sample_obs"), None),
        ]
        for fn in (decoders.tree_from_int1, decoders.graph_from_int1,
                   decoders.string_from_cf1):
            targets.append((fn, fixed("decoders.decode"), after_decode))
        for fn in (families.build_tree_scm, families.build_bipartite_scm,
                   families.build_xor_scm):
            targets.append((fn, fixed("families.build"), None))

        replacement = {id(fn): self._wrap(fn, name_of, after)
                       for fn, name_of, after in targets}
        modules = [mod for name, mod in sys.modules.items()
                   if name == "scmlab" or name.startswith("scmlab.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacement:
                    setattr(mod, attr, replacement[id(value)])

    def metrics(self, labels: dict[int, str]) -> dict[str, float]:
        """Per-layer metrics over every recorded span.

        `labels` maps request id to request label; the xor m=4 INT_ALL
        requests give the baseline profile shares.
        """
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time: defaultdict = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_time[name.split(".")[0]] += end - start - inner

        c = self.counts
        out: dict[str, float] = {}
        for kind in KINDS:
            out[f"oracle.compute_oracle.{kind}.calls"] = calls[f"oracle.compute_oracle.{kind}"]
            out[f"oracle.compute_oracle.{kind}.busy_s"] = busy[f"oracle.compute_oracle.{kind}"]
        out["scm_core.noise_points_computed"] = c["scm_core.noise_points_computed"]
        out["scm_core.evaluations_computed"] = c["scm_core.evaluations_computed"]
        out["oracle.components"] = c["oracle.components"]
        out["oracle.outcomes"] = c["oracle.outcomes"]
        for op in ("serialize", "parse"):
            out[f"oracle.{op}.calls"] = calls[f"oracle.{op}"]
            out[f"oracle.{op}.busy_s"] = busy[f"oracle.{op}"]
            out[f"oracle.{op}.bytes"] = c[f"oracle.{op}.bytes"]
        out["decoders.decode.calls"] = calls["decoders.decode"]
        out["decoders.decode.busy_s"] = busy["decoders.decode"]
        out["decoders.recovered_ratio"] = _ratio(c["decoders.recovered"], calls["decoders.decode"])
        out["verify.verify_family.busy_s"] = busy["verify.verify_family"]
        out["verify.checks_passed_ratio"] = _ratio(c["verify.checks_passed"], c["verify.checks"])
        out["gap.separation_table.busy_s"] = busy["gap.separation_table"]
        out["gap.parameters_grouped"] = c["gap.parameters_grouped"]
        out["families.build.calls"] = calls["families.build"]
        out["families.build.busy_s"] = busy["families.build"]
        for learner in LEARNERS:
            out[f"learning.run_nfl.{learner}.busy_s"] = busy[f"learning.run_nfl.{learner}"]
        out["learning.run_nfl.episodes"] = c["learning.run_nfl.episodes"]
        out["learning.per_query_error.busy_s"] = busy["learning.per_query_error"]
        out["learning.sample_obs.calls"] = calls["learning.sample_obs"]
        out["learning.sample_obs.busy_s"] = busy["learning.sample_obs"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        out["layers.wait_s"] = 0.0
        out["trace.spans"] = len(self.spans)
        out.update(self._xor4_shares(labels))
        return out

    def _xor4_shares(self, labels: dict[int, str]) -> dict[str, float]:
        parts = {"compute": 0.0, "serialize": 0.0, "parse": 0.0, "request": 0.0}
        for name, start, end, parent, rid in self.spans:
            if labels.get(rid) != "xor4":
                continue
            if name == "bench.request":
                parts["request"] += end - start
            elif name == "oracle.compute_oracle.INT_ALL":
                parts["compute"] += end - start
            elif name in ("oracle.serialize", "oracle.parse") and parent >= 0 \
                    and self.spans[parent][0] == "bench.request":
                parts[name.split(".")[1]] += end - start
        return {f"profile.xor4_int_all.{part}_share": _ratio(parts[part], parts["request"])
                for part in ("compute", "serialize", "parse")}


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
