"""One round of one workload in a fresh process; see run.py.

Prints one JSON object as its last stdout line. `ready` is the
CLOCK_MONOTONIC time just before the first timed request, which the parent
turns into set-up time. With --probe 1 the child stops there: it imports,
generates the round's inputs and reports, so the parent can sample set-up
time several times per run.

Between requests, outside the timed region, the child times a fixed
calibration job at least every CALIBRATE_EVERY_S of request time. Each
request is reported with the mean calibration time of the two samples
around it, so the parent can take out the speed changes that other load
on a shared host causes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE_EVERY_S = 0.1
# Calibration job: the benchmark's own reference enumerator on a fixed
# four-variable SCM, the same kind of work as the package's inner loops.
CALIBRATION_SCM = {"n": 4, "variables": [
    {"id": 0, "parents": [], "gate": "BERN_SOURCE",
     "noise": {"support": [0, 1], "probs": ["1/4", "3/4"]}},
    {"id": 1, "parents": [0], "gate": "XOR_NOISE",
     "noise": {"support": [0, 1], "probs": ["2/3", "1/3"]}},
    {"id": 2, "parents": [0, 1], "gate": "AND",
     "noise": {"support": [0, 1, 2], "probs": ["1/6", "1/3", "1/2"]}},
    {"id": 3, "parents": [1, 2], "gate": "XOR_NOISE",
     "noise": {"support": [0, 1], "probs": ["1/2", "1/2"]}},
]}


def calibrate() -> float:
    """Seconds the calibration job takes now; the fastest of three is the
    least disturbed by a burst of other load."""
    from reference import int_all_bytes

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        int_all_bytes(CALIBRATION_SCM)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args(argv)

    import scmlab
    from scmlab import caps

    where = Path(scmlab.__file__).resolve()
    if where.parent != ROOT / "src" / "scmlab":
        print(f"scmlab imported from {where}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    pins = json.loads((Path(__file__).parent / "pins.json").read_text())
    current = workloads.make_round(args.workload, args.seed, args.round, pins)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    result = {"ready": ready, "input_digest": current.input_digest()}
    if args.probe:
        result["calibration"] = calibrate()
        print(json.dumps(result))
        return 0

    latencies, labels, failures, outputs = [], {}, [], {}
    calibration: list[float] = []
    units = 0
    digest = hashlib.sha256()
    clock = time.perf_counter
    cal_before, segment_s = calibrate(), 0.0
    last = len(current.requests) - 1
    for rid, req in enumerate(current.requests):
        labels[rid] = req.label
        start = clock()
        try:
            value = tracer.request(rid, req.run) if tracer else req.run()
            latencies.append(clock() - start)
            out = req.check(value)
        except (workloads.CheckFailed, scmlab.ScmLabError) as exc:
            if len(latencies) == rid:
                latencies.append(clock() - start)
            failures.append(f"{req.label}: {type(exc).__name__}: {exc}")
        else:
            units += req.units
            outputs[rid] = hashlib.sha256(out).digest()
            digest.update(req.label.encode() + b"\0" + out + b"\0")
        segment_s += latencies[-1]
        if segment_s >= CALIBRATE_EVERY_S or rid == last:
            cal_after = calibrate()
            calibration += [(cal_before + cal_after) / 2] * (rid + 1 - len(calibration))
            cal_before, segment_s = cal_after, 0.0
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["layers"] = tracer.metrics(labels)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "request"],
                 "labels": labels, "spans": tracer.spans}))

    # checks outside the timed phase
    checks = list(current.post_checks)
    checks.append(("generator-self-test", lambda: _self_test(args, pins, current)))
    if outputs:
        cheapest = min(outputs, key=latencies.__getitem__)
        checks.append(("rerun-gives-same-output",
                       lambda: _rerun(current.requests[cheapest], outputs[cheapest])))
    for name, check in checks:
        try:
            check()
        except (workloads.CheckFailed, scmlab.ScmLabError) as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")

    result.update(
        latencies=latencies,
        calibration=calibration,
        labels=[labels[i] for i in range(len(latencies))],
        units=units,
        requests=len(latencies),
        checks=len(checks),
        failures=failures,
        round_digest=digest.hexdigest(),
        peak_rss_kib=peak_rss_kib,
        caps=caps.all_caps(),
    )
    print(json.dumps(result))
    return 0


def _self_test(args, pins, current) -> None:
    import workloads

    again = workloads.make_round(args.workload, args.seed, args.round, pins)
    if again.input_digest() != current.input_digest():
        raise workloads.CheckFailed("same seed gave different inputs")
    other = workloads.make_round(args.workload, args.seed + 1, args.round, pins)
    if other.input_digest() == current.input_digest():
        raise workloads.CheckFailed("a different seed gave the same inputs")


def _rerun(req, digest: bytes) -> None:
    import workloads

    if hashlib.sha256(req.check(req.run())).digest() != digest:
        raise workloads.CheckFailed(f"{req.label} gave different bytes on a second run")


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
