"""scmlab benchmark: seeded closed-loop workloads against the public API.

    python3 perfbench/run.py --workload intall|sweep|nfl_mc \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. One
client sends each request only after the previous one returns (a closed
loop, no threads). This process only spawns children and waits for them,
one at a time. Every child is a fresh interpreter that runs one seeded
round of the workload with cold caches, as a command-line user would.

Times are reported at reference speed. Other load on a shared host can
change the speed of this machine by a factor of two within seconds, so
every child also times a fixed calibration job between requests (see
child.py), and each measured time t is scaled to
t * (REFERENCE_CALIBRATION_S / c) ** SENSITIVITY, where c is the
calibration time measured around the request. SENSITIVITY is the slope
of log request time against log calibration time, measured over
thousands of short requests of every workload on a 2-core Xeon under
Python 3.11 (0.75: when the calibration job takes twice as long, a
request takes 1.7 times as long). The figures are what the run would
have taken on a machine that runs the calibration job in
REFERENCE_CALIBRATION_S; the raw wall-clock figures are printed beside
them and kept in the run record.

A run measures round(--seconds / ROUND_S[workload]) whole rounds. At the
default 20 s that is 3 intall rounds (about 18 s of requests at reference
speed), 4 sweep rounds (about 27 s) and 3 nfl_mc rounds (about 18 s).
Fixing the work instead of the duration keeps the request count, and so
the rank that req_tail_ms reads, the same on every run and every commit.
The round counts are chosen so that rank falls inside a block of similar
requests rather than at the edge between two kinds of request.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
HASH_SEED = "0"
PROBES = 4  # set-up-only children per run, on top of one per round
ROUND_S = {"intall": 6.5, "sweep": 5.0, "nfl_mc": 7.0}
REFERENCE_CALIBRATION_S = 0.004
SENSITIVITY = 0.75
RUN_LIMIT_S = 170.0
UNITS = {"intall": "INT_ALL oracles", "sweep": "family parameters", "nfl_mc": "episodes"}


class RunFailed(Exception):
    pass


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(UNITS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    caps_set = sorted(k for k in os.environ if k.startswith("SCMLAB_"))
    if caps_set:
        print(f"refusing to run with cap overrides set: {caps_set}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "scmlab" / "__init__.py").is_file():
        print(f"no scmlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "pins.json").read_text())
    seed = pins["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    OUT.mkdir(exist_ok=True)
    started = time.monotonic()

    def spawn(round_index: int, trace: int = 0, probe: int = 0) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
               "--seed", str(seed), "--round", str(round_index),
               "--trace", str(trace), "--probe", str(probe)]
        if trace:
            cmd += ["--spans-out", str(OUT / f"spans-{args.workload}-seed{seed}.json")]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"round {round_index} did not finish in {timeout:.0f} s") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RunFailed(f"round {round_index} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        result["round"] = round_index
        if not probe:
            result["calibration_s"] = result["calibration"][0]
            result["scaled"] = [t * _speed(c) for t, c
                                in zip(result["latencies"], result["calibration"])]
        else:
            result["calibration_s"] = result["calibration"]
        result["setup_scaled_s"] = result["setup_s"] * _speed(result["calibration_s"])
        return result

    try:
        if args.trace:
            rounds = [spawn(0), spawn(0, trace=1)]
            setups = []
        else:
            spawn(0, probe=1)  # warm-up, not counted: file cache and any bytecode cache
            setups = [spawn(i, probe=1) for i in range(PROBES)]
            count = max(1, round(seconds / ROUND_S[args.workload]))
            rounds = [spawn(i) for i in range(count)]
            setups += rounds
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    failures = [f"round {r['round']}: {f}" for r in rounds for f in r["failures"]]
    attempted = sum(r["requests"] + r["checks"] for r in rounds)
    pinned = pins["round0_sha256"][args.workload] if seed == pins["default_seed"] else None
    if pinned is not None:
        for r in rounds:
            if r["round"] == 0:
                attempted += 1
                if r["round_digest"] != pinned:
                    failures.append(f"round 0 digest {r['round_digest']} != pinned {pinned}")
    if any(r["caps"] != rounds[0]["caps"] for r in rounds):
        failures.append("children saw different caps")

    if args.trace:
        plain, traced = rounds
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = sum(traced["scaled"]) / sum(plain["scaled"]) - 1
        declared = bench["per_layer"]
    else:
        metrics, tail_note = _end_to_end(rounds, setups, "scaled", attempted, len(failures))
        raw, _ = _end_to_end(rounds, setups, "latencies", attempted, len(failures))
        declared = bench["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        print(f"metric set differs from BENCHMARK.json: {sorted(set(metrics) ^ set(names))}",
              file=sys.stderr)
        return 3

    record = _run_record(seed, rounds)
    print(f"perfbench workload={args.workload} seed={seed} seconds={seconds} trace={args.trace}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(f"rounds: {len(rounds)}  requests: {sum(r['requests'] for r in rounds)}  "
          f"checks: {attempted - sum(r['requests'] for r in rounds)}  "
          f"unit of work: {UNITS[args.workload]}")
    for r in rounds:
        print(f"round {r['round']} digest sha256:{r['round_digest']}"
              + (" (pinned, matches)" if pinned == r["round_digest"] and r["round"] == 0 else ""))
    for m in declared:
        print(f"  {m['name']:<46} {metrics[m['name']]:>16.6g} {m['unit']}"
              + (f"   (raw wall clock {raw[m['name']]:.6g})"
                 if not args.trace and m["unit"] in ("s", "ms", "1/s") else ""))
    if not args.trace:
        print(f"  {'failed_frac':<46} {len(failures) / attempted:>16.6g} ratio "
              f"({len(failures)} of {attempted})")
        print(f"  req_tail_ms is {tail_note}")
    print("  layer waiting time: none; every layer is single-threaded with no queue")
    for f in failures:
        print(f"FAILED {f}")

    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(
        {"record": record, "summary": summary, "failures": failures,
         "raw_metrics": None if args.trace else raw,
         "setup_samples": [(r["setup_s"], r["calibration_s"]) for r in setups],
         "rounds": rounds},
        indent=1, sort_keys=True))
    print(json.dumps(summary))
    return 0 if not failures else 1


def _speed(calibration_s: float) -> float:
    """Factor that scales a time measured at this calibration to reference speed."""
    return (REFERENCE_CALIBRATION_S / calibration_s) ** SENSITIVITY


def _end_to_end(rounds, setups, times, attempted, failed):
    """End-to-end metrics from the per-request `times` ("scaled" or the
    raw "latencies") of every round; set-up is scaled alike."""
    latencies = sorted(x for r in rounds for x in r[times])
    n = len(latencies)
    # highest percentile with at least 10 requests beyond it
    beyond = min(10, n - 1)
    tail = latencies[n - 1 - beyond]
    tail_note = f"p{100 * (n - beyond) / n:.1f} of {n} requests ({beyond} beyond it)"
    metrics = {
        "setup_s": statistics.median(
            r["setup_scaled_s" if times == "scaled" else "setup_s"] for r in setups),
        "work_per_s": sum(r["units"] for r in rounds) / sum(latencies),
        "req_p50_ms": 1000 * statistics.median(latencies),
        "req_tail_ms": 1000 * tail,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in rounds) / 1024,
    }
    return metrics, tail_note


def _run_record(seed: int, rounds: list[dict]) -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "scmlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "PYTHONHASHSEED": HASH_SEED,
        "caps": rounds[0]["caps"],
        "client": "closed loop, 1 client, 1 process, no threads",
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
