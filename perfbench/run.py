#!/usr/bin/env python3
"""The benchmark of record for the local model checker.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune, times set-up over several
launches, runs rounds of the workload in fresh processes for S seconds,
checks every checker run or hunt against the reference in
perfbench/spec.json and prints one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (untraced and traced rounds alternate).  --smoke
runs the workload's tiny parameters instead.  The exit code is 0 only
when every operation passed its check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_LAUNCHES = 31
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        die("no dune-project at %s: run from a full checkout" % ROOT)
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout)
        die("build failed")


def exe_args(workload, params, seed):
    return [EXE, "--workload", workload, "--params", json.dumps(params),
            "--seed", str(seed)]


def setup_seconds(base):
    """Median wall time from process launch to the first checker call."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        r = subprocess.run(base + ["--setup-only"], stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        if r.returncode != 0:
            die("set-up failed")
    return statistics.median(times)


def run_round(base, trace, timeout):
    """One process: one round and an end line."""
    try:
        r = subprocess.run(base + ["--trace", str(trace)], stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        die("workload exited with %d" % r.returncode)
    lines = [json.loads(l) for l in r.stdout.splitlines() if l.strip()]
    if len(lines) != 2 or not lines[-1].get("end"):
        die("workload printed no round and end line")
    return lines[0], lines[1]


def run_rounds(base, seconds, trace):
    """Rounds in fresh processes until `seconds` have passed.

    A process's memory placement moves its speed by several percent, so
    each round gets its own process and the median is taken across them.
    With trace 1, untraced and traced processes alternate.
    """
    start = time.monotonic()
    rounds, ends = [], []
    while not rounds or (trace and len(rounds) % 2) or time.monotonic() - start < seconds:
        left = RUN_TIMEOUT_S - (time.monotonic() - start)
        rnd, end = run_round(base, trace and len(rounds) % 2, max(left, 1))
        rounds.append(rnd)
        ends.append(end)
    return rounds, ends


def matches(facts, reference):
    return all(facts.get(k) == v for k, v in reference.items())


def check_round(rnd, reference, keyed):
    """Number of operations in the round that miss the reference."""
    failed = 0
    for facts in rnd["facts"]:
        ref = reference.get(str(facts.get("dseed"))) if keyed else reference
        if ref is None or not matches(facts, ref):
            failed += 1
            print("perfbench: check failed: %s" % json.dumps(facts), file=sys.stderr)
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    if args.workload not in spec["workloads"]:
        die("unknown workload %r" % args.workload)
    w = spec["workloads"][args.workload]
    size = w["smoke"] if args.smoke else w
    params = size["params"]
    # Hunts are checked per deployment seed.
    keyed = "dseeds" in params

    build()
    base = exe_args(args.workload, params, args.seed)
    setup_s = setup_seconds(base)
    rounds, ends = run_rounds(base, args.seconds, args.trace)

    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(len(r["facts"]) for r in rounds)
    failed = sum(check_round(r, size["reference"], keyed) for r in rounds)
    # A traced round must see exactly what its untraced twin saw.
    for u, t in zip(untraced, traced):
        if u["facts"] != t["facts"]:
            failed += len(t["facts"])
            print("perfbench: traced round differs from untraced", file=sys.stderr)

    verdict = statistics.median(r["verdict_s"] for r in untraced)
    if args.trace == 0:
        values = {
            "verdict_s": verdict,
            "setup_s": setup_s,
            "peak_heap_mb": statistics.median(e["peak_heap_mb"] for e in ends),
        }
        declared = bench["end_to_end"]
    else:
        values = {
            name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
            for name in traced[0]["layers"]
        }
        fingerprints = [e["fingerprint"] for e in ends if "fingerprint" in e]
        for name in fingerprints[0]:
            values[name] = statistics.median(f[name] for f in fingerprints)
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(r["verdict_s"] for r in traced) / verdict - 1.0)
        declared = bench["per_layer"]
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(spans, "w") as f:
            json.dump([e["spans"] for e in ends if "spans" in e], f)

    names = [m["name"] for m in declared]
    undeclared = sorted(set(values) - set(names))
    if undeclared:
        die("metrics missing from BENCHMARK.json: %s" % undeclared)
    if args.trace == 1:
        # A layer the workload never enters reads 0.
        for name in names:
            values.setdefault(name, 0.0)
    elif sorted(names) != sorted(values):
        die("end-to-end metrics differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
