#!/usr/bin/env python3
"""The benchmark's own test: every workload of spec.json at its smoke size.

Run from the repository root:

    python3 perfbench/test_smoke.py

For each workload, untraced and traced, it runs one round through
run.py --smoke and asserts that the run passes its correctness check
and emits exactly the metrics BENCHMARK.json names, each with its unit,
and that the layers the workload was chosen for did work.  Exits
non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layer metrics that must be non-zero (or zero) on each workload.
BUSY = {
    "lmc-explore": ["protocols.handler_calls", "lmc.transitions", "lmc.node_states",
                    "strategy.abstract_calls", "lmc.explore_us", "lmc.retained_bytes"],
    "lmc-combine": ["lmc.system_states_created", "lmc.system_state_us", "invariant.calls"],
    "paxos-hunt": ["lmc.soundness_calls", "lmc.soundness_us", "online.checks",
                   "online.found_at_live_s", "online.witness_events", "sim.events",
                   "sim.handler_us", "sim.us"],
    "bdfs-global": ["bdfs.transitions", "bdfs.global_states", "bdfs.ns_per_state",
                    "bdfs.retained_bytes"],
}
IDLE = {
    "lmc-explore": ["lmc.soundness_calls", "lmc.system_states_created", "sim.events"],
    "lmc-combine": ["lmc.soundness_calls", "lmc.preliminary_violations", "online.checks"],
    "paxos-hunt": ["bdfs.global_states"],
    "bdfs-global": ["lmc.transitions", "lmc.soundness_calls", "online.checks"],
}


def run(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert r.returncode == 0, "%s trace %d: exit %d" % (workload, trace, r.returncode)
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    listed = {w["name"] for w in bench["workloads"]}
    assert listed <= set(spec["workloads"]), listed
    for name in spec["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            out = run(name, trace)
            assert sorted(out) == ["attempted", "correct", "failed", "metrics"], out
            assert out["correct"] is True and out["failed"] == 0, out
            assert out["attempted"] >= 1, out
            metrics = out["metrics"]
            assert sorted(metrics) == sorted(m["name"] for m in declared), (
                name, sorted(set(metrics) ^ {m["name"] for m in declared}))
            for m in declared:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (name, m["name"], got)
                assert isinstance(got["value"], (int, float)), (name, m["name"], got)
            if trace == 0:
                for m in declared:
                    assert metrics[m["name"]]["value"] > 0, (name, m["name"])
            else:
                for busy in BUSY[name]:
                    assert metrics[busy]["value"] > 0, (name, busy, "should be > 0")
                for idle in IDLE[name]:
                    assert metrics[idle]["value"] == 0, (name, idle, "should be 0")
            print("ok %s trace %d (%d ops)" % (name, trace, out["attempted"]))
    print("perfbench smoke: all workloads ok")


if __name__ == "__main__":
    main()
