#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny size through run.py, untraced and traced, and
checks that each metric BENCHMARK.json names appears with its unit, that
no op fails, and that the workload design holds at tiny size (warm
spmm-graph is served entirely from the cache). Then runs each workload
with one block corrupted and checks that the failure count rises.
Exits 1 on the first violated check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode:
        fail("%s exited %d:\n%s" % (" ".join(cmd), p.returncode, p.stderr[-4000:]))
    return json.loads(p.stdout.strip().split("\n")[-1])


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def check_metrics(workload, result, specs, positive):
    metrics = result["metrics"]
    if set(metrics) != {s["name"] for s in specs}:
        fail("%s: metric names differ from BENCHMARK.json: %s" % (
            workload, sorted(set(metrics) ^ {s["name"] for s in specs})))
    for s in specs:
        m = metrics[s["name"]]
        if m.get("unit") != s["unit"]:
            fail("%s: %s has unit %r, expected %r" % (
                workload, s["name"], m.get("unit"), s["unit"]))
        if not isinstance(m.get("value"), (int, float)):
            fail("%s: %s is not a number" % (workload, s["name"]))
        if positive and not m["value"] > 0:
            fail("%s: end-to-end metric %s is %r" % (workload, s["name"], m["value"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (wl["name"] for wl in bench["workloads"]):
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            r = run(w, trace)
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                fail("%s trace %d: correct=%s attempted=%d failed=%d" % (
                    w, trace, r["correct"], r["attempted"], r["failed"]))
            check_metrics(w, r, specs, positive=trace == 0)
            if w == "spmm-graph" and trace == 1:
                m = r["metrics"]
                if m["spmv.cache_hit_rate"]["value"] != 1 or \
                        m["codec.decoded_mb_per_op"]["value"] != 0:
                    fail("spmm-graph: warm ops were not all served by the cache")
        r = run(w, 0, "--corrupt")
        if r["failed"] < 1 or r["correct"]:
            fail("%s: a corrupted block did not raise the failure count" % w)
        print("selftest: %s ok (corrupted run: %d of %d ops failed)" % (
            w, r["failed"], r["attempted"]))
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
