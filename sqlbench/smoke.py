#!/usr/bin/env python3
"""Smoke test of the sqlbench benchmark at tiny scale.

Run from the repository root:

    python3 sqlbench/smoke.py

For every workload in BENCHMARK.json it runs the benchmark command with
`--scale tiny` on two seeds, untraced and traced, and checks that:
  * the last line of standard output is the result object, the correctness
    gate passed and no statement failed;
  * the metrics are exactly the `end_to_end` (untraced) or `per_layer`
    (traced) metrics of BENCHMARK.json, with the same units;
  * the second seed changes the statements but not the metric names;
  * predictions.json names every per-layer metric and every workload.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"smoke: FAILED: {msg}")
    sys.exit(1)


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        fail(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        fail(f"{workload} seed {seed} trace {trace}: gate did not pass: {result}")
    metrics = result["metrics"]
    want = bench["per_layer" if trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in want):
        missing = {m["name"] for m in want} - set(metrics)
        extra = set(metrics) - {m["name"] for m in want}
        fail(f"{workload} trace {trace}: missing {sorted(missing)}, unexpected {sorted(extra)}")
    for m in want:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail(f"{m['name']}: value {got['value']!r}")
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")) as f:
        context = json.load(f)
    return sorted(metrics), context["statements_fingerprint"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)
    named = {m for p in predictions["predictions"] for m in p["metrics"]}
    for m in bench["per_layer"]:
        if m["name"] not in named:
            fail(f"predictions.json does not name {m['name']}")
    for w in bench["workloads"]:
        if w["name"] not in predictions["workloads"]:
            fail(f"predictions.json does not give reasons for workload {w['name']}")

    for w in bench["workloads"]:
        for trace in (0, 1):
            names1, stmts1 = run(bench, w["name"], 1, trace)
            names2, stmts2 = run(bench, w["name"], 2, trace)
            if names1 != names2:
                fail(f"{w['name']} trace {trace}: metric names depend on the seed")
            if stmts1 == stmts2:
                fail(f"{w['name']}: seeds 1 and 2 generated the same statements")
            print(f"smoke: {w['name']} trace {trace}: ok ({len(names1)} metrics)")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
