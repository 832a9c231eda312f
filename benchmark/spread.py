#!/usr/bin/env python3
"""Steadiness check: run every workload N times, each with another seed, and
print for each end-to-end metric the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median. The
benchmark is steady enough when every share is below a third of the metric's
bound in BENCHMARK.json.

    python3 benchmark/spread.py            # from the repository root
    N=10 BASE=100 ONLY=stream_zipf python3 benchmark/spread.py
"""
import json
import os
import statistics
import subprocess
import time

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
workloads = [w["name"] for w in spec["workloads"]]
if os.environ.get("ONLY"):
    workloads = os.environ["ONLY"].split(",")
n = int(os.environ.get("N", "10"))
base = int(os.environ.get("BASE", "100"))
worst = 0.0
for w in workloads:
    values, walls = {}, []
    for i in range(n):
        t = time.time()
        out = subprocess.run(
            spec["command"] + ["--workload", w, "--seed", str(base + i), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        walls.append(time.time() - t)
        if out.returncode != 0:
            raise SystemExit(f"{w} seed {base + i}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"== {w}: {n} runs, wall max {max(walls):.1f} s")
    for name, v in values.items():
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        share = (q[2] - q[0]) / med
        if name != "setup_s":
            worst = max(worst, share / bounds[name])
        print(f"  {name:22s} median {med:12.6g}  iqr/median {100 * share:6.2f}%  bound {100 * bounds[name]:.0f}%  [{min(v):.6g} .. {max(v):.6g}]")
print(f"worst spread is {worst:.2f} of its bound (aim: below 0.33)")
