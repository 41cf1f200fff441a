#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload fig2 --seeds 1 2 3 4 5 [--seconds 25] [--trace 0] [--against FILE]

For each metric it prints the median of the runs and the distance between
the first and third quartile as a share of the median -- the figure a
metric's regression bound in BENCHMARK.json has to exceed. Raw results go
to .bench_build/perfbench/spread-<workload>-trace<n>.json. With --against
an earlier set's raw results, it also prints how much worse each median is
than that set's, which must stay within the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--against", help="raw results of an earlier set to compare medians with")
    args = ap.parse_args()
    seconds = args.seconds
    bench = {}
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if seconds is None:
        seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench.get("end_to_end", [])}

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit("seed %d: exit %d" % (seed, out.returncode))
        res = json.loads(lines[-1])
        runs.append({"seed": seed, "result": res})
        print("seed %d: correct=%s attempted=%d failed=%d" % (seed, res["correct"], res["attempted"], res["failed"]),
              flush=True)

    os.makedirs(os.path.join(".bench_build", "perfbench"), exist_ok=True)
    path = os.path.join(".bench_build", "perfbench", "spread-%s-trace%d.json" % (args.workload, args.trace))
    with open(path, "w") as f:
        json.dump(runs, f, indent=1)

    earlier = {}
    if args.against:
        with open(args.against) as f:
            for r in json.load(f):
                for name, m in r["result"]["metrics"].items():
                    earlier.setdefault(name, []).append(m["value"])
    better = {m["name"]: m["better"] for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}

    names = sorted(runs[0]["result"]["metrics"])
    print("%-26s %14s %9s %9s %9s  %s" % ("metric", "median", "spread", "bound/3", "worse", "verdict"))
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spr = (q3 - q1) / abs(med)
        else:
            spr = float("nan")
        # How much worse this set's median is than the earlier set's.
        worse = float("nan")
        if name in earlier:
            old = statistics.median(earlier[name])
            if old != 0:
                worse = (med - old) / abs(old) * (1 if better.get(name) == "lower" else -1)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spr < bound / 3 and not worse > bound else "WIDE"
        print("%-26s %14.6g %9.4f %9s %9.4f  %s" % (name, med, spr, "%.4f" % (bound / 3) if bound else "-", worse, verdict))


if __name__ == "__main__":
    main()
