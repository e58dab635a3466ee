#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload, then
prints, per metric, the median and the interquartile range as a share of
the median (Python's statistics.quantiles, n=4), next to the metric's
bound. Optionally saves the medians, or compares them with saved ones.

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --workloads farm --seeds 5 --save perfbench/out/a.json
    python3 perfbench/spread.py --seeds 10 --against perfbench/out/a.json

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--save", help="write the medians to this JSON file")
    ap.add_argument("--against", help="compare the medians with this JSON file")
    ap.add_argument("--verbose", action="store_true", help="print every value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    medians = {}
    ok = True
    for w in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed} failed ({p.returncode}):\n{p.stderr}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        medians[w] = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound, better = bounds[name]
            verdict = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
            if spread > bound:
                ok = False
            line = f"{w:<9} {name:<16} median {med:<14.6g} spread {spread:6.3f}  bound {bound:.2f}  {verdict}"
            if args.against:
                with open(args.against) as f:
                    old = json.load(f)[w][name]
                worse = (old - med) / old if better == "higher" else (med - old) / old
                line += f"  vs saved {old:.6g}: {worse:+.3f}"
                if worse > bound:
                    ok = False
                    line += " WORSE"
            print(line, flush=True)
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in vs))
            medians[w][name] = med
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=2)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
