#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed on each named
workload (untraced), then prints, per metric, the median and the
interquartile range as a share of the median -- the spread the bounds
in BENCHMARK.json are judged against -- and appends every raw result
to a JSON-lines log.

    python3 perfbench/spread.py --workloads paper_r15,serve_mixed \\
        --seeds 1-10 --log perfbench/.work/spread.jsonl

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds.extend(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--log", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                continue
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            row = []
            for name in bounds:
                v = result["metrics"][name]["value"]
                values[name].append(v)
                row.append(f"{name}={v:.6g}")
            print(f"{workload} seed {seed}: " + " ".join(row), flush=True)
        for name, xs in values.items():
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / statistics.median(xs)
            print(
                f"  {workload:<15} {name:<20} median {statistics.median(xs):.6g} "
                f"spread {spread:.4f} (bound {bounds[name]}, n={len(xs)})"
            )


if __name__ == "__main__":
    main()
