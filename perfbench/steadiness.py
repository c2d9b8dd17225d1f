#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload corpus-pca --seeds 1-10 \
        [--trace 0] [--out runs.jsonl]

Run from the repository root.  For every metric it prints the median of
the runs and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, which is how the
bounds in BENCHMARK.json are judged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if p.returncode != 0:
            sys.exit(f"seed {seed}: exit {p.returncode}")
        result = json.loads(p.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(result) + "\n")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':32s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:32s} {med:12.6g} {spread:10.4f} "
              f"{'' if bound is None else bound:>6}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares: {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in runs)}")


if __name__ == "__main__":
    main()
