#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every end-to-end metric this prints the median of the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/spread.py --workload toplist_campaign --seeds 1-10

Each run's result line is appended to --out (JSON lines) when given.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        start = time.time()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        wall = time.time() - start
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "wall_s": wall,
                                    "exit": proc.returncode, "result": result}) + "\n")
        print(f"seed {seed}: exit {proc.returncode} correct {result.get('correct')} "
              f"failed {result.get('failed')}/{result.get('attempted')} wall {wall:.1f}s",
              file=sys.stderr)
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{args.workload:<18} {name:<24} median {med:<14.6g} spread {spread:.4f}"
              + (f"  bound {bound}" if bound is not None else ""))


if __name__ == "__main__":
    main()
