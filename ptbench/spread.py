#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs `ptbench/run.sh` once per seed on each workload and prints, per
metric, the median of the runs and the inter-quartile range as a share
of that median (quartiles as `statistics.quantiles(values, n=4)` gives
them), next to the metric's bound from BENCHMARK.json. Run from the
repository root:

    python3 ptbench/spread.py --seeds 1-10 --workloads compile-gnn serve-direct

Raw results are appended, one JSON line per run, to `--log`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "ptbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds_of, default=seeds_of("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--log", default=".bench_out/spread.jsonl")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
    with open(args.log, "a") as log:
        for workload in args.workloads:
            runs = []
            for seed in args.seeds:
                start = time.monotonic()
                result = run_once(workload, seed, args.seconds, 0)
                elapsed = round(time.monotonic() - start, 2)
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "elapsed_s": elapsed, **result}) + "\n")
                log.flush()
                if not result["correct"]:
                    ok = False
                runs.append({"elapsed_s": elapsed, **result})
            print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
                  f"longest run {max(r['elapsed_s'] for r in runs)} s")
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(values)
                if len(values) >= 2 and med:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    spread = (q3 - q1) / abs(med)
                else:
                    spread = 0.0
                flag = "" if spread <= bound / 3 else \
                    ("  <-- above bound/3" if spread <= bound else "  <-- ABOVE BOUND")
                if spread > bound:
                    ok = False
                print(f"  {name:18s} median {med:<14.6g} spread {spread:7.4f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
