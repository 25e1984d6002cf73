#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
reports each metric's median, quartiles and spread.

The spread is the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) over the median: the
figure that must stay below a third of an end-to-end metric's bound in
``BENCHMARK.json``. Run from the repository root:

    python3 perfbench/spread.py --runs 10                  # every workload
    python3 perfbench/spread.py --runs 5 --workloads stepped --trace 1

Seeds run from 1000 upward. A metric whose spread is at least a third of
its bound is flagged. The untraced runs' unscaled times (the ``raw`` line
each run prints) are summarised below their metrics, without a flag.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

FIRST_SEED = 1000


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        failures = [l for l in lines if l.startswith("FAILED")]
        sys.exit(f"{workload} seed {seed}: incorrect\n" + "\n".join(failures))
    raw = {}
    for line in lines:
        if line.startswith("raw {"):
            raw = json.loads(line[len("raw "):])
    return wall, {name: m["value"] for name, m in result["metrics"].items()}, raw


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("nan"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if opts.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])

    for workload in workloads:
        runs, raws = [], []
        for i in range(opts.runs):
            seed = FIRST_SEED + i
            wall, metrics, raw = run_once(bench["command"], workload, seed,
                                          bench["run_seconds"], opts.trace)
            runs.append(metrics)
            raws.append(raw)
            print(f"{workload} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{k} {v:.6g}" for k, v in runs[-1].items()
                if bounds.get(k) is not None or opts.trace == 0), flush=True)
        for name in bounds:
            stats = summarise([r[name] for r in runs])
            bound = bounds[name]
            flag = ""
            if bound is not None and stats["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"  {workload:<17} {name:<36} median {stats['median']:<14.6g} "
                  f"q1 {stats['q1']:<14.6g} q3 {stats['q3']:<14.6g} "
                  f"spread {stats['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag,
                  flush=True)
        # The same runs' times before scaling by the reference kernel.
        for name in raws[0] if raws and all(raws) else []:
            stats = summarise([r[name] for r in raws])
            print(f"  {workload:<17} {'raw ' + name:<36} median {stats['median']:<14.6g} "
                  f"q1 {stats['q1']:<14.6g} q3 {stats['q3']:<14.6g} "
                  f"spread {stats['spread']:.4f}", flush=True)


if __name__ == "__main__":
    main()
