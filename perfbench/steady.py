#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs each workload ten times, on seeds 1 to 10, and prints per
end-to-end metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them), set against the metric's
bound. Before them it makes one traced run of the workload on seed 1.
Every run's result line must hold exactly the metrics BENCHMARK.json
names for its kind of run, in their units. Run from the repository
root:

    python3 perfbench/steady.py                         # every workload of BENCHMARK.json
    python3 perfbench/steady.py --workload sim_scale    # one workload

A spread within a third of the bound is marked "ok", within the bound
"near", and above it "WIDE" (setup_s is compared by median only, so its
spread is shown but not marked). The share of failed operations must be
the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds, trace, metrics):
    """One run; exits unless its result line holds exactly `metrics`
    (name -> unit)."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != metrics:
        sys.exit(f"{workload} seed {seed} trace {trace}: metrics differ from BENCHMARK.json:"
                 f" missing {sorted(set(metrics) - set(got))},"
                 f" extra {sorted(set(got) - set(metrics))},"
                 f" units {sorted(k for k in got if k in metrics and got[k] != metrics[k])}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: those in BENCHMARK.json)")
    parser.add_argument("--bench", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    worst = 0.0
    for workload in workloads:
        traced = run_once(bench["command"], workload, SEEDS[0], bench["run_seconds"], 1, per_layer)
        print(f"{workload} traced seed {SEEDS[0]}: correct={traced['correct']} "
              f"attempted={traced['attempted']} failed={traced['failed']}, "
              f"all {len(per_layer)} per-layer metrics", flush=True)
        results = []
        for seed in SEEDS:
            result = run_once(bench["command"], workload, seed, bench["run_seconds"], 0, end_to_end)
            results.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, failed share {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  DIFFERS'}"
              f"{'' if all(r['correct'] for r in results) else '  INCORRECT'}")
        print(f"{'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name == "setup_s":
                mark = "(median only)"
            else:
                worst = max(worst, spread / bound)
                mark = "ok" if spread < bound / 3 else "near" if spread <= bound else "WIDE"
            print(f"{name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound:>6} {mark}")
        print()
    print(f"worst spread / bound, setup_s aside: {worst:.3f}")


if __name__ == "__main__":
    main()
