"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload query_mix --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/baseline.json

Runs run.py one after another (never in parallel) with the run length
from BENCHMARK.json.  Spread is (Q3 - Q1) / median over the runs, with
the quartiles of statistics.quantiles(values, n=4); an end-to-end metric
is steady when its spread stays within its bound.  --out merges the
figures into a JSON file, one entry per workload, with the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import numpy

from run import HERE, ROOT, environment
from workloads import WORKLOADS


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--out")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            note = f" (bound {bound}, {spread / bound:.2f} of it)" if bound else ""
            print(f"{workload} {name}: median {med:.6g}, spread {spread:.4f}{note}")
        summary[workload] = rows

    if args.out:
        try:
            with open(args.out, encoding="utf-8") as fh:
                saved = json.load(fh)
        except FileNotFoundError:
            saved = {}
        saved["environment"] = dict(environment(), python=sys.version.split()[0],
                                    numpy=numpy.__version__)
        saved["seeds"] = args.seeds
        saved["run_seconds"] = spec["run_seconds"]
        saved.setdefault("workloads", {}).update(summary)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
