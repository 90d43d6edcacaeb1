"""ttlab's benchmark: time fixed questions against the library and the CLI.

    python3 perfbench/run.py --workload extremal_ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; ttlab is imported from ./src.  One run
repeats passes of the workload, each in a fresh interpreter (worker.py),
one after another, until --seconds have gone by, then reports medians
over the passes.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 first runs one untraced pass, then traced
passes, and reports the per-layer metrics and the tracing overhead.
Every answer is checked; a wrong one makes the run exit 1.  The last line
of standard output is one JSON object {correct, attempted, failed,
metrics}.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import SCALES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5      # set-ups per untraced run; passes count, probes fill the rest
PASS_TIMEOUT_S = 150   # a full pass takes 7-13 s on a 2-core Xeon


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def run_pass(workload, seed, scale, trace, setup_only=False):
    """One worker process; returns its report, or {"error": ...}."""
    env = dict(os.environ)
    env.pop("TTLAB_CACHE_DIR", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(out_dir, f"{workload}-seed{seed}.spans.jsonl")]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolated q-th percentile (0 <= q <= 100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timings(passes):
    """Latency figures from each job's median time over the passes (every
    pass of a run asks the same jobs in the same order).  A median per job
    keeps one slow stretch of a shared machine from moving the total."""
    ms = [statistics.median(times) for times in zip(*(p["job_ms"] for p in passes))]
    wall_s = sum(ms) / 1000
    figures = {"wall_s": wall_s, "job_p50_ms": percentile(ms, 50),
               "job_p99_ms": percentile(ms, 99)}
    repeat = passes[0]["repeat"]
    if any(repeat):
        figures["hit_p50_ms"] = percentile([x for x, r in zip(ms, repeat) if r], 50)
        figures["miss_p50_ms"] = percentile([x for x, r in zip(ms, repeat) if not r], 50)
        figures["queries_per_s"] = len(ms) / wall_s
    return figures


def run_workload(workload, seed, seconds, trace, scale, declared):
    """Passes until about `seconds` are spent; returns (correct, attempted,
    failed, metrics, extra) with metrics holding exactly the names in
    `declared`."""
    start = time.monotonic()
    passes, errors = [], []
    baseline = run_pass(workload, seed, scale, 0) if trace else None
    if baseline is not None and "error" in baseline:
        errors.append(baseline["error"])
    while not errors:
        rep = run_pass(workload, seed, scale, trace)
        if "error" in rep:
            errors.append(rep["error"])
            break
        passes.append(rep)
        errors += rep["errors"]
        print(f"pass {len(passes)}: wall_s={rep['wall_s']:.4f} setup_s={rep['setup_s']:.4f} "
              f"jobs={rep['attempted']} failed={rep['failed']}", flush=True)
        # stop at the pass that ends nearest to `seconds`: go on only while
        # half a pass more would still fall short of it
        elapsed = time.monotonic() - start
        if elapsed + elapsed / (len(passes) + (baseline is not None)) / 2 >= seconds:
            break
    attempted = sum(p["attempted"] for p in passes) or 1
    failed = sum(p["failed"] for p in passes) + (len(errors) if not passes else 0)
    if not passes:
        return False, attempted, failed, {}, {"errors": errors}

    extra = {"passes": len(passes), "python": passes[0]["python"], "numpy": passes[0]["numpy"],
             "errors": errors[:5]}
    correct = not errors
    figures = timings(passes)
    if trace:
        layers = [p["layer"] for p in passes]
        metrics = {name: statistics.median(layer.get(name, 0) for layer in layers)
                   for name in declared}
        metrics.update({"cli." + k: figures[k] for k in ("hit_p50_ms", "miss_p50_ms",
                                                         "queries_per_s") if k in figures})
        metrics["trace.overhead_s"] = figures["wall_s"] - timings([baseline])["wall_s"]
        unstable = [name for name in declared if _exact(name)
                    and len({layer.get(name, 0) for layer in layers}) > 1]
        if unstable:
            correct = False
            extra["errors"].append(f"counts differ between traced passes: {unstable}")
    else:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            probe = run_pass(workload, seed, scale, 0, setup_only=True)
            if "error" in probe:
                return False, attempted, failed + 1, {}, {"errors": [probe["error"]]}
            setups.append(probe["setup_s"])
        metrics = dict(figures, setup_s=statistics.median(setups),
                       peak_rss_mb=statistics.median(p["peak_rss_mb"] for p in passes))
        extra["unbounded"] = {k: v for k, v in figures.items() if k not in declared}
    return correct, attempted, failed, {k: metrics.get(k, 0) for k in declared}, extra


def _exact(name):
    """Per-layer metrics that are counts of work, which must repeat exactly."""
    return name.endswith((".calls", ".nodes", ".leaves", ".chain_checks", ".graphs",
                          ".hits", "_computed", "_ratio"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="tiny: seconds-long instances for the benchmark's own tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ttlab", "__init__.py")):
        sys.exit(f"error: no ttlab sources under {os.path.join(ROOT, 'src')}; "
                 "run from a checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct, total_attempted, total_failed = True, 0, 0
    for workload in names:
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
              f"scale {args.scale})", flush=True)
        correct, attempted, failed, metrics, extra = run_workload(
            workload, args.seed, args.seconds, args.trace, args.scale, list(units))
        print(f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={extra.get('python')} "
              f"numpy={extra.get('numpy')} commit={env['commit']}")
        for name, value in metrics.items():
            print(f"{workload} {name} = {value:.6g} {units[name]}")
        for name, value in extra.get("unbounded", {}).items():
            print(f"{workload} {name} = {value:.6g} "
                  f"{'1/s' if name.endswith('per_s') else 'ms'} (not bounded)")
        for err in extra["errors"]:
            print(f"{workload} FAILED: {err}", file=sys.stderr)
        print(f"{workload}: {'correct' if correct else 'INCORRECT'}, "
              f"{failed} of {attempted} jobs failed (failed_frac = {failed / attempted:.6g}), "
              f"{extra.get('passes', 0)} passes")
        all_correct &= correct
        total_attempted += attempted
        total_failed += failed
    # with --workload all the figures are in the lines above; the result line sums the counts
    reported = metrics if len(names) == 1 else {}
    print(json.dumps({"correct": all_correct, "attempted": total_attempted,
                      "failed": total_failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()}}))
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
