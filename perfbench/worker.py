"""One pass of one workload, in a fresh interpreter.

run.py starts this once per repetition so that each pass pays its own
imports, starts with ttlab's module-level memos empty (as every `ttlab`
command does) and has its own peak RSS.  The pass:

1. imports numpy and ttlab from <root>/src and builds its inputs
   (graph files and a fresh cache directory for query_mix); `setup_s`
   runs from the moment run.py started the interpreter to here;
2. runs the job list in a closed loop, timing each job;
3. checks every answer, outside the timed region;
4. prints one JSON line with its figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from time import perf_counter

import workloads as wl


def build_jobs(workload, seed, scale):
    if workload == "query_mix":
        return wl.query_stream(seed, scale)
    jobs = {"extremal_ladder": wl.ladder_jobs, "census_walk": wl.census_jobs,
            "oracle_sweep": wl.sweep_jobs}[workload](scale)
    random.Random(seed).shuffle(jobs)
    return jobs


def make_runner(ttlab, graph_files, cache_dir):
    """job tuple -> zero-argument call into ttlab returning a plain answer.
    Functions are looked up on their modules at call time, so spans
    installed by the tracer see the calls."""
    core, search, census, oracle, cli = (ttlab.core, ttlab.search, ttlab.census,
                                         ttlab.oracle, ttlab.cli)

    def run(job):
        kind = job[0]
        if kind == "extremal":
            _, n, k, t, w, mode = job
            res = search.extremal(n, core.BlowupSpec(k, t), core.Weight.parse(w), mode)
            return res.best.f1, res.best.f2, res.witness.n, res.witness.states
        if kind == "count_free":
            _, n, k, t, mode = job
            return census.count_free(n, core.BlowupSpec(k, t), mode)
        if kind == "count_partite":
            return census.count_partite(*job[1:])
        if kind == "sweep":
            _, n, k, t, mode = job
            s = oracle.sweep(n, core.BlowupSpec(k, t), mode, threads=1)
            return s.total, s.free_count, dict(s.frontier)
        argv = ["--format", "json", "--cache-dir", cache_dir] + \
            wl.query_argv(job, graph_files.get(job[2]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        return rc, out.getvalue(), err.getvalue()
    return run


def check(job, answer, refs, first_output):
    """None if the answer is right, else what is wrong."""
    kind = job[0]
    if kind == "extremal":
        return wl.check_extremal(job, *answer, refs)
    if kind in ("count_free", "count_partite"):
        return wl.check_count(job, answer, refs)
    if kind == "sweep":
        return wl.check_sweep(job, *answer, refs)
    rc, out, err = answer
    if rc != 0 or err:
        return f"exit code {rc}, stderr {err.strip()!r}"
    if job in first_output:
        return None if out == first_output[job] else "cache replay differs from first answer"
    first_output[job] = out
    return wl.check_query(job, json.loads(out), refs)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=wl.SCALES, required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy
    import ttlab
    import ttlab.cli
    if not os.path.abspath(ttlab.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"ttlab imported from {ttlab.__file__}, not from {src}")

    jobs = build_jobs(args.workload, args.seed, args.scale)
    tmp_parent = os.path.join(args.root, ".bench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    work = tempfile.mkdtemp(dir=tmp_parent)
    try:
        graph_files = {}
        for job in jobs:
            if job[0] == "query" and job[1] in ("check", "editdist") and job[2] not in graph_files:
                path = os.path.join(work, f"g{len(graph_files)}.tdg")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(job[2] + "\n")
                graph_files[job[2]] = path
        cache_dir = os.path.join(work, "cache")
        run = make_runner(ttlab, graph_files, cache_dir)
        setup_s = time.monotonic() - args.t0
        report = {"setup_s": setup_s, "python": sys.version.split()[0],
                  "numpy": numpy.__version__}
        if not args.setup_only:
            report.update(measure(args, ttlab, jobs, run, cache_dir))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))


def measure(args, ttlab, jobs, run, cache_dir):
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer, ttlab)
        root_span = tracer.open("pass")

    answers, job_ms = [], []
    seen = set()
    repeat = []  # query_mix: asked before, so the cache should answer
    t_start = perf_counter()
    for job in jobs:
        repeat.append(job in seen)
        seen.add(job)
        idx = tracer.open("job." + (job[1] if job[0] == "query" else job[0])) if tracer else None
        t0 = perf_counter()
        try:
            answers.append(run(job))
        except Exception as exc:  # a raising job is a failed answer, not a crashed pass
            answers.append(exc)
        job_ms.append((perf_counter() - t0) * 1000)
        if tracer:
            tracer.close(idx)
    wall_s = perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.close(root_span)

    refs = wl.load_reference()
    first_output = {}
    errors = []
    for job, answer in zip(jobs, answers):
        try:
            problem = (f"raised {answer!r}" if isinstance(answer, Exception)
                       else check(job, answer, refs, first_output))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"malformed answer ({exc!r})"
        if problem:
            errors.append(f"{wl.job_key(job)[:120]}: {problem}")
    if args.workload == "query_mix":
        stored = len([f for f in os.listdir(cache_dir) if f.endswith(".json")])
        if stored != len(first_output):
            errors.append(f"cache holds {stored} entries for {len(first_output)} distinct queries")

    report = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "job_ms": job_ms,
        "repeat": repeat,
        "attempted": len(jobs),
        "failed": len(errors),
        "errors": errors[:5],
    }
    if tracer:
        report["layer"] = tracer.metrics()
        if args.spans_out:
            tracer.write(args.spans_out)
    return report


if __name__ == "__main__":
    main()
