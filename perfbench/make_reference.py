"""Regenerate reference.json, the stored answers the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Each value records its source:
  oracle        ttlab's unpruned numpy sweep (digraph n <= 5, oriented n <= 6);
  brown-harary  ex_2(n, T_k^1) = 2 * t_{k-1}(n), attained with every pair a digon;
  brute-force   this directory's own enumeration over every labelled digraph;
  seed          the value ttlab gave at the commit that added the benchmark,
                where no independent route reaches.
Takes about a minute.
"""

from __future__ import annotations

import json
from itertools import product

import ttlab
from ttlab import oracle, search

import reference as ref
import workloads as wl


def turan_edges(n, r):
    sizes = ref.turan_sizes(n, r)
    return (n * n - sum(s * s for s in sizes)) // 2


def extremal_ref(n, k, t, w, mode):
    spec, weight = ttlab.BlowupSpec(k, t), ttlab.Weight.parse(w)
    if n <= oracle.SWEEP_BOUND[mode]:
        best = search.extremal_naive(n, spec, weight, mode).best
        return {"f1": best.f1, "f2": best.f2, "source": "oracle"}
    if t == 1 and w == "2" and mode == "digraph":
        return {"f1": 0, "f2": turan_edges(n, k - 1), "source": "brown-harary"}
    best = search.extremal(n, spec, weight, mode).best
    return {"f1": best.f1, "f2": best.f2, "source": "seed"}


def partite_ref(n, r, t, mode):
    radix = 4 if mode == "digraph" else 3
    count = sum(ref.admits_partition(ref.out_masks(n, states), n, r, t)
                for states in product(range(radix), repeat=n * (n - 1) // 2))
    return {"count": count, "source": "brute-force"}


def main():
    jobs = set()
    for scale in wl.SCALES:
        jobs.update(wl.ladder_jobs(scale) + wl.census_jobs(scale) + wl.sweep_jobs(scale))
        for q in wl.fixed_queries(scale):
            if q[0] == "ex":
                jobs.add(("extremal", *q[1:]))
            elif q[0] in ("count_free", "count_partite"):
                jobs.add(q)
    out = {"extremal": {}, "count_free": {}, "count_partite": {}, "sweep": {}}
    for job in sorted(jobs, key=wl.job_key):
        kind, *p = job
        if kind == "extremal":
            value = extremal_ref(*p)
        elif kind == "count_free":
            n, k, t, mode = p
            value = {"count": oracle.sweep(n, ttlab.BlowupSpec(k, t), mode).free_count,
                     "source": "oracle"}
        elif kind == "count_partite":
            value = partite_ref(*p)
        else:
            n, k, t, mode = p
            s = oracle.sweep(n, ttlab.BlowupSpec(k, t), mode)
            value = {"total": s.total, "free_count": s.free_count,
                     "frontier": {str(f2): list(c) for f2, c in sorted(s.frontier.items())},
                     "source": "seed"}
        out[kind][wl.job_key(job)] = value
        print(wl.job_key(job), value.get("source"), flush=True)
    with open(wl.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
