"""The four workloads: their job lists, the query stream, and answer checks.

Nothing here imports ttlab.  A job is a tuple whose first field names the
call (`extremal`, `count_free`, `count_partite`, `sweep`, `query`); the
same tuple, joined with "|", keys the stored reference values.  The seed
only fixes job order and the query stream, so every seed asks the solver
workloads the same questions and the query stream the same mix of kinds.

`scale="tiny"` swaps in instances that finish in well under a second, for
the benchmark's own smoke tests; the figures it gives mean nothing.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import reference as ref

WORKLOADS = ("extremal_ladder", "census_walk", "oracle_sweep", "query_mix")
SCALES = ("full", "tiny")
WEIGHTS = ("2", "log3", "7/4")
KERNELS = {(2, 1): "t2_1", (3, 1): "t3_1", (4, 1): "t4_1", (2, 2): "t2_2", (3, 2): "t3_2"}
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def job_key(job):
    return "|".join(str(x) for x in job)


# ======================================================================
# solver workloads: fixed job lists, seeded order
# ======================================================================

def ladder_jobs(scale):
    if scale == "tiny":
        return [("extremal", 4, 3, 1, w, "digraph") for w in WEIGHTS] + \
               [("extremal", 4, 2, 2, "2", "oriented")]
    jobs = [("extremal", 5, k, t, w, "digraph")
            for k, t in ((3, 1), (2, 2), (4, 1), (3, 2)) for w in WEIGHTS]
    jobs += [("extremal", 6, 3, 1, "2", "digraph"), ("extremal", 6, 4, 1, "2", "digraph")]
    jobs += [("extremal", 6, 3, 2, w, "digraph") for w in WEIGHTS]
    # oriented graphs have no digons, so the weight cannot matter there
    jobs += [("extremal", 6, k, t, "2", "oriented") for k, t in ((3, 1), (4, 1), (2, 2))]
    return jobs


def census_jobs(scale):
    if scale == "tiny":
        return [("count_free", 4, 3, 1, "digraph"), ("count_free", 4, 2, 2, "oriented"),
                ("count_partite", 3, 2, 1, "oriented"), ("count_partite", 3, 2, 1, "digraph")]
    return [("count_free", 5, 3, 1, "digraph"),
            ("count_free", 5, 2, 2, "oriented"), ("count_free", 5, 4, 1, "oriented"),
            ("count_partite", 5, 2, 1, "oriented"), ("count_partite", 5, 2, 2, "oriented"),
            ("count_partite", 4, 2, 1, "digraph"), ("count_partite", 4, 3, 1, "digraph")]


def sweep_jobs(scale):
    if scale == "tiny":
        return [("sweep", 4, k, t, "digraph") for k, t in ((2, 1), (3, 1), (2, 2))] + \
               [("sweep", 4, 3, 1, "oriented")]
    # one digraph sweep per containment kernel; T_5^1 takes the generic one
    jobs = [("sweep", 5, k, t, "digraph")
            for k, t in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (5, 1))]
    return jobs + [("sweep", 6, 3, 1, "oriented")]


def kernel_label(n, k, t, mode):
    name = KERNELS.get((k, t), "generic")
    return f"oriented{n}_{name}" if mode == "oriented" else name


# ======================================================================
# query_mix: a seeded stream of CLI invocations
# ======================================================================

QUERY_COUNT = {"full": 3000, "tiny": 40}
SMALL_N = {"full": (2, 3, 4), "tiny": (2, 3)}
GRAPH_N = {"full": (5, 10), "tiny": (5, 6)}
PATTERNS = ((2, 1), (3, 1), (4, 1), (2, 2))


def fixed_queries(scale):
    """Small-instance questions: every one is asked once fresh per stream."""
    qs = []
    for n in SMALL_N[scale]:
        for mode in ("digraph", "oriented"):
            for k, t in PATTERNS:
                qs += [("ex", n, k, t, w, mode) for w in WEIGHTS]
                qs.append(("count_free", n, k, t, mode))
            qs += [("count_partite", n, r, t, mode) for r in (1, 2, 3) for t in (1, 2)]
    qs += [("mh", k, t) for k in range(2, 11) for t in range(1, 6)
           if k * t <= 10 and (k, t) != (2, 1)]
    qs += [("gen_dtr", n, r) for n in range(2, 11) for r in range(1, 5)]
    qs += [("gen_blowup", k, t) for k in range(1, 5) for t in range(1, 4)]
    return qs


def random_graph(rng, n, number):
    """Graph `number` of size n: a sparse random digraph of one of four
    densities, or a relabelled Turan construction with a few pair states
    changed (those sit near the freeness threshold).  Kinds and densities
    cycle with `number`, so their shares do not depend on the seed."""
    if number % 2:
        p = (0.15, 0.25, 0.35, 0.45)[number // 2 % 4]
        states = [rng.choice((1, 2, 3)) if rng.random() < p else 0 for _ in ref.pairs(n)]
    else:
        states = list(ref.dtr_states(n, rng.choice((2, 3))))
        for _ in range(rng.randint(0, n)):
            states[rng.randrange(len(states))] = rng.randrange(4)
    perm = list(range(n))
    rng.shuffle(perm)
    out = ref.out_masks(n, states)
    relabelled = [0] * n
    for u in range(n):
        for v in range(n):
            if out[u] >> v & 1:
                relabelled[perm[u]] |= 1 << perm[v]
    return ref.tdg(n, [(relabelled[i] >> j & 1) | (relabelled[j] >> i & 1) << 1
                       for i, j in ref.pairs(n)])


def query_stream(seed, scale):
    """About half the stream is fresh questions, the rest repeat an earlier
    one chosen uniformly, so the cache is read and written throughout.
    Each random graph is asked four ways (two `check` patterns, `editdist`
    with r = 2 and 3), which keeps the graph files written in set-up few."""
    rng = random.Random(seed)
    total = QUERY_COUNT[scale]
    fixed = fixed_queries(scale)
    if scale == "tiny":
        fixed = rng.sample(fixed, 8)
    fresh = list(fixed)
    lo, hi = GRAPH_N[scale]
    sizes = hi - lo + 1
    for i in range((total // 2 - len(fixed)) // 4):
        # every size gets the same share, so the slow tail (n = 10) is the
        # same size whatever the seed
        g = random_graph(rng, lo + i % sizes, i // sizes)
        fresh += [("check", g, *kt) for kt in rng.sample(((3, 1), (4, 1), (2, 2), (3, 2)), 2)]
        fresh += [("editdist", g, 2), ("editdist", g, 3)]
    rng.shuffle(fresh)
    slots = ["fresh"] * (len(fresh) - 1) + ["repeat"] * (total - len(fresh))
    rng.shuffle(slots)
    stream, issued = [fresh[0]], 1
    for slot in slots:
        if slot == "fresh":
            stream.append(fresh[issued])
            issued += 1
        else:
            stream.append(stream[rng.randrange(len(stream))])
    return [("query", *q) for q in stream]


def query_argv(q, graph_path):
    """CLI arguments for a query tuple; graph queries read `graph_path`."""
    kind, *p = q[1:]
    if kind == "ex":
        n, k, t, w, mode = p
        return ["ex", "--n", str(n), "--k", str(k), "--t", str(t), "--weight", w, "--mode", mode]
    if kind == "count_free":
        n, k, t, mode = p
        return ["count", "free", "--n", str(n), "--k", str(k), "--t", str(t), "--mode", mode]
    if kind == "count_partite":
        n, r, t, mode = p
        return ["count", "partite", "--n", str(n), "--r", str(r), "--t", str(t), "--mode", mode]
    if kind == "mh":
        return ["mh", "--k", str(p[0]), "--t", str(p[1])]
    if kind == "gen_dtr":
        return ["gen", "dtr", "--n", str(p[0]), "--r", str(p[1])]
    if kind == "gen_blowup":
        return ["gen", "blowup", "--k", str(p[0]), "--t", str(p[1])]
    if kind == "check":
        return ["check", "--graph", graph_path, "--k", str(p[1]), "--t", str(p[2])]
    return ["editdist", "--graph", graph_path, "--r", str(p[1])]


# ======================================================================
# answer checks (outside the timed region)
# ======================================================================

def load_reference():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def check_extremal(job, f1, f2, witness_n, witness_states, refs):
    """Value equals the reference exactly; the witness is free and attains it."""
    _, n, k, t, w, mode = job
    want = refs["extremal"][job_key(job)]
    if ref.weighted_key(w, f1, f2) != ref.weighted_key(w, want["f1"], want["f2"]):
        return f"value (f1={f1}, f2={f2}) differs from reference {want}"
    if witness_n != n or ref.arc_counts(witness_states) != (f1, f2):
        return "witness does not attain the reported value"
    if mode == "oriented" and 3 in witness_states:
        return "oriented witness holds a digon"
    if ref.has_blowup(ref.out_masks(n, witness_states), n, k, t):
        return "witness contains the forbidden blow-up"
    return None


def check_count(job, value, refs):
    want = refs[job[0]][job_key(job)]["count"]
    return None if value == want else f"count {value} != reference {want}"


def check_sweep(job, total, free_count, frontier, refs):
    want = refs["sweep"][job_key(job)]
    got = {"total": total, "free_count": free_count,
           "frontier": {str(f2): list(cell) for f2, cell in sorted(frontier.items())}}
    for field in ("total", "free_count", "frontier"):
        if got[field] != want[field]:
            return f"{field} differs from reference"
    return None


def check_query(q, record, refs):
    """Check the JSON record of a first-time query against independent
    computation or the stored references."""
    kind, *p = q[1:]
    res = record["result"]
    if kind in ("ex", "count_free", "count_partite"):
        job = ("extremal", *p) if kind == "ex" else (kind, *p)
        if kind != "ex":
            return check_count(job, int(res["count"]), refs)
        n, w = p[0], p[3]
        wn, ws = ref.parse_tdg(res["witness"])
        exact = ref.weighted_key(w, res["f1"], res["f2"])
        if res["value_exact"] != (None if w == "log3" else str(exact)):
            return "value_exact does not match f1 and f2"
        return check_extremal(job, res["f1"], res["f2"], wn, ws, refs)
    if kind == "mh":
        m = ref.density(*p)
        if Fraction(res["m"]) != m or Fraction(res["exponent"]) != 2 - 1 / m:
            return f"m {res['m']} != {m}"
        n, states = ref.parse_tdg(res["argmax_subgraph"])
        f1, f2 = ref.arc_counts(states)
        if n < 3 or Fraction(f1 + 2 * f2 - 1, n - 2) != m:
            return "argmax subgraph does not attain m"
        return None
    if kind in ("gen_dtr", "gen_blowup"):
        states = ref.dtr_states(*p) if kind == "gen_dtr" else ref.blowup_states(*p)
        n = p[0] if kind == "gen_dtr" else p[0] * p[1]
        want = {"encoding": ref.tdg(n, states), "n": n,
                "f1": ref.arc_counts(states)[0], "f2": ref.arc_counts(states)[1]}
        return None if res == want else f"construction {res} != {want}"
    n, states = ref.parse_tdg(p[0])
    out = ref.out_masks(n, states)
    if kind == "check":
        k, t = p[1], p[2]
        if res["free"]:
            if res["witness"] is not None or ref.has_blowup(out, n, k, t):
                return "reported free, but a copy exists"
            return None
        return None if ref.is_witness(out, n, k, t, res["witness"]) else "witness is not a copy"
    assign = res["partition"]
    sizes = sorted(assign.count(c) for c in range(p[1]))
    if len(assign) != n or sizes != sorted(ref.turan_sizes(n, p[1])):
        return "partition is not balanced"
    cost = ref.edit_cost(n, states, assign)
    return None if cost == res["distance"] else f"partition costs {cost}, reported {res['distance']}"
