"""Spans around ttlab's layer boundaries, installed from outside the package.

`install` replaces functions on the module attributes their callers look
up at call time (`ttlab.search.arc_completes_blowup`,
`ttlab.census.chain_exists`, `ttlab.cli.cache_lookup`, ...), so nothing
under src/ttlab changes.  Mid-level calls (one solver call, one CLI run,
one cache access) each get a span.  Hot leaf calls (the incremental arc
check, the chain search, weight comparisons, the codec, the oracle's
kernels) would be millions of spans, so each is aggregated into
calls + seconds under the span that is open when it runs.  A span's self
time is its duration minus its child spans and leaf aggregates.  No leaf
calls another wrapped function, so nothing is subtracted twice.
"""

from __future__ import annotations

import json
from math import comb
from time import perf_counter

from workloads import kernel_label

# span record fields
NAME, START, END, PARENT, LEAVES, COVERED = range(6)


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent, {leaf: [calls, s, true]}, covered_s]
        self.stack = []
        self.counts = {}  # exact work counts, by metric name
        self.kernel_s = {}

    def open(self, name):
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, self.stack[-2] if len(self.stack) > 1 else -1,
                           {}, 0.0])
        return self.stack[-1]

    def close(self, idx):
        rec = self.spans[idx]
        rec[END] = perf_counter()
        self.stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][COVERED] += rec[END] - rec[START]
        return rec[END] - rec[START]

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.close(idx)
            if on_result is not None:
                on_result(args, kwargs, result, elapsed)
            return result
        return wrapper

    def leaf(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            rec = spans[stack[-1]]
            agg = rec[LEAVES].get(name)
            if agg is None:
                agg = rec[LEAVES][name] = [0, 0.0, 0]
            agg[0] += 1
            agg[1] += dt
            if result is True:
                agg[2] += 1
            rec[COVERED] += dt
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[NAME], "start": rec[START], "end": rec[END],
                                     "parent": rec[PARENT], "leaves": rec[LEAVES]}) + "\n")

    # ------------------------------------------------------------------

    def metrics(self):
        """Per-layer figures of one pass, keyed by BENCHMARK.json names."""
        calls, incl, self_s = {}, {}, {}
        leaf = {}        # leaf name -> [calls, s, true]
        under = {}       # (parent span name, leaf name) -> calls
        for rec in self.spans:
            dur = rec[END] - rec[START]
            name = rec[NAME]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - rec[COVERED]
            for lname, (c, s, true) in rec[LEAVES].items():
                agg = leaf.setdefault(lname, [0, 0.0, 0])
                agg[0] += c
                agg[1] += s
                agg[2] += true
                under[name, lname] = under.get((name, lname), 0) + c

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for name in ("embed.contains", "embed.is_free", "search.edit_distance_to_dtr",
                     "container.density_m", "cli.run", "cli.cache_lookup", "cli.cache_store"):
            m[name + ".calls"] = calls.get(name, 0)
            m[name + ".self_s"] = self_s.get(name, 0.0)
        for name in ("embed.arc_completes_blowup", "embed.chain_exists",
                     "core.Weight.compare", "core.codec"):
            c, s, _ = leaf.get(name, (0, 0.0, 0))
            m[name + ".calls"] = c
            m[name + ".self_s"] = s
        c, s, true = leaf.get("embed.arc_completes_blowup", (0, 0.0, 0))
        m["embed.arc_completes_blowup.us_per_call"] = ratio(s, c) * 1e6
        m["embed.arc_completes_blowup.reject_ratio"] = ratio(true, c)

        nodes = self.counts.get("search.extremal.nodes", 0)
        m["search.extremal.nodes"] = nodes
        m["search.extremal.self_s"] = self_s.get("search.extremal", 0.0)
        m["search.extremal.us_per_node"] = ratio(incl.get("search.extremal", 0.0), nodes) * 1e6

        for name in ("census.count_free", "census.count_partite"):
            leaves = self.counts.get(name + ".leaves", 0)
            m[name + ".self_s"] = self_s.get(name, 0.0)
            m[name + ".leaves"] = leaves
            m[name + ".leaves_per_s"] = ratio(leaves, incl.get(name, 0.0))
        m["census.count_partite.chain_checks"] = under.get(
            ("census.count_partite", "embed.chain_exists"), 0)

        for label, (s, graphs) in self.kernel_s.items():
            m[f"oracle.sweep.{label}.s"] = s
            m[f"oracle.sweep.{label}.graphs_per_s"] = ratio(graphs, s)
        m["oracle.sweep.graphs"] = self.counts.get("oracle.sweep.graphs", 0)
        m["oracle.sweep.self_s"] = self_s.get("oracle.sweep", 0.0)
        m["oracle.kernels.self_s"] = leaf.get("oracle.kernels", (0, 0.0))[1]
        m["oracle.sweep.state_bytes_computed"] = self.counts.get("oracle.state_bytes", 0)

        hits = self.counts.get("cli.cache.hits", 0)
        m["cli.cache.hits"] = hits
        m["cli.cache.hit_ratio"] = ratio(hits, calls.get("cli.cache_lookup", 0))
        return m


def install(tracer, ttlab):
    """Wrap the names ttlab's modules call each other through."""
    core, embed, search, census, container, oracle, cli = (
        ttlab.core, ttlab.embed, ttlab.search, ttlab.census, ttlab.container,
        ttlab.oracle, ttlab.cli)
    t = tracer

    def nodes(args, kwargs, result, elapsed):
        t.add("search.extremal.nodes", result.explored)

    def free_leaves(args, kwargs, result, elapsed):
        t.add("census.count_free.leaves", result)

    def partite_leaves(args, kwargs, result, elapsed):
        n, mode = args[0], args[3] if len(args) > 3 else kwargs.get("mode", "digraph")
        t.add("census.count_partite.leaves", (4 if mode == "digraph" else 3) ** comb(n, 2))

    def swept(args, kwargs, result, elapsed):
        label = kernel_label(result.n, result.k, result.t, result.mode)
        s, graphs = t.kernel_s.get(label, (0.0, 0))
        t.kernel_s[label] = (s + elapsed, graphs + result.total)
        t.add("oracle.sweep.graphs", result.total)

    def looked_up(args, kwargs, result, elapsed):
        t.add("cli.cache.hits", result is not None)

    def state_bytes(args, result):
        t.add("oracle.state_bytes", args[0].nbytes + sum(col.nbytes for col in result))

    def patch(modules, attr, wrapper):
        for mod in modules:
            setattr(mod, attr, wrapper)

    patch([search, census, embed], "arc_completes_blowup",
          t.leaf("embed.arc_completes_blowup", embed.arc_completes_blowup))
    patch([census, embed], "chain_exists", t.leaf("embed.chain_exists", embed.chain_exists))
    core.Weight.compare = t.leaf("core.Weight.compare", core.Weight.compare)
    patch([cli, container], "encode", t.leaf("core.codec", core.encode))
    patch([cli], "decode", t.leaf("core.codec", core.decode))
    patch([oracle], "_contains_chunk", t.leaf("oracle.kernels", oracle._contains_chunk))
    patch([oracle], "_out_columns", t.leaf("oracle.out_columns", oracle._out_columns, state_bytes))

    patch([search, census, cli], "extremal", t.span("search.extremal", search.extremal, nodes))
    patch([search, cli], "edit_distance_to_dtr",
          t.span("search.edit_distance_to_dtr", search.edit_distance_to_dtr))
    patch([census, cli], "count_free", t.span("census.count_free", census.count_free, free_leaves))
    patch([census, cli], "count_partite",
          t.span("census.count_partite", census.count_partite, partite_leaves))
    patch([oracle], "sweep", t.span("oracle.sweep", oracle.sweep, swept))
    patch([container, cli], "density_m", t.span("container.density_m", container.density_m))
    patch([embed, cli], "contains", t.span("embed.contains", embed.contains))
    patch([embed, search, cli], "is_free", t.span("embed.is_free", embed.is_free))
    patch([cli], "cache_lookup", t.span("cli.cache_lookup", cli.cache_lookup, looked_up))
    patch([cli], "cache_store", t.span("cli.cache_store", cli.cache_store))
    patch([cli], "run", t.span("cli.run", cli.run))
