"""Every size argument of the public entry points (n, k, r and t) is
checked the same way: numpy integers and bools are taken as the integers
they equal, and a float, a string or a value below the least one allowed
raises ValueError.  So does a digraph, partition, spec or weight
argument that is not a Digraph, Partition, BlowupSpec or Weight, at
every entry point that takes one.

A size past a capacity bound raises CapacityError, with the bound's one
message, before any work: just past the bound and far past it (2**64,
which an allocation sized by n could not even index).  A huge r answers
as r = n does, as the parts past the first n are empty.  The huge sizes
run in a child process under an address-space limit, so a check that
came too late would fail there with MemoryError instead of taking the
machine's memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ttlab import (
    DIGRAPH,
    MAX_VERTICES,
    ORIENTED,
    BlowupSpec,
    Digraph,
    Partition,
    Weight,
    admits_partition,
    automorphism_count,
    blowup,
    container_exponent,
    contains,
    count_copies,
    count_embeddings,
    count_free,
    count_free_naive,
    count_partite,
    density_m,
    edit_distance_to_dtr,
    encode,
    extremal,
    extremal_naive,
    is_free,
    lower_bound_partite,
    make_dtr,
    pair_list,
    partition_ok,
    ratio_report,
    turan_edges,
    turan_part_sizes,
    turan_partition,
    weighted_size,
)
from ttlab.oracle import SWEEP_BOUND, graph_from_index, iter_digraphs, sweep

T31 = BlowupSpec(3, 1)
W2 = Weight.rational(2)
G = make_dtr(4, 2)
H = blowup(2, 1)
WEIGHT = "weight"
SPEC = "spec"
GRAPH = "digraph"
PARTITION = "partition"
# per kind of argument: wrong values, each refused with a message naming the kind
BAD = {
    WEIGHT: (2, Fraction(2), "2", None),
    SPEC: (3, (3, 1), "T_3^1", None),
    GRAPH: ("TDG 2 1", None),
    PARTITION: ((0, 0, 1, 1), None),
}

# name -> (call, valid arguments, per argument: the least size allowed,
# a key of BAD, or None when the argument is not checked here)
ENTRY_POINTS = {
    "pair_list": (pair_list, (3,), (0,)),
    "Digraph": (Digraph, (1, ()), (0, None)),
    "Digraph.empty": (Digraph.empty, (2,), (0,)),
    "Digraph.from_arcs": (Digraph.from_arcs, (2, ()), (0, None)),
    "BlowupSpec": (BlowupSpec, (3, 1), (1, 1)),
    "blowup": (blowup, (3, 1), (1, 1)),
    "Partition": (Partition, (2, (0, 0)), (1, None)),
    "turan_part_sizes": (turan_part_sizes, (5, 2), (0, 1)),
    "turan_edges": (turan_edges, (5, 2), (0, 1)),
    "turan_partition": (turan_partition, (5, 2), (0, 1)),
    "make_dtr": (make_dtr, (5, 2), (0, 1)),
    "partition_ok": (partition_ok, (G, Partition(2, (0, 0, 1, 1)), 1), (GRAPH, PARTITION, 1)),
    "admits_partition": (admits_partition, (G, 2, 1), (GRAPH, 1, 1)),
    "count_free": (count_free, (3, T31), (0, SPEC)),
    "count_free_naive": (count_free_naive, (3, T31), (0, SPEC)),
    "count_partite": (count_partite, (3, 2, 1), (0, 1, 1)),
    "lower_bound_partite": (lower_bound_partite, (4, 2, 1), (0, 1, 1)),
    "ratio_report": (ratio_report, (3, 2, 1), (0, 1, 1)),
    "sweep": (sweep, (3, T31, DIGRAPH), (0, SPEC, None)),
    "graph_from_index": (graph_from_index, (3, DIGRAPH, 0), (0, None, 0)),
    "iter_digraphs": (lambda n: list(iter_digraphs(n)), (2,), (0,)),
    # n = 1 returns at the root; n = 4 runs the walk
    "extremal n=1": (extremal, (1, T31, W2), (0, SPEC, WEIGHT)),
    "extremal n=4": (extremal, (4, T31, W2), (0, SPEC, WEIGHT)),
    "extremal_naive": (extremal_naive, (3, T31, W2), (0, SPEC, WEIGHT)),
    "edit_distance_to_dtr": (edit_distance_to_dtr, (G, 2), (GRAPH, 1)),
    "container_exponent": (container_exponent, (10, T31), (1, SPEC)),
    "density_m": (density_m, (T31,), (SPEC,)),
    "is_free": (is_free, (G, T31), (GRAPH, SPEC)),
    "contains": (contains, (G, H), (GRAPH, GRAPH)),
    "count_embeddings": (count_embeddings, (G, H), (GRAPH, GRAPH)),
    "automorphism_count": (automorphism_count, (H,), (GRAPH,)),
    "count_copies": (count_copies, (G, H), (GRAPH, GRAPH)),
    "weighted_size": (weighted_size, (G, W2), (GRAPH, WEIGHT)),
    "encode": (encode, (G,), (GRAPH,)),
}


def _with(args, pos, value):
    return args[:pos] + (value,) + args[pos + 1:]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_size_argument_is_checked_the_same_way(name):
    call, args, checks = ENTRY_POINTS[name]
    for pos, least in enumerate(checks):
        if least in BAD:
            for bad in BAD[least]:
                with pytest.raises(ValueError, match=least):
                    call(*_with(args, pos, bad))
        elif least is not None:
            value = args[pos]
            assert call(*_with(args, pos, np.int64(value))) == call(*args), pos
            assert call(*_with(args, pos, bool(least))) == call(*_with(args, pos, least)), pos
            for bad in (float(value), str(value), least - 1):
                with pytest.raises(ValueError):
                    call(*_with(args, pos, bad))


# ----------------------------------------------------------------------
# capacity bounds
# ----------------------------------------------------------------------

# the calls below are written in these names, and evaluated the same way
# in this process and in the guarded child
PRELUDE = """
from ttlab import *
from ttlab.oracle import graph_from_index, iter_digraphs, sweep

def outcome(expr, values):
    try:
        return repr(eval(expr, globals(), values))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
"""
NAMES: dict = {}
exec(PRELUDE, NAMES)
outcome = NAMES["outcome"]

VERTEX_BOUND = (MAX_VERTICES, f"vertices exceeds the capacity bound {MAX_VERTICES}")
# call of a size n -> (the bound on n, a part of the bound's one message)
CAPACITY = {
    "Digraph(n, ())": VERTEX_BOUND,
    "Digraph.empty(n)": VERTEX_BOUND,
    "Digraph.from_arcs(n, ())": VERTEX_BOUND,
    "blowup(n, 1)": VERTEX_BOUND,
    "make_dtr(n, 2)": VERTEX_BOUND,
    "decode('TDG ' + str(n))": VERTEX_BOUND,
    "extremal(n, BlowupSpec(3, 1), Weight.rational(2))": VERTEX_BOUND,
    "lower_bound_partite(n, 1, 1)": VERTEX_BOUND,
    "graph_from_index(n, 'digraph', 0)": VERTEX_BOUND,
    "next(iter_digraphs(n))": VERTEX_BOUND,
    **{call.replace("MODE", repr(mode)): (SWEEP_BOUND[mode], "is capped at the sweep bound")
       for mode in (DIGRAPH, ORIENTED)
       for call in ("sweep(n, BlowupSpec(3, 1), MODE)", "count_free(n, BlowupSpec(3, 1), MODE)",
                    "count_free_naive(n, BlowupSpec(3, 1), MODE)",
                    "count_partite(n, 2, 1, MODE)",
                    "extremal_naive(n, BlowupSpec(3, 1), Weight.rational(2), MODE)",
                    "ratio_report(n, 2, 1, MODE)")},
}
HUGE = 2 ** 64
WIDE_R = 10 ** 9
# calls of a part count r: at r = WIDE_R each answers as at r = n = 4
WIDE = ("turan_edges(4, r)", "turan_partition(4, r).assign", "encode(make_dtr(4, r))",
        "edit_distance_to_dtr(blowup(2, 2), r).distance",
        "edit_distance_to_dtr(blowup(2, 2), r).partition.assign",
        "ratio_report(4, r, 1).ratio", "ratio_report(4, r, 1).lower_bound")
# calls with no bound on n, and what they return at n = HUGE
UNBOUNDED = {"pair_index(n, 0, 1)": "0",
             "pair_index(n, n - 1, n - 2)": repr(HUGE * (HUGE - 1) // 2 - 1)}
# (call, the name it takes a size by, the size)
GUARDED = ([(call, "n", HUGE) for call in (*CAPACITY, *UNBOUNDED)]
           + [(call, "r", WIDE_R) for call in WIDE])
GUARD_BYTES = 2 << 30  # address space of the guarded child
GUARD_SECONDS = 60  # and its CPU time


@pytest.fixture(scope="module")
def guarded():
    """(call, size) -> outcome of each GUARDED row, from one child
    process whose address space and CPU time are capped once ttlab is
    imported.  A row the child did not reach is missing."""
    script = PRELUDE + f"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({GUARD_BYTES}, {GUARD_BYTES}))
resource.setrlimit(resource.RLIMIT_CPU, ({GUARD_SECONDS}, {GUARD_SECONDS}))
for call, name, size in json.load(sys.stdin):
    print(json.dumps([call, size, outcome(call, {{name: size}})]), flush=True)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], input=json.dumps(GUARDED), env=env,
                          capture_output=True, text=True, timeout=5 * GUARD_SECONDS)
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    return {(call, size): result for call, size, result in rows}


@pytest.mark.parametrize("call", CAPACITY)
def test_every_capacity_bound_is_checked_before_any_work(call, guarded):
    bound, message = CAPACITY[call]
    for result in (outcome(call, {"n": bound + 1}), guarded.get((call, HUGE))):
        assert result is not None and result.startswith("CapacityError: ") and message in result, result


@pytest.mark.parametrize("call", WIDE)
def test_parts_past_n_are_never_listed(call, guarded):
    assert guarded.get((call, WIDE_R)) == outcome(call, {"r": 4})


@pytest.mark.parametrize("call", UNBOUNDED)
def test_pair_index_needs_no_table(call, guarded):
    assert guarded.get((call, HUGE)) == UNBOUNDED[call]
