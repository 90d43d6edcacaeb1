"""Every size argument of the public entry points (n, k, r and t) is
checked the same way: numpy integers and bools are taken as the integers
they equal, and a float, a string or a value below the least one allowed
raises ValueError.  So does a digraph, partition, spec or weight
argument that is not a Digraph, Partition, BlowupSpec or Weight, at
every entry point that takes one.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from ttlab import (
    DIGRAPH,
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
from ttlab.oracle import graph_from_index, iter_digraphs, sweep

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
