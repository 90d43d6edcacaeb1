"""Counting free digraphs and digraphs admitting a good partition."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttlab import (
    DIGRAPH,
    ORIENTED,
    BlowupSpec,
    CapacityError,
    Digraph,
    admits_partition,
    blowup,
    contains,
    count_free,
    count_free_naive,
    count_partite,
    lower_bound_partite,
    make_dtr,
    ratio_report,
    turan_edges,
)
from ttlab.oracle import SWEEP_BOUND, iter_digraphs

SPECS = [BlowupSpec(2, 1), BlowupSpec(3, 1), BlowupSpec(4, 1), BlowupSpec(2, 2)]


def naive_count_partite(n: int, r: int, t: int, mode: str) -> int:
    """Try every class assignment on every digraph; class freeness goes
    through the embedding search, not the chain solver.  The classes of
    each assignment are listed once, and each digraph tests a class (by
    vertex mask) at most once."""
    pattern = blowup(2, t)
    assignments = []
    for assign in product(range(r), repeat=n):
        classes = [[v for v in range(n) if assign[v] == p] for p in range(r)]
        assignments.append([(sum(1 << v for v in c), c) for c in classes])
    total = 0
    for g in iter_digraphs(n, mode):
        free: dict[int, bool] = {}
        for classes in assignments:
            for mask, verts in classes:
                ok = free.get(mask)
                if ok is None:
                    ok = free[mask] = contains(g.induced(verts), pattern) is None
                if not ok:
                    break
            else:
                total += 1
                break
    return total


# ----------------------------------------------------------------------
# count_free
# ----------------------------------------------------------------------

def test_count_free_oriented_triangle_frozen():
    # 27 oriented graphs on 3 labelled vertices; 6 of them are transitive
    # triangles (one per linear order)
    assert count_free(3, BlowupSpec(3, 1), ORIENTED) == 21


def test_count_free_matches_enumeration_oracle():
    # every n up to the sweep bound: n - 1 is the last level with classes
    for mode in (DIGRAPH, ORIENTED):
        for n in range(SWEEP_BOUND[mode] + 1):
            for spec in SPECS:
                assert count_free(n, spec, mode) == count_free_naive(n, spec, mode), (
                    n, str(spec), mode)


def test_count_free_digraph_n5_frozen_sweep_values():
    # frozen from the vectorised enumeration sweep over all 4^10 digraphs
    assert count_free(5, BlowupSpec(3, 1), DIGRAPH) == 47462
    assert count_free(5, BlowupSpec(2, 2), DIGRAPH) == 301826


def test_count_free_trivial_patterns():
    # k = 1 needs only t vertices, no arcs at all
    assert count_free(3, BlowupSpec(1, 2), DIGRAPH) == 0
    assert count_free(1, BlowupSpec(1, 2), DIGRAPH) == 1
    # pattern larger than the host: everything is free
    assert count_free(3, BlowupSpec(2, 2), DIGRAPH) == 4 ** 3
    assert count_free(4, BlowupSpec(3, 2), ORIENTED) == 3 ** 6


def test_count_free_capacity_refusal():
    with pytest.raises(CapacityError):
        count_free(6, BlowupSpec(3, 1), DIGRAPH)
    with pytest.raises(CapacityError):
        count_free(7, BlowupSpec(3, 1), ORIENTED)
    with pytest.raises(CapacityError):
        count_free_naive(6, BlowupSpec(3, 1), DIGRAPH)


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------

def test_admits_partition_known_cases():
    assert admits_partition(make_dtr(4, 2), 2, 1)
    assert not admits_partition(make_dtr(4, 2), 1, 1)
    assert admits_partition(blowup(2, 2), 2, 1)
    digon = Digraph.from_arcs(2, [(0, 1), (1, 0)])
    assert admits_partition(digon, 2, 1)
    assert not admits_partition(digon, 1, 1)  # the class holds a digon
    assert admits_partition(digon, 1, 2)      # a digon is not T_2^2


def test_count_partite_oriented_frozen():
    # 27 oriented graphs on 3 vertices; 19 admit a 2-partition with
    # single-arc-free classes
    assert count_partite(3, 2, 1, ORIENTED) == 19


def test_count_partite_matches_assignment_oracle():
    # r = 1 has a single partition; r = 4 exceeds n for every n here, and
    # t = 2 leaves classes that can never die, so the walk's early full
    # count is exercised too
    for mode in (DIGRAPH, ORIENTED):
        for n in range(0, 5):
            for r in (1, 2, 3, 4):
                for t in (1, 2):
                    assert count_partite(n, r, t, mode) == \
                        naive_count_partite(n, r, t, mode), (n, r, t, mode)


def test_count_partite_n5_frozen_values():
    # the oriented values agree with the per-leaf cover search of
    # `admits_partition`; the digraph value took that search 2 minutes
    assert count_partite(5, 2, 1, ORIENTED) == 5881
    assert count_partite(5, 2, 2, ORIENTED) == 59049  # 3^10: nothing dies
    assert count_partite(5, 3, 1, ORIENTED) == 42345
    assert count_partite(5, 2, 1, DIGRAPH) == 36616


def test_one_class_partite_count_equals_free_count():
    # with r = 1 the only partition is V itself, so count_partite counts
    # the blowup(2, t)-free digraphs; for t = 2 every dying partition goes
    # through the chain_exists recheck
    counts = {}
    for mode in (DIGRAPH, ORIENTED):
        for n in range(6):
            for t in (1, 2):
                counts[n, t, mode] = count_partite(n, 1, t, mode)
                assert counts[n, t, mode] == count_free(n, BlowupSpec(2, t), mode), (n, t, mode)
    assert counts[5, 2, ORIENTED] == 42539
    assert counts[5, 2, DIGRAPH] == 301826


# the pruned walk relies on these two properties of admits_partition
digraphs = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.lists(st.integers(0, 3), min_size=comb(n, 2), max_size=comb(n, 2))
    .map(lambda states: Digraph(n, tuple(states))))


@settings(max_examples=150, deadline=None)
@given(g=digraphs, r=st.integers(1, 3), t=st.integers(1, 2), data=st.data())
def test_admits_partition_inherited_by_arc_deletion(g, r, t, data):
    arcs = list(g.arcs())
    assume(arcs)
    u, v = data.draw(st.sampled_from(arcs))
    smaller = Digraph.from_arcs(g.n, [a for a in arcs if a != (u, v)])
    if admits_partition(g, r, t):
        assert admits_partition(smaller, r, t)


@settings(max_examples=150, deadline=None)
@given(g=digraphs, r=st.integers(1, 3), t=st.integers(1, 2), data=st.data())
def test_admits_partition_invariant_under_relabelling(g, r, t, data):
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = Digraph.from_arcs(g.n, [(perm[u], perm[v]) for u, v in g.arcs()])
    assert admits_partition(relabelled, r, t) == admits_partition(g, r, t)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 4), r=st.integers(1, 4), t=st.integers(1, 2),
       mode=st.sampled_from([DIGRAPH, ORIENTED]))
def test_count_partite_monotone_in_r(n, r, t, mode):
    # an r-partition is an (r+1)-partition with one class empty
    assert count_partite(n, r, t, mode) <= count_partite(n, r + 1, t, mode)


def test_census_sizes_are_normalised_to_int():
    assert count_free(np.int64(3), BlowupSpec(3, 1), ORIENTED) == 21
    assert count_partite(3, np.int64(2), True, ORIENTED) == 19
    assert count_partite(True, 1, 1) == 1
    assert admits_partition(make_dtr(4, 2), np.int64(2), True)
    for call in (lambda: count_free(2.0, BlowupSpec(2, 1)),
                 lambda: count_partite(2.0, 2, 1), lambda: count_partite(3, 2.0, 1),
                 lambda: count_partite(3, 2, 1.0),
                 lambda: admits_partition(make_dtr(4, 2), 2.0, 1)):
        with pytest.raises(ValueError):
            call()


def test_lower_bound_partite_frozen_values():
    assert lower_bound_partite(3, 2, 1) == 9
    assert lower_bound_partite(4, 2, 1) == 81
    # for t = 1 the within-class factor is empty: no arc survives inside
    assert lower_bound_partite(5, 2, 1) == 3 ** turan_edges(5, 2)
    # for t = 2 a class of two vertices keeps one arc, hence the 2^1
    assert lower_bound_partite(4, 2, 2) == 3 ** turan_edges(4, 2) * 2


def test_lower_bound_partite_normalises_its_sizes_first():
    # n, r and t are normalised before n // r, so a bad one is named as
    # itself and not as the n it would hand to extremal
    assert lower_bound_partite(np.int64(4), np.int64(2), True) == 81
    for args, name in (((4.0, 2, 1), "n must"), ((4, 2.0, 1), "r and t"),
                       ((4, 2, 1.0), "r and t")):
        with pytest.raises(ValueError, match=name):
            lower_bound_partite(*args)


def test_lower_bound_is_a_lower_bound_digraph_mode():
    for n in (3, 4):
        assert lower_bound_partite(n, 2, 1) <= count_partite(n, 2, 1, DIGRAPH)


def test_ratio_report_fields():
    rep = ratio_report(3, 2, 1, ORIENTED)
    assert rep.spec == BlowupSpec(3, 1)
    assert rep.free_count == 21
    assert rep.partite_count == 19
    assert rep.ratio == Fraction(21, 19)
    assert rep.lower_bound == 9
    assert rep.mode == ORIENTED
    assert "oriented" in rep.lower_bound_note
