"""Vectorised enumeration sweeps against per-graph recounts."""

from __future__ import annotations

import gc
from functools import cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlab import (BlowupSpec, CapacityError, DIGRAPH, Digraph, ORIENTED, blowup, contains,
                   is_free, oracle)
from ttlab.oracle import SWEEP_BOUND, graph_from_index, iter_digraphs, sweep

SPECS = [BlowupSpec(2, 1), BlowupSpec(3, 1), BlowupSpec(4, 1),
         BlowupSpec(2, 2), BlowupSpec(3, 2)]


def test_iter_digraphs_counts_and_order():
    digraphs = list(iter_digraphs(2, DIGRAPH))
    assert len(digraphs) == 4
    assert [g.states for g in digraphs] == [(0,), (1,), (2,), (3,)]
    oriented = list(iter_digraphs(2, ORIENTED))
    assert len(oriented) == 3
    assert all(g.is_oriented for g in oriented)
    assert len(list(iter_digraphs(0, DIGRAPH))) == 1


def test_graph_from_index_matches_iteration_order():
    for mode, total in ((DIGRAPH, 4 ** 3), (ORIENTED, 3 ** 3)):
        for idx, g in enumerate(iter_digraphs(3, mode)):
            assert graph_from_index(3, mode, idx) == g
        assert idx == total - 1


@pytest.mark.parametrize("mode", [DIGRAPH, ORIENTED])
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_sweep_frontier_matches_per_graph_recount(mode, spec):
    n = 4
    free = 0
    frontier: dict[int, tuple[int, int]] = {}
    for idx, g in enumerate(iter_digraphs(n, mode)):
        if not is_free(g, spec):
            continue
        free += 1
        cell = frontier.get(g.f2)
        if cell is None or g.f1 > cell[0]:
            frontier[g.f2] = (g.f1, idx)
    summaries = [sweep(n, spec, mode)]
    # blocks of one high-table row (27 or 64 graphs) up to the whole sweep
    for chunk in (1, 7, 64, 100, 4096):
        oracle._SWEEPS.pop((n, mode, spec.k, spec.t))
        summaries.append(sweep(n, spec, mode, chunk=chunk))
    for summary in summaries:
        assert summary.free_count == free
        assert summary.frontier == frontier
        assert summary.total == (4 if mode == DIGRAPH else 3) ** 6


decode_tables = cache(oracle._decode_tables)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 6), mode=st.sampled_from([DIGRAPH, ORIENTED]), data=st.data())
def test_block_decode_matches_graph_from_index(n, mode, data):
    hi, lo = decode_tables(n, mode)
    hi_rows, lo_rows = len(hi[1]), len(lo[1])
    g = data.draw(st.integers(0, hi_rows * lo_rows - 1))
    h = g // lo_rows
    h0 = data.draw(st.integers(max(0, h - 3), h))
    h1 = data.draw(st.integers(h + 1, min(hi_rows, h + 4)))
    outs, f1, f2 = oracle._block(hi, lo, h0, h1)
    pos = g - h0 * lo_rows
    want = graph_from_index(n, mode, g)
    assert [int(col[pos]) for col in outs] == list(want.out_masks)
    assert (int(f1[pos]), int(f2[pos])) == (want.f1, want.f2)


def chunk_args(n, rows):
    """_contains_chunk's arguments for a block of graphs given as state rows."""
    states = np.array(rows, np.uint8).reshape(len(rows), comb(n, 2))
    f1 = ((states == 1) | (states == 2)).sum(axis=1, dtype=np.int16)
    f2 = (states == 3).sum(axis=1, dtype=np.int16)
    return oracle._out_columns(states, n), f1, f2


@st.composite
def blocks(draw):
    n = draw(st.integers(0, 6))
    mode = draw(st.sampled_from([DIGRAPH, ORIENTED]))
    k = draw(st.integers(1, n + 1))
    t = draw(st.integers(1, (n + 1) // k))
    state = st.integers(0, 3 if mode == DIGRAPH else 2)
    rows = draw(st.lists(st.lists(state, min_size=comb(n, 2), max_size=comb(n, 2)),
                         min_size=1, max_size=12))
    return n, k, t, rows


# the chain walk against the embedding backtracker, a different algorithm
@settings(max_examples=300, deadline=None)
@given(block=blocks())
def test_contains_chunk_matches_backtracker_row_by_row(block):
    n, k, t, rows = block
    outs, f1, f2 = chunk_args(n, rows)
    found = oracle._contains_chunk(outs, n, k, t, f1, f2)
    h = blowup(k, t)
    assert found.tolist() == [contains(Digraph(n, tuple(r)), h) is not None for r in rows]


def test_contains_chunk_leaves_no_garbage():
    # a reference cycle would keep each block's columns alive until the
    # collector runs, which shows as peak memory over a sweep
    rng = np.random.default_rng(7)
    outs, f1, f2 = chunk_args(6, rng.integers(0, 4, (4096, comb(6, 2))))
    gc.collect()
    gc.disable()
    try:
        for k in range(2, 6):
            oracle._contains_chunk(outs, 6, k, 1, f1, f2)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("spec", SPECS + [BlowupSpec(5, 1)], ids=str)
def test_digraph_n5_frontier_cells_decode_to_free_graphs(spec):
    summary = sweep(5, spec, DIGRAPH)
    assert summary.frontier
    for f2, (f1, idx) in summary.frontier.items():
        g = graph_from_index(5, DIGRAPH, idx)
        assert (g.f1, g.f2) == (f1, f2)
        assert is_free(g, spec)


def test_sweep_is_memoised_and_thread_count_is_immaterial():
    base = sweep(4, BlowupSpec(3, 1), DIGRAPH)
    again = sweep(4, BlowupSpec(3, 1), DIGRAPH, threads=3, chunk=64)
    assert again is base  # cached summary object


def test_sweep_threads_agree_on_fresh_computation():
    one = sweep(5, BlowupSpec(4, 1), DIGRAPH, threads=1)
    # drop the memo so the threaded run actually recomputes
    oracle._SWEEPS.pop((5, DIGRAPH, 4, 1))
    two = sweep(5, BlowupSpec(4, 1), DIGRAPH, threads=4, chunk=1 << 12)
    assert one == two


def test_sweep_capacity_bounds():
    assert SWEEP_BOUND[DIGRAPH] == 5
    assert SWEEP_BOUND[ORIENTED] == 6
    with pytest.raises(CapacityError):
        sweep(6, BlowupSpec(3, 1), DIGRAPH)
    with pytest.raises(CapacityError):
        sweep(7, BlowupSpec(3, 1), ORIENTED)
