"""Vectorised enumeration sweeps against per-graph recounts."""

from __future__ import annotations

import gc
import json
from functools import cache
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlab import (BlowupSpec, CapacityError, DIGRAPH, Digraph, ORIENTED, Weight, blowup,
                   contains, count_free_naive, extremal_naive, is_free, oracle)
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


def test_graph_from_index_refuses_indices_outside_the_mode():
    for mode, total in ((DIGRAPH, 4 ** 3), (ORIENTED, 3 ** 3)):
        for index in (-1, total, total + 1):
            with pytest.raises(ValueError):
                graph_from_index(3, mode, index)
    assert graph_from_index(0, DIGRAPH, 0) == Digraph(0, ())
    with pytest.raises(ValueError):
        graph_from_index(0, DIGRAPH, 1)


def fresh_summary(monkeypatch, n, spec, mode, block):
    """A sweep computed afresh, past the memo, over blocks of about
    `block` graphs."""
    monkeypatch.setattr(oracle, "_BLOCK", block)
    return oracle._summarise.__wrapped__(n, mode, spec.k, spec.t)


@pytest.mark.parametrize("mode", [DIGRAPH, ORIENTED])
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_sweep_frontier_matches_per_graph_recount(monkeypatch, mode, spec):
    for n in (3, 4):
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
        # a high-table row is 9 or 16 graphs at n = 3 and 27 or 64 at n = 4,
        # so blocks run from less than one word, and from rows that pad to
        # a whole word, up to the whole sweep
        for block in (1, 7, 64, 100, 4096):
            summaries.append(fresh_summary(monkeypatch, n, spec, mode, block))
        for summary in summaries:
            assert summary.free_count == free
            assert summary.frontier == frontier
            assert summary.total == (4 if mode == DIGRAPH else 3) ** comb(n, 2)


decode_tables = cache(oracle._decode_tables)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 6), mode=st.sampled_from([DIGRAPH, ORIENTED]), data=st.data())
def test_block_decode_matches_graph_from_index(n, mode, data):
    hi, lo = decode_tables(n, mode)
    (_, hi_cell), (_, _, lo_cell, order) = hi, lo
    hi_rows, lo_rows = len(hi_cell), len(lo_cell)
    g = data.draw(st.integers(0, hi_rows * lo_rows - 1))
    h, l = divmod(g, lo_rows)
    # bit p of a row is low row order[p]: the low rows come in ascending
    # cell order, each cell's in ascending index
    step = np.diff(lo_cell)
    assert ((step > 0) | ((step == 0) & (np.diff(order) > 0))).all()
    p = int(np.flatnonzero(order == l)[0])
    h0 = data.draw(st.integers(max(0, h - 3), h))
    h1 = data.draw(st.integers(h + 1, min(hi_rows, h + 4)))
    arcs, valid = oracle._block(hi, lo, h0, h1)
    # a high arc varies over the block's rows only and a low arc over its
    # words only; broadcast, row h - h0 holds the graphs h * L + order[p]
    shape = (h1 - h0, -(-lo_rows // 64))

    def bits(col):
        assert col.shape in ((h1 - h0, 1), (shape[1],))
        return oracle._unpack(np.broadcast_to(col, shape).copy()).reshape(h1 - h0, -1)

    want = graph_from_index(n, mode, g)
    for u in range(n):
        assert arcs[u][u] is None
        for v in range(n):
            if v != u:
                assert bits(arcs[u][v])[h - h0, p] == bool(want.out_masks[u] >> v & 1)
    rows = bits(valid)
    assert rows[:, :lo_rows].all() and not rows[:, lo_rows:].any()
    assert hi_cell[h] + lo_cell[p] == want.f2 * (comb(n, 2) + 1) + want.f1


def packed(n, rows):
    """The packed arc and valid columns of a block of graphs given as state rows."""
    return oracle._packed_arcs(np.array(rows, np.uint8).reshape(len(rows), comb(n, 2)), n)


@st.composite
def patterns(draw):
    # n = 7 is one past the oriented sweep bound; the uint8 out-columns hold n <= 8
    n = draw(st.integers(0, 7))
    t = draw(st.integers(1, max(1, n // 2)))
    return n, draw(st.integers(1, n // t + 1)), t, draw(st.sampled_from([DIGRAPH, ORIENTED]))


@st.composite
def blocks(draw):
    n, k, t, mode = draw(patterns())
    # rows just under, at and just over a word, with state frequencies
    # drawn afresh so that sparse, dense and digon-heavy blocks all occur
    count = draw(st.sampled_from([1, 63, 64, 65]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    radix = 4 if mode == DIGRAPH else 3
    rows = rng.choice(radix, (count, comb(n, 2)), p=rng.dirichlet(np.ones(radix)))
    return n, k, t, rows.tolist()


# the vertex-set table against the embedding backtracker, a different algorithm
@settings(max_examples=300, deadline=None)
@given(block=blocks())
def test_contains_chunk_matches_backtracker_row_by_row(block):
    n, k, t, rows = block
    arcs, valid = packed(n, rows)
    # set every padding bit of every arc, as a high arc's all-ones word does
    arcs = [[None if col is None else col | ~valid for col in row] for row in arcs]
    bits = oracle._unpack(oracle._contains_chunk(arcs, valid, k, t))
    h = blowup(k, t)
    assert bits[:len(rows)].tolist() == [contains(Digraph(n, tuple(r)), h) is not None
                                         for r in rows]
    assert not bits[len(rows):].any()  # no padding bit is set


@st.composite
def crossed_blocks(draw):
    # the first `split` pairs are high and the rest low, as in a sweep
    n, k, t, mode = draw(patterns())
    split = draw(st.integers(0, comb(n, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    radix = 4 if mode == DIGRAPH else 3
    # one high row when no pair is high, as in a sweep
    hi = rng.integers(0, radix, (draw(st.integers(1, 4)) if split else 1, comb(n, 2)))
    lo = rng.integers(0, radix, (draw(st.sampled_from([1, 63, 64, 65])), comb(n, 2)))
    hi[:, split:] = 0
    lo[:, :split] = 0
    return n, k, t, split, hi, lo


# a block as a sweep gives it: high arcs of shape (rows, 1), low arcs and
# valid of shape (Lw,), broadcast only where the table mixes them
@settings(max_examples=300, deadline=None)
@given(block=crossed_blocks())
def test_contains_chunk_matches_backtracker_on_crossed_rows(block):
    n, k, t, split, hi, lo = block
    lo_arcs, valid = packed(n, lo.tolist())
    outs = oracle._out_columns(hi.astype(np.uint8), n)
    arcs = [[None] * n for _ in range(n)]
    for p, (i, j) in enumerate(oracle.pair_list(n)):
        for u, v in ((i, j), (j, i)):
            # a high arc's word is all ones or all zeros, padding bits included
            arcs[u][v] = (-(outs[u] >> v & 1).astype(np.uint64)[:, None] if p < split
                          else lo_arcs[u][v])
    found = oracle._contains_chunk(arcs, valid, k, t)
    bits = oracle._unpack(found).reshape(len(hi), -1)
    h = blowup(k, t)
    assert bits[:, :len(lo)].tolist() == [
        [contains(Digraph(n, tuple((x + y).tolist())), h) is not None for y in lo] for x in hi]
    assert not bits[:, len(lo):].any()  # no padding bit is set


def test_contains_chunk_leaves_no_garbage():
    # a reference cycle would keep each block's columns alive until the
    # collector runs, which shows as peak memory over a sweep
    rng = np.random.default_rng(7)
    arcs, valid = packed(6, rng.integers(0, 4, (4096, comb(6, 2))))
    gc.collect()
    gc.disable()
    try:
        for k, t in ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (2, 3)):
            oracle._contains_chunk(arcs, valid, k, t)
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


def test_every_sweep_matches_the_pinned_matrix(monkeypatch):
    # (total, free_count, frontier) of every sweep within the bounds, both
    # modes, k = 1..6 and t = 1..3: witnesses included, a change to the
    # table or the block layout must leave each one as it is
    rows = json.loads(Path(__file__).with_name("sweep_matrix.json").read_text())
    assert sorted((mode, n, k, t) for mode, n, k, t, *_ in rows) == sorted(
        (mode, n, k, t) for mode in (DIGRAPH, ORIENTED) for n in range(SWEEP_BOUND[mode] + 1)
        for k in range(1, 7) for t in range(1, 4))
    pinned = {}
    for mode, n, k, t, total, free_count, frontier in rows:
        pinned[mode, n, k, t] = (total, free_count, {f2: (f1, g) for f2, f1, g in frontier})
        summary = oracle._summarise.__wrapped__(n, mode, k, t)
        assert (summary.total, summary.free_count, summary.frontier) == pinned[mode, n, k, t]
    # oriented n = 6 has 2,187 high rows of 3^8 graphs: blocks of 200 rows
    # leave 187 for the last one
    summary = fresh_summary(monkeypatch, 6, BlowupSpec(3, 1), ORIENTED, 200 * 3 ** 8)
    assert (summary.total, summary.free_count, summary.frontier) == pinned[ORIENTED, 6, 3, 1]


def test_sweep_is_memoised():
    base = sweep(4, BlowupSpec(3, 1), DIGRAPH)
    again = sweep(4, BlowupSpec(3, 1), DIGRAPH)
    assert again is base  # cached summary object


def test_sweep_block_size_is_immaterial_on_fresh_computation(monkeypatch):
    one = sweep(5, BlowupSpec(4, 1), DIGRAPH)
    many = fresh_summary(monkeypatch, 5, BlowupSpec(4, 1), DIGRAPH, 1 << 12)
    assert many is not one
    assert many == one


def test_sweep_refuses_more_than_one_thread():
    with pytest.raises(ValueError):
        sweep(3, BlowupSpec(2, 1), DIGRAPH, threads=2)
    assert sweep(3, BlowupSpec(2, 1), DIGRAPH, threads=1).total == 4 ** 3


def test_sweep_capacity_bounds():
    assert SWEEP_BOUND[DIGRAPH] == 5
    assert SWEEP_BOUND[ORIENTED] == 6
    with pytest.raises(CapacityError):
        sweep(6, BlowupSpec(3, 1), DIGRAPH)
    with pytest.raises(CapacityError):
        sweep(7, BlowupSpec(3, 1), ORIENTED)


def test_sweep_normalises_n_to_int():
    # n goes through core._ints: integer types are kept, a float is refused
    # with ValueError, and so are the naive routes that hand n on and the
    # two per-graph decoders
    assert sweep(np.int64(3), BlowupSpec(2, 1), DIGRAPH) is sweep(3, BlowupSpec(2, 1), DIGRAPH)
    assert type(sweep(np.int64(3), BlowupSpec(2, 1), DIGRAPH).n) is int
    assert type(extremal_naive(np.int64(3), BlowupSpec(3, 1), Weight.rational(2)).n) is int
    assert graph_from_index(np.int64(3), DIGRAPH, 5) == graph_from_index(3, DIGRAPH, 5)
    assert len(list(iter_digraphs(np.int64(2)))) == 4
    for call in (lambda: sweep(3.0, BlowupSpec(2, 1), DIGRAPH),
                 lambda: extremal_naive(3.0, BlowupSpec(3, 1), Weight.rational(2)),
                 lambda: count_free_naive(3.0, BlowupSpec(3, 1)),
                 lambda: graph_from_index(3.0, DIGRAPH, 0),
                 lambda: list(iter_digraphs(2.0))):
        with pytest.raises(ValueError, match="n must be integers"):
            call()
