"""Exhaustive state-space sweeps: the naive oracles.

Everything in this module enumerates *every* digraph on n labelled
vertices (4^C(n,2) of them, or 3^C(n,2) in oriented mode) and evaluates
each one, with no search-tree pruning of any kind.  The point is to give
the clever routines elsewhere in the package something independent to be
checked against.  Containment is one vectorised walk of its own over
whole blocks of graphs: the chain of t-sets defined in the `embed`
module docstring, searched for every graph of a block at once.  Nothing
is imported from `embed`, and the tests check the walk row by row
against `embed.contains`, the generic embedding backtracker.

Graph index convention: graph number g (0 <= g < radix**P, P = C(n,2))
has pair p's state equal to digit p of g written big-endian in base
radix.  Ascending index therefore equals ascending lexicographic order
of state tuples, which equals ascending TDG string order, so "smallest
index" and "encode-minimal" mean the same thing.

Decoding: the last m = ceil(P/2) pairs are the low half and the rest the
high half, so g = hi * radix**m + lo.  Each sweep decodes every digit
string of each half once (at most 3^8 = 6,561 or 4^5 = 1,024 rows), and
a block of graphs is a run of whole high rows: each vertex's out-mask
column is the OR-outer of its two half columns, and f1, f2 the
sum-outer.  The outer product raveled row-major runs lo fastest, so
position q of the block starting at high row h0 is graph
h0 * radix**m + q: ascending index is encode order within a block, and
blocks come in ascending order.  Every graph is still decoded and tested.

The frontier is read off one table over the cells (f2, f1).  A cell is
written once, when its first free graph turns up, with that graph's
index; blocks ascend, so the first index kept for each cell is its
smallest.

Capacity: oriented mode up to n = 6, digraph mode up to n = 5.  Above
that the sweep refuses rather than grind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import comb

import numpy as np

from .core import (
    DIGRAPH,
    ORIENTED,
    BlowupSpec,
    CapacityError,
    Digraph,
    pair_list,
    require_mode,
)

SWEEP_BOUND = {DIGRAPH: 5, ORIENTED: 6}
_RADIX = {DIGRAPH: 4, ORIENTED: 3}


@dataclass(frozen=True)
class SweepSummary:
    """Everything a full sweep learns about one (n, spec, mode) instance.

    frontier maps f2 -> (best f1 among free graphs with that f2, smallest
    graph index attaining it).  Any weighted optimum over free graphs can
    be read off the frontier afterwards, so one sweep serves every weight.
    """

    n: int
    mode: str
    k: int
    t: int
    total: int
    free_count: int
    frontier: dict[int, tuple[int, int]]


def iter_digraphs(n: int, mode: str = DIGRAPH):
    """Yield every digraph on n vertices in index (= encoding) order.

    Pure-python companion to the numpy sweep, for small-n cross-checks.
    """
    require_mode(mode)
    radix = _RADIX[mode]
    for states in product(range(radix), repeat=comb(n, 2)):
        yield Digraph(n, states)


def graph_from_index(n: int, mode: str, index: int) -> Digraph:
    """The digraph numbered `index` in the given mode (module docstring);
    ValueError unless 0 <= index < radix**C(n,2)."""
    require_mode(mode)
    radix = _RADIX[mode]
    npairs = comb(n, 2)
    if not 0 <= index < radix ** npairs:
        raise ValueError(f"need 0 <= index < {radix}^{npairs} in {mode} mode, got {index}")
    digits = []
    for p in range(npairs):
        digits.append(index // radix ** (npairs - 1 - p) % radix)
    return Digraph(n, tuple(digits))


# ======================================================================
# vectorised containment: the chain walk
# ======================================================================

def _out_columns(states: np.ndarray, n: int) -> list[np.ndarray]:
    """Out-neighbourhood bitmask column per vertex (uint8, needs n <= 6)."""
    rows = states.shape[0]
    outs = [np.zeros(rows, np.uint8) for _ in range(n)]
    for p, (i, j) in enumerate(pair_list(n)):
        s = states[:, p]
        outs[i] |= ((s == 1) | (s == 3)).astype(np.uint8) << j
        outs[j] |= ((s == 2) | (s == 3)).astype(np.uint8) << i
    return outs


def _chain_walk(outs, sets, t, found, allowed, used, levels):
    """One level of the chain walk, for every row (graph) at once.

    sets lists every t-set as (mask, vertices).  allowed is the column of
    vertex sets the next t-set must lie inside, and levels how many t-sets
    are still to pick.  used holds the vertices the chain has taken so far,
    the same in every row; no row's allowed meets it, so sets meeting it
    are skipped unread.  Rows where a set is not inside allowed get
    allowed = 0 below it, so they fail every test further down.  The last
    set is never picked: a chain completes where allowed & T(S) of the
    one before it still holds t vertices.  found collects the rows that
    hold a chain.
    """
    for mask, verts in sets:
        if mask & used:
            continue
        nxt = allowed & outs[verts[0]]
        for v in verts[1:]:
            nxt &= outs[v]
        inside = (allowed & mask) == mask
        if levels == 1:
            # x & (x - 1) drops x's lowest vertex (0 - 1 wraps to 255, so 0
            # stays 0): nxt is nonzero after t - 1 drops iff it held t vertices
            for _ in range(t - 1):
                nxt &= nxt - 1
            hit = nxt != 0
            hit &= inside
            found |= hit
        else:
            nxt *= inside  # zero, in place, the rows where the set does not fit
            _chain_walk(outs, sets, t, found, nxt, used | mask, levels - 1)


def _contains_chunk(outs, n, k, t, rows):
    """Bool column: which of the block's `rows` graphs contain blowup(k, t).

    The row count is passed because outs is empty when n = 0."""
    if k * t > n:
        return np.zeros(rows, bool)
    if k == 1:
        return np.ones(rows, bool)
    sets = [(sum(1 << v for v in verts), verts) for verts in combinations(range(n), t)]
    found = np.zeros(rows, bool)
    _chain_walk(outs, sets, t, found, np.full(rows, (1 << n) - 1, np.uint8), 0, k - 1)
    return found


# ======================================================================
# the sweep
# ======================================================================

def _decode_tables(n, mode):
    """Split the pairs into a high half and the last m = ceil(P/2) pairs,
    and decode each half once: index g = hi * radix**m + lo.

    Returns (hi, lo), each an (out-mask columns, f1, f2) triple with one
    row per digit string of its half.  A half's row is the graph with the
    other half's pairs in state 0, which adds no arc, so graph g's
    out-masks are hi's row OR lo's row and its f1, f2 are the sums.
    """
    radix = _RADIX[mode]
    npairs = comb(n, 2)
    m = (npairs + 1) // 2
    halves = []
    for first, width in ((0, npairs - m), (npairs - m, m)):
        digits = np.arange(radix ** width)
        states = np.zeros((digits.shape[0], npairs), np.uint8)
        for p in range(width):
            states[:, first + p] = digits // radix ** (width - 1 - p) % radix
        single = (states == 1) | (states == 2)
        halves.append((_out_columns(states, n),
                       single.sum(axis=1, dtype=np.int16),
                       (states == 3).sum(axis=1, dtype=np.int16)))
    return halves


def _block(hi, lo, h0, h1):
    """Out-mask columns, f1 and f2 of high rows h0 .. h1 - 1 crossed with
    every low row: graphs h0*L .. h1*L - 1 in index order, L low rows."""
    (hi_out, hi_f1, hi_f2), (lo_out, lo_f1, lo_f2) = hi, lo
    outs = [np.bitwise_or.outer(h[h0:h1], l).ravel() for h, l in zip(hi_out, lo_out)]
    return (outs, np.add.outer(hi_f1[h0:h1], lo_f1).ravel(),
            np.add.outer(hi_f2[h0:h1], lo_f2).ravel())


# About how many graphs each block holds, rounded down to whole high-table
# rows (see the module docstring), at least one.  The seven `oracle_sweep`
# benchmark jobs took 0.46-0.50 s in all at 2^15 graphs a block,
# 0.37-0.41 s at 2^17 and 1.11-1.28 s at 2^13 (three fresh-process runs
# each on a 2-core Xeon VM).  2^17 is faster, but its larger block columns
# raise peak memory from 30.1 to 33.7 MB on the same jobs.
_BLOCK = 1 << 15


def sweep(n: int, spec: BlowupSpec, mode: str, threads: int = 1) -> SweepSummary:
    """Full enumeration of all graphs on n vertices in the given mode,
    evaluated against one forbidden blow-up.  Summaries are memoised, so
    repeated queries (e.g. the same instance under three weights) cost
    one sweep.  A summary is seven fields and at most C(n,2) + 1 frontier
    cells, and n is capped by SWEEP_BOUND, so the memo is left unbounded.

    Blocks run one after another, in index order: a thread pool over
    blocks was slower on every sweep measured (oriented n = 6 T_2^2
    0.56 s against 0.42 s, T_3^2 2.42 s against 1.50 s).  threads must
    be 1; the keyword stays only because the benchmark worker
    (perfbench/worker.py) passes threads=1."""
    if threads != 1:
        raise ValueError(f"sweep runs serially; threads must be 1, got {threads}")
    require_mode(mode)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > SWEEP_BOUND[mode]:
        raise CapacityError(
            f"naive enumeration is capped at n = {SWEEP_BOUND[mode]} in {mode} mode (got n = {n})"
        )
    return _summarise(n, mode, spec.k, spec.t)


@cache
def _summarise(n: int, mode: str, k: int, t: int) -> SweepSummary:
    """The sweep itself, one summary per (n, mode, k, t), for valid input."""
    hi, lo = _decode_tables(n, mode)
    hi_rows, lo_rows = hi[1].shape[0], lo[1].shape[0]
    per = max(1, _BLOCK // lo_rows)
    w = comb(n, 2) + 1
    # first[f2 * w + f1]: the first free graph index with that (f1, f2), or -1
    first = np.full(w * w, -1, np.int64)
    free_count = 0
    for h0 in range(0, hi_rows, per):
        outs, f1, f2 = _block(hi, lo, h0, min(h0 + per, hi_rows))
        free = ~_contains_chunk(outs, n, k, t, f1.shape[0])
        cell = f2 * w + f1
        hits = np.bincount(cell[free], minlength=w * w)
        free_count += int(hits.sum())
        for c in np.flatnonzero((hits > 0) & (first < 0)):
            first[c] = h0 * lo_rows + int(np.argmax(free & (cell == c)))
    # ascending cells, so each f2's last write carries its largest f1
    frontier = {int(c) // w: (int(c) % w, int(first[c])) for c in np.flatnonzero(first >= 0)}
    return SweepSummary(n=n, mode=mode, k=k, t=t, total=_RADIX[mode] ** comb(n, 2),
                        free_count=free_count, frontier=frontier)
