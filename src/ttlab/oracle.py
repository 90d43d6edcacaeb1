"""Exhaustive state-space sweeps: the naive oracles.

Everything in this module enumerates *every* digraph on n labelled
vertices (4^C(n,2) of them, or 3^C(n,2) in oriented mode) and evaluates
each one, with no search-tree pruning of any kind.  The point is to give
the clever routines elsewhere in the package something independent to be
checked against.  Containment is one vectorised table of its own over
whole blocks of graphs: for every vertex set, the graphs of a block in
which it splits into a chain of t-sets (defined in the `embed` module
docstring).  Nothing is imported from `embed`, and the tests check the
table row by row against `embed.contains`, the generic embedding
backtracker.

Graph index convention: graph number g (0 <= g < radix**P, P = C(n,2))
has pair p's state equal to digit p of g written big-endian in base
radix.  Ascending index therefore equals ascending lexicographic order
of state tuples, which equals ascending TDG string order, so "smallest
index" and "encode-minimal" mean the same thing.

Decoding: the last m = ceil(P/2) pairs are the low half and the rest the
high half, so g = hi * radix**m + lo.  Each sweep decodes every digit
string of each half once (at most 3^8 = 6,561 or 4^5 = 1,024 rows), and
a block of graphs is a run of whole high rows.  Every graph is still
decoded and tested.

Bit layout: the table tests 64 graphs per machine word.  Each directed
arc (u, v) has one packed uint64 column per block, one bit per graph.
The L low rows are padded to whole words, Lw = ceil(L / 64) words or
Lp = 64 * Lw bits, so high row h of the block starting at h0 holds words
(h - h0) * Lw .. (h - h0 + 1) * Lw - 1, and bit (h - h0) * Lp + l is
graph h * L + l.  The index stays hi * L + lo: ascending index is encode
order within a block, and blocks come in ascending order.  An arc lies in
one half only.  A low arc's words are packed once per sweep and tiled to
a block's high rows; a high arc's word is all ones or all zeros, repeated
Lw times per high row.  The Lp - L padding bits of each row are marked
off by a column `valid`, which cuts every answer, so no padding bit is
ever set in an answer or counted.

Cells: a graph's cell is f2 * w + f1 with w = P + 1.  f1 and f2 add over
the two halves, so each half keeps an int16 cell per row, and a block's
cells are the sum-outer of the two, built a few high rows at a time next
to the free bits unpacked from the table's answer.  The frontier is read
off one table over the cells.  A cell is written once, when its first
free graph turns up, with that graph's index; blocks ascend, so the first
index kept for each cell is its smallest.

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
    _ints,
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
    (n,) = _ints((n,), "n")
    radix = _RADIX[mode]
    for states in product(range(radix), repeat=comb(n, 2)):
        yield Digraph(n, states)


def graph_from_index(n: int, mode: str, index: int) -> Digraph:
    """The digraph numbered `index` in the given mode (module docstring);
    ValueError unless 0 <= index < radix**C(n,2)."""
    require_mode(mode)
    (n,) = _ints((n,), "n")
    radix = _RADIX[mode]
    npairs = comb(n, 2)
    if not 0 <= index < radix ** npairs:
        raise ValueError(f"need 0 <= index < {radix}^{npairs} in {mode} mode, got {index}")
    digits = []
    for p in range(npairs):
        digits.append(index // radix ** (npairs - 1 - p) % radix)
    return Digraph(n, tuple(digits))


# ======================================================================
# vectorised containment: the vertex-set table
# ======================================================================

def _out_columns(states: np.ndarray, n: int) -> list[np.ndarray]:
    """Out-neighbourhood bitmask column per vertex (uint8, so n <= 8)."""
    rows = states.shape[0]
    outs = [np.zeros(rows, np.uint8) for _ in range(n)]
    for p, (i, j) in enumerate(pair_list(n)):
        s = states[:, p]
        outs[i] |= ((s == 1) | (s == 3)).astype(np.uint8) << j
        outs[j] |= ((s == 2) | (s == 3)).astype(np.uint8) << i
    return outs


def _pack(bits: np.ndarray) -> np.ndarray:
    """A 0/1 column as uint64 words, bit l of the column in bit l % 64 of
    word l // 64 (read through the words' bytes), padded with zero bits
    to whole words."""
    return np.packbits(np.pad(bits, (0, -len(bits) % 64)), bitorder="little").view(np.uint64)


def _unpack(words: np.ndarray) -> np.ndarray:
    """The bool column of packed words, padding bits included."""
    return np.unpackbits(words.view(np.uint8), bitorder="little").view(bool)


def _packed_arcs(states: np.ndarray, n: int):
    """Packed arc columns of the graphs given as state rows: arcs[u][v]
    has bit l set iff row l has the arc u -> v (None for u = v), and the
    column valid has bit l set for every row, none for padding."""
    outs = _out_columns(states, n)
    arcs = [[None if u == v else _pack(outs[u] >> v & 1) for v in range(n)] for u in range(n)]
    return arcs, _pack(np.ones(states.shape[0], np.uint8))


def _contains_chunk(arcs, valid, k, t):
    """Packed column: which graphs of a block contain blowup(k, t).

    arcs are the block's packed arc columns (n = len(arcs), possibly 0)
    and valid marks its graphs.  chains[used] is the column of graphs in
    which the vertex set used splits into a chain of t-sets (None: every
    graph).  Level 1 holds every t-set; a level adds a t-set S outside
    used where every vertex of used has the arc to every vertex of S,
    ORed into the entry of used | S, so each set is kept once whatever
    the order of its t-sets.  The last t-set is never picked: a chain of
    k - 1 levels completes where used has t common out-neighbours outside
    it.  High arcs set their padding bits, so the answer is cut to valid
    once, at the end, and no padding bit of it is set.
    """
    n = len(arcs)
    if k * t > n:
        return np.zeros_like(valid)
    if k == 1:
        return valid.copy()
    sets = [sum(1 << v for v in verts) for verts in combinations(range(n), t)]
    chains = dict.fromkeys(sets)
    found = np.zeros_like(valid)
    for level in range(2, k + 1):
        grown = {}
        for used, col in chains.items():
            inside = [a for a in range(n) if used >> a & 1]
            # into[b]: the graphs where every vertex of used has the arc to b
            into = {}
            for b in range(n):
                if not used >> b & 1:
                    into[b] = arcs[inside[0]][b]
                    for a in inside[1:]:
                        into[b] = into[b] & arcs[a][b]
            if level < k:
                for s in sets:
                    if not s & used:
                        x = col
                        for b in into:
                            if s >> b & 1:
                                x = into[b] if x is None else x & into[b]
                        grown[used | s] = grown[used | s] | x if used | s in grown else x
                continue
            # bit-sliced counters: c[j] marks the graphs where at least j + 1
            # of the b so far are common out-neighbours of used (None: none)
            c = [None] * t
            for x in into.values():
                for j in range(t - 1, 0, -1):
                    if c[j - 1] is not None:
                        c[j] = c[j - 1] & x if c[j] is None else c[j] | (c[j - 1] & x)
                c[0] = x if c[0] is None else c[0] | x
            if c[-1] is not None:
                found |= c[-1] if col is None else col & c[-1]
        chains = grown
    found &= valid
    return found


# ======================================================================
# the sweep
# ======================================================================

def _decode_tables(n, mode):
    """Split the pairs into a high half and the last m = ceil(P/2) pairs,
    and decode each half once: index g = hi * radix**m + lo.

    A half's row is the graph with the other half's pairs in state 0,
    which adds no arc.  So each arc of graph g comes from one half's row,
    and g's cell f2 * w + f1 (w = P + 1) is the sum of its rows' cells.
    Returns (hi_arcs, hi_cell) and (lo_arcs, lo_valid, lo_cell):
    - hi_arcs[u][v] holds one word per high row, all ones where the row
      has the arc u -> v and all zeros where not;
    - lo_arcs and lo_valid are the low rows packed (`_packed_arcs`);
    - each cell column holds one int16 per row of its half.
    An arc column is None in the half that does not hold its pair.
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
        single = ((states == 1) | (states == 2)).sum(axis=1, dtype=np.int16)
        halves.append((states, (states == 3).sum(axis=1, dtype=np.int16) * (npairs + 1) + single))
    (hi_states, hi_cell), (lo_states, lo_cell) = halves
    outs = _out_columns(hi_states, n)
    lo_arcs, lo_valid = _packed_arcs(lo_states, n)
    hi_arcs = [[None] * n for _ in range(n)]
    for i, j in pair_list(n)[:npairs - m]:
        for u, v in ((i, j), (j, i)):
            hi_arcs[u][v] = -(outs[u] >> v & 1).astype(np.uint64)  # -1 wraps to all ones
            lo_arcs[u][v] = None
    return (hi_arcs, hi_cell), (lo_arcs, lo_valid, lo_cell)


def _tile(lo, rows):
    """lo's packed columns repeated `rows` times: the low half of a block
    of `rows` high rows, and a prefix of it for any smaller block."""
    lo_arcs, lo_valid, lo_cell = lo
    return ([[None if col is None else np.tile(col, rows) for col in row] for row in lo_arcs],
            np.tile(lo_valid, rows), lo_cell)


def _block(hi, lo, h0, h1):
    """Packed arc columns and valid column of high rows h0 .. h1 - 1
    crossed with every low row, lo `_tile`d for at least h1 - h0 rows.

    High row h takes words (h - h0) * Lw .. (h - h0 + 1) * Lw - 1 of each
    column, Lw = ceil(L / 64) for L low rows, so bit (h - h0) * 64 * Lw + l
    is graph h * L + l.  A low arc's column is a slice of lo's, a high
    arc's its high row's word repeated Lw times."""
    (hi_arcs, _), (lo_arcs, lo_valid, lo_cell) = hi, lo
    lw = -(-lo_cell.shape[0] // 64)
    end = (h1 - h0) * lw

    def column(hi_col, lo_col):
        if lo_col is not None:
            return lo_col[:end]
        return None if hi_col is None else np.repeat(hi_col[h0:h1], lw)

    arcs = [[column(*cols) for cols in zip(*rows)] for rows in zip(hi_arcs, lo_arcs)]
    return arcs, lo_valid[:end]


# About how many graphs each block holds, rounded down to whole high-table
# rows (see the module docstring), at least one.  The seven `oracle_sweep`
# benchmark jobs took, in all (median of five fresh-process runs on a
# 2-core Xeon VM, with the process's peak RSS): 0.245 s and 34.2 MB at
# 2^15 graphs a block, 0.152 s and 34.1 MB at 2^16, 0.113 s and 34.5 MB
# at 2^17, 0.095 s and 35.2 MB at 2^18, with the earlier ordered chain
# walk.  Per-call overhead favours big blocks and columns cost memory, so
# 2^17 keeps peak RSS at that of the one-byte-per-graph walk before it
# (34.4 MB at 2^15, where it took 0.380 s).
_BLOCK = 1 << 17
# About how many graphs of a block are unpacked to bools and cells at a
# time, in whole high rows, at least one.  At 2^17 graphs a block the
# seven jobs peaked at 34.5 MB unpacking 2^15 graphs at a time, 35.1 MB
# at 2^16 and 36.0 MB at 2^17, in about the same time.
_UNPACK = 1 << 15


def sweep(n: int, spec: BlowupSpec, mode: str, threads: int = 1) -> SweepSummary:
    """Full enumeration of all graphs on n vertices in the given mode,
    evaluated against one forbidden blow-up.  Summaries are memoised, so
    repeated queries (e.g. the same instance under three weights) cost
    one sweep.  A summary is seven fields and at most C(n,2) + 1 frontier
    cells, and n is capped by SWEEP_BOUND, so the memo is left unbounded.

    Each block is tested 64 graphs per machine word (module docstring).
    On a 2-core Xeon VM (median of three fresh-process runs) the oriented
    n = 6 sweeps over all 3^15 graphs take 0.05 s (T_3^1), 0.14 s
    (T_4^1), 0.17 s (T_5^1), 0.10 s (T_2^2), 0.12 s (T_3^2) and 0.09 s
    (T_2^3); the digraph n = 5 sweeps over all 4^10 graphs take
    0.003-0.009 s each.

    Blocks run one after another, in index order: with the earlier
    one-byte-per-graph walk, a thread pool over blocks was slower on
    every sweep measured (oriented n = 6 T_2^2 0.56 s against 0.42 s,
    T_3^2 2.42 s against 1.50 s).  threads must be 1; the keyword stays
    only because the benchmark worker (perfbench/worker.py) passes
    threads=1."""
    if threads != 1:
        raise ValueError(f"sweep runs serially; threads must be 1, got {threads}")
    require_mode(mode)
    (n,) = _ints((n,), "n")
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
    hi_cell, lo_cell = hi[1], lo[2]
    hi_rows, lo_rows = hi_cell.shape[0], lo_cell.shape[0]
    lw = -(-lo_rows // 64)
    per = min(hi_rows, max(1, _BLOCK // lo_rows))
    sub = max(1, _UNPACK // lo_rows)
    lo = _tile(lo, per)
    w = comb(n, 2) + 1
    # first[f2 * w + f1]: the first free graph index with that (f1, f2), or -1
    first = np.full(w * w, -1, np.int64)
    free_count = 0
    for h0 in range(0, hi_rows, per):
        h1 = min(h0 + per, hi_rows)
        arcs, valid = _block(hi, lo, h0, h1)
        free = ~_contains_chunk(arcs, valid, k, t)
        for s0 in range(h0, h1, sub):
            s1 = min(s0 + sub, h1)
            # graphs s0 * L .. s1 * L - 1, the padding bits cut off
            bits = _unpack(free[(s0 - h0) * lw:(s1 - h0) * lw]).reshape(s1 - s0, -1)[:, :lo_rows]
            cell = np.add.outer(hi_cell[s0:s1], lo_cell)
            hits = np.bincount(cell[bits], minlength=w * w)
            free_count += int(hits.sum())
            for c in np.flatnonzero((hits > 0) & (first < 0)):
                first[c] = s0 * lo_rows + int(np.argmax(bits & (cell == c)))
    # ascending cells, so each f2's last write carries its largest f1
    frontier = {int(c) // w: (int(c) % w, int(first[c])) for c in np.flatnonzero(first >= 0)}
    return SweepSummary(n=n, mode=mode, k=k, t=t, total=_RADIX[mode] ** comb(n, 2),
                        free_count=free_count, frontier=frontier)
