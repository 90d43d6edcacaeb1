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

Bit layout: the table tests 64 graphs per machine word.  A block of
high rows h0 .. h1 - 1 is a (h1 - h0, Lw) array of uint64 words: the L
low rows are packed in ascending cell order (see Cells), order[p] being
the p-th, and padded to whole words, Lw = ceil(L / 64); bit p % 64 of
word (h - h0, p // 64) is graph h * L + order[p].  So row h - h0 holds
graphs h * L .. h * L + L - 1 and blocks come in ascending index order.
An arc lies in one half only, so each arc column takes the shape it
varies over and numpy broadcasts the rest: a low arc is Lw words, shape
(Lw,), which broadcasts as one row, packed once per sweep; a high arc is
one word per high row, all ones or all zeros, shape (h1 - h0, 1).  Only
a table entry that mixes the halves holds a whole (h1 - h0, Lw) array.
The 64 * Lw - L padding bits of each row are marked off by `valid`,
shape (Lw,), which cuts every answer, so no padding bit is ever set in
an answer or counted.

Cells: a graph's cell is f2 * w + f1 with w = P + 1.  f1 and f2 add over
the two halves, so each half keeps an int16 cell per row, and a graph's
cell is the sum of its rows' cells.  Each low cell is one run of bits in
every row of a block, so a block's free graphs are tallied per high row
and low cell by summing runs of the unpacked answer, and a tally's cell
is the sum of the two.  The frontier is read off one table over the
cells.  A cell is written once, when its first free graph turns up, with
that graph's index: blocks and their rows ascend, and a run holds its
low rows in ascending index, so the first index kept for each cell is
its smallest.

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
    _instance,
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
    (n,) = _ints((n,), "n", 0)
    radix = _RADIX[mode]
    for states in product(range(radix), repeat=comb(n, 2)):
        yield Digraph(n, states)


def graph_from_index(n: int, mode: str, index: int) -> Digraph:
    """The digraph numbered `index` in the given mode (module docstring);
    ValueError unless 0 <= index < radix**C(n,2)."""
    require_mode(mode)
    (n,) = _ints((n,), "n", 0)
    (index,) = _ints((index,), "index", 0)
    radix = _RADIX[mode]
    npairs = comb(n, 2)
    if index >= radix ** npairs:
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
    and valid marks its graphs; they may take any shapes that broadcast
    together (a sweep's are (rows, 1) and (Lw,)), and the answer has
    their broadcast shape.  chains[used] is the column of graphs in
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
    found = np.zeros(np.broadcast_shapes(
        valid.shape, *(col.shape for row in arcs for col in row if col is not None)), valid.dtype)
    if k * t > n:
        return found
    if k == 1:
        return found | valid
    sets = [sum(1 << v for v in verts) for verts in combinations(range(n), t)]
    chains = dict.fromkeys(sets)
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
    Returns (hi_arcs, hi_cell) and (lo_arcs, lo_valid, lo_cell, order):
    - hi_arcs[u][v] holds one word per high row, all ones where the row
      has the arc u -> v and all zeros where not;
    - order lists the low rows by ascending cell, each cell's by index;
      lo_arcs and lo_valid (`_packed_arcs`) and lo_cell hold them in
      that order;
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
    order = np.argsort(lo_cell, kind="stable")
    outs = _out_columns(hi_states, n)
    lo_arcs, lo_valid = _packed_arcs(lo_states[order], n)
    hi_arcs = [[None] * n for _ in range(n)]
    for i, j in pair_list(n)[:npairs - m]:
        for u, v in ((i, j), (j, i)):
            hi_arcs[u][v] = -(outs[u] >> v & 1).astype(np.uint64)  # -1 wraps to all ones
            lo_arcs[u][v] = None
    return (hi_arcs, hi_cell), (lo_arcs, lo_valid, lo_cell[order], order)


def _block(hi, lo, h0, h1):
    """Arc columns and valid column of high rows h0 .. h1 - 1 crossed with
    every low row, each in the shape it varies over and none copied: a
    high arc's column is the view hi_col[h0:h1, None], shape (h1 - h0, 1),
    and a low arc's column and valid are lo's own, shape (Lw,) for L low
    rows, Lw = ceil(L / 64).  Broadcast together they give the
    block's (h1 - h0, Lw) words, in which bit p % 64 of word
    (h - h0, p // 64) is graph h * L + order[p] (`_decode_tables`)."""
    (hi_arcs, _), (lo_arcs, lo_valid, *_) = hi, lo
    return [[lo_col if hi_col is None else hi_col[h0:h1, None] for hi_col, lo_col in zip(*rows)]
            for rows in zip(hi_arcs, lo_arcs)], lo_valid


# About how many graphs each block holds, rounded down to whole high-table
# rows (see the module docstring), at least one.  The seven `oracle_sweep`
# benchmark jobs took, in all (median of five 25 s benchmark runs on a
# 2-core AMD EPYC VM, with the process's peak RSS): 0.035 s and 35.30 MB
# at 2^17 graphs a block, 0.025 s and 35.43 MB at 2^18, and 0.020 s and
# 35.85 MB at 2^19.  Per-call overhead favours big blocks, while a block's
# table and unpacked answer grow with it; 2^18 is the largest that stays
# under the 35.52 MB of 2^17 blocks with tiled low columns.
_BLOCK = 1 << 18


def sweep(n: int, spec: BlowupSpec, mode: str, threads: int = 1) -> SweepSummary:
    """Full enumeration of all graphs on n vertices in the given mode,
    evaluated against one forbidden blow-up.  Summaries are memoised, so
    repeated queries (e.g. the same instance under three weights) cost
    one sweep.  A summary is seven fields and at most C(n,2) + 1 frontier
    cells, and n is capped by SWEEP_BOUND, so the memo is left unbounded.

    Each block is tested 64 graphs per machine word (module docstring).
    On a 2-core AMD EPYC VM (median of five fresh-process runs) the
    oriented n = 6 sweeps over all 3^15 graphs take 0.015 s (T_3^1),
    0.033 s (T_4^1), 0.047 s (T_5^1), 0.017 s (T_2^2), 0.034 s (T_3^2)
    and 0.021 s (T_2^3); the digraph n = 5 sweeps over all 4^10 graphs
    take 0.0012-0.0026 s each.

    Blocks run one after another, in index order: with the earlier
    one-byte-per-graph walk, a thread pool over blocks was slower on
    every sweep measured (oriented n = 6 T_2^2 0.56 s against 0.42 s,
    T_3^2 2.42 s against 1.50 s).  threads must be 1; the keyword stays
    only because the benchmark worker (perfbench/worker.py) passes
    threads=1."""
    if threads != 1:
        raise ValueError(f"sweep runs serially; threads must be 1, got {threads}")
    require_mode(mode)
    (n,) = _ints((n,), "n", 0)
    _instance(spec, BlowupSpec, "spec")
    if n > SWEEP_BOUND[mode]:
        raise CapacityError(
            f"naive enumeration is capped at n = {SWEEP_BOUND[mode]} in {mode} mode (got n = {n})"
        )
    return _summarise(n, mode, spec.k, spec.t)


@cache
def _summarise(n: int, mode: str, k: int, t: int) -> SweepSummary:
    """The sweep itself, one summary per (n, mode, k, t), for valid input."""
    hi, lo = _decode_tables(n, mode)
    hi_cell, (lo_cell, order) = hi[1], lo[2:]
    hi_rows, lo_rows = hi_cell.shape[0], lo_cell.shape[0]
    # runs[j]: the first low bit of the j-th low cell.  A run is summed in
    # pieces of at most 255 bits (cuts; runs[j] is cuts[at[j]]), whose
    # uint8 sums cannot wrap, so no bit is cast to a wider integer
    runs = [0, *(np.flatnonzero(lo_cell[1:] != lo_cell[:-1]) + 1).tolist()]
    cuts = sorted({*runs, *range(0, lo_rows, 255)})
    at = [cuts.index(r) for r in runs]
    per = min(hi_rows, max(1, _BLOCK // lo_rows))
    w = comb(n, 2) + 1
    # first[f2 * w + f1]: the first free graph index with that (f1, f2), or -1
    first = np.full(w * w, -1, np.int64)
    free_count = 0
    for h0 in range(0, hi_rows, per):
        h1 = min(h0 + per, hi_rows)
        free = (~_contains_chunk(*_block(hi, lo, h0, h1), k, t)).reshape(h1 - h0, -1)
        # free graphs per high row and low cell, the padding bits cut off;
        # the bools die here, before the next block's table is built
        pieces = np.add.reduceat(_unpack(free).reshape(h1 - h0, -1)[:, :lo_rows].view(np.uint8),
                                 cuts, axis=1, dtype=np.uint8)
        counts = np.add.reduceat(pieces, at, axis=1, dtype=np.int64)
        free_count += int(counts.sum())
        cell = np.add.outer(hi_cell[h0:h1], lo_cell[runs])
        new = (counts > 0) & (first[cell] < 0)
        # a cell's first tally in index order holds its first graph
        for c in set(cell[new].tolist()):
            s, j = divmod(int(np.argmax(new & (cell == c))), len(runs))
            first[c] = (h0 + s) * lo_rows + order[runs[j] + np.argmax(_unpack(free[s])[runs[j]:])]
    # ascending cells, so each f2's last write carries its largest f1
    frontier = {int(c) // w: (int(c) % w, int(first[c])) for c in np.flatnonzero(first >= 0)}
    return SweepSummary(n=n, mode=mode, k=k, t=t, total=_RADIX[mode] ** comb(n, 2),
                        free_count=free_count, frontier=frontier)
