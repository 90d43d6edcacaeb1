"""Exhaustive state-space sweeps: the naive oracles.

Everything in this module enumerates *every* digraph on n labelled
vertices (4^C(n,2) of them, or 3^C(n,2) in oriented mode) and evaluates
each one, with no search-tree pruning of any kind.  The point is to give
the clever routines elsewhere in the package something independent to be
checked against, so the containment tests here are written as vectorised
numpy kernels over whole blocks of graphs rather than reusing the
per-graph chain search from `embed`.

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

Capacity: oriented mode up to n = 6, digraph mode up to n = 5.  Above
that the sweep refuses rather than grind.
"""

from __future__ import annotations

from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
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

_POP8 = np.array([bin(x).count("1") for x in range(256)], dtype=np.uint8)


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
    require_mode(mode)
    radix = _RADIX[mode]
    npairs = comb(n, 2)
    digits = []
    for p in range(npairs):
        digits.append(index // radix ** (npairs - 1 - p) % radix)
    return Digraph(n, tuple(digits))


# ======================================================================
# vectorised containment kernels
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


def _pairs_inside_table(n: int) -> np.ndarray:
    """table[m] = bitset of ordered pairs (c, d), c != d, both inside mask m."""
    tab = np.zeros(1 << n, np.uint32)
    for m in range(1 << n):
        bits = 0
        q = 0
        for c in range(n):
            for d in range(n):
                if c == d:
                    continue
                if m >> c & 1 and m >> d & 1:
                    bits |= 1 << q
                q += 1
        tab[m] = bits
    return tab


def _contains_t3(outs, n):
    rows = outs[0].shape[0]
    found = np.zeros(rows, bool)
    for u in range(n):
        for v in range(n):
            if u != v:
                found |= ((outs[u] >> v) & 1).astype(bool) & ((outs[u] & outs[v]) != 0)
    return found


def _contains_t4(outs, n):
    rows = outs[0].shape[0]
    tab = _pairs_inside_table(n)
    arcbits = np.zeros(rows, np.uint32)
    q = 0
    for c in range(n):
        for d in range(n):
            if c == d:
                continue
            arcbits |= ((outs[c] >> d) & 1).astype(np.uint32) << q
            q += 1
    found = np.zeros(rows, bool)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            arc = ((outs[a] >> b) & 1).astype(bool)
            inner = (arcbits & tab[outs[a] & outs[b]]) != 0
            found |= arc & inner
    return found


def _contains_22(outs, n):
    rows = outs[0].shape[0]
    found = np.zeros(rows, bool)
    for u1, u2 in combinations(range(n), 2):
        found |= _POP8[outs[u1] & outs[u2]] >= 2
    return found


def _contains_32(outs, n):
    rows = outs[0].shape[0]
    pairs = list(combinations(range(n), 2))
    common = [outs[a] & outs[b] for a, b in pairs]
    masks = [(1 << a) | (1 << b) for a, b in pairs]
    found = np.zeros(rows, bool)
    for ci, c in enumerate(common):
        for qi, d in enumerate(common):
            # c holds neither vertex of pair ci, so it cannot hold a Q meeting ci
            if masks[qi] & masks[ci]:
                continue
            both_in = (c & masks[qi]) == masks[qi]
            found |= both_in & (_POP8[c & d] >= 2)
    return found


def _contains_generic(outs, n, k, t):
    """Level-by-level reachability over allowed-set bitmasks.

    g_j[A] says: a chain of j disjoint t-sets fits inside the vertex set
    A.  Per graph, g_j is a 2^n-bit integer (n <= 6), and the recursion
    g_j[A] = OR over t-subsets P of A of g_{j-1}[A & T(P)] turns into
    vectorised shifts.  Slow but fully general; the named kernels above
    cover the shapes the test-suite leans on.
    """
    rows = outs[0].shape[0]
    full = (1 << n) - 1
    subs = list(combinations(range(n), t))
    sub_masks = [sum(1 << u for u in sel) for sel in subs]
    t_cols = []
    for sel in subs:
        col = np.full(rows, full, np.uint8)
        for u in sel:
            col &= outs[u]
        t_cols.append(col)

    if k == 2:
        found = np.zeros(rows, bool)
        for col in t_cols:
            found |= _POP8[col] >= t
        return found

    # g_1 is graph-independent: subset A works iff |A| >= t
    g_prev: np.ndarray | np.uint64 = np.uint64(
        sum(1 << a for a in range(1 << n) if bin(a).count("1") >= t)
    )
    for level in range(2, k):
        g_new = np.zeros(rows, np.uint64)
        for a in range(1 << n):
            if bin(a).count("1") < level * t:
                continue
            hit = np.zeros(rows, bool)
            for si, smask in enumerate(sub_masks):
                if smask & a != smask:
                    continue
                idx = (t_cols[si] & a).astype(np.uint64)
                hit |= ((g_prev >> idx) & 1).astype(bool)
            g_new |= hit.astype(np.uint64) << np.uint64(a)
        g_prev = g_new

    found = np.zeros(rows, bool)
    for si in range(len(subs)):
        idx = t_cols[si].astype(np.uint64)
        found |= ((g_prev >> idx) & 1).astype(bool)
    return found


def _contains_chunk(outs, n, k, t, f1, f2):
    rows = outs[0].shape[0] if n else f1.shape[0]
    if k * t > n:
        return np.zeros(rows, bool)
    if k == 1:
        return np.ones(rows, bool)
    if (k, t) == (2, 1):
        return (f1 + f2) > 0
    if (k, t) == (3, 1):
        return _contains_t3(outs, n)
    if (k, t) == (4, 1):
        return _contains_t4(outs, n)
    if (k, t) == (2, 2):
        return _contains_22(outs, n)
    if (k, t) == (3, 2):
        return _contains_32(outs, n)
    return _contains_generic(outs, n, k, t)


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


def _sweep_block(n, k, t, hi, lo, h0, h1):
    outs, f1, f2 = _block(hi, lo, h0, h1)
    free = ~_contains_chunk(outs, n, k, t, f1, f2)
    base = h0 * lo[1].shape[0]
    cells: dict[int, tuple[int, int]] = {}
    if free.any():
        for v in np.unique(f2[free]):
            sel = free & (f2 == v)
            f1m = f1[sel].max()
            cells[int(v)] = (int(f1m), base + int(np.argmax(sel & (f1 == f1m))))
    return int(free.sum()), cells


def _merge_cells(target: dict, cells: dict):
    for f2v, (f1m, mi) in cells.items():
        cur = target.get(f2v)
        if cur is None or f1m > cur[0] or (f1m == cur[0] and mi < cur[1]):
            target[f2v] = (f1m, mi)


_SWEEPS: dict[tuple, SweepSummary] = {}


def sweep(n: int, spec: BlowupSpec, mode: str, threads: int = 1,
          chunk: int = 1 << 15) -> SweepSummary:
    """Full enumeration of all graphs on n vertices in the given mode,
    evaluated against one forbidden blow-up.  Summaries are memoised, so
    repeated queries (e.g. the same instance under three weights) cost
    one sweep.

    chunk is about how many graphs each block holds: it is rounded down
    to whole high-table rows (see the module docstring), at least one.
    The default keeps the kernels' temporaries small; at 2^19 graphs a
    block, the generic kernel page-faults on each of them and the
    oriented n = 6 T_5^1 sweep ran 7x slower.  threads > 1 tests blocks
    on a thread pool (numpy drops the interpreter lock inside its
    loops); ties still go to the smallest index."""
    require_mode(mode)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > SWEEP_BOUND[mode]:
        raise CapacityError(
            f"naive enumeration is capped at n = {SWEEP_BOUND[mode]} in {mode} mode (got n = {n})"
        )
    key = (n, mode, spec.k, spec.t)
    hit = _SWEEPS.get(key)
    if hit is not None:
        return hit

    total = _RADIX[mode] ** comb(n, 2)
    hi, lo = _decode_tables(n, mode)
    hi_rows = hi[1].shape[0]
    per = max(1, chunk // lo[1].shape[0])
    blocks = [(h, min(h + per, hi_rows)) for h in range(0, hi_rows, per)]

    def run(block):
        return _sweep_block(n, spec.k, spec.t, hi, lo, *block)

    free_count = 0
    frontier: dict[int, tuple[int, int]] = {}
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, blocks))
    else:
        parts = map(run, blocks)
    for cnt, cells in parts:
        free_count += cnt
        _merge_cells(frontier, cells)

    summary = SweepSummary(
        n=n, mode=mode, k=spec.k, t=spec.t,
        total=total, free_count=free_count, frontier=frontier,
    )
    _SWEEPS[key] = summary
    return summary
