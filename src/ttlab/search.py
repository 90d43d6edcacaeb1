"""Weighted extremal numbers and distance to the Turan construction.

extremal(n, spec, a) maximises the weighted size a*f2 + f1 over all
digraphs on n vertices containing no copy of blowup(spec.k, spec.t).
The search is a branch and bound over pair states, run on `_free_walk`,
the depth-first walk over free digraphs that `census.count_free` also
uses:

* pairs are decided in the canonical lexicographic order, states tried
  densest-first (BOTH, FWD, BWD, NO_ARC; oriented mode drops BOTH), as
  listed in PAIR_CHOICES;
* freeness is maintained incrementally: a newly decided arc u -> v is
  legal iff no copy of the blow-up places u strictly before v, which
  `embed.arc_completes_blowup` decides on the decided arcs only;
* extremal adds a bound: a node is pruned when even granting every
  undecided pair the maximum state weight cannot beat the incumbent
  (compared exactly on the integer keys of `Weight`, tabulated once per
  call, never in floating point); states later in the order can only do
  worse, so the first failing state ends the level;
* the incumbent starts at the bidirected Turan digraph make_dtr(n, k-1)
  (oriented mode: the same partition with all cross arcs pointing
  forward), so the search begins from the construction conjectured to
  be extremal and only ever improves on it.

Because pruning discards exactly the subtrees that cannot strictly beat
the incumbent, the returned value is the true maximum and the witness is
deterministic: it is the encode-minimal optimum among those the fixed
search order encounters (the initial construction counts as
encountered).

extremal_naive answers the same question by full enumeration (the
`oracle` sweep) with no pruning at all, and is the cross-check for the
solver.  edit_distance_to_dtr measures how many single-arc edits
separate a digraph from make_dtr(n, r), minimised over all partitions
with balanced (Turan) part sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .core import (
    BOTH,
    BWD,
    DIGRAPH,
    FWD,
    MAX_VERTICES,
    NO_ARC,
    ORIENTED,
    BlowupSpec,
    CapacityError,
    Digraph,
    Partition,
    Weight,
    WeightedValue,
    make_dtr,
    pair_index,
    pair_list,
    require_mode,
    turan_part_sizes,
)
from .embed import arc_completes_blowup, is_free

EDIT_MAX_VERTICES = 12

#: arc edits needed on a pair that ends up inside a part / across parts
_INSIDE_COST = {NO_ARC: 0, FWD: 1, BWD: 1, BOTH: 2}
_CROSS_COST = {NO_ARC: 2, FWD: 1, BWD: 1, BOTH: 0}


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    spec: BlowupSpec
    weight: Weight
    mode: str
    best: WeightedValue
    witness: Digraph
    explored: int


@dataclass(frozen=True)
class EditDistanceResult:
    r: int
    distance: int
    partition: Partition


#: the states a pair may take in each mode, densest first, as
#: (arc i -> j, arc j -> i, single arcs added, digons added)
PAIR_CHOICES = {
    DIGRAPH: ((1, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 0)),  # BOTH, FWD, BWD, NO_ARC
    ORIENTED: ((1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 0)),  # FWD, BWD, NO_ARC
}


def _free_walk(n: int, spec: BlowupSpec, mode: str, bound=None, leaf=None) -> tuple[int, int]:
    """Depth-first walk over the spec-free digraphs on n vertices.

    Pairs are decided in `pair_list` order, each trying the states of
    PAIR_CHOICES[mode] in turn.  A child is skipped when one of its new
    arcs completes a copy (checked i -> j, then j -> i); nothing below a
    copy is free, so every leaf reached is free.  bound(d, f1, f2), with
    f1 and f2 counted after deciding pair d, is asked before the check,
    and a True answer ends the level.  leaf(out_masks, f1, f2) is called
    at every leaf.  Returns (leaves, explored), where explored counts the
    root and every child entered.
    """
    k, t = spec.k, spec.t
    pairs = pair_list(n)
    npairs = len(pairs)
    choices = PAIR_CHOICES[mode]
    out = [0] * n
    leaves = 0
    explored = 1  # the root

    def down(d: int, f1: int, f2: int):
        nonlocal leaves, explored
        if d == npairs:
            leaves += 1
            if leaf is not None:
                leaf(out, f1, f2)
            return
        i, j = pairs[d]
        oi, oj = out[i], out[j]
        for fwd, bwd, d1, d2 in choices:
            nf1 = f1 + d1
            nf2 = f2 + d2
            if bound is not None and bound(d, nf1, nf2):
                break
            if fwd:
                out[i] = oi | 1 << j
            if bwd:
                out[j] = oj | 1 << i
            if not (fwd and arc_completes_blowup(out, n, k, t, i, j)
                    or bwd and arc_completes_blowup(out, n, k, t, j, i)):
                explored += 1
                down(d + 1, nf1, nf2)
            out[i] = oi
            out[j] = oj

    down(0, 0, 0)
    return leaves, explored


def extremal(n: int, spec: BlowupSpec, a: Weight, mode: str = DIGRAPH) -> ExtremalResult:
    """Exact maximum of a*f2 + f1 over blow-up-free digraphs on n vertices.

    mode="oriented" restricts the search to digraphs with no digon.
    Measured on a 2-core Xeon VM at a = 2, digraph mode: n = 6, T_3^1
    takes about 0.6 s (167,205 nodes) and n = 7 about 2 minutes
    (23,770,251 nodes).  The hard capacity bound is 16 vertices.
    Forbidding blowup(1, t) is refused: every digraph on >= t vertices
    contains it, so no maximum exists.
    """
    require_mode(mode)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > MAX_VERTICES:
        raise CapacityError(f"{n} vertices exceeds the capacity bound {MAX_VERTICES}")
    if spec.k < 2:
        raise ValueError("forbidding a k=1 blow-up leaves no free digraphs to maximise over")

    pairs = pair_list(n)
    npairs = len(pairs)

    start = make_dtr(n, spec.k - 1)
    if mode != DIGRAPH:
        # the same partition with every cross arc pointing forward
        start = Digraph(n, tuple(s & FWD for s in start.states))
    if not is_free(start, spec):  # cannot happen; guard the incumbent anyway
        start = Digraph.empty(n)

    # exact comparison keys of every reachable (f1, f2), f1 + f2 <= C(n, 2)
    keys = [[a._key(f1, f2) for f2 in range(npairs + 1 - f1)] for f1 in range(npairs + 1)]
    best_f1, best_f2 = start.f1, start.f2
    best_key = keys[best_f1][best_f2]
    best_states = start.states
    digraph = mode == DIGRAPH

    def bound(d: int, f1: int, f2: int) -> bool:
        # granting every undecided pair its densest state cannot beat the
        # incumbent; states come densest first, so no later one can either
        rem = npairs - d - 1
        return (keys[f1][f2 + rem] if digraph else keys[f1 + rem][f2]) <= best_key

    def leaf(out, f1: int, f2: int):
        # pruning admitted this leaf, so it strictly beats the incumbent
        nonlocal best_f1, best_f2, best_key, best_states
        best_f1, best_f2, best_key = f1, f2, keys[f1][f2]
        best_states = tuple((out[i] >> j & 1) | (out[j] >> i & 1) << 1 for i, j in pairs)

    _, explored = _free_walk(n, spec, mode, bound, leaf)
    return ExtremalResult(
        n=n, spec=spec, weight=a, mode=mode,
        best=WeightedValue(best_f1, best_f2, a),
        witness=Digraph(n, best_states),
        explored=explored,
    )


def extremal_naive(n: int, spec: BlowupSpec, a: Weight, mode: str = DIGRAPH,
                   threads: int = 1) -> ExtremalResult:
    """Same maximum as `extremal`, by unpruned full enumeration.

    Capped at n <= 5 (digraph mode) / n <= 6 (oriented mode).  The
    witness is the encode-minimal optimum over *all* graphs, and
    `explored` is the full state-space size.
    """
    summary = oracle.sweep(n, spec, mode, threads=threads)
    if not summary.frontier:
        # only possible when k = 1 and n >= t: every digraph contains the pattern
        raise ValueError(f"no {spec}-free digraphs on {n} vertices")
    best_pair: tuple[int, int] | None = None
    best_idx = -1
    for f2v in sorted(summary.frontier):
        f1m, mi = summary.frontier[f2v]
        if best_pair is None or a.compare((f1m, f2v), best_pair) > 0:
            best_pair, best_idx = (f1m, f2v), mi
        elif a.compare((f1m, f2v), best_pair) == 0 and mi < best_idx:
            best_idx = mi
    return ExtremalResult(
        n=n, spec=spec, weight=a, mode=mode,
        best=WeightedValue(best_pair[0], best_pair[1], a),
        witness=oracle.graph_from_index(n, mode, best_idx),
        explored=summary.total,
    )


def edit_distance_to_dtr(g: Digraph, r: int) -> EditDistanceResult:
    """Fewest single-arc edits taking G to make_dtr(n, r), minimised over
    all partitions with balanced part sizes.

    An edit adds or removes one arc: arcs inside a part must go, missing
    cross arcs must appear (a digon-less cross pair costs 2).  Parts are
    interchangeable, so the search places vertices one at a time and only
    opens the first empty part of each size.  Deterministic: the first
    partition attaining the minimum (in search order) is reported.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    n = g.n
    if n > EDIT_MAX_VERTICES:
        raise CapacityError(
            f"edit distance enumerates partitions and is capped at {EDIT_MAX_VERTICES} vertices"
        )
    sizes = turan_part_sizes(n, r)
    best: int | None = None
    best_assign: list[int] | None = None
    assign = [-1] * n
    occupancy = [0] * r

    def place(v: int, cost: int):
        nonlocal best, best_assign
        if best is not None and cost >= best:
            return
        if v == n:
            best, best_assign = cost, assign.copy()
            return
        for p in range(r):
            if occupancy[p] == sizes[p]:
                continue
            if occupancy[p] == 0 and any(
                sizes[q] == sizes[p] and occupancy[q] == 0 for q in range(p)
            ):
                continue  # identical empty parts are interchangeable
            delta = 0
            for u in range(v):
                s = g.states[pair_index(n, u, v)]
                delta += _INSIDE_COST[s] if assign[u] == p else _CROSS_COST[s]
            assign[v] = p
            occupancy[p] += 1
            place(v + 1, cost + delta)
            assign[v] = -1
            occupancy[p] -= 1

    place(0, 0)
    assert best is not None and best_assign is not None
    return EditDistanceResult(r=r, distance=best, partition=Partition(r, tuple(best_assign)))
