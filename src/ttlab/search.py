"""Weighted extremal numbers and distance to the Turan construction.

extremal(n, spec, a) maximises the weighted size a*f2 + f1 over all
digraphs on n vertices containing no copy of blowup(spec.k, spec.t).
The search is a branch and bound over pair states, run on `_free_walk`,
the depth-first walk over free digraphs that `census` also uses to
attach a vertex to each isomorphism class of `count_free`:

* pairs are decided in the canonical lexicographic order, states tried
  densest-first (BOTH, FWD, BWD, NO_ARC; oriented mode drops BOTH), as
  listed in PAIR_CHOICES;
* freeness is maintained incrementally: a newly decided arc u -> v is
  legal iff no copy of the blow-up places u strictly before v, which
  `embed.arc_completes_blowup` decides on the decided arcs only, from
  the out- and in-masks the walk keeps;
* extremal adds a bound: a node is pruned when even granting every
  undecided pair the maximum state weight cannot beat the incumbent
  (compared exactly on `Weight`'s integer keys, tabulated per cell
  f2 * w + f1 of (f1, f2), never in floating point); states later in
  the order can only do worse, so the first failing state ends the level;
* extremal also cuts with ex_a(n-1), computed first by the same search
  on n - 1 vertices (and so on down, each size once per call).  G - v is
  free whenever G is, and each pair survives n - 2 of the n deletions,
  so (n-2) * e_a(G) <= n * ex_a(n-1) (Katona-Nemetz-Simonovits): when
  the incumbent meets that averaging cap the search ends at the root.
  And a G beating the incumbent B has deg_a(v) > e_a(B) - ex_a(n-1) at
  every vertex: after each pair the walk grants the undecided pairs at
  both endpoints their densest state and ends the level when either
  endpoint falls to that degree floor;
* the incumbent starts at the bidirected Turan digraph make_dtr(n, k-1)
  (oriented mode: the same partition with all cross arcs pointing
  forward), so the search begins from the construction conjectured to
  be extremal and only ever improves on it;
* the walk enters each mirror-image subtree once.  Reversing every arc,
  or relabelling the vertices, maps a copy of the blow-up to a copy and
  keeps f1 and f2.  At pair (i, j) the BWD child is therefore the image
  of the FWD child whenever such a map fixes the decided pairs: reversal
  when every decided pair is BOTH or NO_ARC, or the swap (i i+1) when
  j = i + 1 and i and i + 1 have the same states towards every earlier
  vertex (the swap then permutes the undecided pairs among themselves).
  extremal skips the BWD child, as after the FWD child the incumbent is
  at least its best leaf, which the mirror image cannot strictly beat.
  This cut is extremal's alone: the census counts each isomorphism
  class once (`orbits`), which covers every relabelling, not only these
  two maps.

Because every cut discards only subtrees that cannot strictly beat the
incumbent, the returned value is the true maximum and the witness is
deterministic: it is the encode-minimal optimum among those the fixed
search order encounters (the initial construction counts as
encountered).  The cuts change how many nodes are visited, never the
sequence of incumbents; the mirror rule only removes nodes, so
`explored` only falls under it.  `explored` counts every node the call
entered, over the whole chain of sizes.

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
    _instance,
    _ints,
    make_dtr,
    pair_list,
    require_mode,
    turan_part_sizes,
)
from .embed import arc_completes_blowup

EDIT_MAX_VERTICES = 12


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


#: the states a pair may take in each mode, densest first
PAIR_CHOICES = {DIGRAPH: (BOTH, FWD, BWD, NO_ARC), ORIENTED: (FWD, BWD, NO_ARC)}


def _free_walk(n: int, spec: BlowupSpec, mode: str, out: list[int], pairs,
               found: list | None = None, keys=None, best=None,
               sub: int = 0) -> tuple[int, int]:
    """Depth-first walk over the spec-free completions of a free digraph.

    out holds the out-masks of a spec-free digraph on n vertices, and the
    walk decides `pairs` in order, each trying the states of
    PAIR_CHOICES[mode] in turn.  A child is skipped when one of its new
    arcs completes a copy (checked i -> j, then j -> i); nothing below a
    copy is free, so every leaf reached is free.  Returns
    (leaves, explored), where explored counts the root and every child
    entered; given found, each leaf's out-masks are appended to it as a
    tuple.  `census._free_attachments` walks the pairs (0, m) ...
    (m - 1, m) from the masks of a class on m vertices, to attach vertex
    m.

    The walk keeps the in-masks `inn` beside the out-masks `out`, and the
    arc check reads both.  A child of pair (i, j) sets the bits of its
    arcs in out[i], out[j], inn[i] and inn[j] only, and restores those
    four entries when it returns, so no check rebuilds an in-mask.

    Given keys, the walk is the `extremal` branch and bound, from the
    empty digraph over pair_list(n).  It carries each (f1, f2) as one
    cell f2 * w + f1, w = C(n, 2) + 1; cells add as the pairs do, and
    keys[c] is `Weight._key` of the pair in cell c.  best is the
    incumbent [key, out-masks or None], and sub is the cell of
    ex_a(n - 1).  Every undecided pair is granted the densest state (a
    digon, or a single arc in oriented mode).  A child is cut, before its
    arc check, when the granted total, or the granted degree of i or of j
    plus sub, has a key <= best[0]; states come densest first, so the
    first cut ends the level.  Each leaf reached strictly beats the
    incumbent and is written into best.

    The branch and bound also skips the BWD child of pair (i, j) when it
    is the mirror image of the FWD child: when every decided pair is
    BOTH or NO_ARC (arc reversal fixes them; `down` carries this as
    `mirror`), or when j = i + 1 and out[i] == out[j] and
    inn[i] == inn[j] (the swap (i i+1) fixes them; at that pair the four
    masks hold only arcs to and from vertices below i).  None of its
    leaves can strictly beat the incumbent the FWD child left, so none
    would be written and the sequence of incumbents is the unpruned
    walk's.
    """
    k, t = spec.k, spec.t
    npairs = len(pairs)
    w = npairs + 1
    # the cell granted to one undecided pair
    g = w if mode == DIGRAPH else 1
    # per state: its arcs, how far its cell falls short of the granted one,
    # whether it is BWD (the mirror of FWD) and whether reversal fixes it
    steps = [(s & FWD, s & BWD, (s == BOTH) * w + (s in (FWD, BWD)) - g,
              s == BWD, s in (BOTH, NO_ARC))
             for s in PAIR_CHOICES[mode]]
    out = list(out)
    # in-masks of the same digraph, for the arc check
    inn = [sum(1 << u for u in range(n) if out[u] >> v & 1) for v in range(n)]
    # granted degree cell of each vertex plus sub: the degree floor
    deg = [sub + g * (n - 1)] * n
    leaves = 0
    explored = 1  # the root

    def down(d: int, c: int, mirror: bool):
        # c: the granted total's cell, equal to the true one at a leaf;
        # mirror: every decided pair is BOTH or NO_ARC
        nonlocal leaves, explored
        if d == npairs:
            leaves += 1
            if best is not None:
                best[:] = keys[c], out.copy()
            elif found is not None:
                found.append(tuple(out))
            return
        i, j = pairs[d]
        oi, oj, ii, ij = out[i], out[j], inn[i], inn[j]
        if keys is not None:
            di, dj = deg[i], deg[j]
            # reversal, or the swap (i i+1), maps the FWD child onto the BWD
            # one; at pair (i, i+1) the four masks hold only arcs with x < i
            twin = mirror or j == i + 1 and oi == oj and ii == ij
        for fwd, bwd, e, is_bwd, fixed in steps:
            if keys is not None:
                top = best[0]
                if keys[c + e] <= top or keys[di + e] <= top or keys[dj + e] <= top:
                    break
                if is_bwd and twin:
                    continue  # no leaf of the mirror image beats the incumbent now
            if fwd:
                out[i] = oi | 1 << j
                inn[j] = ij | 1 << i
            if bwd:
                out[j] = oj | 1 << i
                inn[i] = ii | 1 << j
            if not (fwd and arc_completes_blowup(out, inn, n, k, t, i, j)
                    or bwd and arc_completes_blowup(out, inn, n, k, t, j, i)):
                explored += 1
                if keys is not None:
                    deg[i] = di + e
                    deg[j] = dj + e
                down(d + 1, c + e, mirror and fixed)
            out[i] = oi
            out[j] = oj
            inn[i] = ii
            inn[j] = ij
        if keys is not None:
            deg[i], deg[j] = di, dj

    down(0, g * npairs, True)
    return leaves, explored


def extremal(n: int, spec: BlowupSpec, a: Weight, mode: str = DIGRAPH) -> ExtremalResult:
    """Exact maximum of a*f2 + f1 over blow-up-free digraphs on n vertices.

    mode="oriented" restricts the search to digraphs with no digon.  The
    search runs for m = 2, ..., n in turn, and each m is cut with
    ex_a(m - 1) from the one before it: it ends at the root when the
    incumbent meets the averaging cap m/(m - 2) * ex_a(m - 1), and the
    walk applies the degree floor.  `explored` counts every node of the
    whole chain.  Measured on a shared 2-core Xeon VM at a = 2, digraph
    mode (medians of six runs, which spread by up to 40%): T_3^1 takes
    about 0.001 s at n = 6 (245 nodes), 0.14 s at n = 7 (63,885 nodes)
    and 0.16 s at n = 8, which ends at the root; T_4^1 at n = 8 takes
    about 1.6 s (427,737 nodes), T_2^2 at n = 6 about 0.8 s (222,045
    nodes) and T_3^2 at n = 7 about 0.9 s (87,882 nodes).  The hard
    capacity bound is 16 vertices.
    Forbidding blowup(1, t) is refused: every digraph on >= t vertices
    contains it, so no maximum exists.
    """
    require_mode(mode)
    _instance(a, Weight, "weight")
    _instance(spec, BlowupSpec, "spec")
    (n,) = _ints((n,), "n", 0)
    if n > MAX_VERTICES:
        raise CapacityError(f"{n} vertices exceeds the capacity bound {MAX_VERTICES}")
    if spec.k < 2:
        raise ValueError("forbidding a k=1 blow-up leaves no free digraphs to maximise over")

    best = Digraph.empty(n)  # n <= 1: the only digraph
    explored = 1 if n < 2 else 0
    for m in range(2, n + 1):
        # best is the optimum on m - 1 vertices
        best, nodes = _extremal_step(m, spec, a, mode, (best.f1, best.f2))
        explored += nodes
    return ExtremalResult(
        n=n, spec=spec, weight=a, mode=mode,
        best=WeightedValue(best.f1, best.f2, a),
        witness=best,
        explored=explored,
    )


def _extremal_step(n: int, spec: BlowupSpec, a: Weight, mode: str,
                   sub: tuple[int, int]) -> tuple[Digraph, int]:
    """The optimum on n >= 2 vertices and the nodes spent, given
    sub = (f1, f2) of ex_a(n - 1).

    Deleting a vertex keeps a digraph free, and each pair survives n - 2
    of the n deletions, so (n - 2) * e_a(G) <= n * ex_a(n - 1): once the
    incumbent meets that cap the root is the whole search.  Likewise a G
    beating the incumbent B has deg_a(v) > e_a(B) - ex_a(n - 1) at every
    vertex v, the floor `_free_walk` applies.
    """
    w = n * (n - 1) // 2 + 1
    # free: a copy's k levels are pairwise joined by arcs, and no arc lies
    # inside one of the k - 1 parts
    start = make_dtr(n, spec.k - 1)
    if mode != DIGRAPH:
        # the same partition with every cross arc pointing forward
        start = Digraph(n, tuple(s & FWD for s in start.states))
    # (n-2) * e_a(B) >= n * ex_a(n-1), exactly: e_a is linear in (f1, f2)
    if n > 2 and a.compare(((n - 2) * start.f1, (n - 2) * start.f2),
                           (n * sub[0], n * sub[1])) >= 0:
        return start, 1

    # exact comparison keys of every cell f2 * w + f1, f1, f2 <= C(n, 2)
    keys = [a._key(c % w, c // w) for c in range(w * w)]
    best = [keys[start.f2 * w + start.f1], None]
    _, explored = _free_walk(n, spec, mode, [0] * n, pair_list(n), keys=keys, best=best,
                             sub=sub[1] * w + sub[0])
    out = best[1]
    if out is None:
        return start, explored
    return Digraph.from_arcs(n, ((u, v) for u in range(n) for v in range(n)
                                 if out[u] >> v & 1)), explored


def extremal_naive(n: int, spec: BlowupSpec, a: Weight, mode: str = DIGRAPH) -> ExtremalResult:
    """Same maximum as `extremal`, by unpruned full enumeration.

    Capped at n <= 5 (digraph mode) / n <= 6 (oriented mode).  The
    witness is the encode-minimal optimum over *all* graphs, and
    `explored` is the full state-space size.
    """
    _instance(a, Weight, "weight")
    summary = oracle.sweep(n, spec, mode)
    n = summary.n
    if not summary.frontier:
        # only possible when k = 1 and n >= t: every digraph contains the pattern
        raise ValueError(f"no {spec}-free digraphs on {n} vertices")
    # frontier cells hold distinct indices, so the optimum of smallest
    # index wins and f1, f2 never decide
    _, neg_index, f1, f2 = max((a._key(f1, f2), -index, f1, f2)
                               for f2, (f1, index) in summary.frontier.items())
    return ExtremalResult(
        n=n, spec=spec, weight=a, mode=mode,
        best=WeightedValue(f1, f2, a),
        witness=oracle.graph_from_index(n, mode, -neg_index),
        explored=summary.total,
    )


def edit_distance_to_dtr(g: Digraph, r: int) -> EditDistanceResult:
    """Fewest single-arc edits taking G to make_dtr(n, r), minimised over
    all partitions with balanced part sizes.

    An edit adds or removes one arc: arcs inside a part must go, missing
    cross arcs must appear.  So a pair carrying `arcs` arcs (0, 1 or 2)
    costs `arcs` inside a part and 2 - arcs across parts.  Parts are
    interchangeable, so the search places vertices one at a time and only
    opens the first empty part of each size.  Deterministic: the first
    partition attaining the minimum (in search order) is reported.

    Placing v in part p costs cross[v], the cost of v against every
    earlier vertex as if all were across, plus 2 * (arcs - 1) for each
    earlier vertex already in p; the arcs between v and p are two
    popcounts on the part's member mask.
    """
    _instance(g, Digraph, "digraph")
    (r,) = _ints((r,), "r", 1)
    n = g.n
    if n > EDIT_MAX_VERTICES:
        raise CapacityError(
            f"edit distance enumerates partitions and is capped at {EDIT_MAX_VERTICES} vertices"
        )
    sizes = turan_part_sizes(n, r)
    out, inn = g.out_masks, g.in_masks
    cross = [2 * v - (out[v] & ((1 << v) - 1)).bit_count() - (inn[v] & ((1 << v) - 1)).bit_count()
             for v in range(n)]
    best: int | None = None
    best_members: list[int] | None = None
    members = [0] * r

    def place(v: int, cost: int):
        nonlocal best, best_members
        if best is not None and cost >= best:
            return
        if v == n:
            best, best_members = cost, members.copy()
            return
        for p in range(r):
            m = members[p]
            k = m.bit_count()
            if k == sizes[p]:
                continue
            if m == 0 and any(sizes[q] == sizes[p] and members[q] == 0 for q in range(p)):
                continue  # identical empty parts are interchangeable
            delta = cross[v] + 2 * ((out[v] & m).bit_count() + (inn[v] & m).bit_count() - k)
            members[p] = m | 1 << v
            place(v + 1, cost + delta)
            members[p] = m

    place(0, 0)
    assert best is not None and best_members is not None
    assign = tuple(p for v in range(n) for p in range(r) if best_members[p] >> v & 1)
    return EditDistanceResult(r=r, distance=best, partition=Partition(r, assign))
