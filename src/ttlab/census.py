"""Labelled counting: free digraphs versus partition-structured ones.

count_free(n, spec, mode) counts labelled digraphs on n vertices with no
copy of the forbidden blow-up, by isomorphism class (`orbits`).  The
classes of free digraphs on n - 1 vertices are grown one vertex at a
time, each with N(C), the number of labelled free digraphs in it, and
f(n) is the sum over those classes of N(C) * ext(C), where ext(C)
counts the ways to attach vertex n - 1 to C's canonical form and stay
free.  The attachment walk, `_free_attachments`, is `search._free_walk`
over the pairs (0, n - 1) ... (n - 2, n - 1), the walk that also
carries the `extremal` branch and bound: it abandons an attachment the
moment a newly added arc completes a copy (adding further arcs can
never remove one, so nothing below a hit is free).  The last level
needs no canonical form.  The unpruned cross-check `count_free_naive`
delegates to the vectorised sweep in `oracle`.

count_partite(n, r, t, mode) counts labelled digraphs admitting *some*
partition into at most r classes, each class inducing a blowup(2, t)-free
subdigraph; call that family P.  It takes the same class route as
count_free (`orbits.grow_classes`), with its own attachment walk,
`_partite_attachments`; `orbits` holds only the family-agnostic loop, so
this module owns both walks.  A good partition stays good under
relabelling and restricts to a good partition of G - v, so a digraph on
m + 1 vertices is in P exactly when G - m has a good partition with a
class c (or an empty slot, when the partition uses fewer than r classes)
such that c plus m is still blowup(2, t)-free.  The walk starts from the
slots of a class C: each good vertex set c (0 included) whose complement
splits into at most r - 1 good classes.  It decides the pairs (0, m)
... (m - 1, m) over PAIR_CHOICES; an arc at (i, m) kills a live slot
holding i, always for t = 1 (the arc is the copy) and for t >= 2 when
`chain_exists` finds a copy in the slot plus m.  Adding arcs never
removes a copy, so a dead slot stays dead and a subtree with no live
slot is worth 0.  When counting, a live slot that can no longer die (no
member at i or later, or fewer than 2t - 1 members) makes the whole
subtree count.  For n <= r(2t - 1) some partition has classes of fewer
than 2t vertices, and every digraph is in P.

This module is the one that knows what a good partition is.  `_good`
holds the class test (no copy of blowup(2, t) inside the class) and
`_cover` the one search for a split into at most j good classes.  The
slots and the per-graph test `admits_partition` come from `_cover`;
`partition_ok` applies `_good` to each class of a given partition.
Since count_partite and an `admits_partition` loop share that search,
the independent check of count_partite is the test helper
`naive_count_partite`: it tries every class assignment and tests each
class with the embedding search, not the chain solver.

lower_bound_partite(n, r, t) evaluates the constructive lower bound
3^(t_r(n)) * 2^E on the oriented partition count: fix the balanced
partition, orient each cross pair three ways, and place inside one part
any subgraph of a largest blowup(2, t)-free oriented graph on
floor(n/r) vertices (E is that maximum arc count, computed exactly by
the solver).  The same number is a valid, if weaker, bound in digraph
mode since every oriented graph is a digraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import oracle
from .core import (
    BWD,
    DIGRAPH,
    FWD,
    NO_ARC,
    ORIENTED,
    BlowupSpec,
    CapacityError,
    Digraph,
    Partition,
    Weight,
    _instance,
    _ints,
    pair_list,
    require_mode,
    turan_edges,
)
from .embed import chain_exists
from .orbits import labelled_count
from .search import PAIR_CHOICES, _free_walk, extremal


def _check_census_capacity(n: int, mode: str, what: str) -> int:
    """n as an int, once the mode is known and n is within the sweep bound."""
    require_mode(mode)
    (n,) = _ints((n,), "n", 0)
    bound = oracle.SWEEP_BOUND[mode]
    if n > bound:
        raise CapacityError(
            f"{what} enumerates all labelled digraphs and is capped at "
            f"n = {bound} in {mode} mode (got n = {n})"
        )
    return n


def _free_attachments(out, spec: BlowupSpec, mode: str, found: list | None = None) -> int:
    """Number of ways to attach a new vertex m = len(out) to the
    spec-free digraph with out-masks `out` so that it stays spec-free.
    Given found, the out-masks of each result are appended to it."""
    m = len(out)
    return _free_walk(m + 1, spec, mode, [*out, 0], [(i, m) for i in range(m)], found)[0]


def count_free(n: int, spec: BlowupSpec, mode: str = DIGRAPH) -> int:
    """Number of labelled blow-up-free digraphs on n vertices.

    The count is the sum of N(C) * ext(C) over the classes C of free
    digraphs on n - 1 vertices (module docstring): one attachment walk
    per class, one arc check per new arc.  Measured on a shared 2-core
    Xeon VM (fresh process per call, medians of five runs): T_3^1 at
    digraph n = 5 takes about 0.026 s, T_2^2 at digraph n = 5 and T_3^1
    at oriented n = 6 about 0.06 s each, T_2^2 at oriented n = 6 about
    0.18 s, and T_3^2 at oriented n = 6 (14,346,477 free digraphs, 582
    classes on five vertices) about 0.32 s.
    """
    n = _check_census_capacity(n, mode, "count_free")
    _instance(spec, BlowupSpec, "spec")
    total = len(PAIR_CHOICES[mode]) ** len(pair_list(n))
    if spec.k == 1:
        # no arcs needed: the pattern sits in any digraph with >= t vertices
        return 0 if n >= spec.t else total
    if spec.vertex_count > n:
        # the pattern cannot fit, so every digraph counts
        return total
    return labelled_count(n, _free_attachments, spec, mode)


def count_free_naive(n: int, spec: BlowupSpec, mode: str = DIGRAPH) -> int:
    """Unpruned full-enumeration count of the same quantity (the oracle)."""
    return oracle.sweep(n, spec, mode).free_count


# ======================================================================
# partition-structured digraphs
# ======================================================================

def _good(out, t: int):
    """Memoised class test: is the vertex set c blowup(2, t)-free in the
    digraph with out-masks `out`?  The one place the test is written."""
    return cache(lambda c: not chain_exists(out, c, 2, t))


def _cover(good, mask: int, j: int, memo: dict) -> bool:
    """Does `mask` split into at most j classes, each passing `good`?
    For j = 0 only an empty mask does.

    memo, owned by one caller, maps (mask, j) to the answer.  It is a
    module-level function, not a recursive closure, so no call leaves a
    reference cycle for the garbage collector."""
    if mask == 0:
        return True
    if j <= 1:  # the one class left must take all of mask
        return j == 1 and good(mask)
    key = (mask, j)
    if key in memo:
        return memo[key]
    low = mask & -mask
    rest = sub = mask ^ low
    # the class of the lowest vertex: each subset of the rest joins it, largest first
    while not (good(sub | low) and _cover(good, mask ^ low ^ sub, j - 1, memo)):
        if sub == 0:
            memo[key] = False
            return False
        sub = (sub - 1) & rest
    memo[key] = True
    return True


def admits_partition(g: Digraph, r: int, t: int) -> bool:
    """Can V(G) be split into at most r classes, each inducing a
    blowup(2, t)-free subdigraph?  (Empty classes are fine.)"""
    _instance(g, Digraph, "digraph")
    r, t = _ints((r, t), "r and t", 1)
    return _cover(_good(g.out_masks, t), (1 << g.n) - 1, r, {})


def partition_ok(g: Digraph, p: Partition, t: int) -> bool:
    """True iff every class of P induces a blowup(2, t)-free subdigraph."""
    _instance(g, Digraph, "digraph")
    _instance(p, Partition, "partition")
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} vertices, digraph has {g.n}")
    (t,) = _ints((t,), "t", 1)
    return all(map(_good(g.out_masks, t), p.class_masks()))


def _partite_attachments(out, r: int, t: int, mode: str, found: list | None = None) -> int:
    """Number of ways to attach a new vertex m = len(out) to the digraph
    with out-masks `out`, itself in P, so that it stays in P (module
    docstring).  Given found, the out-masks of each result are appended
    to it, and every result is walked to its leaf."""
    m, new = len(out), 1 << len(out)
    good, full, memo = _good(out, t), new - 1, {}
    # c = 0 is a slot too when vertex m may open a class of its own
    slots = [c for c in range(new) if _cover(good, full ^ c, r - 1, memo) and good(c)]
    grown = [*out, 0]
    choices = PAIR_CHOICES[mode]

    def walk(i: int, live) -> int:
        if not live:
            return 0
        if found is None and any(c >> i == 0 or c.bit_count() < 2 * t - 1 for c in live):
            return len(choices) ** (m - i)  # that slot survives every completion
        if i == m:
            found.append(tuple(grown))
            return 1
        total, head = 0, grown[m]
        for s in choices:  # NO_ARC comes last and leaves the masks as they were
            grown[i] = out[i] | new if s & FWD else out[i]
            grown[m] = head | 1 << i if s & BWD else head
            # an arc at (i, m) can only kill the slots that hold i
            total += walk(i + 1, live if s == NO_ARC else [
                c for c in live
                if not (c >> i & 1 and (t == 1 or chain_exists(grown, c | new, 2, t)))])
        return total

    return walk(0, slots)


def count_partite(n: int, r: int, t: int, mode: str = DIGRAPH) -> int:
    """Number of labelled digraphs on n vertices admitting an r-partition
    with every class blowup(2, t)-free, by class (module docstring).
    One call timed in a fresh process, medians of five runs on a shared
    2-core Intel Xeon VM (Python 3.11.7): oriented (6, 3, 1) 0.19 s,
    oriented (6, 1, 2) 0.44 s, digraph (5, 1, 2) 0.13 s."""
    n = _check_census_capacity(n, mode, "count_partite")
    r, t = _ints((r, t), "r and t", 1)
    if n <= r * (2 * t - 1):
        # classes of fewer than 2t vertices cannot hold a copy of T_2^t
        return len(PAIR_CHOICES[mode]) ** len(pair_list(n))
    return labelled_count(n, _partite_attachments, r, t, mode)


def lower_bound_partite(n: int, r: int, t: int) -> int:
    """Constructive lower bound 3^(t_r(n)) * 2^E on the oriented
    partition count; E = oriented maximum arc count of a blowup(2, t)-free
    graph on floor(n/r) vertices."""
    (n,) = _ints((n,), "n", 0)
    r, t = _ints((r, t), "r and t", 1)
    inner = extremal(n // r, BlowupSpec(2, t), Weight.rational(2), mode=ORIENTED)
    return 3 ** turan_edges(n, r) * 2 ** inner.best.f1


LOWER_BOUND_NOTE = (
    "3^t_r(n) * 2^E with E the maximum arc count of a blowup(2,t)-free "
    "oriented graph on floor(n/r) vertices; derived for oriented mode and "
    "valid (weaker) for digraph mode"
)


@dataclass(frozen=True)
class CensusReport:
    """count_free versus count_partite on one instance, with the exact
    ratio and the constructive lower bound on the partite count."""

    n: int
    r: int
    t: int
    mode: str
    spec: BlowupSpec
    free_count: int
    partite_count: int
    ratio: Fraction
    lower_bound: int
    lower_bound_note: str = LOWER_BOUND_NOTE


def ratio_report(n: int, r: int, t: int, mode: str = DIGRAPH) -> CensusReport:
    """Assemble free/partite counts, their exact ratio, and the lower bound."""
    r, t = _ints((r, t), "r and t", 1)
    spec = BlowupSpec(r + 1, t)
    free = count_free(n, spec, mode)
    part = count_partite(n, r, t, mode)
    return CensusReport(
        n=n, r=r, t=t, mode=mode, spec=spec,
        free_count=free,
        partite_count=part,
        ratio=Fraction(free, part),
        lower_bound=lower_bound_partite(n, r, t),
    )
