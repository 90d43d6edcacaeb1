"""Labelled counting: free digraphs versus partition-structured ones.

count_free(n, spec, mode) counts labelled digraphs on n vertices with no
copy of the forbidden blow-up, by isomorphism class (`orbits`).  The
classes of free digraphs on n - 1 vertices are grown one vertex at a
time, each with N(C), the number of labelled free digraphs in it, and
f(n) is the sum over those classes of N(C) * ext(C), where ext(C)
counts the ways to attach vertex n - 1 to C's canonical form and stay
free.  An attachment is `search._free_walk` over the pairs (0, n - 1)
... (n - 2, n - 1), the walk that also carries the `extremal` branch
and bound: it abandons an attachment the moment a newly added arc
completes a copy (adding further arcs can never remove one, so nothing
below a hit is free).  The last level needs no canonical form.  The
unpruned cross-check `count_free_naive` delegates to the vectorised
sweep in `oracle`.

count_partite(n, r, t, mode) counts labelled digraphs admitting *some*
partition into at most r classes, each class inducing a blowup(2, t)-free
subdigraph.  A partition that is good for a digraph stays good when an
arc is deleted, so the pair walk carries the set of partitions still
good for the partial digraph as a bitset and drops a partition the
moment an added arc breaks it.  Only partitions in which the pair shares
a class of at least 2t vertices are at risk; for t = 1 the arc itself is
the copy, for t >= 2 the class is rechecked with `chain_exists`.  This
walk keeps its own loop over the same PAIR_CHOICES table: it checks no
freeness and carries the partition bitset with cuts of its own.  Two
cuts follow: a subtree with no surviving partition is worth 0, and once
a surviving partition has no at-risk pair left below the current depth,
every completion admits it and the subtree counts in full.  While every
decided pair is BOTH or NO_ARC, the BWD child is the mirror image of the
FWD child: arc reversal fixes the decided pairs and keeps each class
free of T_2^t, so it maps the FWD child's digraphs, and the partitions
each admits, onto the BWD child's.  The walk counts the FWD child twice
and never enters the BWD one.  (The vertex swap that `extremal`'s walk
also uses is left out here: it relabels the partitions, so the BWD
child's surviving set would differ.)  The
per-graph test `admits_partition` decides the same property from
scratch (a memoised cover search over good vertex subsets) and serves
as its independent check.

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
    BOTH,
    BWD,
    DIGRAPH,
    FWD,
    ORIENTED,
    BlowupSpec,
    CapacityError,
    Digraph,
    Weight,
    _ints,
    pair_list,
    require_mode,
    turan_edges,
)
from .embed import chain_exists
from .orbits import attachments, free_classes
from .search import PAIR_CHOICES, extremal


def _check_census_capacity(n: int, mode: str, what: str) -> int:
    """n as an int, once the mode is known and n is within the sweep bound."""
    require_mode(mode)
    (n,) = _ints((n,), "n")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    bound = oracle.SWEEP_BOUND[mode]
    if n > bound:
        raise CapacityError(
            f"{what} enumerates all labelled digraphs and is capped at "
            f"n = {bound} in {mode} mode (got n = {n})"
        )
    return n


def count_free(n: int, spec: BlowupSpec, mode: str = DIGRAPH) -> int:
    """Number of labelled blow-up-free digraphs on n vertices.

    The count is the sum of N(C) * ext(C) over the classes C of free
    digraphs on n - 1 vertices (module docstring): one attachment walk
    per class, one arc check per new arc.  Measured on a shared 2-core
    Xeon VM (fresh process per call, medians of five runs): T_3^1 at
    digraph n = 5 takes about 0.026 s, T_2^2 at digraph n = 5 and T_3^1
    at oriented n = 6 about 0.06 s each, T_2^2 at oriented n = 6 about
    0.18 s, and T_3^2 at oriented n = 6 (14,346,477 free digraphs, 582
    classes on five vertices) about 0.32 s, against 7.0 s for the
    labelled walk this replaced.
    """
    n = _check_census_capacity(n, mode, "count_free")
    total = len(PAIR_CHOICES[mode]) ** len(pair_list(n))
    if spec.k == 1:
        # no arcs needed: the pattern sits in any digraph with >= t vertices
        return 0 if n >= spec.t else total
    if spec.vertex_count > n:
        # the pattern cannot fit, so every digraph counts
        return total
    return sum(count * attachments(form, spec, mode)
               for form, count in free_classes(n - 1, spec, mode).items())


def count_free_naive(n: int, spec: BlowupSpec, mode: str = DIGRAPH) -> int:
    """Unpruned full-enumeration count of the same quantity (the oracle)."""
    return oracle.sweep(n, spec, mode).free_count


# ======================================================================
# partition-structured digraphs
# ======================================================================

def _admits(out_masks, n: int, r: int, t: int) -> bool:
    @cache
    def good(mask: int) -> bool:
        return not chain_exists(out_masks, mask, 2, t)

    @cache
    def cover(mask: int, classes_left: int) -> bool:
        if mask == 0:
            return True
        if classes_left == 1:  # the one class left must take all of mask
            return good(mask)
        low = mask & -mask
        rest = mask ^ low
        sub = rest
        while True:
            cls = sub | low
            if good(cls) and cover(mask ^ cls, classes_left - 1):
                return True
            if sub == 0:
                return False
            sub = (sub - 1) & rest

    return cover((1 << n) - 1, r)


def admits_partition(g: Digraph, r: int, t: int) -> bool:
    """Can V(G) be split into at most r classes, each inducing a
    blowup(2, t)-free subdigraph?  (Empty classes are fine.)"""
    r, t = _ints((r, t), "r and t")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    BlowupSpec(2, t)  # validate t
    return _admits(g.out_masks, g.n, r, t)


def _partitions(n: int, r: int) -> list[tuple[int, ...]]:
    """Set partitions of range(n) into at most r nonempty classes, each
    given as a tuple of class bitmasks (one partition for n = 0)."""
    found = []
    classes: list[int] = []

    def place(v: int):
        if v == n:
            found.append(tuple(classes))
            return
        for c in range(len(classes)):
            classes[c] |= 1 << v
            place(v + 1)
            classes[c] ^= 1 << v
        if len(classes) < r:
            classes.append(1 << v)
            place(v + 1)
            classes.pop()

    place(0)
    return found


def count_partite(n: int, r: int, t: int, mode: str = DIGRAPH) -> int:
    """Number of labelled digraphs on n vertices admitting an r-partition
    with every class blowup(2, t)-free."""
    n = _check_census_capacity(n, mode, "count_partite")
    r, t = _ints((r, t), "r and t")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    BlowupSpec(2, t)  # validate t

    pairs = pair_list(n)
    npairs = len(pairs)
    choices = PAIR_CHOICES[mode]
    partitions = _partitions(n, r)
    everything = (1 << len(partitions)) - 1

    # at_risk[d]: (class, partitions holding it) for every class of at
    # least 2t vertices that contains pair d; only those can die there
    at_risk = []
    for i, j in pairs:
        both = 1 << i | 1 << j
        risk: dict[int, int] = {}
        for p, classes in enumerate(partitions):
            for cls in classes:
                if cls & both == both and cls.bit_count() >= 2 * t:
                    risk[cls] = risk.get(cls, 0) | 1 << p
        at_risk.append(tuple(risk.items()))

    # safe[d]: partitions that no pair at index >= d can kill
    safe = [everything] * (npairs + 1)
    for d in range(npairs - 1, -1, -1):
        safe[d] = safe[d + 1]
        for _, members in at_risk[d]:
            safe[d] &= ~members

    out = [0] * n
    width = len(choices)

    def down(d: int, alive: int, mirror: bool) -> int:
        # mirror: every decided pair is BOTH or NO_ARC
        if alive & safe[d]:
            return width ** (npairs - d)
        if not alive:
            return 0
        i, j = pairs[d]
        total = down(d + 1, alive, mirror)  # NO_ARC, last in the table: nothing can die
        for s in choices[:-1]:
            if s == BWD and mirror:
                total += part  # the FWD child's count, by arc reversal
                continue
            if s & FWD:
                out[i] |= 1 << j
            if s & BWD:
                out[j] |= 1 << i
            left = alive
            for cls, members in at_risk[d]:
                # for t = 1 the new arc is itself a copy of blowup(2, 1)
                if left & members and (t == 1 or chain_exists(out, cls, 2, t)):
                    left &= ~members
            part = down(d + 1, left, mirror and s == BOTH)
            total += part
            out[i] &= ~(1 << j)
            out[j] &= ~(1 << i)
        return total

    return down(0, everything, True)


def lower_bound_partite(n: int, r: int, t: int) -> int:
    """Constructive lower bound 3^(t_r(n)) * 2^E on the oriented
    partition count; E = oriented maximum arc count of a blowup(2, t)-free
    graph on floor(n/r) vertices."""
    (n,) = _ints((n,), "n")
    r, t = _ints((r, t), "r and t")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
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
