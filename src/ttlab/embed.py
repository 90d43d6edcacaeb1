"""Subdigraph containment: embeddings and blow-up freeness.

Containment here is ordinary subdigraph containment, never induced: an
embedding of H into G is an injective vertex map under which every arc of
H lands on an arc of G.  Extra arcs of G (including digons covering a
single required arc) are always allowed.

Freeness tests for blow-ups of transitive tournaments do not go through
the generic embedding search.  A copy of blowup(k, t) in G is the same
thing as a chain of k pairwise disjoint t-sets S_1, ..., S_k such that
every vertex of S_p sends an arc to every vertex of S_q whenever p < q.
Writing T(S) for the common out-neighbourhood of S, the chain condition
is S_q subset of T(S_p) for all p < q, so the search walks down

    allowed_1 = V,   S_j subset of allowed_j,   allowed_{j+1} = allowed_j & T(S_j)

choosing one t-set per level.  Disjointness is automatic (a vertex never
sends an arc to itself, so S_j is disjoint from every earlier set).  One
walk, `_chain`, answers both questions asked of it: "is there a chain?"
(`chain_exists`) and "is there one placing u on an earlier level than
v?" (`arc_completes_blowup`), where u and v are pending vertices that
each level either hosts in turn or avoids.  The arc check reads in-masks
beside the out-masks (a Digraph's `in_masks`, or the ones the free walk
updates per arc), so it builds none, and it roots the pending walk at
in[v] | out[u], which holds every vertex of a copy placing u before v;
t = 1 and k = 2 have tests of their own.  The walk stops at its last
level: once `allowed` holds t vertices (one of them the pending vertex
still to place, if any), that level is found.  Each call owns its memo,
keyed by (allowed, levels remaining, phase), the phase being how many
pending vertices are still to place; no memo is shared between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import BlowupSpec, CapacityError, Digraph, _instance

COUNT_MAX_VERTICES = 10  # exhaustive embedding counts refuse larger hosts


@dataclass(frozen=True)
class Embedding:
    """Injective arc-preserving map; mapping[u] is the image of H-vertex u."""

    mapping: tuple[int, ...]

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.mapping))


# ======================================================================
# generic embedding search
# ======================================================================

def _embeddings(g: Digraph, h: Digraph):
    """Yield every embedding of H into G in lexicographic map order:
    H-vertices are assigned in index order, images tried in increasing
    order.  Each embedding is the list of images, reused between yields."""
    if h.n > g.n:
        return
    g_out, g_in, h_out, h_in = g.out_masks, g.in_masks, h.out_masks, h.in_masks
    # candidate images of each H-vertex, filtered by out/in-degree bounds
    cand = [[w for w in range(g.n)
             if g_out[w].bit_count() >= h_out[u].bit_count()
             and g_in[w].bit_count() >= h_in[u].bit_count()]
            for u in range(h.n)]
    image = [-1] * h.n

    def place(u: int, used: int):
        # images of the earlier H-vertices that u sends an arc to / gets one from
        need_out = need_in = 0
        for v in range(u):
            if h_out[u] >> v & 1:
                need_out |= 1 << image[v]
            if h_in[u] >> v & 1:
                need_in |= 1 << image[v]
        for w in cand[u]:
            if used >> w & 1 or g_out[w] & need_out != need_out or g_in[w] & need_in != need_in:
                continue
            image[u] = w
            if u + 1 == h.n:
                yield image
            else:
                yield from place(u + 1, used | 1 << w)

    if h.n == 0:
        yield image
    else:
        yield from place(0, 0)


def contains(g: Digraph, h: Digraph) -> Embedding | None:
    """First embedding of H into G in lexicographic map order, or None.

    The witness returned is the lexicographically least injective
    arc-preserving map (deterministic across runs).
    """
    _instance(g, Digraph, "host digraph")
    _instance(h, Digraph, "pattern digraph")
    image = next(_embeddings(g, h), None)
    return None if image is None else Embedding(tuple(image))


def count_embeddings(g: Digraph, h: Digraph) -> int:
    """Number of injective arc-preserving maps of H into G (exhaustive).

    Hosts above 10 vertices are refused; an H larger than G simply has
    zero embeddings.
    """
    _instance(g, Digraph, "host digraph")
    _instance(h, Digraph, "pattern digraph")
    if g.n > COUNT_MAX_VERTICES:
        raise CapacityError(
            f"embedding counts are exhaustive and capped at {COUNT_MAX_VERTICES} host vertices"
        )
    return sum(1 for _ in _embeddings(g, h))


def automorphism_count(h: Digraph) -> int:
    """|Aut(H)|; an injective arc-preserving self-map is an automorphism."""
    return count_embeddings(h, h)


def count_copies(g: Digraph, h: Digraph) -> int:
    """Copies of H in G up to automorphism: embeddings / |Aut(H)|."""
    emb = count_embeddings(g, h)
    aut = automorphism_count(h)
    if emb % aut:  # cannot happen: Aut(H) acts freely on embeddings
        raise AssertionError(f"embedding count {emb} not divisible by |Aut| {aut}")
    return emb // aut


# ======================================================================
# blow-up freeness via the level-chain search
# ======================================================================

def chain_exists(out_masks, allowed: int, levels: int, t: int) -> bool:
    """Is there a chain of `levels` disjoint t-sets inside `allowed`?

    out_masks is indexable by vertex; `allowed` is a vertex bitmask.  The
    walk stops at its last level, where a count decides, and each call
    uses a fresh memo.
    """
    return _chain(out_masks, allowed, levels, t, {}, ())


def _chain(out_masks, allowed: int, levels: int, t: int, memo: dict, pending: tuple) -> bool:
    """The level-chain search: is there a chain of `levels` disjoint t-sets
    inside `allowed` that places the vertices of `pending` in order, each
    on a strictly later level than the one before?

    A level either hosts pending[0] (its out-mask plus t - 1 others) or
    avoids every pending vertex (t others).  The last level (and an empty
    chain) needs no choice: once the count and pending tests pass,
    `allowed` holds a t-set, with the one vertex still pending if there
    is one.  The phase is len(pending), the vertices still to place, and
    memo, owned by one top-level call, maps (allowed, levels, phase) to
    the answer.  It is a module-level function, not a closure: making a
    closure per call took longer than a call answered from the memo.
    """
    need = 0
    for w in pending:
        need |= 1 << w
    if allowed.bit_count() < levels * t or levels < len(pending) or allowed & need != need:
        return False
    if levels <= 1:
        return True
    key = (allowed, levels, len(pending))
    hit = memo.get(key)
    if hit is not None:
        return hit
    bits = []
    m = allowed & ~need
    while m:
        bits.append((m & -m).bit_length() - 1)
        m &= m - 1
    floor = (levels - 1) * t
    # ways to fill this level: (allowed, cut by the out-mask of the pending
    # vertex it hosts, if any; vertices still to choose; pending after it)
    fills = [(allowed, t, pending)]
    if pending:
        fills.insert(0, (allowed & out_masks[pending[0]], t - 1, pending[1:]))
    for base, size, rest in fills:
        for sel in combinations(bits, size):
            nxt = base
            for w in sel:
                nxt &= out_masks[w]
                if nxt.bit_count() < floor:
                    break
            else:
                if _chain(out_masks, nxt, levels - 1, t, memo, rest):
                    memo[key] = True
                    return True
    memo[key] = False
    return False


def is_free(g: Digraph, spec: BlowupSpec) -> bool:
    """True iff G contains no copy of blowup(spec.k, spec.t)."""
    _instance(g, Digraph, "digraph")
    _instance(spec, BlowupSpec, "spec")
    return not chain_exists(g.out_masks, (1 << g.n) - 1, spec.k, spec.t)


def arc_completes_blowup(out_masks, in_masks, n: int, k: int, t: int, u: int, v: int) -> bool:
    """Does the digraph given by out_masks contain a copy of blowup(k, t)
    that places u at a strictly earlier level than v?

    in_masks must be the in-masks of the same digraph (bit w of
    in_masks[x] set iff w -> x); the caller keeps them beside out_masks,
    so no call rebuilds them.

    This is the incremental freeness test used by the counting and
    branch-and-bound searches: when the arc u -> v is the newest arc of a
    previously free digraph, any fresh copy of the blow-up must map some
    between-level arc onto u -> v, i.e. place u before v.  Copies putting
    u and v on a common level need no arc between them and would have
    existed before the arc was added.

    For t = 1 a copy is a transitive tournament on k vertices, and the
    other k - 2 vertices fall into three regions: before u
    (in[u] & in[v]), between u and v (out[u] & in[v]) and after v
    (out[u] & out[v]).  A copy exists iff u -> v is an arc and some chain
    of k - 2 vertices visits the regions in that order, each vertex in
    the out-mask of every earlier one (`_ordered_chain`); for k = 3 that
    is one nonempty region.

    For k = 2 and larger t a copy is S -> T with u in S and v in T: the
    other t - 1 vertices of S come from in[v] minus u, and the other
    t - 1 of T from what u and all of them send arcs to, minus v.  Every
    such vertex misses the set it is not in (no loops), so the copy
    exists iff u -> v is an arc and some (t-1)-subset X of in[v] - {u}
    has t - 1 vertices of out[u] - {v} in every out[x].

    Larger k runs the level-chain search with u and v pending in turn,
    rooted at in[v] | out[u] rather than every vertex.  Say u sits on
    level p and v on level q > p.  A vertex on a level before q sends an
    arc to v, so it lies in in[v]; that covers u and its level mates.  A
    vertex on a level after p receives an arc from u, so it lies in
    out[u]; that covers v and its level mates.  Each level comes before
    q or after p, so the root holds the whole copy, and a chain found
    inside it is a chain of the digraph.
    """
    if k < 2 or k * t > n:
        return False
    if k == 2 and t > 1:
        out_u = out_masks[u]
        if not out_u >> v & 1:
            return False
        targets = out_u & ~(1 << v)
        sources = []
        m = in_masks[v] & ~(1 << u)
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if (out_masks[w] & targets).bit_count() >= t - 1:
                sources.append(w)
        for xs in combinations(sources, t - 1):
            common = targets
            for x in xs:
                common &= out_masks[x]
            if common.bit_count() >= t - 1:
                return True
        return False
    if t == 1:
        out_u, out_v = out_masks[u], out_masks[v]
        if not out_u >> v & 1:
            return False
        if k == 2:
            return True
        in_u, in_v = in_masks[u], in_masks[v]
        before, between, after = in_u & in_v, out_u & in_v, out_u & out_v
        if k == 3:
            return bool(before | between | after)
        return _ordered_chain(out_masks, (before, between, after),
                              (before | between | after, between | after, after),
                              0, (1 << n) - 1, k - 2, {})
    return _chain(out_masks, in_masks[v] | out_masks[u], k, t, {}, (u, v))


def _ordered_chain(out_masks, regions, suffix, r: int, allowed: int, left: int,
                   memo: dict) -> bool:
    """Is there a chain of `left` vertices inside `allowed`, each in the
    out-mask of every earlier one, whose regions never go back past
    regions[r]?  suffix[r] is the union of regions[r:]."""
    m = suffix[r] & allowed
    if m.bit_count() < left:
        return False
    if left == 1:
        return True
    key = (r, allowed, left)
    hit = memo.get(key)
    if hit is not None:
        return hit
    result = False
    while m:
        low = m & -m
        m ^= low
        # the earliest region that holds w keeps the most room for the rest
        rw = r
        while not regions[rw] & low:
            rw += 1
        if _ordered_chain(out_masks, regions, suffix, rw,
                          allowed & out_masks[low.bit_length() - 1], left - 1, memo):
            result = True
            break
    memo[key] = result
    return result
