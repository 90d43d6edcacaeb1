"""Isomorphism classes of a hereditary family, grown one vertex at a time.

The family is closed under relabelling and under vertex deletion: the
spec-free digraphs (`census.count_free`) or the digraphs with a good
r-partition (`census.count_partite`).  So every member on m + 1 vertices
is a member on the vertices 0..m-1 plus an attachment of vertex m: one
pair state towards each older vertex.  `grow_classes` keeps a table from
each class C on m vertices, keyed by its canonical form, to N(C), the
number of labelled members in C.  It starts from the empty digraph
(N = 1).  Any G in C relabels onto the key, fixing the new vertex m, and
this carries the attachments of m to G onto those to the key, class for
class.  So each attachment to the key that stays in the family adds N(C)
to the entry of its canonical form on m + 1 vertices, and the sum over C
of N(C) times those attachments is the labelled count on m + 1 vertices
(`labelled_count`, which needs no canonical form at that last level).
One loop serves both families, given the attachment walk: for freeness
it is `search._free_walk` over the pairs (0, m) ... (m - 1, m) from the
key's out-masks (`attachments`), and `census` has the partite one.  This
is isomorph-free generation (B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998), with the class set stored instead
of canonical augmentation.

`canonical_form` is colour refinement followed by a search over the
orderings the colours leave.  Each round gives a vertex the signature
(its colour, and for its single-out, single-in and digon neighbours the
number of them in each colour); the new colours are the ranks of the
distinct signatures in sorted order, and the rounds stop when no colour
splits.  The first round, from one colour for every vertex, ranks the
(single-out, single-in, digon) degree triples, so refinement starts
there.  The form is the least tuple of relabelled out-masks over every
relabelling that puts colour 0 first, then colour 1 and so on, in any
order inside each colour; when every colour holds one vertex there is
one such relabelling, and no search.  Colours depend on nothing but the
digraph's structure, so a relabelled digraph has the same set of such
relabellings and the same least tuple, and the tuple is itself a digraph
of the class.
"""

from __future__ import annotations

from itertools import permutations, product

from .core import BlowupSpec
from .search import _free_walk


def canonical_form(out) -> tuple[int, ...]:
    """The out-masks of the canonical relabelling of the digraph with
    out-masks `out`: equal for two digraphs iff they are isomorphic."""
    n = len(out)
    inn = [0] * n
    for u, o in enumerate(out):
        while o:
            inn[(o & -o).bit_length() - 1] |= 1 << u
            o &= o - 1
    # single-out, single-in and digon neighbours of each vertex
    rels = [(o & ~i, i & ~o, o & i) for o, i in zip(out, inn)]
    # round one from the uniform colouring: the (single-out, single-in,
    # digon) degrees, packed as the signature below packs them
    sig = [so.bit_count() << 8 | si.bit_count() << 4 | dg.bit_count() for so, si, dg in rels]
    colour, cells = [], []
    while True:
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        if len(ranks) == len(cells):
            break
        colour = [ranks[s] for s in sig]
        cells = [0] * len(ranks)  # the vertex mask of each colour
        for v, c in enumerate(colour):
            cells[c] |= 1 << v
        if len(cells) == n:
            break
        # the signature packs the colour, then per cell the three counts,
        # four bits each (a count is below n <= 16)
        sig = []
        for v in range(n):
            x = colour[v]
            so, si, dg = rels[v]
            for cell in cells:
                x = (x << 12 | (so & cell).bit_count() << 8 | (si & cell).bit_count() << 4
                     | (dg & cell).bit_count())
            sig.append(x)
    succ = [[u for u in range(n) if o >> u & 1] for o in out]
    if len(cells) == n:  # discrete: each vertex's colour is its position
        return tuple(sum(1 << colour[u] for u in succ[cell.bit_length() - 1]) for cell in cells)
    members = [[v for v in range(n) if cell >> v & 1] for cell in cells]
    best = None
    pos = [0] * n
    for parts in product(*map(permutations, members)):
        order = [v for part in parts for v in part]
        for p, v in enumerate(order):
            pos[v] = p
        form = tuple(sum(1 << pos[u] for u in succ[v]) for v in order)
        if best is None or form < best:
            best = form
    return best


def attachments(out, spec: BlowupSpec, mode: str, found: list | None = None) -> int:
    """Number of ways to attach a new vertex m = len(out) to the
    spec-free digraph with out-masks `out` so that it stays spec-free.
    Given found, the out-masks of each result are appended to it."""
    m = len(out)
    return _free_walk(m + 1, spec, mode, [*out, 0], [(i, m) for i in range(m)], found)[0]


def grow_classes(m: int, attach, *args) -> dict[tuple[int, ...], int]:
    """{canonical form of C: N(C)} over the classes C on m vertices of a
    family closed under relabelling and vertex deletion, where N(C) counts
    the labelled members in C.  attach(out, *args, found) counts the ways
    to attach vertex len(out) to the member with out-masks `out` and stay
    in the family, appending the out-masks of each to found."""
    classes = {(): 1}
    for _ in range(m):
        grown: dict[tuple[int, ...], int] = {}
        for form, count in classes.items():
            found: list[tuple[int, ...]] = []
            attach(form, *args, found)
            for out in found:
                key = canonical_form(out)
                grown[key] = grown.get(key, 0) + count
        classes = grown
    return classes


def labelled_count(n: int, attach, *args) -> int:
    """The number of labelled members on n >= 1 vertices: N(C) times
    attach(C's key, *args), summed over the classes C on n - 1."""
    return sum(count * attach(form, *args)
               for form, count in grow_classes(n - 1, attach, *args).items())
