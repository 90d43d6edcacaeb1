"""Subgraph containment, counting, and the incremental freeness check.

The oracles here are deliberately naive: straight enumeration over
injections (itertools.permutations) and over level assignments, sharing
no code with the solver paths they validate.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttlab import (
    BlowupSpec,
    Digraph,
    blowup,
    make_dtr,
    Partition,
    automorphism_count,
    contains,
    count_copies,
    count_embeddings,
    is_free,
    partition_ok,
)
from ttlab.embed import _chain, arc_completes_blowup, chain_exists

from test_core import random_digraph


def embeds_under(g: Digraph, h: Digraph, image) -> bool:
    for u in range(h.n):
        for v in range(h.n):
            if u != v and h.has_arc(u, v) and not g.has_arc(image[u], image[v]):
                return False
    return True


def brute_count_embeddings(g: Digraph, h: Digraph) -> int:
    return sum(1 for image in permutations(range(g.n), h.n)
               if embeds_under(g, h, image))


def brute_free(g: Digraph, spec: BlowupSpec) -> bool:
    return brute_count_embeddings(g, spec.realize()) == 0


def digraphs(min_n: int, max_n: int):
    """Hypothesis strategy: any digraph on min_n..max_n vertices."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2)
        .map(lambda states: Digraph(n, tuple(states))))


SMALL_SPECS = [BlowupSpec(2, 1), BlowupSpec(3, 1), BlowupSpec(4, 1), BlowupSpec(2, 2)]


# ----------------------------------------------------------------------
# contains / count_embeddings
# ----------------------------------------------------------------------

def test_contains_returns_lexicographically_least_witness():
    g = make_dtr(3, 3)
    emb = contains(g, blowup(2, 1))
    assert emb is not None
    assert emb.mapping == (0, 1)
    assert emb.as_dict() == {0: 0, 1: 1}


def test_contains_respects_arc_directions():
    # path 0 -> 1 -> 2 contains the single arc but not the digon
    g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert contains(g, blowup(2, 1)) is not None
    digon = Digraph.from_arcs(2, [(0, 1), (1, 0)])
    assert contains(g, digon) is None


def test_contains_none_when_pattern_larger():
    assert contains(Digraph.empty(3), blowup(2, 2)) is None


def test_contains_witness_is_valid_embedding():
    rng = random.Random(99)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(2, 6))
        h = random_digraph(rng, rng.randint(1, 3))
        emb = contains(g, h)
        # permutations come in lexicographic order, so the first is the least
        least = next((image for image in permutations(range(g.n), h.n)
                      if embeds_under(g, h, image)), None)
        if emb is None:
            assert least is None
        else:
            assert embeds_under(g, h, emb.mapping)
            assert emb.mapping == least


def test_count_embeddings_matches_permutation_oracle():
    rng = random.Random(5)
    for _ in range(120):
        g = random_digraph(rng, rng.randint(0, 5))
        h = random_digraph(rng, rng.randint(0, 3))
        assert count_embeddings(g, h) == brute_count_embeddings(g, h)


@settings(max_examples=150, deadline=None)
@given(g=digraphs(0, 6), h=digraphs(0, 3),
       spec=st.sampled_from(SMALL_SPECS + [BlowupSpec(3, 2)]), data=st.data())
def test_count_embeddings_and_freeness_invariant_under_relabelling(g, h, spec, data):
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = Digraph.from_arcs(g.n, [(perm[u], perm[v]) for u, v in g.arcs()])
    assert count_embeddings(relabelled, h) == count_embeddings(g, h)
    assert is_free(relabelled, spec) == is_free(g, spec)


@settings(max_examples=150, deadline=None)
@given(g=digraphs(2, 6), spec=st.sampled_from(SMALL_SPECS + [BlowupSpec(3, 2)]),
       data=st.data())
def test_freeness_inherited_under_arc_deletion(g, spec, data):
    arcs = list(g.arcs())
    assume(arcs)
    arc = data.draw(st.sampled_from(arcs))
    smaller = Digraph.from_arcs(g.n, [a for a in arcs if a != arc])
    if is_free(g, spec):
        assert is_free(smaller, spec)


def test_count_embeddings_known_value():
    assert count_embeddings(make_dtr(3, 3), blowup(3, 1)) == 6


def test_automorphism_counts():
    assert automorphism_count(blowup(3, 1)) == 1  # transitive tournament is rigid
    assert automorphism_count(blowup(2, 2)) == 4  # swap within each level
    assert automorphism_count(Digraph.empty(3)) == 6
    assert automorphism_count(make_dtr(3, 3)) == 6


def test_count_copies_divides_out_automorphisms():
    assert count_copies(make_dtr(3, 3), blowup(3, 1)) == 6
    # two parts to pick as the lower level, nothing else to choose
    assert count_embeddings(make_dtr(4, 2), blowup(2, 2)) == 8
    assert count_copies(make_dtr(4, 2), blowup(2, 2)) == 2


def test_count_embeddings_refuses_large_hosts():
    with pytest.raises(ValueError):
        count_embeddings(Digraph.empty(11), blowup(2, 1))


# ----------------------------------------------------------------------
# freeness
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_is_free_exhaustive_n4(spec):
    from itertools import product
    for states in product(range(4), repeat=6):
        g = Digraph(4, states)
        assert is_free(g, spec) == brute_free(g, spec)


def test_is_free_sampled_n6():
    rng = random.Random(42)
    specs = SMALL_SPECS + [BlowupSpec(3, 2), BlowupSpec(2, 3)]
    for _ in range(150):
        g = random_digraph(rng, 6)
        for spec in specs:
            assert is_free(g, spec) == brute_free(g, spec)


def test_is_free_trivial_when_pattern_too_large():
    assert is_free(make_dtr(4, 2), BlowupSpec(3, 2))  # 6 > 4 vertices


def test_is_free_when_pattern_outgrows_host_or_has_one_level():
    # k * t > n is answered by the walk's first count test, and k = 1 (t
    # isolated vertices) by its last-level rule
    rng = random.Random(5)
    specs = [BlowupSpec(1, 1), BlowupSpec(1, 2), BlowupSpec(1, 4), BlowupSpec(2, 3),
             BlowupSpec(3, 2), BlowupSpec(5, 1)]
    for n in range(5):
        for _ in range(8):
            g = random_digraph(rng, n)
            for spec in specs:
                assert is_free(g, spec) == brute_free(g, spec), (g, spec)


def brute_chain(g: Digraph, allowed: int, levels: int, t: int) -> bool:
    """Any chain of `levels` disjoint t-sets inside allowed, each sending
    arcs to every later one, by enumeration."""
    sets = list(combinations([w for w in range(g.n) if allowed >> w & 1], t))
    for chain in permutations(sets, levels):
        if (len({w for s in chain for w in s}) == levels * t
                and all(g.has_arc(x, y) for i, s in enumerate(chain) for x in s
                        for later in chain[i + 1:] for y in later)):
            return True
    return False


def test_chain_exists_against_enumeration_at_every_mask():
    # levels 0 and 1 need no choice (an empty chain always exists, one
    # level needs t vertices); masks with fewer than levels * t vertices
    # must fail however dense the digraph
    rng = random.Random(23)
    short = 0
    for n in range(6):
        for density in (0.3, 0.8, 1.0):
            states = tuple(rng.choice((1, 2, 3)) if rng.random() < density else 0
                           for _ in range(n * (n - 1) // 2))
            g = Digraph(n, states)
            for allowed in range(1 << n):
                for levels in range(4):
                    for t in range(1, 4):
                        got = chain_exists(g.out_masks, allowed, levels, t)
                        assert got == brute_chain(g, allowed, levels, t), (g, allowed, levels, t)
                        if levels <= 1:
                            assert got == (allowed.bit_count() >= levels * t)
                        short += allowed.bit_count() < levels * t
    assert short > 1000


# ----------------------------------------------------------------------
# incremental check used by the searches
# ----------------------------------------------------------------------

def add_arc(g: Digraph, u: int, v: int) -> Digraph:
    i, j = (u, v) if u < v else (v, u)
    bit = 1 if u < v else 2
    return g.with_pair(i, j, g.pair_state(i, j) | bit)


def brute_completes(g: Digraph, k: int, t: int, u: int, v: int) -> bool:
    """Any copy of blowup(k, t) with u strictly before v, by enumeration."""
    verts = range(g.n)
    for levels in permutations([frozenset(c) for c in combinations(verts, t)], k):
        flat = [w for lv in levels for w in lv]
        if len(set(flat)) != k * t:
            continue
        pos = {w: i for i, lv in enumerate(levels) for w in lv}
        if u not in pos or v not in pos or pos[u] >= pos[v]:
            continue
        if all(g.has_arc(x, y)
               for i, lv in enumerate(levels) for x in lv
               for j in range(i + 1, k) for y in levels[j]):
            return True
    return False


def test_arc_completes_blowup_against_enumeration():
    rng = random.Random(17)
    cases = 0
    while cases < 250:
        n = rng.randint(2, 5)
        g = random_digraph(rng, n)
        u, v = rng.sample(range(n), 2)
        if not g.has_arc(u, v):
            g = add_arc(g, u, v)
        k, t = rng.choice([(2, 1), (3, 1), (2, 2), (4, 1), (3, 2)])
        got = arc_completes_blowup(g.out_masks, g.in_masks, n, k, t, u, v)
        assert got == brute_completes(g, k, t, u, v)
        cases += 1
    # t = 1 takes the region test: sparser hosts up to 7 vertices, both
    # answers, and hosts that lack the arc u -> v itself
    rng = random.Random(23)
    seen = set()
    for _ in range(400):
        n = rng.randint(2, 7)
        density = rng.choice((0.3, 0.5, 0.7, 0.95))
        g = Digraph(n, tuple(rng.choice((1, 2, 3)) if rng.random() < density else 0
                             for _ in range(n * (n - 1) // 2)))
        u, v = rng.sample(range(n), 2)
        if rng.random() < 0.9 and not g.has_arc(u, v):
            g = add_arc(g, u, v)
        k = rng.randint(2, 5)
        got = arc_completes_blowup(g.out_masks, g.in_masks, n, k, 1, u, v)
        assert got == brute_completes(g, k, 1, u, v), (g, k, u, v)
        seen.add((k, got))
    assert seen == {(k, b) for k in range(2, 6) for b in (False, True)}
    # 3 sits both before u = 0 and after v = 1; reached after 2 (after v)
    # it must stay after v, so 4 (before u) cannot follow it
    g = Digraph.from_arcs(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 0), (1, 3), (3, 1),
                              (2, 3), (4, 0), (4, 1), (2, 4), (3, 4), (0, 5), (1, 5), (2, 5)])
    assert not arc_completes_blowup(g.out_masks, g.in_masks, 6, 5, 1, 0, 1)
    assert not brute_completes(g, 5, 1, 0, 1)


def test_arc_completes_blowup_k2_shortcut_against_enumeration():
    # k = 2 with t >= 2 skips the level-chain search; check it against
    # enumeration and against that search, on hosts up to 7 vertices
    rng = random.Random(41)
    seen = set()
    for _ in range(300):
        t = rng.choice((2, 3))
        n = rng.randint(2 * t, 7)
        density = rng.choice((0.3, 0.5, 0.7, 0.95))
        g = Digraph(n, tuple(rng.choice((1, 2, 3)) if rng.random() < density else 0
                             for _ in range(n * (n - 1) // 2)))
        u, v = rng.sample(range(n), 2)
        if rng.random() < 0.9 and not g.has_arc(u, v):
            g = add_arc(g, u, v)
        got = arc_completes_blowup(g.out_masks, g.in_masks, n, 2, t, u, v)
        assert got == brute_completes(g, 2, t, u, v), (g, t, u, v)
        assert got == _chain(g.out_masks, (1 << n) - 1, 2, t, {}, (u, v))
        seen.add((t, got))
    assert seen == {(t, b) for t in (2, 3) for b in (False, True)}


def dense_host(rng: random.Random, n: int, u: int, v: int) -> Digraph:
    """A random digraph of density 0.6 to 0.95, given the arc u -> v nine
    times in ten: dense hosts hold both answers once k * t <= n."""
    density = rng.choice((0.6, 0.8, 0.9, 0.95))
    g = Digraph(n, tuple(rng.choice((1, 2, 3)) if rng.random() < density else 0
                         for _ in range(n * (n - 1) // 2)))
    if rng.random() < 0.9 and not g.has_arc(u, v):
        g = add_arc(g, u, v)
    return g


def test_arc_completes_blowup_root_cut_for_k3_and_more():
    # k >= 3 with t >= 2 starts the pending walk from in[v] | out[u], not
    # from every vertex; check it against enumeration and against the
    # walk from the full vertex mask.  k = 3, t = 2 returns before any
    # walk while n < 6, so n = 6 and 7 are where both answers occur
    rng = random.Random(29)
    seen = set()
    for _ in range(200):
        n = rng.randint(6, 7)
        u, v = rng.sample(range(n), 2)
        g = dense_host(rng, n, u, v)
        got = arc_completes_blowup(g.out_masks, g.in_masks, n, 3, 2, u, v)
        assert got == brute_completes(g, 3, 2, u, v), (g, u, v)
        assert got == _chain(g.out_masks, (1 << n) - 1, 3, 2, {}, (u, v))
        seen.add((n, got))
    assert seen == {(n, b) for n in (6, 7) for b in (False, True)}
    # t = 3 holds no copy with k >= 3 below 9 vertices, so the answer
    # is no at n <= 7.  At n = 9 a copy needs 27 arcs, so the hosts are
    # mostly digons; both answers occur against the full-mask walk, and
    # enumeration (about 0.7 s a host) checks one of each
    rng = random.Random(37)
    for n in range(6, 8):
        u, v = rng.sample(range(n), 2)
        g = dense_host(rng, n, u, v)
        assert not arc_completes_blowup(g.out_masks, g.in_masks, n, 3, 3, u, v)
        assert not brute_completes(g, 3, 3, u, v)
    seen = {}
    for _ in range(60):
        u, v = rng.sample(range(9), 2)
        digons = rng.choice((0.6, 0.75, 0.9))
        g = add_arc(Digraph(9, tuple(3 if rng.random() < digons else rng.randint(0, 2)
                                     for _ in range(36))), u, v)
        got = arc_completes_blowup(g.out_masks, g.in_masks, 9, 3, 3, u, v)
        assert got == _chain(g.out_masks, (1 << 9) - 1, 3, 3, {}, (u, v)), (g, u, v)
        seen.setdefault(got, (g, u, v))
    assert set(seen) == {False, True}
    for got, (g, u, v) in seen.items():
        assert brute_completes(g, 3, 3, u, v) == got


@settings(max_examples=200, deadline=None)
@given(g=digraphs(2, 7), k=st.integers(2, 5), t=st.integers(1, 2), data=st.data())
def test_arc_completes_blowup_invariant_under_relabelling(g, k, t, data):
    u, v = data.draw(st.permutations(range(g.n)))[:2]
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = Digraph.from_arcs(g.n, [(perm[x], perm[y]) for x, y in g.arcs()])
    assert arc_completes_blowup(relabelled.out_masks, relabelled.in_masks, g.n, k, t,
                                perm[u], perm[v]) == \
        arc_completes_blowup(g.out_masks, g.in_masks, g.n, k, t, u, v)


def test_incremental_check_tracks_freeness_along_arc_insertions():
    # grow random graphs one arc at a time; while the graph stays free,
    # "new arc completes a copy" must coincide with "graph stopped being free"
    rng = random.Random(31)
    spec_pool = [(2, 1), (3, 1), (2, 2), (3, 2)]
    for _ in range(60):
        n = rng.randint(3, 6)
        k, t = rng.choice(spec_pool)
        spec = BlowupSpec(k, t)
        g = Digraph.empty(n)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
        rng.shuffle(arcs)
        for (u, v) in arcs:
            nxt = add_arc(g, u, v)
            completed = arc_completes_blowup(nxt.out_masks, nxt.in_masks, n, k, t, u, v)
            assert completed == (not is_free(nxt, spec))
            if completed:
                break
            g = nxt


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------

def test_partition_ok_known_cases():
    g = make_dtr(4, 2)
    good = Partition(2, (0, 0, 1, 1))
    assert partition_ok(g, good, 1)
    # putting a digon inside a class is fine only for t >= 2: a digon is
    # a copy of T_2^1 but not of T_2^2
    mixed = Partition(2, (0, 1, 0, 1))
    assert not partition_ok(g, mixed, 1)
    assert partition_ok(g, mixed, 2)


def test_partition_ok_matches_per_class_freeness():
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(2, 6)
        g = random_digraph(rng, n)
        r = rng.randint(1, 3)
        t = rng.randint(1, 2)
        assign = tuple(rng.randrange(r) for _ in range(n))
        part = Partition(r, assign)
        expected = True
        for cls in part.classes():
            sub = g.induced(cls)
            if contains(sub, blowup(2, t)) is not None:
                expected = False
        assert partition_ok(g, part, t) == expected
