"""Branch-and-bound extremal search and the edit-distance probe."""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlab import census, embed, search
from ttlab.core import pair_list
from ttlab import (
    DIGRAPH,
    ORIENTED,
    BlowupSpec,
    CapacityError,
    Digraph,
    Weight,
    blowup,
    edit_distance_to_dtr,
    encode,
    extremal,
    extremal_naive,
    is_free,
    make_dtr,
    turan_edges,
    turan_part_sizes,
    weighted_size,
)

from test_core import random_digraph
from test_embed import add_arc, digraphs

WEIGHTS = [Weight.rational(2), Weight.log2_3(), Weight.parse("7/4")]
SPECS = [BlowupSpec(3, 1), BlowupSpec(4, 1), BlowupSpec(2, 2), BlowupSpec(3, 2)]


# ----------------------------------------------------------------------
# extremal solver
# ----------------------------------------------------------------------

def test_extremal_matches_turan_bound_for_single_vertex_levels():
    # forbidding T_{r+1}^1 at weight 2: the bidirected Turan digraph is optimal
    a = Weight.rational(2)
    for r in (2, 3):
        for n in range(2, 6):
            res = extremal(n, BlowupSpec(r + 1, 1), a)
            assert res.best.exact == 2 * turan_edges(n, r)
            assert res.best == weighted_size(res.witness, a)
            assert is_free(res.witness, res.spec)


def test_extremal_witness_is_free_and_attains_best():
    for mode in (DIGRAPH, ORIENTED):
        for spec in SPECS:
            for a in WEIGHTS:
                res = extremal(4, spec, a, mode)
                assert is_free(res.witness, spec)
                assert weighted_size(res.witness, a) == res.best
                if mode == ORIENTED:
                    assert res.witness.is_oriented
                assert res.explored >= 1


def test_extremal_agrees_with_naive_oracle_small():
    for mode in (DIGRAPH, ORIENTED):
        for n in (2, 3, 4):
            for spec in SPECS:
                for a in WEIGHTS:
                    fast = extremal(n, spec, a, mode)
                    slow = extremal_naive(n, spec, a, mode)
                    assert a.compare(fast.best.pair, slow.best.pair) == 0, (
                        n, str(spec), a.token, mode, fast.best.pair, slow.best.pair)
                    assert is_free(slow.witness, spec)


def test_extremal_oriented_triangle_values():
    # without transitive triangles an oriented graph keeps at most
    # floor(n^2/3) arcs (blow-up of the cyclic triangle)
    a = Weight.rational(2)
    for n, arcs in [(3, 3), (4, 5), (5, 8), (6, 12)]:
        res = extremal(n, BlowupSpec(3, 1), a, ORIENTED)
        assert res.best.pair == (arcs, 0)


def test_extremal_trivial_sizes():
    res = extremal(0, BlowupSpec(3, 1), Weight.rational(2))
    assert res.best.pair == (0, 0) and res.witness.n == 0
    res = extremal(1, BlowupSpec(2, 2), Weight.rational(2))
    assert res.best.pair == (0, 0)


def test_extremal_everything_fits_when_pattern_cannot():
    # k*t > n: no copies can exist, the complete bidirected graph wins
    res = extremal(3, BlowupSpec(2, 2), Weight.rational(2))
    assert res.best.pair == (0, 3)


def test_extremal_rejects_bad_input():
    with pytest.raises(CapacityError):
        extremal(17, BlowupSpec(3, 1), Weight.rational(2))
    with pytest.raises(ValueError):
        extremal(4, BlowupSpec(1, 2), Weight.rational(2))
    with pytest.raises(ValueError):
        extremal(-1, BlowupSpec(3, 1), Weight.rational(2))
    with pytest.raises(ValueError):
        extremal(4, BlowupSpec(3, 1), Weight.rational(2), mode="mixed")


def test_extremal_is_deterministic():
    first = extremal(5, BlowupSpec(3, 1), Weight.log2_3())
    second = extremal(5, BlowupSpec(3, 1), Weight.log2_3())
    assert first.witness == second.witness
    assert first.explored == second.explored


# (n, k, t, weight, mode) -> (explored, witness encoding); a change to the
# cost per node must leave both alone.  explored covers the whole ex(m - 1)
# chain, m = 2..n; at n = 6 the T_3^1 and T_4^1 digraph searches end at
# the root on the averaging cap
FROZEN_SEARCHES = {
    (6, 3, 1, "2", DIGRAPH): (245, encode(make_dtr(6, 2))),
    (6, 4, 1, "2", DIGRAPH): (78, "TDG 6 033333333033330"),
    (6, 3, 2, "2", DIGRAPH): (911, "TDG 6 333333333333121"),
    (5, 3, 1, "log3", DIGRAPH): (813, "TDG 5 0033033330"),
    (5, 2, 2, "7/4", DIGRAPH): (5398, "TDG 5 3312122111"),
    (6, 3, 1, "2", ORIENTED): (192, "TDG 6 112200112112011"),
    (6, 2, 2, "2", ORIENTED): (1106, "TDG 6 111221211112211"),
}


@pytest.mark.parametrize("case", sorted(FROZEN_SEARCHES))
def test_extremal_explored_and_witness_frozen(case):
    n, k, t, w, mode = case
    res = extremal(n, BlowupSpec(k, t), Weight.parse(w), mode)
    assert (res.explored, encode(res.witness)) == FROZEN_SEARCHES[case]


def test_extremal_t3_at_seven_and_eight_vertices():
    # past the oracle's reach: both equal 2*t_2(n) = e_2(DTR(n, 2)), and
    # at n = 8 the averaging cap 8/6 * 24 = 32 ends the search at the root
    a = Weight.rational(2)
    spec = BlowupSpec(3, 1)
    results = {}
    for n, value in ((7, 24), (8, 32)):
        res = extremal(n, spec, a)
        assert res.best.exact == value == 2 * turan_edges(n, 2)
        assert res.best == weighted_size(make_dtr(n, 2), a)
        assert res.witness == make_dtr(n, 2)
        results[n] = res
    assert results[8].explored == results[7].explored + 1


# weight -> (explored at n = 5, at n = 6) for digraph T_3^1: under every
# weight the n = 6 step meets the averaging cap and ends at the root
AVERAGING_CAP_EXITS = {"2": (244, 245), "log3": (813, 814), "7/4": (812, 813)}


@pytest.mark.parametrize("w", sorted(AVERAGING_CAP_EXITS))
def test_averaging_cap_ends_the_search_at_the_root_under_every_weight(w):
    spec, a = BlowupSpec(3, 1), Weight.parse(w)
    five, six = extremal(5, spec, a), extremal(6, spec, a)
    assert (five.explored, six.explored) == AVERAGING_CAP_EXITS[w]
    assert six.explored == five.explored + 1
    assert six.witness == make_dtr(6, 2)


@lru_cache(maxsize=None)
def _ex_pair(n: int, k: int, t: int, token: str) -> tuple[int, int]:
    return extremal(n, BlowupSpec(k, t), Weight.parse(token)).best.pair


def _greedy_free(n: int, states, spec: BlowupSpec) -> Digraph:
    """The drawn states, pair by pair, each dropped to no arc where it
    would make the digraph so far contain the pattern."""
    g = Digraph.empty(n)
    for (i, j), s in zip(pair_list(n), states):
        nxt = g.with_pair(i, j, s)
        if is_free(nxt, spec):
            g = nxt
    return g


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 6), data=st.data(),
       spec=st.sampled_from(SPECS), a=st.sampled_from(WEIGHTS))
def test_vertex_deletion_averaging_on_free_digraphs(n, data, spec, a):
    # each pair survives n - 2 of the n vertex deletions, and every G - v
    # is free: the two facts behind the cuts of `extremal`
    states = data.draw(st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2,
                                max_size=n * (n - 1) // 2))
    g = _greedy_free(n, states, spec)
    assert is_free(g, spec)
    minors = [g.induced([u for u in range(n) if u != v]) for v in range(n)]
    assert sum(h.f1 for h in minors) == (n - 2) * g.f1
    assert sum(h.f2 for h in minors) == (n - 2) * g.f2
    ex = _ex_pair(n - 1, spec.k, spec.t, a.token)
    for h in minors:
        assert is_free(h, spec)
        assert a.compare((h.f1, h.f2), ex) <= 0


# (call, n, k, t, weight or None, mode) -> (explored or None, arc checks);
# extremal and count_free share one walk, which must keep its work.  The
# count_free rows are the attachment walks of the orbit route (`orbits`):
# every level's walks from each class's canonical out-masks
ARC_CHECK_CALLS = {
    ("extremal", 5, 3, 1, "log3", DIGRAPH): (813, 2339),
    ("extremal", 5, 2, 2, "7/4", DIGRAPH): (5398, 13618),
    ("extremal", 6, 3, 1, "2", ORIENTED): (192, 305),
    ("count_free", 5, 3, 1, None, DIGRAPH): (None, 10821),
    ("count_free", 5, 2, 2, None, ORIENTED): (None, 2948),
    ("count_free", 5, 4, 1, None, ORIENTED): (None, 3464),
}


@pytest.mark.parametrize("case", sorted(ARC_CHECK_CALLS, key=str), ids=str)
def test_free_walk_arc_check_calls_frozen(case, monkeypatch):
    # count through the module names the benchmark tracer wraps, so a walk
    # that calls the check some other way fails here too
    calls = 0
    real = embed.arc_completes_blowup

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    for module in (search, census, embed):
        monkeypatch.setattr(module, "arc_completes_blowup", counted, raising=False)
    call, n, k, t, w, mode = case
    if call == "extremal":
        explored = extremal(n, BlowupSpec(k, t), Weight.parse(w), mode).explored
    else:
        census.count_free(n, BlowupSpec(k, t), mode)
        explored = None
    assert (explored, calls) == ARC_CHECK_CALLS[case]


@pytest.mark.parametrize("mode", [DIGRAPH, ORIENTED])
def test_free_walk_keeps_in_masks_of_its_out_masks(mode, monkeypatch):
    # the walk derives in-masks from the out-masks it is given (the empty
    # digraph for extremal, a class's canonical form for count_free's
    # attachment walks), updates them beside the out-masks and restores
    # both after each child; a slip hands later checks a digraph that is
    # not there
    real = embed.arc_completes_blowup
    calls = 0

    def checked(out_masks, in_masks, n, k, t, u, v):
        nonlocal calls
        calls += 1
        derived = [sum(1 << w for w in range(n) if out_masks[w] >> x & 1) for x in range(n)]
        assert list(in_masks) == derived, (list(out_masks), list(in_masks), u, v)
        return real(out_masks, in_masks, n, k, t, u, v)

    monkeypatch.setattr(search, "arc_completes_blowup", checked)
    # digraph n = 5 censuses make up to 58k checks, so only T_3^1 (11k)
    # runs there; T_3^2 first reaches the pending walk at n = 6
    top = 4 if mode == DIGRAPH else 5
    for spec in SPECS:
        for n in range(2, 6):
            if n <= top:
                census.count_free(n, spec, mode)
            extremal(n, spec, Weight.rational(2), mode)
    if mode == DIGRAPH:
        census.count_free(5, BlowupSpec(3, 1), mode)
    extremal(6, BlowupSpec(3, 2), Weight.rational(2), mode)
    # the loop makes 30,752 checks in digraph mode and 8,905 in oriented
    assert calls > (30_000 if mode == DIGRAPH else 8_000)


def _reversed(g: Digraph) -> Digraph:
    return Digraph.from_arcs(g.n, [(v, u) for u, v in g.arcs()])


def _swapped(g: Digraph, i: int) -> Digraph:
    """g with vertices i and i + 1 exchanged."""
    image = {i: i + 1, i + 1: i}
    return Digraph.from_arcs(g.n, [(image.get(u, u), image.get(v, v)) for u, v in g.arcs()])


@settings(max_examples=80, deadline=None)
@given(g=digraphs(2, 7), r=st.integers(1, 3), t=st.integers(1, 2), data=st.data())
def test_reversal_and_adjacent_swaps_keep_freeness_and_partitions(g, r, t, data):
    # the fact behind extremal's mirror rule: reversing every arc, or
    # swapping i and i + 1, maps each copy of a T_k^t to a copy.  Each
    # pattern is tried on g, on a free digraph grown from g's states and on
    # that one with one more arc, which sits at the threshold.  Reversal
    # also keeps every class of a partition free of T_2^t, which is checked
    # here as a property of admits_partition alone
    n = g.n
    for spec in SPECS:
        free = _greedy_free(n, g.states, spec)
        u, v = data.draw(st.permutations(range(n)))[:2]
        for h in (g, free, add_arc(free, u, v)):
            expect = is_free(h, spec)
            assert is_free(_reversed(h), spec) == expect
            for i in range(n - 1):
                assert is_free(_swapped(h, i), spec) == expect
    for h in (g, _greedy_free(n, g.states, BlowupSpec(r + 1, t))):
        assert census.admits_partition(_reversed(h), r, t) == census.admits_partition(h, r, t)


def test_naive_reports_lexicographically_first_optimum():
    res = extremal_naive(3, BlowupSpec(2, 2), Weight.rational(2))
    # every graph on 3 vertices is free; the all-digon graph is the
    # unique optimum so the tie-break never fires, but the value must be
    # the top frontier cell
    assert res.best.pair == (0, 3)
    assert res.witness == make_dtr(3, 3)
    # here (8, 2) and (0, 6) tie at a = 2; the reported pair is the one of
    # the smallest-index optimum, which is the witness's own
    res = extremal_naive(5, BlowupSpec(2, 2), Weight.rational(2))
    assert encode(res.witness) == "TDG 5 0033303033"
    assert res.best.pair == (res.witness.f1, res.witness.f2) == (0, 6)


# ----------------------------------------------------------------------
# edit distance
# ----------------------------------------------------------------------

def brute_edit_distance(g: Digraph, r: int) -> int:
    """Minimum over every assignment with Turan part sizes, recomputed
    from the pair states directly."""
    n = g.n
    sizes = turan_part_sizes(n, r)
    best = None
    for assign in product(range(r), repeat=n):
        counts = [assign.count(p) for p in range(r)]
        if sorted(counts, reverse=True) != sizes:
            continue
        cost = 0
        for i in range(n):
            for j in range(i + 1, n):
                s = g.pair_state(i, j)
                if assign[i] == assign[j]:
                    cost += bin(s).count("1")  # arcs inside a part are removed
                else:
                    cost += 2 - bin(s).count("1")  # missing cross arcs are added
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best


def test_edit_distance_zero_on_the_construction():
    for r in (1, 2, 3):
        for n in range(1, 9):
            res = edit_distance_to_dtr(make_dtr(n, r), r)
            assert res.distance == 0


def test_edit_distance_empty_graph():
    res = edit_distance_to_dtr(Digraph.empty(4), 2)
    assert res.distance == 8  # four cross pairs, two additions each
    assert res.partition.r == 2


def test_edit_distance_one_removed_arc():
    g = make_dtr(6, 2)
    # drop one direction of one digon: exactly one edit to restore
    damaged = g.with_pair(0, 3, 1)
    res = edit_distance_to_dtr(damaged, 2)
    assert res.distance == 1


def test_edit_distance_blowup_example():
    res = edit_distance_to_dtr(blowup(2, 2), 2)
    assert res.distance == 4


def test_edit_distance_partition_reproduces_cost():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_digraph(rng, n)
        r = rng.randint(1, 3)
        res = edit_distance_to_dtr(g, r)
        # recompute the cost of the reported partition independently
        assign = res.partition.assign
        cost = 0
        for i in range(n):
            for j in range(i + 1, n):
                s = g.pair_state(i, j)
                bits = bin(s).count("1")
                cost += bits if assign[i] == assign[j] else 2 - bits
        assert cost == res.distance
        assert sorted((assign.count(p) for p in range(r)), reverse=True) == \
            turan_part_sizes(n, r)


def test_edit_distance_matches_assignment_enumeration():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(2, 7)
        g = random_digraph(rng, n)
        r = rng.randint(1, 3)
        assert edit_distance_to_dtr(g, r).distance == brute_edit_distance(g, r)


def _pinned_edit_instances():
    """Three graphs for each n = 5..10 and r = 1..4: a uniform random
    digraph, a sparse one (each pair empty with probability 4/7), and
    make_dtr(n, r) with three pairs redrawn and the vertices relabelled."""
    rng = random.Random(909)
    for n in range(5, 11):
        for r in range(1, 5):
            yield random_digraph(rng, n), r
            yield Digraph(n, tuple(rng.choice((0, 0, 0, 0, 1, 2, 3)) for _ in pair_list(n))), r
            g = make_dtr(n, r)
            for _ in range(3):
                i, j = rng.sample(range(n), 2)
                g = g.with_pair(min(i, j), max(i, j), rng.randrange(4))
            perm = list(range(n))
            rng.shuffle(perm)
            yield Digraph.from_arcs(n, [(perm[u], perm[v]) for u, v in g.arcs()]), r


#: SHA-256 over "<encoding> <r> <distance> <partition>" lines of the
#: instances above.  The reported partition is the first minimum in
#: search order, so a change to that order or to a placement's cost
#: moves the digest even where the distance stays the same.
PINNED_EDIT_DIGEST = "e17e62ecb60cb2cd2ddeb4f0b87f14c518f8920b889493c96e3a966c048cf53d"


def test_edit_distance_witnesses_are_pinned():
    lines = []
    for g, r in _pinned_edit_instances():
        res = edit_distance_to_dtr(g, r)
        lines.append(f"{encode(g)} {r} {res.distance} {''.join(map(str, res.partition.assign))}")
    assert len(lines) == 72
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_EDIT_DIGEST


@settings(max_examples=150, deadline=None)
@given(g=digraphs(0, 7), r=st.integers(1, 4), data=st.data())
def test_edit_distance_invariant_under_relabelling(g, r, data):
    # the search fixes a vertex order and breaks symmetry between equal
    # empty parts, neither of which may change the minimum
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = Digraph.from_arcs(g.n, [(perm[u], perm[v]) for u, v in g.arcs()])
    assert edit_distance_to_dtr(relabelled, r).distance == edit_distance_to_dtr(g, r).distance


def test_edit_distance_capacity_and_validation():
    with pytest.raises(CapacityError):
        edit_distance_to_dtr(Digraph.empty(13), 2)
    with pytest.raises(ValueError):
        edit_distance_to_dtr(Digraph.empty(4), 0)
