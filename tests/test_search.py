"""Branch-and-bound extremal search and the edit-distance probe."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlab import census, embed, search
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
# cost per node must leave both alone
FROZEN_SEARCHES = {
    (6, 3, 1, "2", DIGRAPH): (167205, encode(make_dtr(6, 2))),
    (6, 4, 1, "2", DIGRAPH): (42476, "TDG 6 033333333033330"),
    (6, 3, 2, "2", DIGRAPH): (1761, "TDG 6 333333333333121"),
    (5, 3, 1, "log3", DIGRAPH): (7571, "TDG 5 0033033330"),
    (5, 2, 2, "7/4", DIGRAPH): (16828, "TDG 5 3312122111"),
    (6, 3, 1, "2", ORIENTED): (4913, "TDG 6 112200112112011"),
    (6, 2, 2, "2", ORIENTED): (1671, "TDG 6 111221211112211"),
}


@pytest.mark.parametrize("case", sorted(FROZEN_SEARCHES))
def test_extremal_explored_and_witness_frozen(case):
    n, k, t, w, mode = case
    res = extremal(n, BlowupSpec(k, t), Weight.parse(w), mode)
    assert (res.explored, encode(res.witness)) == FROZEN_SEARCHES[case]


# (call, n, k, t, weight or None, mode) -> (explored or None, arc checks);
# extremal and count_free share one walk, which must keep its work
ARC_CHECK_CALLS = {
    ("extremal", 5, 3, 1, "log3", DIGRAPH): (7571, 20356),
    ("extremal", 5, 2, 2, "7/4", DIGRAPH): (16828, 41351),
    ("extremal", 6, 3, 1, "2", ORIENTED): (4913, 9820),
    ("count_free", 5, 3, 1, None, DIGRAPH): (None, 146246),
    ("count_free", 5, 2, 2, None, ORIENTED): (None, 49832),
    ("count_free", 5, 4, 1, None, ORIENTED): (None, 56216),
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


def test_naive_reports_lexicographically_first_optimum():
    res = extremal_naive(3, BlowupSpec(2, 2), Weight.rational(2))
    # every graph on 3 vertices is free; the all-digon graph is the
    # unique optimum so the tie-break never fires, but the value must be
    # the top frontier cell
    assert res.best.pair == (0, 3)
    assert res.witness == make_dtr(3, 3)


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
        n = rng.randint(2, 5)
        g = random_digraph(rng, n)
        r = rng.randint(1, 3)
        assert edit_distance_to_dtr(g, r).distance == brute_edit_distance(g, r)


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
