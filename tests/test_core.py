"""Pair-state model, constructions, weights, and the TDG codec."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttlab import (
    BOTH,
    FWD,
    BWD,
    NO_ARC,
    BlowupSpec,
    CapacityError,
    Digraph,
    Partition,
    TdgParseError,
    Weight,
    WeightedValue,
    blowup,
    decode,
    encode,
    extremal,
    make_dtr,
    pair_index,
    pair_list,
    turan_edges,
    turan_part_sizes,
    turan_partition,
    weighted_size,
)


def random_digraph(rng: random.Random, n: int, oriented: bool = False) -> Digraph:
    choices = (NO_ARC, FWD, BWD) if oriented else (NO_ARC, FWD, BWD, BOTH)
    states = tuple(rng.choice(choices) for _ in range(n * (n - 1) // 2))
    return Digraph(n, states)


# ----------------------------------------------------------------------
# pair order and the Digraph model
# ----------------------------------------------------------------------

def test_pair_list_is_lexicographic():
    assert pair_list(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert pair_list(1) == ()
    assert pair_list(0) == ()


def test_pair_index_matches_pair_list():
    # the closed form, at every n up to the vertex bound
    for n in range(17):
        for idx, (i, j) in enumerate(pair_list(n)):
            assert pair_index(n, i, j) == idx
            assert pair_index(n, j, i) == idx


def test_pair_index_refuses_equal_or_out_of_range_vertices():
    g = Digraph.empty(4)
    for i, j in ((0, 9), (9, 0), (2, 2), (-1, 2), (0, 4)):
        with pytest.raises(ValueError):
            pair_index(4, i, j)
        with pytest.raises(ValueError):
            g.pair_state(i, j)


def test_from_arcs_and_queries():
    g = Digraph.from_arcs(4, [(0, 1), (2, 1), (3, 0), (0, 3)])
    assert g.has_arc(0, 1) and not g.has_arc(1, 0)
    assert g.has_arc(2, 1) and not g.has_arc(1, 2)
    assert g.has_arc(3, 0) and g.has_arc(0, 3)
    assert g.pair_state(0, 1) == FWD
    assert g.pair_state(1, 0) == BWD  # same pair read from the other side
    assert g.pair_state(1, 2) == BWD
    assert g.pair_state(0, 3) == BOTH
    assert g.pair_state(1, 3) == NO_ARC
    assert (g.f1, g.f2) == (2, 1)
    assert g.arc_count == 4
    assert sorted(g.arcs()) == [(0, 1), (0, 3), (2, 1), (3, 0)]


def test_from_arcs_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Digraph.from_arcs(3, [(1, 1)])
    with pytest.raises(ValueError):
        Digraph.from_arcs(3, [(0, 3)])


def test_with_pair_does_not_mutate():
    g = Digraph.empty(3)
    h = g.with_pair(0, 2, BOTH)
    assert g.pair_state(0, 2) == NO_ARC
    assert h.pair_state(0, 2) == BOTH
    assert (g.f1, g.f2) == (0, 0)
    assert (h.f1, h.f2) == (0, 1)


def test_induced_subgraph_keeps_relative_order():
    g = Digraph.from_arcs(5, [(0, 2), (2, 4), (4, 0), (1, 3)])
    h = g.induced([0, 2, 4])
    assert h.n == 3
    assert sorted(h.arcs()) == [(0, 1), (1, 2), (2, 0)]
    with pytest.raises(ValueError):
        g.induced([2, 0])  # must be strictly increasing


def test_out_masks_agree_with_arcs():
    rng = random.Random(7)
    for _ in range(50):
        g = random_digraph(rng, rng.randint(0, 7))
        for u in range(g.n):
            mask = g.out_masks[u]
            for v in range(g.n):
                assert bool(mask >> v & 1) == g.has_arc(u, v)


def test_has_arc_refuses_vertices_out_of_range():
    g = Digraph.from_arcs(3, [(0, 1)])
    for u, v in ((0, 5), (0, -1), (5, 0), (-1, 0), (0, 3)):
        with pytest.raises(ValueError):
            g.has_arc(u, v)
    assert not g.has_arc(1, 1)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 8), oriented=st.booleans(), data=st.data())
def test_states_masks_and_arcs_agree(n, oriented, data):
    choices = (NO_ARC, FWD, BWD) if oriented else (NO_ARC, FWD, BWD, BOTH)
    npairs = n * (n - 1) // 2
    states = data.draw(st.lists(st.sampled_from(choices), min_size=npairs, max_size=npairs))
    g = Digraph(n, tuple(states))
    assert list(g.in_masks) == [sum(1 << u for u in range(n) if g.out_masks[u] >> v & 1)
                                for v in range(n)]
    assert Digraph.from_arcs(n, g.arcs()) == g
    assert g.f1 == sum(s in (FWD, BWD) for s in states)
    assert g.f2 == states.count(BOTH)
    swap = {NO_ARC: NO_ARC, FWD: BWD, BWD: FWD, BOTH: BOTH}
    for (i, j), s in zip(pair_list(n), states):
        # a state is two arc bits: FWD for i -> j, BWD for j -> i
        assert (g.out_masks[i] >> j & 1, g.out_masks[j] >> i & 1) == (s & FWD > 0, s & BWD > 0)
        assert g.pair_state(i, j) == s
        assert g.pair_state(j, i) == swap[s]


def test_oriented_flag():
    assert Digraph.from_arcs(3, [(0, 1), (1, 2)]).is_oriented
    assert not Digraph.from_arcs(3, [(0, 1), (1, 0)]).is_oriented


def test_equality_and_hash():
    g = Digraph.from_arcs(3, [(0, 1)])
    h = Digraph(3, (FWD, NO_ARC, NO_ARC))
    assert g == h and hash(g) == hash(h)
    assert g != Digraph(3, (BWD, NO_ARC, NO_ARC))
    assert g != Digraph.from_arcs(4, [(0, 1)])


def test_states_are_normalised_to_int():
    # a digraph equal to Digraph(3, (0, 0, 1)) must encode as it does
    assert encode(Digraph(3, (0, 0, True))) == "TDG 3 001"
    with pytest.raises(ValueError):
        Digraph(3, (0, 0, 1.0))
    g = Digraph(3, np.array([0, 3, 1], np.uint8))
    assert [type(s) for s in g.states] == [int] * 3
    assert encode(g) == "TDG 3 031"


def test_vertex_count_and_vertices_are_normalised_to_int():
    # True is the vertex count 1, so the digraph encodes as one that decodes
    g = Digraph(True, ())
    assert type(g.n) is int and encode(g) == "TDG 1" and decode("TDG 1") == g
    res = extremal(True, BlowupSpec(2, 1), Weight.rational(2))
    assert encode(res.witness) == "TDG 1"
    assert type(Digraph(np.int64(3), (0, 0, 1)).n) is int
    with pytest.raises(ValueError):
        Digraph(2.0, (1,))
    g = Digraph.from_arcs(3, [(0, 1)])
    assert g.has_arc(np.int64(0), True) and g.pair_state(np.int64(0), 1) == FWD
    for bad in ((0.0, 1), (0, 1.0), ("0", 1), (None, 1)):
        with pytest.raises(ValueError):
            g.has_arc(*bad)
        with pytest.raises(ValueError):
            g.pair_state(*bad)
        with pytest.raises(ValueError):
            pair_index(3, *bad)
    with pytest.raises(ValueError):
        pair_index(3.0, 0, 1)


def test_spec_and_construction_sizes_are_normalised_to_int():
    spec = BlowupSpec(np.int64(3), True)
    assert (type(spec.k), type(spec.t)) == (int, int) and str(spec) == "T_3^1"
    assert spec == BlowupSpec(3, 1) and hash(spec) == hash(BlowupSpec(3, 1))
    assert make_dtr(np.int64(4), True) == make_dtr(4, 1)
    assert turan_part_sizes(True, np.int64(2)) == [1, 0]
    assert turan_edges(np.int64(5), 2) == 6
    res = extremal(True, BlowupSpec(2, 1), Weight.rational(2))
    assert type(res.n) is int and res.n == 1
    for call in (lambda: BlowupSpec(2.0, 1), lambda: BlowupSpec(2, "1"),
                 lambda: make_dtr(2.0, 1), lambda: make_dtr(2, 1.0),
                 lambda: turan_part_sizes(2.0, 1), lambda: turan_edges(4, 2.0),
                 lambda: extremal(2.0, BlowupSpec(2, 1), Weight.rational(2))):
        with pytest.raises(ValueError):
            call()


def test_capacity_bound_is_sixteen():
    Digraph.empty(16)
    with pytest.raises(CapacityError):
        Digraph.empty(17)


# ----------------------------------------------------------------------
# constructions
# ----------------------------------------------------------------------

def test_partition_classes_are_normalised_to_int():
    p = Partition(2, [0, 1])
    assert p == Partition(2, (0, 1)) and hash(p) == hash(Partition(2, (0, 1)))
    q = Partition(2, np.array([1, 0, 1]))
    assert q.assign == (1, 0, 1) and [type(c) for c in q.assign] == [int] * 3
    for bad in ((0, 1.0), (0, "1"), (0, None), 5):
        with pytest.raises(ValueError):
            Partition(2, bad)
    assert type(Partition(np.int64(2), (0, 1)).r) is int
    with pytest.raises(ValueError):
        Partition(2.5, (0, 1, 2))


def test_blowup_arc_structure():
    g = blowup(3, 2)
    assert g.n == 6
    # vertex v sits on level v // t; all arcs go up, none inside a level
    for u in range(6):
        for v in range(6):
            if u == v:
                continue
            expected = u // 2 < v // 2
            assert g.has_arc(u, v) == expected
    assert g.f2 == 0 and g.f1 == 4 * 3  # t^2 per level pair
    assert g.is_oriented


def test_blowup_single_vertex_cases():
    assert blowup(1, 3).arc_count == 0
    assert encode(blowup(2, 1)) == "TDG 2 1"
    assert encode(blowup(3, 1)) == "TDG 3 111"


def test_turan_part_sizes_balanced_larger_first():
    assert turan_part_sizes(7, 3) == [3, 2, 2]
    assert turan_part_sizes(6, 3) == [2, 2, 2]
    assert turan_part_sizes(5, 2) == [3, 2]
    assert turan_part_sizes(3, 5) == [1, 1, 1, 0, 0]  # always r entries
    for n in range(13):
        for r in range(1, 5):
            sizes = turan_part_sizes(n, r)
            assert sum(sizes) == n
            assert sizes == sorted(sizes, reverse=True)
            nonzero = [s for s in sizes if s]
            if nonzero:
                assert max(nonzero) - min(nonzero) <= 1


def test_turan_edges_closed_form():
    for n in range(13):
        for r in range(1, 5):
            expected = math.comb(n, 2) - sum(
                math.comb(s, 2) for s in turan_part_sizes(n, r))
            assert turan_edges(n, r) == expected


def test_make_dtr_examples():
    assert encode(make_dtr(4, 2)) == "TDG 4 033330"
    assert encode(make_dtr(3, 3)) == "TDG 3 333"
    assert encode(make_dtr(5, 2)) == "TDG 5 0033033330"
    g = make_dtr(7, 3)
    assert g.f1 == 0 and g.f2 == turan_edges(7, 3)


def test_make_dtr_blocks_are_consecutive():
    g = make_dtr(7, 3)
    part = turan_partition(7, 3)
    classes = part.classes()
    assert classes == [[0, 1, 2], [3, 4], [5, 6]]
    for cls in classes:
        for i in cls:
            for j in cls:
                if i < j:
                    assert g.pair_state(i, j) == NO_ARC


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------

def test_weight_parse_tokens():
    assert Weight.parse("2") == Weight.rational(2)
    assert Weight.parse("7/4") == Weight.rational(Fraction(7, 4))
    assert Weight.parse("log3") == Weight.log2_3()
    assert Weight.parse("2").token == "2"
    assert Weight.parse("7/4").token == "7/4"
    assert Weight.parse("log3").token == "log3"


def test_weight_range_is_open_at_three_halves():
    Weight.rational(Fraction(31, 20))
    Weight.rational(2)
    with pytest.raises(ValueError):
        Weight.rational(Fraction(3, 2))
    with pytest.raises(ValueError):
        Weight.rational(Fraction(21, 10))
    with pytest.raises(ValueError):
        Weight.parse("9/4")
    with pytest.raises(ValueError):
        Weight.parse("banana")


def test_weight_two_counts_arcs():
    # one digon is worth exactly two single arcs
    two = Weight.rational(2)
    assert two.compare((2, 0), (0, 1)) == 0
    assert two.compare((1, 1), (3, 0)) == 0
    assert two.compare((0, 2), (3, 0)) > 0


def test_log3_weight_orders_by_count_of_extensions():
    # 3^f2 * 2^f1: two digons beat three single arcs since 9 > 8
    a = Weight.log2_3()
    assert a.compare((0, 2), (3, 0)) > 0
    assert a.compare((3, 0), (0, 2)) < 0
    # and log2(3) per digon can never tie a rational combination
    assert a.compare((2, 1), (0, 2)) > 0  # 24 > 9


def test_rational_weight_exact_comparison():
    a = Weight.rational(Fraction(7, 4))
    # 7/4 * 4 = 7 single arcs exactly
    assert a.compare((7, 0), (0, 4)) == 0
    assert a.compare((6, 0), (0, 4)) < 0
    assert a.value_exact(3, 2) == Fraction(3) + 2 * Fraction(7, 4)
    assert Weight.log2_3().value_exact(3, 2) is None
    assert Weight.log2_3().value_float(0, 2) == pytest.approx(2 * math.log2(3))


def test_weighted_value_ordering():
    a = Weight.rational(2)
    lo = WeightedValue(1, 0, a)
    hi = WeightedValue(0, 1, a)
    assert lo < hi
    assert WeightedValue(2, 0, a) == WeightedValue(0, 1, a)
    assert hash(WeightedValue(2, 0, a)) == hash(WeightedValue(0, 1, a))
    assert max(lo, hi) is hi


def test_weighted_values_refuse_cross_weight_comparison():
    x = WeightedValue(1, 1, Weight.rational(2))
    y = WeightedValue(1, 1, Weight.log2_3())
    with pytest.raises(ValueError):
        x < y
    with pytest.raises(ValueError):
        x == y


def test_weighted_size_of_constructions():
    g = make_dtr(4, 2)
    v = weighted_size(g, Weight.rational(2))
    assert v.pair == (0, 4)
    assert v.exact == 8
    assert weighted_size(blowup(3, 1), Weight.rational(2)).exact == 3


# ----------------------------------------------------------------------
# TDG codec
# ----------------------------------------------------------------------

def test_encode_examples():
    assert encode(Digraph.empty(0)) == "TDG 0"
    assert encode(Digraph.empty(1)) == "TDG 1"
    assert encode(Digraph.from_arcs(2, [(0, 1)])) == "TDG 2 1"
    assert encode(Digraph.from_arcs(2, [(1, 0)])) == "TDG 2 2"


def test_decode_inverts_encode_on_random_graphs():
    rng = random.Random(20260819)
    for _ in range(400):
        g = random_digraph(rng, rng.randint(0, 8))
        assert decode(encode(g)) == g


def test_encode_distinguishes_all_small_graphs():
    seen = set()
    for states in __import__("itertools").product(range(4), repeat=3):
        seen.add(encode(Digraph(3, states)))
    assert len(seen) == 64


@pytest.mark.parametrize("text,position", [
    ("TDX 3 111", 0),
    ("tdg 3 111", 0),
    ("TDG", 3),
    ("TDG_3 111", 3),
    ("TDG  3", 4),
    ("TDG x", 4),
    ("TDG -1 ", 4),
    ("TDG 3 11", 8),
    ("TDG 3 141", 7),
    ("TDG 3 1111", 9),
    ("TDG 2 1 ", 7),
    ("TDG 1 0", 5),
    ("TDG \u00b2 ", 4),  # superscript two: a digit to str.isdigit, not to int()
    ("TDG \u0663 000", 4),  # Arabic-Indic three: int() reads it as 3
    ("TDG 03 111", 4),  # a leading zero: the encoding of this digraph is "TDG 3 111"
    ("TDG 00", 4),
    ("TDG 001", 4),
])
def test_decode_rejects_malformed_text_with_position(text, position):
    with pytest.raises(TdgParseError) as err:
        decode(text)
    assert err.value.position == position


@st.composite
def tdg_texts(draw):
    """Texts of the form "TDG ", digits, then an optional space and
    characters from 0123.  Counts up to 7, leading zeros included, come
    with a state string within one character of the right length, so
    many texts decode."""
    count = draw(st.from_regex(r"0{0,2}[0-7]", fullmatch=True) | st.text("0123456789", max_size=3))
    size = min(math.comb(int(count), 2), 30) if count else 0
    states = draw(st.text("0123", min_size=max(size - 1, 0), max_size=size + 1))
    return f"TDG {count}" + draw(st.sampled_from(["", " " + states]))


@settings(max_examples=300, deadline=None)
@given(tdg_texts())
@example("TDG 03 111")
def test_decoded_text_is_the_encoding(text):
    """A text that decodes is its digraph's encoding: one digraph, one text."""
    try:
        g = decode(text)
    except (TdgParseError, CapacityError):
        return
    assert encode(g) == text


def test_decode_refuses_oversized_n():
    with pytest.raises(CapacityError):
        decode("TDG 17 " + "0" * 136)
