"""Acceptance gate: nine checks covering constructions, both solver
routes, the censuses, the container parameter, stability, and the codec.

Each check times itself, records a single pass/fail line (printed in the
terminal summary), and asserts both the mathematical statement and its
stated runtime budget.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from time import perf_counter

from ttlab import (
    DIGRAPH,
    FWD,
    ORIENTED,
    BlowupSpec,
    Digraph,
    TdgParseError,
    Weight,
    admits_partition,
    blowup,
    contains,
    count_free,
    count_free_naive,
    count_partite,
    container_exponent,
    decode,
    density_m,
    edit_distance_to_dtr,
    encode,
    extremal,
    extremal_naive,
    is_free,
    make_dtr,
    ratio_report,
    turan_edges,
    turan_part_sizes,
    weighted_size,
)
from ttlab.oracle import iter_digraphs

from conftest import ACCEPTANCE_LINES
from test_census import naive_count_partite
from test_container import brute_density
from test_core import random_digraph

MATRIX_SPECS = [BlowupSpec(3, 1), BlowupSpec(4, 1), BlowupSpec(2, 2), BlowupSpec(3, 2)]
MATRIX_WEIGHTS = [Weight.rational(2), Weight.log2_3(), Weight.parse("7/4")]


def record(num: int, ok: bool, budget_s: float, elapsed: float, detail: str) -> None:
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    ACCEPTANCE_LINES.append(
        f"[{status}] criterion {num}: {detail} ({elapsed:.2f}s < {budget_s:g}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.2f}s)"


def test_criterion_1_construction_identities():
    start = perf_counter()
    ok = True
    for n in range(13):
        for r in range(1, 5):
            closed = math.comb(n, 2) - sum(
                math.comb(s, 2) for s in turan_part_sizes(n, r))
            ok &= turan_edges(n, r) == closed
            v = weighted_size(make_dtr(n, r), Weight.rational(2))
            ok &= v.exact == 2 * turan_edges(n, r)
    record(1, ok, 1.0, perf_counter() - start,
           "weighted size of the construction meets 2*t_r(n) for n<=12, r<=4")


def test_criterion_2_construction_freeness_is_sharp():
    # both are the incumbents `extremal` starts from: make_dtr(n, r), and in
    # oriented mode the same partition with every cross arc pointing forward
    def starts(n, r):
        g = make_dtr(n, r)
        return g, Digraph(n, tuple(s & FWD for s in g.states))

    start = perf_counter()
    ok = True
    for r in range(1, 5):
        for t in (1, 2, 3):
            for n in range(11):
                ok &= all(is_free(g, BlowupSpec(r + 1, t)) for g in starts(n, r))
            ok &= all(contains(g, blowup(r, t)) is not None for g in starts(r * t, r))
    record(2, ok, 30.0, perf_counter() - start,
           "both extremal starts avoid T_{r+1}^t yet hold T_r^t, r<=4, t<=3, n<=10")


def test_criterion_3_solver_matches_enumeration_matrix():
    start = perf_counter()
    ok = True
    checked = 0
    for mode, max_n in ((DIGRAPH, 5), (ORIENTED, 6)):
        for n in range(max_n + 1):
            for spec in MATRIX_SPECS:
                for a in MATRIX_WEIGHTS:
                    fast = extremal(n, spec, a, mode)
                    slow = extremal_naive(n, spec, a, mode)
                    same = a.compare(fast.best.pair, slow.best.pair) == 0
                    ok &= same
                    checked += 1
    record(3, ok, 600.0, perf_counter() - start,
           f"branch-and-bound equals enumeration on {checked} instances "
           "(digraph n<=5, oriented n<=6, 4 patterns, 3 weights)")


def test_criterion_4_exact_turan_equality_for_single_vertex_levels():
    start = perf_counter()
    a = Weight.rational(2)
    ok = True
    for n in (3, 4, 5):
        res = extremal(n, BlowupSpec(3, 1), a)
        naive = extremal_naive(n, BlowupSpec(3, 1), a)
        ok &= res.best.exact == 2 * turan_edges(n, 2)
        ok &= naive.best.exact == 2 * turan_edges(n, 2)
    # for t >= 2 only nonnegativity of the gap is claimed; n = 6 is the
    # smallest host the two-per-level pattern fits into
    gap = extremal(6, BlowupSpec(3, 2), a).best.exact - 2 * turan_edges(6, 2)
    ok &= gap >= 0
    record(4, ok, 60.0, perf_counter() - start,
           f"ex_2(n, three levels of one) = 2*t_2(n) for n in 3..5; t=2 gap {gap} >= 0")


def test_criterion_5_census_cross_validation():
    start = perf_counter()
    ok = count_free(3, BlowupSpec(3, 1), ORIENTED) == 21
    ok &= count_free_naive(3, BlowupSpec(3, 1), ORIENTED) == 21
    ok &= count_partite(3, 2, 1, ORIENTED) == 19
    ok &= naive_count_partite(3, 2, 1, ORIENTED) == 19
    for n in (2, 3, 4, 5):
        rep = ratio_report(n, 2, 1, ORIENTED)
        ok &= rep.free_count >= rep.partite_count >= 1
        if n <= 4:
            ok &= rep.free_count == count_free_naive(n, BlowupSpec(3, 1), ORIENTED)
            ok &= rep.partite_count == naive_count_partite(n, 2, 1, ORIENTED)
    record(5, ok, 300.0, perf_counter() - start,
           "free=21 / partite=19 at n=3 oriented, replayed by the unpruned oracle; "
           "ratio reports run for n=2..5")


def test_criterion_6_partite_families_sit_inside_free_families():
    start = perf_counter()
    ok = True
    for mode in (DIGRAPH, ORIENTED):
        for n in range(1, 5):
            for r in (2, 3):
                spec = BlowupSpec(r + 1, 1)
                members = 0
                for g in iter_digraphs(n, mode):
                    if admits_partition(g, r, 1):
                        members += 1
                        ok &= is_free(g, spec)
                ok &= members == count_partite(n, r, 1, mode)
                ok &= members <= count_free(n, spec, mode)
    record(6, ok, 60.0, perf_counter() - start,
           "every r-partitionable digraph is T_{r+1}^1-free, exhaustively for n<=4")


def test_criterion_7_container_density_parameter():
    start = perf_counter()
    ok = density_m(BlowupSpec(3, 1)).m == 2
    ok &= density_m(BlowupSpec(2, 2)).m == Fraction(3, 2)
    for k, t in ((3, 1), (4, 1), (5, 1), (2, 2)):
        ok &= density_m(BlowupSpec(k, t)).m == brute_density(BlowupSpec(k, t))
    ok &= container_exponent(10, BlowupSpec(3, 1)).exponent == Fraction(3, 2)
    ok &= container_exponent(10, BlowupSpec(2, 2)).exponent == Fraction(4, 3)
    record(7, ok, 1.0, perf_counter() - start,
           "m = 2 and 3/2 with exponents 3/2 and 4/3, against arc-subset enumeration")


def test_criterion_8_stability_probe():
    start = perf_counter()
    ok = True
    for r in (1, 2, 3):
        for n in range(1, 11):
            ok &= edit_distance_to_dtr(make_dtr(n, r), r).distance == 0
    ok &= edit_distance_to_dtr(Digraph.empty(4), 2).distance == 8
    for n, r in ((4, 2), (6, 2), (6, 3)):
        g = make_dtr(n, r)
        i, j = next((i, j) for (i, j) in g.arcs() if i < j)
        damaged = g.with_pair(i, j, 2)  # digon loses its forward arc
        ok &= edit_distance_to_dtr(damaged, r).distance == 1
    record(8, ok, 60.0, perf_counter() - start,
           "construction at distance 0, empty n=4 at 8, one lost arc at 1")


def test_criterion_9_codec_roundtrip_and_rejection():
    start = perf_counter()
    rng = random.Random(314159)
    ok = True
    for _ in range(10000):
        g = random_digraph(rng, rng.randint(0, 8))
        ok &= decode(encode(g)) == g
    expected_positions = {"TDX 3 111": 0, "TDG": 3, "TDG x": 4,
                          "TDG 3 14": 7, "TDG 3 1111": 9}
    for text, pos in expected_positions.items():
        try:
            decode(text)
            ok = False
        except TdgParseError as err:
            ok &= err.position == pos
    record(9, ok, 5.0, perf_counter() - start,
           "decode/encode identity on 10000 random graphs, malformed text rejected in place")
