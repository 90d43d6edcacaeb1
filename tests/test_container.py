"""Container density parameter m(H) and the resulting bound shape."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from ttlab import (
    MAX_VERTICES,
    BlowupSpec,
    CapacityError,
    blowup,
    container_exponent,
    density_m,
    encode,
)


def brute_density(spec: BlowupSpec) -> Fraction:
    """Max (e-1)/(v-2) over every arc subset, vertices = arc support."""
    h = spec.realize()
    arcs = list(h.arcs())
    best = None
    for size in range(2, len(arcs) + 1):
        for chosen in combinations(arcs, size):
            support = {x for arc in chosen for x in arc}
            v = len(support)
            if v < 3:
                continue
            ratio = Fraction(size - 1, v - 2)
            if best is None or ratio > best:
                best = ratio
    assert best is not None
    return best


@pytest.mark.parametrize("k,t,expected", [
    (3, 1, Fraction(2)),
    (4, 1, Fraction(5, 2)),
    (5, 1, Fraction(3)),
    (2, 2, Fraction(3, 2)),
])
def test_density_against_arc_subset_enumeration(k, t, expected):
    spec = BlowupSpec(k, t)
    result = density_m(spec)
    assert result.m == expected
    assert result.m == brute_density(spec)


def test_density_headline_values():
    assert density_m(BlowupSpec(3, 1)).m == 2
    assert density_m(BlowupSpec(2, 2)).m == Fraction(3, 2)
    assert encode(density_m(BlowupSpec(3, 1)).argmax_subgraph) == "TDG 3 111"
    assert encode(density_m(BlowupSpec(2, 2)).argmax_subgraph) == "TDG 4 011110"


def test_density_larger_blowup():
    # the whole pattern is densest for T_3^2: 12 arcs on 6 vertices
    result = density_m(BlowupSpec(3, 2))
    assert result.m == Fraction(11, 4)
    assert result.argmax_subgraph == blowup(3, 2)
    assert result.m == brute_density(BlowupSpec(3, 2))


def test_density_grows_with_the_pattern():
    values = [density_m(BlowupSpec(k, 1)).m for k in range(3, 7)]
    assert values == sorted(values)
    assert values[0] == 2


# every blow-up within the vertex bound that has at least two arcs
SPECS = [BlowupSpec(k, t) for k in range(2, MAX_VERTICES + 1)
         for t in range(1, MAX_VERTICES // k + 1) if (k, t) != (2, 1)]


def test_the_whole_pattern_is_strictly_densest():
    """Exhaustive reference for the closed form: a vertex set is fixed,
    up to an automorphism, by how many vertices it takes from each level,
    so every count vector c in {0..t}^k stands for the sets it counts.
    No proper one reaches (e(H) - 1) / (v(H) - 2)."""
    assert len(SPECS) == 33
    for spec in SPECS:
        k, t = spec.k, spec.t
        v, e = k * t, spec.arc_count
        result = density_m(spec)
        assert result.m == Fraction(e - 1, v - 2)
        assert result.argmax_subgraph == blowup(k, t)
        for counts in product(range(t + 1), repeat=k):
            s = sum(counts)
            arcs = (s * s - sum(c * c for c in counts)) // 2
            if arcs >= 2 and s < v:  # s >= 3 follows from two arcs
                assert (arcs - 1) * (v - 2) < (e - 1) * (s - 2), (spec, counts)


def test_density_refuses_degenerate_patterns():
    with pytest.raises(ValueError):
        density_m(BlowupSpec(2, 1))  # one arc
    with pytest.raises(ValueError):
        density_m(BlowupSpec(1, 4))  # no arcs
    assert density_m(BlowupSpec(4, 3)).m == Fraction(53, 10)  # 12 pattern vertices
    with pytest.raises(CapacityError, match="vertices exceeds the capacity bound 16"):
        density_m(BlowupSpec(6, 3))  # 18 pattern vertices


def test_density_is_deterministic():
    a = density_m(BlowupSpec(4, 2))
    b = density_m(BlowupSpec(4, 2))
    assert a.m == b.m and a.argmax_subgraph == b.argmax_subgraph


def test_container_exponent_values():
    bound = container_exponent(100, BlowupSpec(3, 1))
    assert bound.exponent == Fraction(3, 2)
    assert bound.formula == "c * N^(3/2) * log N"
    assert bound.at_n == pytest.approx(100 ** 1.5 * math.log(100))

    bound = container_exponent(10, BlowupSpec(2, 2))
    assert bound.exponent == Fraction(4, 3)
    assert bound.m == Fraction(3, 2)


def test_container_exponent_validates_n():
    with pytest.raises(ValueError):
        container_exponent(0, BlowupSpec(3, 1))
