"""Subgraph density m(H) of a blow-up and the container-style exponent.

For a pattern H with at least two arcs,

    m(H) = max (e(H') - 1) / (v(H') - 2)

over subgraphs H' of H with e(H') > 1.  For a fixed vertex set the ratio
is maximised by keeping every arc, so the search ranges over vertex
subsets of size >= 3 with all arcs of H between them.  (Vertex sets of
size 2 cannot qualify: a blow-up is oriented, so two vertices carry at
most one arc.)  All arithmetic is exact rational.

The counting exponent attached to m(H) is 2 - 1/m(H): the number of
H-free digraphs on N vertices is controlled by container families of
size at most exp(c * N^(2 - 1/m(H)) * log N) for some constant c, which
container_exponent reports in literal form with c left symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import log

from .core import BlowupSpec, CapacityError, Digraph, _instance, _ints, encode

DENSITY_MAX_VERTICES = 10  # vertex-subset enumeration cap (k*t above this refused)


@dataclass(frozen=True)
class DensityResult:
    spec: BlowupSpec
    m: Fraction
    argmax_subgraph: Digraph


@dataclass(frozen=True)
class ContainerBound:
    spec: BlowupSpec
    m: Fraction
    exponent: Fraction
    at_n: float
    formula: str


def density_m(spec: BlowupSpec) -> DensityResult:
    """Exact m(H) for H = blowup(spec.k, spec.t), with a densest subgraph.

    Ties break toward smaller vertex sets, then toward the encode-minimal
    induced subgraph.  Patterns with fewer than two arcs (k = 1, or
    k = 2 with t = 1) have no qualifying subgraph and are refused.
    """
    _instance(spec, BlowupSpec, "spec")
    if spec.vertex_count > DENSITY_MAX_VERTICES:
        raise CapacityError(
            f"density enumerates vertex subsets and is capped at "
            f"{DENSITY_MAX_VERTICES} pattern vertices (got {spec.vertex_count})"
        )
    if spec.arc_count < 2:
        raise ValueError(f"m(H) is undefined for {spec}: the pattern has {spec.arc_count} arc(s)")

    h = spec.realize()
    t = spec.t
    best: Fraction | None = None
    best_size = -1
    best_sub: tuple[int, ...] | None = None
    best_enc = ""

    # sizes ascending, subsets in lex order: the first maximiser found has
    # the smallest vertex set, and within a size the least encoding wins
    for size in range(3, h.n + 1):
        for sub in combinations(range(h.n), size):
            per_level = [0] * spec.k
            for v in sub:
                per_level[v // t] += 1
            e = (size * size - sum(c * c for c in per_level)) // 2
            if e < 2:
                continue
            ratio = Fraction(e - 1, size - 2)
            if best is None or ratio > best:
                best, best_size, best_sub = ratio, size, sub
                best_enc = encode(h.induced(sub))
            elif ratio == best and size == best_size:
                enc = encode(h.induced(sub))
                if enc < best_enc:
                    best_sub, best_enc = sub, enc

    assert best is not None and best_sub is not None  # e(H) >= 2 guarantees a hit
    return DensityResult(spec=spec, m=best, argmax_subgraph=h.induced(best_sub))


def container_exponent(n: int, spec: BlowupSpec) -> ContainerBound:
    """The exponent 2 - 1/m(H) and the bound shape c * N^(2-1/m) * log N
    evaluated at N = n (natural log; the constant c stays symbolic)."""
    (n,) = _ints((n,), "n", 1)
    d = density_m(spec)
    exponent = 2 - Fraction(1) / d.m
    return ContainerBound(
        spec=spec,
        m=d.m,
        exponent=exponent,
        at_n=float(n) ** float(exponent) * log(n),
        formula=f"c * N^({exponent}) * log N",
    )
