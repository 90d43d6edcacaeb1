"""Subgraph density m(H) of a blow-up and the container-style exponent.

For a pattern H with at least two arcs,

    m(H) = max (e(H') - 1) / (v(H') - 2)

over subgraphs H' of H with e(H') > 1.  For a blow-up H = T_k^t the
whole pattern is the one maximiser, so m(H) = (e(H) - 1) / (v(H) - 2)
in closed form.  All arithmetic is exact rational.

Why the whole pattern wins.  For a fixed vertex set the ratio is largest
with every arc of H kept, and two vertices carry at most one arc, so
only vertex sets S of s >= 3 vertices compete, and k >= 2.  Say S has
c_p vertices on level p.  Then

    e(S) = sum_{p<q} c_p c_q = (s^2 - sum_p c_p^2) / 2 <= s^2 (k-1) / (2k).

If S is not all of V(H), its least-filled level has at most s/k < t
vertices; adding a vertex there adds d = s - min_p c_p >= s (k-1) / k
arcs.  The ratio (e - 1) / (s - 2) rises to (e + d - 1) / (s - 1) iff
d (s - 2) > e - 1.  For s >= 4, d (s - 2) >= s^2 (k-1) / (2k) >= e, so
it rises.  For s = 3, e <= 3 and d >= 2 >= e - 1, so it does not fall,
and it stays level only for a transitive triangle of T_3^t, t >= 2,
whose growth goes on past s = 4.  So growing any proper S one vertex at
a time to V(H) ends at a strictly larger ratio.  tests/test_container.py
checks this on every blow-up within the vertex bound, over all
per-level counts.

The counting exponent attached to m(H) is 2 - 1/m(H): the number of
H-free digraphs on N vertices is controlled by container families of
size at most exp(c * N^(2 - 1/m(H)) * log N) for some constant c, which
container_exponent reports in literal form with c left symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log

from .core import BlowupSpec, Digraph, _instance, _ints


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
    """Exact m(H) for H = blowup(spec.k, spec.t), with its densest
    subgraph, which is H itself (see the module docstring).  Patterns
    past the vertex bound raise CapacityError; patterns with fewer than
    two arcs (k = 1, or k = 2 with t = 1) have no qualifying subgraph
    and raise ValueError.
    """
    _instance(spec, BlowupSpec, "spec")
    h = spec.realize()
    if spec.arc_count < 2:
        raise ValueError(f"m(H) is undefined for {spec}: the pattern has {spec.arc_count} arc(s)")
    m = Fraction(spec.arc_count - 1, spec.vertex_count - 2)
    return DensityResult(spec=spec, m=m, argmax_subgraph=h)


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
