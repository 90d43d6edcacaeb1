"""The density parameter behind the counting bound.

m(H) is the largest (arcs - 1) / (vertices - 2) over subgraphs with at
least two arcs; the number of H-free graphs on N vertices is governed by
N^(2 - 1/m) * log N up to constants.  Denser patterns push the exponent
toward 2.  For a blow-up the whole pattern is the densest subgraph, so
m(H) = (e(H) - 1) / (v(H) - 2), and any pattern within the 16-vertex
bound answers at once, T_4^3 on 12 vertices included.
"""

from ttlab import BlowupSpec, container_exponent, density_m, encode

print(f"{'pattern':>8} {'m(H)':>6} {'exponent':>9}  densest subgraph")
for k, t in [(3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (2, 3), (4, 3)]:
    spec = BlowupSpec(k, t)
    d = density_m(spec)
    bound = container_exponent(100, spec)
    print(f"{str(spec):>8} {str(d.m):>6} {str(bound.exponent):>9}  "
          f"{encode(d.argmax_subgraph)}")

print()
spec = BlowupSpec(3, 1)
bound = container_exponent(1000, spec)
print(f"for {spec} the bound shape is {bound.formula};")
print(f"at N = 1000 that scale factor is ~ {bound.at_n:.3e}")
