"""Answer checks that share no code with ttlab.

Everything here works on TDG strings and state tuples with its own small
routines, so a defect in the package cannot hide itself by also breaking
the check.  The benchmark only calls these outside its timed region.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# arc edits a pair needs when it ends up inside a part / across parts
INSIDE_COST = (0, 1, 1, 2)
CROSS_COST = (2, 1, 1, 0)


def pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def tdg(n, states):
    if n <= 1:
        return f"TDG {n}"
    return f"TDG {n} " + "".join(str(s) for s in states)


def parse_tdg(text):
    head, n, *rest = text.split(" ") + [""]
    if head != "TDG":
        raise ValueError(f"not a TDG string: {text!r}")
    n = int(n)
    states = tuple(int(c) for c in rest[0])
    if len(states) != n * (n - 1) // 2:
        raise ValueError(f"wrong state count in {text!r}")
    return n, states


def out_masks(n, states):
    out = [0] * n
    for (i, j), s in zip(pairs(n), states):
        if s in (1, 3):
            out[i] |= 1 << j
        if s in (2, 3):
            out[j] |= 1 << i
    return out


def arc_counts(states):
    """(f1, f2): single-arc pairs and digon pairs."""
    return sum(s in (1, 2) for s in states), sum(s == 3 for s in states)


def has_blowup(out, n, k, t, allowed=None):
    """Does the digraph (restricted to the vertex mask `allowed`) hold k
    disjoint t-sets, each sending every arc to every later one?  Plain
    recursion over the common out-neighbourhood."""
    def chain(allowed, levels):
        if levels == 0:
            return True
        members = [v for v in range(n) if allowed >> v & 1]
        if len(members) < levels * t:
            return False
        for sel in combinations(members, t):
            common = allowed
            for v in sel:
                common &= out[v]
            if chain(common, levels - 1):
                return True
        return False

    return chain((1 << n) - 1 if allowed is None else allowed, k)


def is_witness(out, n, k, t, mapping):
    """Is mapping (pattern vertex -> host vertex, level-major) a copy?"""
    if len(mapping) != k * t or len(set(mapping)) != len(mapping):
        return False
    if not all(0 <= w < n for w in mapping):
        return False
    for a, b in combinations(range(k * t), 2):
        if a // t < b // t and not out[mapping[a]] >> mapping[b] & 1:
            return False
    return True


def turan_sizes(n, r):
    return [n // r + (1 if p < n % r else 0) for p in range(r)]


def dtr_states(n, r):
    part = [p for p, s in enumerate(turan_sizes(n, r)) for _ in range(s)]
    return tuple(3 if part[i] != part[j] else 0 for i, j in pairs(n))


def blowup_states(k, t):
    return tuple(1 if i // t < j // t else 0 for i, j in pairs(k * t))


def edit_cost(n, states, assign):
    return sum((INSIDE_COST if assign[i] == assign[j] else CROSS_COST)[s]
               for (i, j), s in zip(pairs(n), states))


def density(k, t):
    """m(blowup(k, t)) = max (e - 1)/(v - 2) over vertex subsets; only the
    number of vertices taken from each level matters."""
    best = None

    def walk(level, counts):
        nonlocal best
        if level == k:
            v = sum(counts)
            e = (v * v - sum(c * c for c in counts)) // 2
            if v >= 3 and e >= 2:
                ratio = Fraction(e - 1, v - 2)
                best = ratio if best is None else max(best, ratio)
            return
        for c in range(t + 1):
            walk(level + 1, counts + [c])

    walk(0, [])
    return best


def weighted_key(weight, f1, f2):
    """Exact comparison key of a*f2 + f1; log3 compares 3^f2 * 2^f1."""
    if weight == "log3":
        return 3 ** f2 * 2 ** f1
    return Fraction(weight) * f2 + f1


def admits_partition(out, n, r, t):
    """Some split into at most r classes, none holding blowup(2, t)?"""
    for assign in _assignments(n, r):
        masks = [0] * r
        for v, p in enumerate(assign):
            masks[p] |= 1 << v
        if not any(has_blowup(out, n, 2, t, m) for m in masks):
            return True
    return False


def _assignments(n, r):
    """Vertex-to-class maps with classes opened in order (one per set partition)."""
    assign = [0] * n

    def place(v, opened):
        if v == n:
            yield tuple(assign)
            return
        for p in range(min(opened + 1, r)):
            assign[v] = p
            yield from place(v + 1, max(opened, p + 1))

    yield from place(0, 0)
