"""Core digraph model: pair states, constructions, weights, text encoding.

Conventions used throughout the package
---------------------------------------
* Vertices are the integers 0..n-1, with n <= 16 (capacity bound; larger n
  raises CapacityError, from `_vertex_count` only).
* A digraph is stored as one state per unordered pair {i, j} with i < j,
  listed in lexicographic order (0,1), (0,2), ..., (0,n-1), (1,2), ...
  A state is two arc bits: the arc i -> j is present iff s & FWD, the arc
  j -> i iff s & BWD.  The four states are

      NO_ARC = 0   no arc between i and j
      FWD    = 1   single arc i -> j
      BWD    = 2   single arc j -> i
      BOTH   = 3   both arcs (a digon), FWD | BWD

  An *oriented* graph is a digraph with no BOTH pair.  Every other module
  reads arcs through these bits or through the masks a Digraph keeps; only
  the oracle decodes states on its own, as the independent route.
* f1(G) counts single-arc pairs, f2(G) counts digon pairs.  The weighted
  size of G under a weight a in (3/2, 2] is  a*f2 + f1.  Weighted sizes are
  compared exactly (no floating point): rational weights cross-multiply,
  and the weight log2(3) compares 3**f2 * 2**f1 as big integers.
* blowup(k, t) is the t-fold blow-up of the transitive tournament on k
  vertices: k levels of t independent vertices each, every arc pointing
  from a lower level to a higher level.  Vertices are level-major, so
  level(v) = v // t.
* make_dtr(n, r) is the bidirected Turan digraph: the balanced complete
  r-partite graph on n vertices with every edge replaced by a digon.
  Parts are consecutive blocks of vertices, larger parts first.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2

MAX_VERTICES = 16

NO_ARC, FWD, BWD, BOTH = 0, 1, 2, 3

#: mode strings accepted by the search and census entry points
DIGRAPH = "digraph"
ORIENTED = "oriented"
MODES = (DIGRAPH, ORIENTED)


class CapacityError(ValueError):
    """An instance exceeds a documented size bound and is refused."""


class TdgParseError(ValueError):
    """Malformed TDG text; `position` is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _ints(values, what: str, least: int | None = None) -> tuple[int, ...]:
    """values as ints; ValueError naming `what` unless each is an integer,
    and, given least, unless each is at least `least`.

    operator.index keeps bools and numpy integers and refuses floats and
    strings, so arguments that compare equal give digraphs, indices and
    encodings that are equal too.  Every size argument of the package
    (n, k, r, t) is checked here, once, so a bad one fails the same way
    at every entry point."""
    try:
        ints = tuple(map(operator.index, values))
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None
    if least is not None and min(ints) < least:
        raise ValueError(f"{what} must be at least {least}, got {', '.join(map(str, ints))}")
    return ints


def _vertex_count(n, what: str = "the vertex count") -> int:
    """n as an int; ValueError naming `what` unless it is an integer of
    at least 0, CapacityError above MAX_VERTICES.  Every entry point that
    builds a digraph on n vertices calls this first, before it allocates
    anything, so the vertex bound is checked here and nowhere else."""
    (n,) = _ints((n,), what, 0)
    if n > MAX_VERTICES:
        raise CapacityError(f"{n} vertices exceeds the capacity bound {MAX_VERTICES}")
    return n


def _instance(value, cls: type, what: str) -> None:
    """ValueError naming `what` unless value is a `cls`.  Every digraph,
    partition, spec and weight argument of the package is checked here,
    once, as sizes are in `_ints`."""
    if not isinstance(value, cls):
        raise ValueError(f"the {what} must be a {cls.__name__}, got {value!r}")


def require_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


# ======================================================================
# unordered pairs in lexicographic order
# ======================================================================

@functools.lru_cache(maxsize=None, typed=True)  # typed: 3.0 may not hit the entry of 3
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j), i < j, in the canonical lexicographic order."""
    (n,) = _ints((n,), "n", 0)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def pair_index(n: int, i: int, j: int) -> int:
    """Index of the unordered pair {i, j} in the canonical order;
    ValueError unless i and j are distinct vertices of 0..n-1.  The
    pairs before it are the n - 1 - a pairs (a, b) of each a < i, then
    the j - i - 1 pairs (i, b) with b < j."""
    n, i, j = _ints((n, i, j), "n and the vertices")
    if i > j:
        i, j = j, i
    if not 0 <= i < j < n:
        raise ValueError(f"need two distinct vertices in 0..{n - 1}, got ({i}, {j})")
    return i * (2 * n - i - 3) // 2 + j - 1


# ======================================================================
# digraphs
# ======================================================================

class Digraph:
    """Immutable digraph on vertices 0..n-1, one state per unordered pair.

    Treat instances as read-only: all updates go through `with_pair`,
    which returns a new digraph.  Neighbourhoods are precomputed as
    bitmasks, in one pass over the states, because every search routine
    in the package consumes them: `out_masks[u]` has bit v set iff the
    arc u -> v is present, and `in_masks[v]` has bit u set iff it is.
    """

    __slots__ = ("n", "states", "out_masks", "in_masks", "f1", "f2", "_hash")

    def __init__(self, n: int, states: tuple[int, ...] = ()):
        n = _vertex_count(n)
        states = _ints(states, "pair states")
        if len(states) != comb(n, 2):
            raise ValueError(f"need {comb(n, 2)} pair states for n={n}, got {len(states)}")
        out = [0] * n
        inn = [0] * n
        for (i, j), s in zip(pair_list(n), states):
            if s & ~BOTH:  # also catches negative states
                raise ValueError(f"pair state must be 0..3, got {s!r}")
            if s & FWD:
                out[i] |= 1 << j
                inn[j] |= 1 << i
            if s & BWD:
                out[j] |= 1 << i
                inn[i] |= 1 << j
        self.n = n
        self.states = states
        self.out_masks = tuple(out)
        self.in_masks = tuple(inn)
        self.f2 = states.count(BOTH)
        self.f1 = len(states) - states.count(NO_ARC) - self.f2
        self._hash = hash((n, states))

    # -- constructors --------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Digraph":
        n = _vertex_count(n)
        return cls(n, (NO_ARC,) * comb(n, 2))

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "Digraph":
        """Build a digraph from an iterable of (u, v) arcs, u -> v."""
        n = _vertex_count(n)
        states = [NO_ARC] * comb(n, 2)
        for u, v in arcs:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad arc ({u}, {v}) for n={n}")
            states[pair_index(n, u, v)] |= FWD if u < v else BWD
        return cls(n, tuple(states))

    # -- queries --------------------------------------------------------

    def pair_state(self, i: int, j: int) -> int:
        """State of pair {i, j}; swapping i and j swaps FWD and BWD."""
        s = self.states[pair_index(self.n, i, j)]
        return s if i < j else {FWD: BWD, BWD: FWD}.get(s, s)

    def has_arc(self, u: int, v: int) -> bool:
        """Is the arc u -> v present?  ValueError unless u and v are
        vertices of 0..n-1; has_arc(u, u) is False."""
        u, v = _ints((u, v), "vertices")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"need vertices in 0..{self.n - 1}, got ({u}, {v})")
        return bool(self.out_masks[u] >> v & 1)

    def arcs(self):
        """Yield all arcs (u, v) with an arc u -> v, in vertex order."""
        for u in range(self.n):
            m = self.out_masks[u]
            while m:
                v = (m & -m).bit_length() - 1
                yield (u, v)
                m &= m - 1

    @property
    def arc_count(self) -> int:
        return self.f1 + 2 * self.f2

    @property
    def is_oriented(self) -> bool:
        return self.f2 == 0

    # -- derived digraphs ------------------------------------------------

    def with_pair(self, i: int, j: int, state: int) -> "Digraph":
        """Copy of this digraph with pair {i, j} (i < j) set to `state`."""
        if not (0 <= i < j < self.n):
            raise ValueError(f"need 0 <= i < j < {self.n}, got ({i}, {j})")
        k = pair_index(self.n, i, j)
        return Digraph(self.n, self.states[:k] + (state,) + self.states[k + 1:])

    def induced(self, vertices) -> "Digraph":
        """Induced subdigraph on a strictly increasing vertex sequence,
        relabelled to 0..len(vertices)-1 in the same order."""
        vs = tuple(vertices)
        if any(not 0 <= v < self.n for v in vs) or any(a >= b for a, b in zip(vs, vs[1:])):
            raise ValueError("vertices must be strictly increasing and in range")
        m = len(vs)
        states = tuple(
            self.states[pair_index(self.n, vs[a], vs[b])]
            for a in range(m) for b in range(a + 1, m)
        )
        return Digraph(m, states)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.states == other.states
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Digraph.decode({encode(self)!r})"


# ======================================================================
# constructions
# ======================================================================

@dataclass(frozen=True)
class BlowupSpec:
    """Forbidden pattern: the t-fold blow-up of a transitive tournament
    on k vertices (k levels of t independent vertices, all arcs pointing
    from lower to higher levels)."""

    k: int
    t: int

    def __post_init__(self):
        # ints, so specs that compare equal print and hash alike
        k, t = _ints((self.k, self.t), "k and t", 1)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "t", t)

    @property
    def vertex_count(self) -> int:
        return self.k * self.t

    @property
    def arc_count(self) -> int:
        return self.t * self.t * comb(self.k, 2)

    def realize(self) -> Digraph:
        return blowup(self.k, self.t)

    def __str__(self):
        return f"T_{self.k}^{self.t}"


def blowup(k: int, t: int) -> Digraph:
    """The blow-up digraph of BlowupSpec(k, t), vertices level-major."""
    n = _vertex_count(BlowupSpec(k, t).vertex_count)  # validates k, t >= 1
    states = tuple(
        FWD if i // t < j // t else NO_ARC
        for i, j in pair_list(n)
    )
    return Digraph(n, states)


def _balanced(n: int, r: int) -> tuple[int, int, int, int]:
    """(n, r, q, rem) as ints, n = q * r + rem: the balanced r-partition
    of n vertices has rem parts of q + 1 vertices, then r - rem of q."""
    (n,) = _ints((n,), "n", 0)
    (r,) = _ints((r,), "r", 1)
    return (n, r, *divmod(n, r))


def turan_part_sizes(n: int, r: int) -> list[int]:
    """Balanced part sizes for an r-partition of n vertices, larger first."""
    n, r, q, rem = _balanced(n, r)
    return [q + 1] * rem + [q] * (r - rem)


def turan_edges(n: int, r: int) -> int:
    """Edge count t_r(n) of the balanced complete r-partite graph."""
    n, r, q, rem = _balanced(n, r)
    return comb(n, 2) - rem * comb(q + 1, 2) - (r - rem) * comb(q, 2)


def make_dtr(n: int, r: int) -> Digraph:
    """Bidirected Turan digraph: balanced complete r-partite, every edge a
    digon.  Parts are consecutive vertex blocks, larger parts first, so
    the construction (and its encoding) is canonical."""
    n = _vertex_count(n, "n")
    part = turan_partition(n, r).assign
    states = tuple(
        BOTH if part[i] != part[j] else NO_ARC
        for i, j in pair_list(n)
    )
    return Digraph(n, states)


def turan_partition(n: int, r: int) -> "Partition":
    """The partition underlying make_dtr(n, r): consecutive blocks.  The
    parts past the first n are empty, so only min(r, n) are walked."""
    n, r, q, rem = _balanced(n, r)
    return Partition(r, tuple(p for p in range(min(r, n)) for _ in range(q + (p < rem))))


@dataclass(frozen=True)
class Partition:
    """Assignment of vertices to classes 0..r-1 (classes may be empty)."""

    r: int
    assign: tuple[int, ...]

    def __post_init__(self):
        # ints throughout keep the frozen class hashable and its masks sound
        (r,) = _ints((self.r,), "r", 1)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "assign", _ints(self.assign, "the classes"))
        for v, c in enumerate(self.assign):
            if not 0 <= c < self.r:
                raise ValueError(f"vertex {v} assigned to class {c}, outside 0..{self.r - 1}")

    @property
    def n(self) -> int:
        return len(self.assign)

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.r)]
        for v, c in enumerate(self.assign):
            out[c].append(v)
        return out

    def class_masks(self) -> list[int]:
        masks = [0] * self.r
        for v, c in enumerate(self.assign):
            masks[c] |= 1 << v
        return masks


# ======================================================================
# weights and weighted sizes
# ======================================================================

class Weight:
    """A pair weight a in (3/2, 2]: an exact rational, or log2(3).

    log2(3) is the natural weight for counting questions about oriented
    graphs (a digon pair has three orientations, a single-arc pair two),
    and it makes  a*f2 + f1 = log2(3**f2 * 2**f1),  so comparisons under
    it reduce to comparing big integers.  Rational weights compare by
    cross-multiplication.  No floating point enters any comparison.
    """

    __slots__ = ("fraction",)

    def __init__(self, fraction: Fraction | None):
        if fraction is not None:
            fraction = Fraction(fraction)
            if not Fraction(3, 2) < fraction <= 2:
                raise ValueError(f"weight must lie in (3/2, 2], got {fraction}")
        self.fraction = fraction

    # -- constructors ---------------------------------------------------

    @classmethod
    def rational(cls, value) -> "Weight":
        return cls(Fraction(value))

    @classmethod
    def log2_3(cls) -> "Weight":
        return cls(None)

    @classmethod
    def parse(cls, token: str) -> "Weight":
        """Parse a CLI weight token: '2', 'log3', or 'p/q'."""
        token = token.strip()
        if token == "log3":
            return cls.log2_3()
        try:
            return cls.rational(Fraction(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse weight {token!r}: {exc}") from None

    # -- comparison of (f1, f2) pairs ------------------------------------

    def _key(self, f1: int, f2: int):
        if self.fraction is None:
            return 3 ** f2 << f1
        return self.fraction.numerator * f2 + self.fraction.denominator * f1

    def compare(self, x: tuple[int, int], y: tuple[int, int]) -> int:
        """Sign of e_a(x) - e_a(y) for (f1, f2) pairs x and y, exactly."""
        a, b = self._key(*x), self._key(*y)
        return (a > b) - (a < b)

    def value_exact(self, f1: int, f2: int) -> Fraction | None:
        """Exact value a*f2 + f1, or None for the irrational weight."""
        if self.fraction is None:
            return None
        return self.fraction * f2 + f1

    def value_float(self, f1: int, f2: int) -> float:
        a = log2(3) if self.fraction is None else float(self.fraction)
        return a * f2 + f1

    @property
    def token(self) -> str:
        """Canonical text form: '2', '7/4', or 'log3'."""
        if self.fraction is None:
            return "log3"
        return str(self.fraction)

    def __str__(self):
        return self.token

    def __repr__(self):
        return f"Weight({self.token!r})"

    def __eq__(self, other):
        return isinstance(other, Weight) and self.fraction == other.fraction

    def __hash__(self):
        return hash(("Weight", self.fraction))


@functools.total_ordering
class WeightedValue:
    """The weighted size a*f2 + f1 of some digraph, compared exactly.

    Values are only comparable under the same weight; comparing across
    weights is a programming error and raises.
    """

    __slots__ = ("f1", "f2", "weight")

    def __init__(self, f1: int, f2: int, weight: Weight):
        self.f1 = f1
        self.f2 = f2
        self.weight = weight

    def _check(self, other) -> "WeightedValue":
        if not isinstance(other, WeightedValue):
            return NotImplemented
        if other.weight != self.weight:
            raise ValueError("cannot compare weighted values under different weights")
        return other

    def __eq__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self.weight.compare((self.f1, self.f2), (other.f1, other.f2)) == 0

    def __lt__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self.weight.compare((self.f1, self.f2), (other.f1, other.f2)) < 0

    def __hash__(self):
        # equal values must collide even when (f1, f2) differ, so hash the
        # exact comparison key rather than the pair
        return hash((self.weight, self.weight._key(self.f1, self.f2)))

    @property
    def pair(self) -> tuple[int, int]:
        return (self.f1, self.f2)

    @property
    def exact(self) -> Fraction | None:
        return self.weight.value_exact(self.f1, self.f2)

    @property
    def approx(self) -> float:
        return self.weight.value_float(self.f1, self.f2)

    def __repr__(self):
        return f"WeightedValue(f1={self.f1}, f2={self.f2}, a={self.weight}, ~{self.approx:.4f})"


def weighted_size(g: Digraph, a: Weight) -> WeightedValue:
    """Weighted size e_a(G) = a*f2(G) + f1(G) as an exactly comparable value."""
    _instance(g, Digraph, "digraph")
    _instance(a, Weight, "weight")
    return WeightedValue(g.f1, g.f2, a)


# ======================================================================
# text encoding
# ======================================================================
#
# Grammar:   "TDG <n> <s>"   where <s> is exactly C(n,2) characters over
# {0,1,2,3}, one per unordered pair in canonical order.  For n <= 1 the
# state string is empty and the trailing space is omitted.  The encoding
# is a total order on digraphs of fixed n (string order = lexicographic
# order on state tuples), which the search module uses for tie-breaking.

def encode(g: Digraph) -> str:
    _instance(g, Digraph, "digraph")
    digits = "".join(str(s) for s in g.states)
    if g.n <= 1:
        return f"TDG {g.n}"
    return f"TDG {g.n} {digits}"


def decode(text: str) -> Digraph:
    """Inverse of encode.  Raises TdgParseError (with a character
    position) on malformed input, CapacityError when n > 16."""
    if not text.startswith("TDG"):
        raise TdgParseError("expected 'TDG' header", 0)
    if len(text) < 4 or text[3] != " ":
        raise TdgParseError("expected space after 'TDG'", 3)
    pos = 4
    end = pos
    while end < len(text) and text[end] != " ":
        end += 1
    ntok = text[pos:end]
    # no leading zero, so a text that decodes is its digraph's encoding
    if not (ntok.isascii() and ntok.isdigit()) or len(ntok) > 1 and ntok[0] == "0":
        raise TdgParseError("expected a decimal vertex count without leading zeros", pos)
    n = _vertex_count(int(ntok))
    npairs = comb(n, 2)
    if npairs == 0:
        if end != len(text):
            raise TdgParseError("trailing characters after vertex count", end)
        return Digraph(n, ())
    if end == len(text):
        raise TdgParseError("expected space and state string", end)
    pos = end + 1
    states = []
    for k in range(npairs):
        if pos + k >= len(text):
            raise TdgParseError(f"state string ends early ({k} of {npairs} states)", len(text))
        c = text[pos + k]
        if c not in "0123":
            raise TdgParseError(f"state character must be 0..3, got {c!r}", pos + k)
        states.append(int(c))
    if pos + npairs != len(text):
        raise TdgParseError("trailing characters after state string", pos + npairs)
    return Digraph(n, tuple(states))
