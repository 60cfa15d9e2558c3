"""Exact integer coordinates for the stable AR quiver of a 2-domestic algebra.

The stable quiver has two Euclidean components (comp 0 and comp 1) of shape
ZA~(p,q), four exceptional tubes and a family of homogeneous tubes.  Vertices:

  Euclid(comp, x, y)   with the identification (c,x,y) ~ (c, x - p*l, y + q*l)
                       for all integers l; canonical form has 0 <= y < q.
  Tube(family, level, idx, ht)   family "U" tubes have rank q and couple to
                       the y direction, family "P" tubes have rank p and
                       couple to x; level in {0,1}; idx is taken mod the rank;
                       ht >= 0 counts irreducible steps above a quasi-simple
                       (quasi-length = ht + 1).

Homogeneous tubes are never materialised; operations report whether they
would be met through boolean flags instead.

Value types are collections.namedtuple classes with the Value mixin: they
are immutable, print as Name(field=value, ...), and compare equal only to
an instance of the same class.  A class that checks its fields does so in
__new__; _replace and _make skip those checks.

A raw key is the tuple of a vertex's fields: (comp, x, y) or (family, level,
idx, ht).  The key maps canonical_key, omega_key and omega_inv_key hold the
only formulas for the canonical form and the syzygy; canonical, omega and
omega_inv are views over them, and the closure engine calls them directly.
"""

from __future__ import annotations

import re
from collections import namedtuple


class DomainError(Exception):
    """Base for input conditions the engine rejects deterministically."""


class HeightOutOfRange(DomainError):
    pass


class Value(tuple):
    """Mixin placed before a namedtuple base.  Equality is type-strict, so
    a value never equals a plain tuple or a value of another class with the
    same fields; hashing stays tuple hashing."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class Params(Value, namedtuple("Params", "p q")):
    __slots__ = ()

    def __new__(cls, p, q):
        if type(p) is not int or type(q) is not int:
            raise DomainError("component parameters must be integers")
        if p < 1 or q < 1:
            raise DomainError("component parameters must be positive")
        return tuple.__new__(cls, (p, q))

    def rank(self, family: str) -> int:
        # "U" tubes wrap in y (rank q), "P" tubes wrap in x (rank p)
        if family == "U":
            return self.q
        if family == "P":
            return self.p
        raise DomainError("tube family must be 'U' or 'P'")


class Euclid(Value, namedtuple("Euclid", "comp x y")):
    __slots__ = ()

    def __new__(cls, comp, x, y):
        if comp not in (0, 1):
            raise DomainError("Euclidean component index must be 0 or 1")
        return tuple.__new__(cls, (comp, x, y))


class Tube(Value, namedtuple("Tube", "family level idx ht")):
    __slots__ = ()

    def __new__(cls, family, level, idx, ht):
        if family not in ("U", "P"):
            raise DomainError("tube family must be 'U' or 'P'")
        if level not in (0, 1):
            raise DomainError("tube level must be 0 or 1")
        if ht < 0:
            raise HeightOutOfRange("tube height must be >= 0")
        return tuple.__new__(cls, (family, level, idx, ht))


Vertex = Euclid | Tube

# the six component parts: the two Euclidean components and the two levels
# of each exceptional tube family
PART_NAMES = ("e0", "e1", "u0", "u1", "p0", "p1")


def part_of(v: Vertex) -> str:
    if isinstance(v, Euclid):
        return "e%d" % v.comp
    return ("u%d" if v.family == "U" else "p%d") % v.level


def key(v: Vertex) -> tuple:
    """The raw key of a vertex, as stored (no canonicalisation)."""
    return tuple(v)


def vertex(k: tuple) -> Vertex:
    """The vertex of a raw key; inverse of key.  A key inside the domain is
    wrapped without a call to the checking __new__; any other key goes
    through it, which raises its DomainError (a TypeError for a key of
    another length)."""
    if len(k) == 3:
        if k[0] in (0, 1):
            return tuple.__new__(Euclid, k)
        return Euclid(*k)
    if len(k) == 4 and k[0] in ("U", "P") and k[1] in (0, 1) and k[3] >= 0:
        return tuple.__new__(Tube, k)
    return Tube(*k)


def canonical_key(k: tuple, P: Params) -> tuple:
    """Canonical key: 0 <= y < q for Euclid, 0 <= idx < rank."""
    if len(k) == 3:
        c, x, y = k
        l = y // P.q
        return (c, x + P.p * l, y - P.q * l)
    f, l, j, h = k
    return (f, l, j % P.rank(f), h)


def omega_key(k: tuple, P: Params) -> tuple:
    """Canonical key of the syzygy of a raw key."""
    if len(k) == 3:
        c, x, y = k
        return canonical_key((1 - c, x - c, y - c), P)
    f, l, j, h = k
    return canonical_key((f, 1 - l, j - l, h), P)


def omega_inv_key(k: tuple, P: Params) -> tuple:
    """Canonical key of the cosyzygy of a raw key."""
    if len(k) == 3:
        c, x, y = k
        return canonical_key((1 - c, x + 1 - c, y + 1 - c), P)
    f, l, j, h = k
    return canonical_key((f, 1 - l, j + 1 - l, h), P)


def canonical(v: Vertex, P: Params) -> Vertex:
    """Canonical representative; v itself when it already is one."""
    # v[2] is y for a Euclidean vertex and idx for a tube
    if len(v) == 3:
        if 0 <= v[2] < P.q:
            return v
    elif 0 <= v[2] < P.rank(v[0]):
        return v
    return vertex(canonical_key(key(v), P))


def tau(v: Vertex, P: Params) -> Vertex:
    """AR translation."""
    if isinstance(v, Euclid):
        return canonical(Euclid(v.comp, v.x - 1, v.y - 1), P)
    return canonical(Tube(v.family, v.level, v.idx - 1, v.ht), P)


def tau_inv(v: Vertex, P: Params) -> Vertex:
    if isinstance(v, Euclid):
        return canonical(Euclid(v.comp, v.x + 1, v.y + 1), P)
    return canonical(Tube(v.family, v.level, v.idx + 1, v.ht), P)


def omega(v: Vertex, P: Params) -> Vertex:
    """Syzygy.  omega**2 == tau on every vertex."""
    return vertex(omega_key(key(v), P))


def omega_inv(v: Vertex, P: Params) -> Vertex:
    """Cosyzygy; also the suspension [1] of the stable category."""
    return vertex(omega_inv_key(key(v), P))


def is_brick_candidate(v: Vertex, P: Params) -> bool:
    """Euclidean vertices are always stable bricks; a tube vertex only up to
    quasi-length rank-1 (ht <= rank-2)."""
    if isinstance(v, Euclid):
        return True
    return v.ht <= P.rank(v.family) - 2


def fundamental_domain(P: Params) -> list[Vertex]:
    """One finite block of representatives: a p-by-q window on each Euclidean
    component plus every brick candidate of the four tubes."""
    out: list[Vertex] = []
    for c in (0, 1):
        for x in range(P.p):
            for y in range(P.q):
                out.append(Euclid(c, x, y))
    for fam in ("U", "P"):
        r = P.rank(fam)
        for level in (0, 1):
            for j in range(r):
                for k in range(r - 1):
                    out.append(Tube(fam, level, j, k))
    return out


def vertex_sort_key(v: Vertex):
    if isinstance(v, Euclid):
        return (0, v.comp, v.x, v.y)
    return (1, v.family, v.level, v.idx, v.ht)


def canonical_set(S, P: Params) -> list[Vertex]:
    """The canonical representatives of S, once each, in vertex_sort_key
    order.  A P that is not a Params, or a member that is not a vertex
    (a plain tuple included), raises DomainError."""
    if not isinstance(P, Params):
        raise DomainError("P is not a Params: %r" % (P,))
    out = set()
    for v in S:
        if not isinstance(v, (Euclid, Tube)):
            raise DomainError("member %r is not a vertex" % (v,))
        out.add(canonical(v, P))
    return sorted(out, key=vertex_sort_key)


def ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


def box_shifts(P: Params, x: int, y: int, x_lo: int, x_hi: int, y_lo: int,
               y_hi: int) -> range:
    """The shifts l that put (x - p*l, y + q*l) in the box
    [x_lo, x_hi] x [y_lo, y_hi]; empty when the box is."""
    p, q = P
    lo = max(-((x_hi - x) // p), -((y - y_lo) // q))
    hi = min((x - x_lo) // p, (y_hi - y) // q)
    return range(lo, hi + 1)


class Window(Value, namedtuple("Window", "P x_lo x_hi y_lo y_hi tube_ht_cap")):
    """A finite slice of the quiver: the raw box [x_lo, x_hi] x [y_lo, y_hi]
    on the universal cover of both Euclidean components, and every tube
    vertex up to height tube_ht_cap.  A Euclidean vertex is in the window
    when some representative of its shift class lands in the box."""

    __slots__ = ()

    def __new__(cls, P, x_lo, x_hi, y_lo, y_hi, tube_ht_cap):
        if x_hi < x_lo or y_hi < y_lo:
            raise DomainError("empty window")
        if tube_ht_cap < 0:
            raise DomainError("negative tube height cap")
        return tuple.__new__(cls, (P, x_lo, x_hi, y_lo, y_hi, tube_ht_cap))

    @classmethod
    def periods(cls, P: Params, n: int):
        """The box n periods out from the origin in each direction."""
        if n < 1:
            raise DomainError("a window spans at least 1 period (got %d)" % n)
        return cls(P, -n * P.p, n * P.p, -n * P.q, n * P.q,
                   n * max(P.p, P.q) - 1)

    def lifts(self, v: Euclid) -> list[tuple[int, int]]:
        """The raw (x, y) representatives of v's shift class in the box."""
        p, q = self.P.p, self.P.q
        shifts = box_shifts(self.P, v.x, v.y, self.x_lo, self.x_hi,
                            self.y_lo, self.y_hi)
        return [(v.x - p * l, v.y + q * l) for l in shifts]

    def contains(self, v: Vertex) -> bool:
        if isinstance(v, Euclid):
            return bool(self.lifts(v))
        return v.ht <= self.tube_ht_cap

    def vertices(self) -> list[Vertex]:
        """The canonical vertices of the window, once each, in
        vertex_sort_key order."""
        euclid = [Euclid(c, x, y) for c in (0, 1)
                  for x in range(self.x_lo, self.x_hi + 1)
                  for y in range(self.y_lo, self.y_hi + 1)]
        tubes = [Tube(fam, level, j, k) for fam in ("U", "P")
                 for level in (0, 1) for j in range(self.P.rank(fam))
                 for k in range(self.tube_ht_cap + 1)]
        return canonical_set(euclid + tubes, self.P)


_VERTEX_RE = re.compile(
    r"^\s*(E|TU|TP)\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$"
)


def parse_vertex(text: str) -> Vertex:
    """Parse "E(c,x,y)", "TU(l,j,k)" or "TP(l,j,k)".  No canonicalisation."""
    m = _VERTEX_RE.match(text)
    if m is None:
        raise DomainError("cannot parse vertex: %r" % text)
    head, a, b, c = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
    if head == "E":
        return Euclid(a, b, c)
    return Tube("U" if head == "TU" else "P", a, b, c)


def format_vertex(v: Vertex) -> str:
    """Inverse of parse_vertex on stored fields (raw coordinates round-trip)."""
    if isinstance(v, Euclid):
        return "E(%d,%d,%d)" % (v.comp, v.x, v.y)
    head = "TU" if v.family == "U" else "TP"
    return "%s(%d,%d,%d)" % (head, v.level, v.idx, v.ht)
