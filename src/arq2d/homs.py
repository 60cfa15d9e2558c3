"""Stable Hom predicate, support regions and bi-perpendicular categories.

Every nonzero-Hom question between stable vertices reduces to a small case
table: a source on comp 1 / level 1 is conjugated once by the syzygy
(Hom(X,Y) != 0 iff Hom(omega X, omega Y) != 0), after which the source sits
on comp 0 / level 0 and closed integer formulas decide the question.

Supports and bi-perps are reported as regions.  A region answers membership
with O(1) integer arithmetic; set-level images under omega / omega^{-1} are
computed symbolically so left supports come from right supports by duality
(Hom(Y,X) != 0 iff Hom(X, omega Y) != 0).  describe(P) reports a region
as its kind plus its fields, each *_lo/*_hi pair as one [lo, hi] list.

A set with a Euclidean member has a finite bi-perp, read from the
orthogonality table of its anchor band (_Band): every canonical Euclidean
vertex within p of ax, the x of its least Euclidean member, plus every
brick tube.  A query reads its set once (_members), each member's bit
computed from its coordinates, and answers with row ANDs on that member
mask.  Rows come from closed forms of stable_hom_nonzero (_Band.orthogonal),
so only the oracle calls the Hom predicate.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .model import (
    PART_NAMES,
    DomainError,
    Euclid,
    Params,
    Tube,
    Value,
    Vertex,
    box_shifts,
    canonical,
    canonical_set,
    ceil_div,
    format_vertex,
    is_brick_candidate,
    omega,
    omega_inv,
    part_of,
    vertex_sort_key,
)


def residue_in_interval(value: int, modulus: int, lo, hi) -> bool:
    """Does value + modulus*Z meet [lo, hi]?  None bounds mean +-infinity."""
    if lo is None or hi is None:
        return True
    return hi >= lo and (value - lo) % modulus <= hi - lo


def _is_unreduced(X: Vertex) -> bool:
    return (isinstance(X, Euclid) and X.comp == 1) or (
        isinstance(X, Tube) and X.level == 1
    )


def stable_hom_nonzero(X: Vertex, Y: Vertex, P: Params) -> bool:
    if _is_unreduced(X):
        X, Y = omega(X, P), omega(Y, P)
    if isinstance(X, Euclid):
        a, b = X.x, X.y
        if isinstance(Y, Euclid):
            if Y.comp == 0:
                return ceil_div(b - Y.y, P.q) <= (Y.x - a) // P.p
            return ceil_div(Y.x - a, P.p) <= (b - Y.y) // P.q
        if Y.level == 0:
            return False
        if Y.family == "U":
            return (b - Y.idx) % P.q <= Y.ht
        return (a - Y.idx) % P.p <= Y.ht
    # tube source at level 0
    c, d = X.idx, X.ht
    r = P.rank(X.family)
    if isinstance(Y, Euclid):
        if Y.comp != 0:
            return False
        pos = Y.y if X.family == "U" else Y.x
        return (pos - c) % r <= d
    if Y.family != X.family:
        return False
    if Y.level == 0:
        return residue_in_interval(Y.idx, r, max(c, c + d - Y.ht), c + d)
    return residue_in_interval(Y.idx, r, c - Y.ht, min(c, c + d - Y.ht))


# ---------------------------------------------------------------------------
# regions

PART_SWAP = {"e0": "e1", "e1": "e0", "u0": "u1", "u1": "u0", "p0": "p1", "p1": "p0"}

# the Euclidean axis each tube family couples to
_AXIS = {"U": "y", "P": "x"}


class _Described:
    """describe(P) of a region that reports its kind and its fields, with
    each *_lo/*_hi pair written as one [lo, hi] list."""

    __slots__ = ()

    def describe(self, P):
        doc = {"kind": self.kind}
        for name, value in self._asdict().items():
            if name.endswith("_lo"):
                doc[name[:-3]] = [value]
            elif name.endswith("_hi"):
                doc[name[:-3]].append(value)
            else:
                doc[name] = value
        return doc


def _tube_interval(region, v, P, lo, hi, top_lo, top_hi) -> bool:
    """Is v on the region's family and level, with some lift i' of its
    index such that lo <= i' <= hi and top_lo <= i' + ht <= top_hi?  None
    bounds are infinite."""
    if not (isinstance(v, Tube) and v.family == region.family
            and v.level == region.level):
        return False
    if top_lo is not None:
        lo = top_lo - v.ht if lo is None else max(lo, top_lo - v.ht)
    if top_hi is not None:
        hi = top_hi - v.ht if hi is None else min(hi, top_hi - v.ht)
    return residue_in_interval(v.idx, P.rank(region.family), lo, hi)


class Empty(Value, _Described, namedtuple("Empty", ())):
    __slots__ = ()
    kind = "empty"

    def contains(self, v, P):
        return False


class All(Value, _Described, namedtuple("All", "part")):
    __slots__ = ()
    kind = "all"

    def contains(self, v, P):
        return part_of(v) == self.part


class FiniteSet(Value, namedtuple("FiniteSet", "vertices")):
    # vertices: a frozenset of canonical forms
    __slots__ = ()

    def contains(self, v, P):
        return canonical(v, P) in self.vertices

    def describe(self, P):
        vs = sorted(self.vertices, key=vertex_sort_key)
        return {"kind": "set", "vertices": [format_vertex(v) for v in vs]}


class ForwardCone(Value, _Described, namedtuple("ForwardCone", "comp x y")):
    __slots__ = ()
    kind = "forward_cone"
    _moving = ("x", "y")

    def contains(self, v, P):
        if not (isinstance(v, Euclid) and v.comp == self.comp):
            return False
        return ceil_div(self.y - v.y, P.q) <= (v.x - self.x) // P.p


class BackwardCone(Value, _Described, namedtuple("BackwardCone", "comp x y")):
    __slots__ = ()
    kind = "backward_cone"
    _moving = ("x", "y")

    def contains(self, v, P):
        if not (isinstance(v, Euclid) and v.comp == self.comp):
            return False
        return ceil_div(v.x - self.x, P.p) <= (self.y - v.y) // P.q


class Rectangle(Value, _Described,
                namedtuple("Rectangle", "comp x_lo x_hi y_lo y_hi")):
    __slots__ = ()
    kind = "rectangle"
    _moving = ("x_lo", "x_hi", "y_lo", "y_hi")

    def contains(self, v, P):
        if not (isinstance(v, Euclid) and v.comp == self.comp):
            return False
        return bool(box_shifts(P, v.x, v.y, self.x_lo, self.x_hi, self.y_lo,
                               self.y_hi))


class ResidueBand(Value, namedtuple("ResidueBand", "axis comp residues")):
    """Euclidean vertices of one component whose x (axis "x", mod p) or y
    (axis "y", mod q) is one of the residues (a frozenset)."""

    __slots__ = ()
    _moving = ("residues",)

    def modulus(self, P):
        return P.p if self.axis == "x" else P.q

    def contains(self, v, P):
        if not (isinstance(v, Euclid) and v.comp == self.comp):
            return False
        n = self.modulus(P)
        return (v.x if self.axis == "x" else v.y) % n in {
            r % n for r in self.residues}

    def describe(self, P):
        n = self.modulus(P)
        return {
            "kind": self.axis + "_band",
            "comp": self.comp,
            "residues": sorted({r % n for r in self.residues}),
        }


class QuasiCone(Value, _Described,
                namedtuple("QuasiCone", "family level idx")):
    """Vertices of one tube level whose quasi-composition covers a fixed
    quasi-simple index: some lift i' of the vertex has i' <= idx <= i' + ht."""

    __slots__ = ()
    kind = "quasi_cone"
    _moving = ("idx",)

    def contains(self, v, P):
        return _tube_interval(self, v, P, None, self.idx, self.idx, None)


class TriangleArea(Value, _Described,
                   namedtuple("TriangleArea", "family level idx apex_ht")):
    """Finite wing below an apex: some lift i' has idx <= i' and
    i' + ht <= idx + apex_ht.  Empty when apex_ht < 0."""

    __slots__ = ()
    kind = "triangle"
    _moving = ("idx",)

    def contains(self, v, P):
        return _tube_interval(self, v, P, self.idx, None, None,
                              self.idx + self.apex_ht)


class TubeZone(Value, _Described, namedtuple(
        "TubeZone", "family level idx_lo idx_hi top_lo top_hi")):
    """One existential lift i' with idx_lo <= i' <= idx_hi and
    top_lo <= i' + ht <= top_hi.  None bounds are infinite."""

    __slots__ = ()
    kind = "tube_zone"
    _moving = ("idx_lo", "idx_hi", "top_lo", "top_hi")

    def contains(self, v, P):
        return _tube_interval(self, v, P, self.idx_lo, self.idx_hi,
                              self.top_lo, self.top_hi)


class TubeResidueBand(Value, namedtuple(
        "TubeResidueBand", "family level idx_residues top_residues")):
    """Residue conditions (frozensets) on the index and on index+ht
    separately; carries the top-periodic part of tube/tube bi-perps."""

    __slots__ = ()
    _moving = ("idx_residues", "top_residues")

    def contains(self, v, P):
        if not (isinstance(v, Tube) and v.family == self.family
                and v.level == self.level):
            return False
        r = P.rank(self.family)
        return v.idx % r in {s % r for s in self.idx_residues} and (
            (v.idx + v.ht) % r in {s % r for s in self.top_residues}
        )

    def describe(self, P):
        r = P.rank(self.family)
        return {
            "kind": "tube_residue_band",
            "family": self.family,
            "level": self.level,
            "idx_residues": sorted({s % r for s in self.idx_residues}),
            "top_residues": sorted({s % r for s in self.top_residues}),
        }


class Union(Value, namedtuple("Union", "members")):
    __slots__ = ()

    def contains(self, v, P):
        return any(m.contains(v, P) for m in self.members)

    def describe(self, P):
        return {"kind": "union", "members": [m.describe(P) for m in self.members]}


class Intersection(Value, namedtuple("Intersection", "members")):
    __slots__ = ()

    def contains(self, v, P):
        return all(m.contains(v, P) for m in self.members)

    def describe(self, P):
        return {
            "kind": "intersection",
            "members": [m.describe(P) for m in self.members],
        }


EMPTY = Empty()


def _union(*regions):
    live = tuple(r for r in regions if not isinstance(r, Empty))
    return live[0] if len(live) == 1 else Union(live)


def _triangle_or_empty(family, level, idx, apex_ht):
    if apex_ht < 0:
        return EMPTY
    return TriangleArea(family, level, idx, apex_ht)


# ---------------------------------------------------------------------------
# symbolic omega^{-1} images of regions


def _shifted(value, d):
    if value is None:
        return None
    if isinstance(value, frozenset):
        return frozenset(s + d for s in value)
    return value + d


def omega_inv_region(r, P: Params):
    """The set omega^{-1}(r).  Parts swap: comp 0 -> comp 1 shifts (x,y) by
    (+1,+1), comp 1 -> comp 0 is the identity; tube level 0 -> 1 shifts the
    index by +1, level 1 -> 0 is the identity.  A coordinate region shifts
    every field named in its _moving; heights such as TriangleArea.apex_ht
    do not move.  A finite set maps vertex by vertex, to canonical forms."""
    if isinstance(r, Empty):
        return r
    if isinstance(r, All):
        return All(PART_SWAP[r.part])
    if isinstance(r, (Union, Intersection)):
        return type(r)(tuple(omega_inv_region(m, P) for m in r.members))
    if isinstance(r, FiniteSet):
        return FiniteSet(frozenset(omega_inv(v, P) for v in r.vertices))
    moving = getattr(type(r), "_moving", None)
    if moving is None:
        raise TypeError("unknown region %r" % (r,))
    side = "comp" if hasattr(r, "comp") else "level"
    d = 0 if getattr(r, side) else 1
    changes = {name: _shifted(getattr(r, name), d) for name in moving}
    changes[side] = 1 - getattr(r, side)
    # _replace skips __new__, which is safe because no region checks fields
    return r._replace(**changes)


# ---------------------------------------------------------------------------
# support reports


class SupportReport(Value, namedtuple("SupportReport",
                                       "P parts homogeneous_meets")):
    # parts: part name -> region
    __slots__ = ()

    def contains(self, v: Vertex) -> bool:
        return self.parts[part_of(v)].contains(v, self.P)

    def to_json(self):
        return {
            "homogeneous_meets": self.homogeneous_meets,
            "parts": {name: self.parts[name].describe(self.P) for name in PART_NAMES},
        }


def _transport(rep: SupportReport) -> SupportReport:
    """omega^{-1} of every part of a report."""
    parts = {
        PART_SWAP[name]: omega_inv_region(region, rep.P)
        for name, region in rep.parts.items()
    }
    return SupportReport(rep.P, parts, rep.homogeneous_meets)


def _empty_parts():
    return {name: EMPTY for name in PART_NAMES}


def rsupp(X: Vertex, P: Params) -> SupportReport:
    """Right support {Y : Hom(X, Y) != 0} as exact regions."""
    X = canonical(X, P)
    if _is_unreduced(X):
        return _transport(rsupp(omega(X, P), P))
    parts = _empty_parts()
    if isinstance(X, Euclid):
        a, b = X.x, X.y
        parts["e0"] = ForwardCone(0, a, b)
        parts["e1"] = BackwardCone(1, a, b)
        parts["u1"] = QuasiCone("U", 1, b)
        parts["p1"] = QuasiCone("P", 1, a)
        return SupportReport(P, parts, True)
    c, d, fam = X.idx, X.ht, X.family
    # the residues c..c+d mod the rank; a tall vertex covers every residue
    last = c + min(d, P.rank(fam) - 1)
    parts["e0"] = ResidueBand(_AXIS[fam], 0, frozenset(range(c, last + 1)))
    parts[fam.lower() + "0"] = TubeZone(fam, 0, c, c + d, c + d, None)
    parts[fam.lower() + "1"] = TubeZone(fam, 1, None, c, c, c + d)
    return SupportReport(P, parts, False)


def lsupp(X: Vertex, P: Params) -> SupportReport:
    """Left support {Y : Hom(Y, X) != 0}; equals omega^{-1} of the right
    support by duality."""
    return _transport(rsupp(X, P))


# ---------------------------------------------------------------------------
# orthogonality tables per anchor band

_BAND_TABLES = 128


class _Band:
    """Orthogonality table of one anchor band; _band keeps the _BAND_TABLES
    most recently used.

    cand lists the band's brick candidates in vertex_sort_key order and bit
    i of every mask stands for cand[i]: E(c, ax-p+k, y) is bit
    (c*(2p+1) + k)*q + y, and T(f, l, j, h) is bit tube_base[f, l] +
    j*(r-1) + h, P before U and level 0 before level 1, so euclid masks the
    Euclidean bits.  ortho[i] is cand[i]'s row, the bits of the candidates
    orthogonal to it, built in O(p+q) int operations when a query first
    needs it.  A set's member mask ORs its members' bits, and its witnesses
    AND their rows."""

    def __init__(self, P: Params, ax: int):
        p, q = P
        cand = [Euclid(comp, x, y) for comp in (0, 1)
                for x in range(ax - p, ax + p + 1) for y in range(q)]
        self.P, self.lo, self.width = P, ax - p, len(cand) // 2
        self.euclid = (1 << len(cand)) - 1
        self.part_bits = {"e0": (1 << self.width) - 1}
        self.part_bits["e1"] = self.part_bits["e0"] << self.width
        self.tube_base = {}
        for fam in ("P", "U"):
            r = P.rank(fam)
            for level in (0, 1):
                self.tube_base[fam, level] = len(cand)
                self.part_bits[fam.lower() + str(level)] = (
                    (1 << r * (r - 1)) - 1) << len(cand)
                cand += [Tube(fam, level, j, h)
                         for j in range(r) for h in range(r - 1)]
        self.cand = cand
        self.full = (1 << len(cand)) - 1
        # bit k*q for each column k of comp 0: the candidates at y = 0
        self.column = sum(1 << k * q for k in range(2 * p + 1))
        self.ortho = [None] * len(cand)

    def row(self, i: int, mask: int) -> int:
        """The bits of mask orthogonal to cand[i]."""
        row = self.ortho[i]
        if row is None:
            row = self.ortho[i] = self.orthogonal(self.cand[i])
        return row & mask

    def orthogonal(self, v: Vertex) -> int:
        """The candidates orthogonal to a canonical vertex v, in the band or
        not: every candidate off R(v) | L(v), where R(v) holds the Y with
        Hom(v, Y) != 0 and L(v) = omega^{-1} R(v) those with Hom(Y, v) != 0.
        Each is the union of the closed forms of stable_hom_nonzero, written
        for a source on comp 1 or level 1 through its syzygy."""
        if isinstance(v, Euclid):
            c, a, b = v
            hom = (self._cone(c, a, b, True)
                   | self._cone(1 - c, a + 1 - c, b + 1 - c, True)
                   | self._cone(0, a - c, b - c, False)
                   | self._cone(1, a, b, False))
            for fam, i in (("U", b), ("P", a)):
                r = self.P.rank(fam)
                hom |= (self._tube(fam, 0, i - c, r, r)
                        | self._tube(fam, 1, i, r, r))
        else:
            fam, l, c, d = v
            r = self.P.rank(fam)
            hom = (self._residues(fam, 0, c, d)
                   | self._residues(fam, 1, c + 1 - l, d)
                   | self._tube(fam, 0, c + d, d, r)
                   | self._tube(fam, 1, c + 1 - l + d, d, r)
                   | self._tube(fam, 0, c - l, r, d)
                   | self._tube(fam, 1, c, r, d))
        return self.full ^ hom

    def _cone(self, comp: int, x0: int, y0: int, forward: bool) -> int:
        """The forward cone, E(comp, x, y) with x >= x0 + p*ceil((y0-y)/q),
        or the backward one, x <= x0 + p*floor((y0-y)/q).  Over 0 <= y < q
        the bound takes one value below y0 mod q and one from it on (after
        it, backward), so each of the two blocks of rows is the comp's
        columns cut at the bound."""
        p, q = self.P
        m, s = divmod(y0, q)
        n = 2 * p + 1
        if forward:
            blocks = ((0, s, x0 + p * (m + 1)), (s, q, x0 + p * m))
        else:
            blocks = ((0, s + 1, x0 + p * m), (s + 1, q, x0 + p * (m - 1)))
        bits = 0
        for y_lo, y_hi, x in blocks:
            if forward:  # columns x - lo onwards
                cut = min(max(x - self.lo, 0), n) * q
                cols = self.column >> cut << cut
            else:  # columns up to x - lo
                cut = min(max(x - self.lo + 1, 0), n) * q
                cols = self.column & ((1 << cut) - 1)
            bits |= cols * ((1 << y_hi) - (1 << y_lo))
        return bits << comp * self.width

    def _residues(self, fam: str, comp: int, lo: int, d: int) -> int:
        """E(comp, x, y) whose y (fam U) or x (fam P) is congruent to one of
        lo..lo+d mod the family's rank."""
        p, q = self.P
        span = min(d, self.P.rank(fam) - 1)
        if fam == "U":
            bits = self.column * sum(1 << y % q
                                     for y in range(lo, lo + span + 1))
        else:
            bits = ((1 << q) - 1) * sum(
                1 << k * q for k in range(2 * p + 1)
                if (self.lo + k - lo) % p <= span)
        return bits << comp * self.width

    def _tube(self, fam: str, level: int, top: int, most: int,
              cap: int) -> int:
        """T(fam, level, j, h) with t = (top - j) mod rank <= most and
        t <= h <= t + cap: one run of heights per index j.  Heights stop at
        rank - 2, so a most or cap of rank bounds nothing."""
        r = self.P.rank(fam)
        base = self.tube_base[fam, level]
        bits = 0
        for t in range(min(most, r - 2) + 1):
            j = (top - t) % r
            bits |= ((1 << min(cap, r - 2 - t) + 1) - 1) << (
                base + j * (r - 1) + t)
        return bits


@functools.lru_cache(maxsize=_BAND_TABLES)
def _band(P: Params, ax: int) -> _Band:
    return _Band(P, ax)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _read(S, P: Params):
    """(vs, ax, mem, off): S as a list, the x of its least Euclidean member
    in vertex_sort_key order (None without one), and the member mask and
    off list of _members on the band at ax, by the band's bit arithmetic."""
    if not isinstance(P, Params):
        raise DomainError("P is not a Params: %r" % (P,))
    p, q = P
    vs, least = list(S), [None, None]
    for v in vs:
        if type(v) is Euclid or isinstance(v, Euclid):
            c, x, y = v
            x += p * (y // q)
            if least[c] is None or x < least[c]:
                least[c] = x
        elif not isinstance(v, Tube):
            raise DomainError("member %r is not a vertex" % (v,))
    ax = least[1] if least[0] is None else least[0]
    lo, n = (0 if ax is None else ax) - p, 2 * p + 1
    base = {"P": 2 * n * q, "U": 2 * (n * q + p * p - p)}  # tube_base[f, 0]
    mem, off = 0, []
    for v in vs:
        if len(v) == 3:
            c, x, y = v
            k = x + p * (y // q) - lo
            if 0 <= k < n:
                mem |= 1 << (c * n + k) * q + y % q
                continue
        else:
            f, l, j, h = v
            r = p if f == "P" else q
            if h < r - 1:
                mem |= 1 << base[f] + (l * r + j % r) * (r - 1) + h
                continue
        if (v := canonical(v, P)) not in off:
            off.append(v)
    return vs, ax, mem, off


def _members(S, P: Params):
    """(band, mem, off) of a set: the band of its least Euclidean member
    (x = 0 without one), the mask of the members in it, and those not in it
    (off the band or not bricks), canonical, once each in first-seen order.
    A P not a Params or a member not a vertex is a DomainError."""
    _, ax, mem, off = _read(S, P)
    return _band(P, 0 if ax is None else ax), mem, off


def _witnesses(band, mem: int, off, parts) -> int:
    """The candidates in parts (None for all) orthogonal to every member,
    as a mask; 0 without a Euclidean member.  Member bits read their kept
    rows; an off member gets a row for this call only."""
    if parts is not None:
        parts = set(parts)
        unknown = sorted(parts - set(PART_NAMES))
        if unknown:
            raise DomainError("unknown part %s; valid parts are %s"
                              % (", ".join(unknown), ", ".join(PART_NAMES)))
        if not parts:
            raise DomainError("parts must name at least one part")
    if not mem & band.euclid:
        return 0
    mask = (band.full if parts is None
            else sum(band.part_bits[name] for name in parts)) & ~mem
    rows, rest = band.ortho, mem
    while rest and mask:
        low = rest & -rest
        row = rows[low.bit_length() - 1]
        mask &= band.row(low.bit_length() - 1, mask) if row is None else row
        rest ^= low
    for v in off:
        mask &= band.orthogonal(v)
    return mask


# ---------------------------------------------------------------------------
# bi-perpendicular categories


def _biperp_single_base(X: Vertex, P: Params) -> SupportReport:
    # X is a canonical brick, comp 0 or level 0
    parts = _empty_parts()
    if isinstance(X, Euclid):
        a, b = X.x, X.y
        parts["e0"] = Rectangle(0, a - P.p + 1, a - 1, b + 1, b + P.q - 1)
        parts["e1"] = Rectangle(1, a - P.p + 1, a, b + 1, b + P.q)
        parts["u0"] = _triangle_or_empty("U", 0, b + 1, P.q - 2)
        parts["u1"] = _triangle_or_empty("U", 1, b + 1, P.q - 2)
        parts["p0"] = _triangle_or_empty("P", 0, a + 1, P.p - 2)
        parts["p1"] = _triangle_or_empty("P", 1, a + 1, P.p - 2)
        return SupportReport(P, parts, False)
    c, d = X.idx, X.ht
    r = P.rank(X.family)
    # the r-1-d residues off the support, at least one since d <= r - 2
    away = frozenset(range(c + d + 1, c + r))
    fam = X.family
    lo = fam.lower()
    other = "p" if fam == "U" else "u"
    parts["e0"] = ResidueBand(_AXIS[fam], 0, away)
    parts["e1"] = ResidueBand(_AXIS[fam], 1, frozenset(s + 1 for s in away))
    parts[lo + "0"] = _union(
        _triangle_or_empty(fam, 0, c + 1, d - 2),
        TubeResidueBand(fam, 0, away, away),
    )
    level1_idx = frozenset({c}) | frozenset(range(c + d + 2, c + r))
    parts[lo + "1"] = _union(
        _triangle_or_empty(fam, 1, c + 1, d - 1),
        TubeResidueBand(fam, 1, level1_idx, away),
    )
    parts[other + "0"] = All(other + "0")
    parts[other + "1"] = All(other + "1")
    return SupportReport(P, parts, True)


def _finite_parts(band, mask: int) -> dict:
    """Each part of a band mask, as a finite set or EMPTY."""
    return {name: FiniteSet(frozenset(band.cand[i] for i in _bits(bits)))
            if (bits := mask & band.part_bits[name]) else EMPTY
            for name in PART_NAMES}


def _biperp_single(X: Vertex, P: Params) -> SupportReport:
    # X is canonical, and so is omega(X)
    if not is_brick_candidate(X, P):
        # the formulas of _biperp_single_base need ht <= rank - 2.  A taller
        # X covers every residue, so its supports hold every Euclidean
        # vertex and every non-brick of its family, and miss the other
        # family: only its family's bricks need its row, from any band
        band = _band(P, 0)
        parts = _finite_parts(band, band.orthogonal(X))
        other = "p" if X.family == "U" else "u"
        parts.update({other + l: All(other + l) for l in "01"})
        return SupportReport(P, parts, True)
    if _is_unreduced(X):
        return _transport(_biperp_single_base(omega(X, P), P))
    return _biperp_single_base(X, P)


def biperp(S, P: Params) -> SupportReport:
    """Bi-perpendicular category of a finite set: vertices with no nonzero
    stable Hom to or from any member of S."""
    vs, ax, mem, off = _read(S, P)
    if ax is not None and mem.bit_count() + len(off) > 1:
        # a Euclidean member confines the bi-perp to its band: read the table
        band = _band(P, ax)
        return SupportReport(P, _finite_parts(
            band, _witnesses(band, mem, off, None)), False)
    # no member, one member or only tubes: no band table is needed
    members = canonical_set(vs, P)
    if not members:
        return SupportReport(P, {name: All(name) for name in PART_NAMES}, True)
    if len(members) == 1:
        return _biperp_single(members[0], P)
    singles = [_biperp_single(m, P).parts for m in members]
    return SupportReport(P, {name: Intersection(tuple(
        s[name] for s in singles)) for name in PART_NAMES}, True)
