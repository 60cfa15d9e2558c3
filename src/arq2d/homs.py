"""Stable Hom predicate, support regions and bi-perpendicular categories.

Every nonzero-Hom question between stable vertices reduces to a small case
table: a source on comp 1 / level 1 is conjugated once by the syzygy
(Hom(X,Y) != 0 iff Hom(omega X, omega Y) != 0), after which the source sits
on comp 0 / level 0 and closed integer formulas decide the question.

Supports and bi-perps are reported as regions.  A region answers membership
with O(1) integer arithmetic; set-level images under omega / omega^{-1} are
computed symbolically so left supports come from right supports by duality
(Hom(Y,X) != 0 iff Hom(X, omega Y) != 0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import (
    Euclid,
    Params,
    Tube,
    Vertex,
    canonical,
    ceil_div,
    format_vertex,
    omega,
    omega_inv,
    vertex_sort_key,
)


def residue_in_interval(value: int, modulus: int, lo, hi) -> bool:
    """Does value + modulus*Z meet [lo, hi]?  None bounds mean +-infinity."""
    if lo is None or hi is None:
        return True
    return hi >= lo and (value - lo) % modulus <= hi - lo


def stable_hom_nonzero(X: Vertex, Y: Vertex, P: Params) -> bool:
    if (isinstance(X, Euclid) and X.comp == 1) or (
        isinstance(X, Tube) and X.level == 1
    ):
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

PART_NAMES = ("e0", "e1", "u0", "u1", "p0", "p1")
PART_SWAP = {"e0": "e1", "e1": "e0", "u0": "u1", "u1": "u0", "p0": "p1", "p1": "p0"}


def part_of(v: Vertex) -> str:
    if isinstance(v, Euclid):
        return "e%d" % v.comp
    return ("u%d" if v.family == "U" else "p%d") % v.level


def _tube_matches(region, v) -> bool:
    return (
        isinstance(v, Tube)
        and v.family == region.family
        and v.level == region.level
    )


@dataclass(frozen=True)
class Empty:
    def contains(self, v, P):
        return False

    def describe(self, P):
        return {"kind": "empty"}


@dataclass(frozen=True)
class All:
    part: str

    def contains(self, v, P):
        return part_of(v) == self.part

    def describe(self, P):
        return {"kind": "all", "part": self.part}


@dataclass(frozen=True)
class FiniteSet:
    vertices: frozenset  # canonical forms

    def contains(self, v, P):
        return canonical(v, P) in self.vertices

    def describe(self, P):
        vs = sorted(self.vertices, key=vertex_sort_key)
        return {"kind": "set", "vertices": [format_vertex(v) for v in vs]}


@dataclass(frozen=True)
class ForwardCone:
    comp: int
    x: int
    y: int
    _moving = ("x", "y")

    def contains(self, v, P):
        if not (isinstance(v, Euclid) and v.comp == self.comp):
            return False
        return ceil_div(self.y - v.y, P.q) <= (v.x - self.x) // P.p

    def describe(self, P):
        return {"kind": "forward_cone", "comp": self.comp, "x": self.x, "y": self.y}


@dataclass(frozen=True)
class BackwardCone:
    comp: int
    x: int
    y: int
    _moving = ("x", "y")

    def contains(self, v, P):
        if not (isinstance(v, Euclid) and v.comp == self.comp):
            return False
        return ceil_div(v.x - self.x, P.p) <= (self.y - v.y) // P.q

    def describe(self, P):
        return {"kind": "backward_cone", "comp": self.comp, "x": self.x, "y": self.y}


@dataclass(frozen=True)
class Rectangle:
    comp: int
    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int
    _moving = ("x_lo", "x_hi", "y_lo", "y_hi")

    def contains(self, v, P):
        if not (isinstance(v, Euclid) and v.comp == self.comp):
            return False
        lo = max(ceil_div(v.x - self.x_hi, P.p), ceil_div(self.y_lo - v.y, P.q))
        hi = min((v.x - self.x_lo) // P.p, (self.y_hi - v.y) // P.q)
        return lo <= hi

    def describe(self, P):
        return {
            "kind": "rectangle",
            "comp": self.comp,
            "x": [self.x_lo, self.x_hi],
            "y": [self.y_lo, self.y_hi],
        }


@dataclass(frozen=True)
class XBand:
    comp: int
    residues: frozenset  # mod p
    _moving = ("residues",)

    def contains(self, v, P):
        if not (isinstance(v, Euclid) and v.comp == self.comp):
            return False
        return v.x % P.p in {r % P.p for r in self.residues}

    def describe(self, P):
        return {
            "kind": "x_band",
            "comp": self.comp,
            "residues": sorted({r % P.p for r in self.residues}),
        }


@dataclass(frozen=True)
class YBand:
    comp: int
    residues: frozenset  # mod q
    _moving = ("residues",)

    def contains(self, v, P):
        if not (isinstance(v, Euclid) and v.comp == self.comp):
            return False
        return v.y % P.q in {r % P.q for r in self.residues}

    def describe(self, P):
        return {
            "kind": "y_band",
            "comp": self.comp,
            "residues": sorted({r % P.q for r in self.residues}),
        }


@dataclass(frozen=True)
class QuasiCone:
    """Vertices of one tube level whose quasi-composition covers a fixed
    quasi-simple index: some lift i' of the vertex has i' <= idx <= i' + ht."""

    family: str
    level: int
    idx: int
    _moving = ("idx",)

    def contains(self, v, P):
        if not _tube_matches(self, v):
            return False
        return residue_in_interval(v.idx, P.rank(self.family), self.idx - v.ht, self.idx)

    def describe(self, P):
        return {
            "kind": "quasi_cone",
            "family": self.family,
            "level": self.level,
            "idx": self.idx,
        }


@dataclass(frozen=True)
class TriangleArea:
    """Finite wing below an apex: some lift i' has idx <= i' and
    i' + ht <= idx + apex_ht.  Empty when apex_ht < 0."""

    family: str
    level: int
    idx: int
    apex_ht: int
    _moving = ("idx",)

    def contains(self, v, P):
        if self.apex_ht < 0 or not _tube_matches(self, v):
            return False
        return residue_in_interval(
            v.idx, P.rank(self.family), self.idx, self.idx + self.apex_ht - v.ht
        )

    def describe(self, P):
        return {
            "kind": "triangle",
            "family": self.family,
            "level": self.level,
            "idx": self.idx,
            "apex_ht": self.apex_ht,
        }


@dataclass(frozen=True)
class TubeZone:
    """One existential lift i' with idx_lo <= i' <= idx_hi and
    top_lo <= i' + ht <= top_hi.  None bounds are infinite."""

    family: str
    level: int
    idx_lo: object
    idx_hi: object
    top_lo: object
    top_hi: object
    _moving = ("idx_lo", "idx_hi", "top_lo", "top_hi")

    def contains(self, v, P):
        if not _tube_matches(self, v):
            return False
        lows = [self.idx_lo, self.top_lo - v.ht if self.top_lo is not None else None]
        highs = [self.idx_hi, self.top_hi - v.ht if self.top_hi is not None else None]
        lows = [x for x in lows if x is not None]
        highs = [x for x in highs if x is not None]
        lo = max(lows) if lows else None
        hi = min(highs) if highs else None
        return residue_in_interval(v.idx, P.rank(self.family), lo, hi)

    def describe(self, P):
        return {
            "kind": "tube_zone",
            "family": self.family,
            "level": self.level,
            "idx": [self.idx_lo, self.idx_hi],
            "top": [self.top_lo, self.top_hi],
        }


@dataclass(frozen=True)
class TubeResidueBand:
    """Residue conditions on the index and on index+ht separately; carries
    the top-periodic part of tube/tube bi-perps."""

    family: str
    level: int
    idx_residues: frozenset
    top_residues: frozenset
    _moving = ("idx_residues", "top_residues")

    def contains(self, v, P):
        if not _tube_matches(self, v):
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


@dataclass(frozen=True)
class Union:
    members: tuple

    def contains(self, v, P):
        return any(m.contains(v, P) for m in self.members)

    def describe(self, P):
        return {"kind": "union", "members": [m.describe(P) for m in self.members]}


@dataclass(frozen=True)
class Intersection:
    members: tuple

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
    if not live:
        return EMPTY
    if len(live) == 1:
        return live[0]
    return Union(live)


def _triangle_or_empty(family, level, idx, apex_ht):
    if apex_ht < 0:
        return EMPTY
    return TriangleArea(family, level, idx, apex_ht)


# ---------------------------------------------------------------------------
# symbolic omega images of regions


def _shifted(value, d):
    if value is None:
        return None
    if isinstance(value, frozenset):
        return frozenset(s + d for s in value)
    return value + d


def _shift_region(r, d_from_0: int, d_from_1: int):
    """A coordinate region moved to its partner part: comp / level flips and
    every field named in r._moving gains d, which is d_from_0 from comp 0 /
    level 0 and d_from_1 from comp 1 / level 1.  Heights such as
    TriangleArea.apex_ht do not move."""
    moving = getattr(type(r), "_moving", None)
    if moving is None:
        raise TypeError("unknown region %r" % (r,))
    side = "comp" if hasattr(r, "comp") else "level"
    d = d_from_1 if getattr(r, side) else d_from_0
    changes = {name: _shifted(getattr(r, name), d) for name in moving}
    changes[side] = 1 - getattr(r, side)
    return replace(r, **changes)


def omega_inv_region(r, P: Params):
    """The set omega^{-1}(r).  Parts swap: comp 0 -> comp 1 shifts (x,y) by
    (+1,+1), comp 1 -> comp 0 is the identity; tube level 0 -> 1 shifts the
    index by +1, level 1 -> 0 is the identity."""
    if isinstance(r, Empty):
        return r
    if isinstance(r, All):
        return All(PART_SWAP[r.part])
    if isinstance(r, FiniteSet):
        return FiniteSet(frozenset(omega_inv(v, P) for v in r.vertices))
    if isinstance(r, (Union, Intersection)):
        return type(r)(tuple(omega_inv_region(m, P) for m in r.members))
    return _shift_region(r, 1, 0)


def omega_region(r, P: Params):
    """The set omega(r); inverse of omega_inv_region."""
    if isinstance(r, Empty):
        return r
    if isinstance(r, All):
        return All(PART_SWAP[r.part])
    if isinstance(r, FiniteSet):
        return FiniteSet(frozenset(omega(v, P) for v in r.vertices))
    if isinstance(r, (Union, Intersection)):
        return type(r)(tuple(omega_region(m, P) for m in r.members))
    return _shift_region(r, 0, -1)


# ---------------------------------------------------------------------------
# support reports


@dataclass
class SupportReport:
    P: Params
    parts: dict  # part name -> region
    homogeneous_meets: bool

    def contains(self, v: Vertex) -> bool:
        return self.parts[part_of(v)].contains(v, self.P)

    def to_json(self):
        return {
            "homogeneous_meets": self.homogeneous_meets,
            "parts": {name: self.parts[name].describe(self.P) for name in PART_NAMES},
        }


def _transport(rep: SupportReport, transformer) -> SupportReport:
    parts = {
        PART_SWAP[name]: transformer(region, rep.P)
        for name, region in rep.parts.items()
    }
    return SupportReport(rep.P, parts, rep.homogeneous_meets)


def _empty_parts():
    return {name: EMPTY for name in PART_NAMES}


def _is_unreduced(X: Vertex) -> bool:
    return (isinstance(X, Euclid) and X.comp == 1) or (
        isinstance(X, Tube) and X.level == 1
    )


def rsupp(X: Vertex, P: Params) -> SupportReport:
    """Right support {Y : Hom(X, Y) != 0} as exact regions."""
    X = canonical(X, P)
    if _is_unreduced(X):
        return _transport(rsupp(omega(X, P), P), omega_inv_region)
    parts = _empty_parts()
    if isinstance(X, Euclid):
        a, b = X.x, X.y
        parts["e0"] = ForwardCone(0, a, b)
        parts["e1"] = BackwardCone(1, a, b)
        parts["u1"] = QuasiCone("U", 1, b)
        parts["p1"] = QuasiCone("P", 1, a)
        return SupportReport(P, parts, True)
    c, d = X.idx, X.ht
    if X.family == "U":
        parts["e0"] = YBand(0, frozenset(range(c, c + d + 1)))
        parts["u0"] = TubeZone("U", 0, c, c + d, c + d, None)
        parts["u1"] = TubeZone("U", 1, None, c, c, c + d)
    else:
        parts["e0"] = XBand(0, frozenset(range(c, c + d + 1)))
        parts["p0"] = TubeZone("P", 0, c, c + d, c + d, None)
        parts["p1"] = TubeZone("P", 1, None, c, c, c + d)
    return SupportReport(P, parts, False)


def lsupp(X: Vertex, P: Params) -> SupportReport:
    """Left support {Y : Hom(Y, X) != 0}; equals omega^{-1} of the right
    support by duality."""
    return _transport(rsupp(X, P), omega_inv_region)


# ---------------------------------------------------------------------------
# bi-perpendicular categories


def _biperp_single_base(X: Vertex, P: Params) -> SupportReport:
    # X is canonical, comp 0 or level 0
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
    away = frozenset(range(c + d + 1, c + r))  # the r-1-d residues off the support
    fam = X.family
    lo = fam.lower()
    other = "p" if fam == "U" else "u"
    if fam == "U":
        parts["e0"] = YBand(0, away)
        parts["e1"] = YBand(1, frozenset(s + 1 for s in away))
    else:
        parts["e0"] = XBand(0, away)
        parts["e1"] = XBand(1, frozenset(s + 1 for s in away))
    parts[lo + "0"] = _union(
        _triangle_or_empty(fam, 0, c + 1, d - 2),
        TubeResidueBand(fam, 0, away, away) if away else EMPTY,
    )
    level1_idx = frozenset({c}) | frozenset(range(c + d + 2, c + r))
    parts[lo + "1"] = _union(
        _triangle_or_empty(fam, 1, c + 1, d - 1),
        TubeResidueBand(fam, 1, level1_idx, away) if away else EMPTY,
    )
    parts[other + "0"] = All(other + "0")
    parts[other + "1"] = All(other + "1")
    return SupportReport(P, parts, True)


def _biperp_single(X: Vertex, P: Params) -> SupportReport:
    X = canonical(X, P)
    if _is_unreduced(X):
        return _transport(_biperp_single(omega(X, P), P), omega_inv_region)
    return _biperp_single_base(X, P)


def _euclid_box_points(comp, x_lo, x_hi, y_lo, y_hi):
    for x in range(x_lo, x_hi + 1):
        for y in range(y_lo, y_hi + 1):
            yield Euclid(comp, x, y)


def _triangle_points(family, level, idx, apex_ht):
    for ht in range(0, apex_ht + 1):
        for i in range(idx, idx + apex_ht - ht + 1):
            yield Tube(family, level, i, ht)


def _biperp_candidates(M: Euclid, P: Params):
    """Finite superset of biperp({M}) for a canonical comp-0 vertex M."""
    a, b = M.x, M.y
    yield from _euclid_box_points(0, a - P.p + 1, a - 1, b + 1, b + P.q - 1)
    yield from _euclid_box_points(1, a - P.p + 1, a, b + 1, b + P.q)
    for level in (0, 1):
        yield from _triangle_points("U", level, b + 1, P.q - 2)
        yield from _triangle_points("P", level, a + 1, P.p - 2)


def biperp(S, P: Params) -> SupportReport:
    """Bi-perpendicular category of a finite set: vertices with no nonzero
    stable Hom to or from any member of S."""
    members = sorted({canonical(s, P) for s in S}, key=vertex_sort_key)
    if not members:
        parts = {name: All(name) for name in PART_NAMES}
        return SupportReport(P, parts, True)
    if len(members) == 1:
        return _biperp_single(members[0], P)
    euclids = [m for m in members if isinstance(m, Euclid)]
    if not euclids:
        singles = [_biperp_single(m, P) for m in members]
        parts = {
            name: Intersection(tuple(s.parts[name] for s in singles))
            for name in PART_NAMES
        }
        return SupportReport(P, parts, True)
    # a Euclidean member makes every part finite: enumerate and filter
    M = euclids[0]
    if M.comp == 1:
        # conjugate the whole problem so the pivot sits on comp 0
        inner = biperp([omega(m, P) for m in members], P)
        return _transport(inner, omega_inv_region)
    hits = {name: set() for name in PART_NAMES}
    for cand in _biperp_candidates(M, P):
        cv = canonical(cand, P)
        if all(
            not stable_hom_nonzero(m, cv, P) and not stable_hom_nonzero(cv, m, P)
            for m in members
        ):
            hits[part_of(cv)].add(cv)
    parts = {
        name: FiniteSet(frozenset(vs)) if vs else EMPTY
        for name, vs in hits.items()
    }
    return SupportReport(P, parts, False)
