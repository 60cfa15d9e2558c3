"""Orthogonal systems: predicates, triangle-area enumeration, maximal extension.

A system is a finite set of brick candidates with vanishing stable Hom in
both directions between distinct members.  Enumeration is exhaustive
backtracking over finite pools; maximal systems are maximal cliques of the
compatibility graph.  Witness pools for maximality are finite only when the
system pins down a Euclidean band, hence the NoEuclideanMember precondition
on the extension search.

Every orthogonality question here, from the system predicate to the
anchored, triangle and paired clique searches, reads an anchor band's
orthogonality table, which homs owns (see its docstring).  Every band holds
every tube brick, so tube-only sets and tube pools read the band at x = 0.
"""

from __future__ import annotations

from collections import namedtuple

from .model import (
    DomainError,
    Euclid,
    HeightOutOfRange,
    Params,
    Tube,
    Value,
    Vertex,
    canonical_set,
    format_vertex,
    is_brick_candidate,
)
from .homs import _band, _bits, _witnesses


class NoEuclideanMember(DomainError):
    """Raised when an unbounded witness pool would be required."""


def is_orthogonal_system(S, P: Params) -> bool:
    """Bricks with no nonzero stable Hom between distinct members, read
    from the band table of the first Euclidean member (x = 0 if none).  No
    Euclidean vertex off that band is orthogonal to that member."""
    return _orthogonal(canonical_set(S, P), P)


def _orthogonal(vs, P: Params, band=None) -> bool:
    """is_orthogonal_system on a canonical list; band, when given, is the
    table of its first Euclidean member."""
    if not all(is_brick_candidate(v, P) for v in vs):
        return False
    if band is None:
        band = _band(P, next((v.x for v in vs if isinstance(v, Euclid)), 0))
    bits = [band.index.get(v) for v in vs]
    if None in bits:
        return False
    members = sum(1 << i for i in bits)
    return all(band.row(i, members) == members ^ (1 << i) for i in bits)


def euclidean_ortho_check(members, P: Params) -> bool:
    """Band-plus-anti-monotonicity test for same-component Euclidean sets.

    On canonical representatives (0 <= y < q) a set is orthogonal exactly
    when the y values are distinct, x strictly decreases as y increases, and
    the total x spread stays below p.  Order-independent; must agree with
    the pairwise predicate.
    """
    vs = canonical_set(members, P)
    if not vs:
        return True
    if not all(isinstance(v, Euclid) for v in vs):
        raise DomainError("euclidean_ortho_check needs Euclidean vertices")
    if len({v.comp for v in vs}) > 1:
        raise DomainError("euclidean_ortho_check needs a single component")
    if len({v.y for v in vs}) != len(vs):
        return False
    chain = sorted(vs, key=lambda v: v.y)
    xs = [v.x for v in chain]
    if any(x2 >= x1 for x1, x2 in zip(xs, xs[1:])):
        return False
    return xs[0] - xs[-1] < P.p


class MaximalityReport(Value, namedtuple(
        "MaximalityReport", "is_maximal witnesses homogeneous_blocked")):
    # witnesses: a tuple of vertices
    __slots__ = ()


def witness_pool(S, P: Params, parts=None) -> list[Vertex]:
    """Brick candidates orthogonal to every member of S.

    Finite only because a Euclidean member confines the Euclidean part of
    the bi-perpendicular category to one band of width p; tube heights cap
    at rank-2.  Returns [] when S has no Euclidean member.
    """
    band, mask = _witnesses(canonical_set(S, P), P, parts)
    return [band.cand[i] for i in _bits(mask)]


def maximality(S, P: Params, parts=None) -> MaximalityReport:
    return _maximality(canonical_set(S, P), P, parts)


def _maximality(vs, P: Params, parts=None) -> MaximalityReport:
    """maximality of a canonical list, from one read of its band table."""
    band, mask = _witnesses(vs, P, parts)
    blocked = band is not None
    return MaximalityReport(
        # a member only shrinks the pool, so an empty pool alone does not
        # make a set that is not orthogonal maximal
        is_maximal=not mask and blocked and _orthogonal(vs, P, band),
        witnesses=tuple(band.cand[i] for i in _bits(mask)),
        homogeneous_blocked=blocked,
    )


def _branches(adj, top: int, memo: dict, cand: int, excl: int):
    """The search state (cand, excl) as a node of the clique DAG: a tuple of
    (bit, child node) pairs, one per branch below which a maximal clique
    lies; () for the state that reports the clique built so far; None when
    no maximal clique lies below.  Bit top - i stands for vertex i.

    Bron-Kerbosch with Tomita pivoting (Tomita, Tanaka & Takahashi 2006)
    over int bitsets.  The pivot is the vertex of cand | excl with the most
    neighbours in cand; only the set bits of cand | excl are scanned.  The
    pivot, the branches and the cliques below a state depend on
    (cand, excl) alone, not on the clique built so far, so memo keeps one
    node per state and the search tree folds into a DAG.
    """
    if not cand:
        return None if excl else ()
    best, pivot_adj, rest = -1, 0, cand | excl
    while rest:
        low = rest & -rest
        nbrs = adj[low.bit_length() - 1]
        count = (cand & nbrs).bit_count()
        if count > best:
            best, pivot_adj = count, nbrs
        rest ^= low
    found = []
    todo = cand & ~pivot_adj
    while todo:
        low = todo & -todo
        i = low.bit_length() - 1
        nbrs = adj[i]
        state = (cand & nbrs, excl & nbrs)
        if state in memo:
            child = memo[state]
        else:
            child = memo[state] = _branches(adj, top, memo, *state)
        if child is not None:
            found.append((1 << (top - i), child))
        cand ^= low
        excl |= low
        todo ^= low
    return tuple(found) or None


def _cliques(adj, cand: int) -> list[int]:
    """Maximal cliques of the graph on the set bits of cand, where adj[i]
    is the neighbour mask of i.  An empty cand has no cliques.

    Each clique is a mask in which bit len(adj) - 1 - i stands for vertex
    i, and the masks come in descending order.  For an antichain (here,
    maximal cliques, each joined with one common seed) that is the order
    of sorted index tuples: A precedes B exactly when the lowest index in
    A ^ B lies in A, and reversed, that index is the highest bit of the
    difference.  The memoized search (_branches) builds the DAG of
    productive states; one walk with an explicit stack emits each clique
    once.
    """
    if not cand:
        return []
    memo = {}
    root = _branches(adj, len(adj) - 1, memo, cand, 0)
    del memo  # the DAG below root holds only productive states
    out = []
    stack = [(root, 0)]
    while stack:
        node, acc = stack.pop()
        for bit, child in node:
            if child:
                stack.append((child, acc | bit))
            else:
                out.append(acc | bit)
    out.sort(reverse=True)
    return out


def _maximal(band, pool: int, seed) -> list[list[Vertex]]:
    """Maximal cliques of the band table's orthogonality graph on the pool
    mask, each joined with the seed's bit indices, in canonical order: bit
    order is vertex_sort_key order, so sorted index tuples are, and
    _cliques returns its masks in that order.  Each vertex list is read
    off its mask from the highest bit down, lowest index first.  Masks in
    that order share long heads: the bits above the highest difference
    from the previous mask are the previous list's head, copied whole."""
    cand = band.cand
    adj = [0] * len(cand)
    for i in _bits(pool):
        adj[i] = band.row(i, pool)
    top = len(cand) - 1
    base = sum(1 << (top - i) for i in seed)
    systems, prev, vs = [], 0, []
    for m in _cliques(adj, pool):
        m |= base
        k = (m ^ prev).bit_length()
        vs = vs[:(m >> k).bit_count()]
        prev, rest = m, m & ((1 << k) - 1)
        while rest:
            j = rest.bit_length() - 1
            vs.append(cand[top - j])
            rest ^= 1 << j
        systems.append(vs)
    return systems


def maximal_systems_containing(S, P: Params, parts=None):
    """All maximal orthogonal systems containing S, canonical order.

    The search runs on the band table's bit indices; every member of an
    orthogonal seed lies in the band.
    """
    vs = canonical_set(S, P)
    if not any(isinstance(v, Euclid) for v in vs):
        raise NoEuclideanMember("extension pool is unbounded without a "
                                "Euclidean member")
    if not _orthogonal(vs, P):
        raise DomainError("seed is not an orthogonal system")
    band, pool = _witnesses(vs, P, parts)
    if not pool:
        return [vs]
    return _maximal(band, pool, [band.index[v] for v in vs])


def triangle_pool(family, level, idx, height, P: Params) -> list[Tube]:
    """Vertices of the triangle with base idx..idx+height on the given level."""
    if height > P.rank(family) - 2:
        raise HeightOutOfRange(
            "height %d exceeds brick cap %d" % (height, P.rank(family) - 2))
    return canonical_set((Tube(family, level, idx + j, k)
                          for j in range(max(height + 1, 0))
                          for k in range(height - j + 1)), P)


def paired_pool(family, kind, idx, height, P: Params) -> list[Tube]:
    """Two-level triangle pairings; kind selects the relative anchoring."""
    if kind == 1:
        lo = triangle_pool(family, 0, idx, height - 1, P)
        hi = triangle_pool(family, 1, idx, height, P)
    elif kind == 2:
        lo = triangle_pool(family, 0, idx, height, P)
        hi = triangle_pool(family, 1, idx + 1, height - 1, P)
    elif kind == 3:
        lo = triangle_pool(family, 0, idx, height, P)
        hi = triangle_pool(family, 1, idx, height, P)
    else:
        raise DomainError("unknown pairing kind %r" % (kind,))
    return canonical_set(lo + hi, P)


def _all_systems(band, pool: int) -> list[list[Vertex]]:
    """Every orthogonal subset of the pool mask, depth first in bit order."""
    out = []
    _extend(band, out, [], pool)
    return out


def _extend(band, out, prefix, cand):
    """Append prefix plus each nonempty orthogonal subset of cand, depth
    first."""
    while cand:
        low = cand & -cand
        i = low.bit_length() - 1
        cand ^= low
        prefix.append(band.cand[i])
        out.append(list(prefix))
        _extend(band, out, prefix, band.row(i, cand))
        prefix.pop()


def _enumerate_on(pool_fn, family, arg, idx, height, P: Params,
                  maximal_only: bool):
    if height <= -1:
        return []
    band = _band(P, 0)  # every band holds every tube brick
    pool = 0
    for v in pool_fn(family, arg, idx, height, P):
        pool |= 1 << band.index[v]
    if maximal_only:
        return _maximal(band, pool, [])
    return _all_systems(band, pool)


def enumerate_ortho_on_triangle(family, level, idx, height, P: Params,
                                maximal_only: bool = False):
    """All (or only maximal) orthogonal systems on one triangle area.

    height -1 denotes the empty triangle and yields no systems.
    """
    return _enumerate_on(triangle_pool, family, level, idx, height, P,
                         maximal_only)


def enumerate_ortho_on_paired(family, kind, idx, height, P: Params,
                              maximal_only: bool = False):
    return _enumerate_on(paired_pool, family, kind, idx, height, P,
                         maximal_only)


def enumeration_report(systems, include_systems: bool = False) -> dict:
    by_card: dict[int, int] = {}
    for s in systems:
        by_card[len(s)] = by_card.get(len(s), 0) + 1
    report = {
        "count": len(systems),
        "byCardinality": {str(k): by_card[k] for k in sorted(by_card)},
    }
    if include_systems:
        report["systems"] = [[format_vertex(v) for v in s] for s in systems]
    return report
