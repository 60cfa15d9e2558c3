"""Brute-force re-derivations used as ground truth by the test suite.

Everything here trusts only stable_hom_nonzero.  Regions, clique search and
count expectations are re-derived independently of the main code path so the
two can be diffed; the enumerators are deliberately naive.
"""

from __future__ import annotations

from .model import (
    DomainError,
    Euclid,
    Params,
    Tube,
    Vertex,
    Window,
    canonical,
    format_vertex,
    part_of,
    vertex_sort_key,
)
from .homs import stable_hom_nonzero


class WindowSpec(Window):
    """A Window that covers at least one full period in each direction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.x_hi - self.x_lo + 1 < self.P.p or self.y_hi - self.y_lo + 1 < self.P.q:
            raise DomainError("window must cover at least one full period")
        return self


def mutually_orthogonal(a: Vertex, b: Vertex, P: Params) -> bool:
    return not stable_hom_nonzero(a, b, P) and not stable_hom_nonzero(b, a, P)


def brute_biperp(S, w: WindowSpec) -> list[Vertex]:
    """Window slice of the bi-perp of S by pairwise predicate sweep."""
    members = [canonical(s, w.P) for s in S]
    return [
        v
        for v in w.vertices()
        if all(mutually_orthogonal(m, v, w.P) for m in members)
    ]


def _brute_orthogonal_subsets(pool, P: Params):
    """All non-empty pairwise-orthogonal subsets of a small pool."""
    pool = sorted(pool, key=vertex_sort_key)
    systems = []

    def extend(prefix, rest):
        for i, v in enumerate(rest):
            if all(mutually_orthogonal(u, v, P) for u in prefix):
                nxt = prefix + [v]
                systems.append(nxt)
                extend(nxt, rest[i + 1:])

    extend([], pool)
    return systems


def _maximal_cliques(pool, P: Params):
    """Bron-Kerbosch without pivoting, deterministic order."""
    pool = sorted(pool, key=vertex_sort_key)
    adj = {
        v: frozenset(u for u in pool if u != v and mutually_orthogonal(u, v, P))
        for v in pool
    }
    out = []

    def rec(clique, cand, excl):
        if not cand and not excl:
            out.append(sorted(clique, key=vertex_sort_key))
            return
        for v in [u for u in pool if u in cand]:
            rec(clique | {v}, cand & adj[v], excl & adj[v])
            cand = cand - {v}
            excl = excl | {v}

    rec(frozenset(), frozenset(pool), frozenset())
    return out


def _anchored_pool(P: Params, anchor: Euclid, parts=None):
    """Every brick candidate that can share a system with the anchor: a
    2-period Euclidean box around it plus all tube bricks, predicate-filtered."""
    cands = set()
    for c in (0, 1):
        for x in range(anchor.x - P.p, anchor.x + P.p + 1):
            for y in range(anchor.y - P.q, anchor.y + P.q + 1):
                cands.add(canonical(Euclid(c, x, y), P))
    for fam in ("U", "P"):
        r = P.rank(fam)
        for level in (0, 1):
            for j in range(r):
                for k in range(r - 1):
                    cands.add(Tube(fam, level, j, k))
    cands.discard(anchor)
    pool = [
        v
        for v in sorted(cands, key=vertex_sort_key)
        if mutually_orthogonal(anchor, v, P)
        and (parts is None or part_of(v) in parts)
    ]
    return pool


def exhaustive_max_ortho(P: Params, anchor: Vertex, parts=None) -> dict:
    """All maximal orthogonal systems containing a Euclidean anchor, by raw
    clique search over the predicate-filtered pool."""
    anchor = canonical(anchor, P)
    if not isinstance(anchor, Euclid):
        raise DomainError("anchor must be a Euclidean vertex")
    if parts is not None and part_of(anchor) not in parts:
        raise DomainError("anchor must lie in the restricted parts")
    pool = _anchored_pool(P, anchor, parts)
    systems = [
        sorted([anchor] + clique, key=vertex_sort_key)
        for clique in _maximal_cliques(pool, P)
    ]
    systems.sort(key=lambda s: (len(s), [vertex_sort_key(v) for v in s]))
    by_card = {}
    for s in systems:
        by_card[len(s)] = by_card.get(len(s), 0) + 1
    return {
        "anchor": format_vertex(anchor),
        "count": len(systems),
        "by_cardinality": by_card,
        "systems": systems,
    }


def _triangle_pool(family, level, idx, apex_ht):
    out = []
    for ht in range(0, apex_ht + 1):
        for i in range(idx, idx + apex_ht - ht + 1):
            out.append(Tube(family, level, i, ht))
    return out


def _paired_pool(P: Params, kind: int, h: int):
    """The three two-level triangle pairings whose maximal systems all have
    cardinality h+1 (anchored at index 1)."""
    if kind == 1:
        return _triangle_pool("U", 0, 1, h - 1) + _triangle_pool("U", 1, 1, h)
    if kind == 2:
        return _triangle_pool("U", 0, 1, h) + _triangle_pool("U", 1, 2, h - 1)
    return _triangle_pool("U", 0, 1, h) + _triangle_pool("U", 1, 1, h)


def _row(scenario, expected, actual):
    return {
        "scenario": scenario,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
    }


def reproduce_frozen_counts() -> list[dict]:
    """Fixed scenario list diffed against hard-coded expected values."""
    rows = []

    # single-triangle counts at the smallest admissible rank (results are
    # rank-independent once the rank admits the height)
    for h, expected in ((0, 1), (1, 4), (2, 13)):
        P = Params(2, h + 2)
        pool = _triangle_pool("U", 0, 1, h)
        systems = _brute_orthogonal_subsets(pool, P)
        rows.append(_row("single triangle ht %d: all systems" % h, expected,
                         len(systems)))

    P = Params(2, 4)
    pairs = [
        s for s in _brute_orthogonal_subsets(_triangle_pool("U", 0, 1, 2), P)
        if len(s) == 2
    ]
    rows.append(_row("single triangle ht 2: two-object systems", 6, len(pairs)))
    triples = [
        s for s in _brute_orthogonal_subsets(_triangle_pool("U", 0, 1, 2), P)
        if len(s) == 3
    ]
    rows.append(_row("single triangle ht 2: three-object systems", 1, len(triples)))

    P = Params(2, 5)
    maximal = _maximal_cliques(_triangle_pool("U", 0, 1, 3), P)
    sizes = {}
    for s in maximal:
        sizes[len(s)] = sizes.get(len(s), 0) + 1
    rows.append(_row("single triangle ht 3: maximal size multiset",
                     {2: 2, 3: 6, 4: 1}, sizes))

    # two-level pairings: every maximal system has cardinality h+1
    for rank in range(2, 7):
        P = Params(2, rank)
        for kind in (1, 2, 3):
            actual = []
            for h in range(0, rank - 1):
                pool = _paired_pool(P, kind, h)
                found = sorted({len(s) for s in _maximal_cliques(pool, P)})
                actual.append([h, found])
            expected = [[h, [h + 1]] for h in range(0, rank - 1)]
            rows.append(_row(
                "paired triangles kind %d rank %d: maximal cardinalities"
                % (kind, rank), expected, actual))

    # anchored maximal systems on the small parameter list.  The reference
    # enumeration for (3,3) through E(0,1,0) on the Euclidean components
    # lists five systems.  The exhaustive sweep finds fifteen; the five are
    # a strict subset (two of the extras have a singleton comp-0 part, which
    # the reference stepwise construction cannot reach).  The frozen row is
    # kept as the reference states it and reports the discrepancy; the
    # sub-claims that do hold exactly get their own rows below.
    P = Params(3, 3)
    anchor = Euclid(0, 1, 0)
    reference = [
        [(0, 1, 0), (0, -1, 1), (1, -1, 3), (1, 0, 1)],
        [(0, 1, 0), (0, -1, 1), (1, -1, 3), (1, 1, 1)],
        [(0, 1, 0), (0, -1, 1), (1, -1, 2), (1, 0, 1)],
        [(0, 1, 0), (0, -1, 1), (1, -1, 2), (1, 1, 1)],
        [(0, 1, 0), (0, -1, 2), (0, 0, 1), (1, -1, 3), (1, 0, 2), (1, 1, 1)],
    ]

    def freeze(triples):
        return sorted(format_vertex(canonical(Euclid(c, x, y), P))
                      for (c, x, y) in triples)

    expected_sets = sorted(freeze(s) for s in reference)
    rep = exhaustive_max_ortho(P, anchor, parts=("e0", "e1"))
    actual_sets = sorted(sorted(format_vertex(v) for v in s)
                         for s in rep["systems"])
    rows.append(_row("(3,3) Euclidean-only systems through E(0,1,0): exact sets",
                     expected_sets, actual_sets))
    rows.append(_row("(3,3) Euclidean-only systems: reference five all found",
                     True, all(s in actual_sets for s in expected_sets)))

    w = WindowSpec.periods(P, 3)
    pair = (anchor, canonical(Euclid(0, -1, 1), P))
    m1 = sorted(format_vertex(v) for v in brute_biperp(pair, w)
                if isinstance(v, Euclid) and v.comp == 1)
    rows.append(_row("(3,3) biperp of anchored pair, comp-1 slice",
                     freeze([(1, -1, 2), (1, -1, 3), (1, 0, 1), (1, 1, 1)]), m1))
    triple = (anchor, canonical(Euclid(0, -1, 2), P), canonical(Euclid(0, 0, 1), P))
    m1p = sorted(format_vertex(v) for v in brute_biperp(triple, w)
                 if isinstance(v, Euclid) and v.comp == 1)
    rows.append(_row("(3,3) biperp of anchored triple, comp-1 slice",
                     freeze([(1, -1, 3), (1, 0, 2), (1, 1, 1)]), m1p))
    for (p, q) in ((2, 2), (2, 3)):
        rep = exhaustive_max_ortho(Params(p, q), Euclid(0, 0, 0))
        rows.append(_row(
            "(%d,%d) full-pool systems through E(0,0,0): cardinalities" % (p, q),
            [p + q], sorted({len(s) for s in rep["systems"]})))
    return rows
