"""Ribbon graphs with vertex multiplicities: parsing, domestic
classification and the quiver-with-relations presentation.

Input documents are JSON: vertices carry multiplicities, edges carry two
endpoint ids, and every vertex lists its incident half-edges in clockwise
order.  A half-edge is (edge id, slot) where slot 0/1 picks one of the two
ends, so loops occupy two positions of the same rotation.

The rotations make the graph a ribbon graph.  A connected unicyclic one is
planar with two faces, the two sides of its cycle, and `classify` reads
(p, q) off the tree edges that each face holds.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .model import DomainError, Value

HalfEdge = tuple[str, int]


class MalformedDocument(DomainError):
    pass


class DisconnectedGraph(DomainError):
    pass


class RotationMismatch(DomainError):
    pass


class UnsupportedMultiplicity(DomainError):
    pass


class BrauerGraph(Value, namedtuple("BrauerGraph",
                                     "vertices multiplicity edges rotation")):
    """vertices: a tuple of vertex ids; multiplicity: id -> int; edges: edge
    id -> its two endpoint ids; rotation: vertex id -> its HalfEdge tuple."""

    __slots__ = ()

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def valency(self, v: str) -> int:
        return len(self.rotation[v])


class DomesticClass(Value, namedtuple(
        "DomesticClass",
        "tag n p q cycle_length inside_count outside_count",
        defaults=(None,) * 5)):
    __slots__ = ()

    def to_json(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.p is not None:
            out["p"] = self.p
            out["q"] = self.q
        out["n"] = self.n
        return out


class Arrow(Value, namedtuple("Arrow", "name source target owner")):
    __slots__ = ()


class Relation(Value, namedtuple("Relation", "kind paths")):
    """paths hold arrow names in traversal order; two paths mean the formal
    difference path[0] - path[1], one path means the monomial itself."""

    __slots__ = ()

    def display(self) -> str:
        # written with the first-applied arrow rightmost
        words = ["*".join(reversed(path)) for path in self.paths]
        return " - ".join(words)


class QuiverPresentation(Value, namedtuple(
        "QuiverPresentation",
        "quiver_vertices arrows type_i type_ii type_iii")):
    """Tuples of vertex names, Arrows and Relations of each type."""

    __slots__ = ()

    def degree_bounds_ok(self) -> bool:
        ins: dict[str, int] = {}
        outs: dict[str, int] = {}
        for a in self.arrows:
            outs[a.source] = outs.get(a.source, 0) + 1
            ins[a.target] = ins.get(a.target, 0) + 1
        return all(c <= 2 for c in ins.values()) and all(
            c <= 2 for c in outs.values()
        )


def _require(cond: bool, msg: str):
    if not cond:
        raise MalformedDocument(msg)


def parse_graph(doc) -> BrauerGraph:
    """Validate a graph document (JSON text or an already-decoded dict)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise MalformedDocument("not valid JSON: %s" % exc) from exc
    _require(isinstance(doc, dict), "document must be a JSON object")
    for key in ("vertices", "edges"):
        _require(key in doc, "missing %r section" % key)
    _require(isinstance(doc["vertices"], list) and doc["vertices"],
             "vertices must be a non-empty list")
    _require(isinstance(doc["edges"], list), "edges must be a list")

    mult: dict[str, int] = {}
    order: list[str] = []
    for row in doc["vertices"]:
        _require(isinstance(row, dict) and isinstance(row.get("id"), str),
                 "vertex rows need a string id")
        m = row.get("multiplicity", 1)
        _require(isinstance(m, int) and m >= 1,
                 "multiplicity must be a positive integer")
        _require(row["id"] not in mult, "duplicate vertex id %r" % row["id"])
        mult[row["id"]] = m
        order.append(row["id"])

    edges: dict[str, tuple[str, str]] = {}
    for row in doc["edges"]:
        _require(isinstance(row, dict) and isinstance(row.get("id"), str),
                 "edge rows need a string id")
        ends = row.get("ends")
        _require(isinstance(ends, list) and len(ends) == 2
                 and all(isinstance(e, str) for e in ends),
                 "edge ends must be a pair of vertex ids")
        _require(ends[0] in mult and ends[1] in mult,
                 "edge %r references an unknown vertex" % row["id"])
        _require(row["id"] not in edges, "duplicate edge id %r" % row["id"])
        edges[row["id"]] = (ends[0], ends[1])

    rotation_doc = doc.get("rotation", {})
    _require(isinstance(rotation_doc, dict), "rotation must be an object")
    for v in rotation_doc:
        _require(v in mult, "rotation for unknown vertex %r" % v)
    rotation: dict[str, tuple[HalfEdge, ...]] = {}
    placed: dict[HalfEdge, str] = {}
    for v in order:
        refs = rotation_doc.get(v, [])
        _require(isinstance(refs, list), "rotation at %r must be a list" % v)
        row_out: list[HalfEdge] = []
        for ref in refs:
            _require(isinstance(ref, dict) and isinstance(ref.get("edge"), str)
                     and ref.get("slot") in (0, 1),
                     "half-edge refs look like {\"edge\": id, \"slot\": 0|1}")
            h: HalfEdge = (ref["edge"], ref["slot"])
            _require(h[0] in edges,
                     "rotation at %r references unknown edge %r" % (v, h[0]))
            if h in placed:
                raise RotationMismatch(
                    "half-edge %r listed twice (at %r and %r)"
                    % (h, placed[h], v))
            placed[h] = v
            row_out.append(h)
        rotation[v] = tuple(row_out)

    for e, (u, w) in edges.items():
        for slot, at in ((0, u), (1, w)):
            h = (e, slot)
            if h not in placed:
                raise RotationMismatch("half-edge %r missing from rotation"
                                       % (h,))
            if placed[h] != at:
                raise RotationMismatch(
                    "half-edge %r sits at %r but is listed at %r"
                    % (h, at, placed[h]))

    seen = {order[0]}
    frontier = [order[0]]
    while frontier:
        u = frontier.pop()
        for e, slot in rotation[u]:
            w = edges[e][1 - slot]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    if len(seen) != len(order):
        raise DisconnectedGraph("graph has more than one component")

    return BrauerGraph(tuple(order), mult, edges, rotation)


def _faces(g: BrauerGraph) -> dict[HalfEdge, int]:
    """Face label of every half-edge.  The faces are the orbits of h -> the
    clockwise successor of the other end of h's edge; a face is labelled by
    the number of half-edges labelled before it, so the first one is 0."""
    succ = {h: rot[(k + 1) % len(rot)]
            for rot in g.rotation.values() for k, h in enumerate(rot)}
    face: dict[HalfEdge, int] = {}
    for start in succ:
        h, label = start, len(face)
        while h not in face:
            face[h] = label
            h = succ[(h[0], 1 - h[1])]
    return face


def classify(g: BrauerGraph) -> DomesticClass:
    """Domestic type of g.  A connected unicyclic ribbon graph has V = E, so
    Euler's formula leaves it two faces, the two sides of its cycle: a cycle
    edge has a different face on each side, and a tree edge has the same
    face on both, the side its tree hangs on."""
    n = g.edge_count
    betti = n - len(g.vertices) + 1
    if betti == 0:
        twos = [v for v in g.vertices if g.multiplicity[v] == 2]
        ones = [v for v in g.vertices if g.multiplicity[v] == 1]
        if len(twos) == 2 and len(twos) + len(ones) == len(g.vertices):
            return DomesticClass("OneDomesticTree", n, p=n, q=n)
        return DomesticClass("OutOfScope", n)
    if betti != 1 or any(g.multiplicity[v] != 1 for v in g.vertices):
        return DomesticClass("OutOfScope", n)
    face = _faces(g)
    tree = [face[(e, 0)] for e in g.edges if face[(e, 0)] == face[(e, 1)]]
    ell = n - len(tree)
    n1 = tree.count(0)
    n2 = n - ell - n1
    if ell % 2 == 0:
        p, q = ell // 2 + n1, ell // 2 + n2
        tag = "TwoDomestic"
    else:
        p, q = ell + 2 * n1, ell + 2 * n2
        tag = "OneDomesticOddCycle"
    if p > q:
        p, q, n1, n2 = q, p, n2, n1
    return DomesticClass(tag, n, p=p, q=q, cycle_length=ell,
                         inside_count=n1, outside_count=n2)


def build_quiver(g: BrauerGraph) -> QuiverPresentation:
    """Multiplicity-one presentation: one quiver vertex per edge, one arrow
    per rotation step at every vertex of valency >= 2.  Valency-one vertices
    contribute no arrow, so their edge only carries the surviving endpoint's
    cycle relations."""
    if any(g.multiplicity[v] != 1 for v in g.vertices):
        raise UnsupportedMultiplicity("presentation requires multiplicity one "
                                      "at every vertex")

    arrows: list[Arrow] = []
    position: dict[HalfEdge, tuple[str, int]] = {}
    for v in g.vertices:
        rot = g.rotation[v]
        if len(rot) < 2:
            continue
        for k, h in enumerate(rot):
            nxt = rot[(k + 1) % len(rot)]
            a = Arrow("%s:%d" % (v, k), h[0], nxt[0], v)
            arrows.append(a)
            position[h] = (v, k)

    def halfedge_cycle(h: HalfEdge) -> tuple[str, ...]:
        v, k = position[h]
        val = g.valency(v)
        return tuple("%s:%d" % (v, (k + i) % val) for i in range(val))

    type_i = []
    for e in sorted(g.edges):
        h0, h1 = (e, 0), (e, 1)
        if h0 in position and h1 in position:
            type_i.append(Relation("typeI",
                                   (halfedge_cycle(h0), halfedge_cycle(h1))))

    type_ii = []
    for v in g.vertices:
        for k, h in enumerate(g.rotation[v]):
            if h not in position:
                continue
            cyc = halfedge_cycle(h)
            type_ii.append(Relation("typeII", (cyc + (cyc[0],),)))

    type_iii = []
    for e in sorted(g.edges):
        ins = [a for a in arrows if a.target == e]
        outs = [a for a in arrows if a.source == e]
        for a in ins:
            for b in outs:
                if a.owner != b.owner:
                    type_iii.append(Relation("typeIII", ((a.name, b.name),)))

    qp = QuiverPresentation(tuple(sorted(g.edges)), tuple(arrows),
                            tuple(type_i), tuple(type_ii), tuple(type_iii))
    assert qp.degree_bounds_ok()
    return qp


def emit_quiver_dot(qp: QuiverPresentation) -> str:
    lines = ["digraph quiver {"]
    lines.append("  // relations")
    for group in (qp.type_i, qp.type_ii, qp.type_iii):
        for rel in group:
            lines.append("  // %s: %s" % (rel.kind, rel.display()))
    for v in sorted(qp.quiver_vertices):
        lines.append('  "%s";' % v)
    for a in sorted(qp.arrows, key=lambda a: a.name):
        lines.append('  "%s" -> "%s" [label="%s"];'
                     % (a.source, a.target, a.name))
    lines.append("}")
    return "\n".join(lines) + "\n"
