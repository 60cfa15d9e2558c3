"""Deterministic diagram emitters for windowed slices of the stable quiver.

A part is one of the six periodic components: e0/e1 are the Euclidean
components, u0/u1 the rank-q tubes, p0/p1 the rank-p tubes.  Euclidean parts
are drawn on the universal cover: every lattice point of the window box is a
node, so the same canonical vertex may appear at several positions.  Tube
parts draw one column per residue up to the window's height cap; the
wrap-around mesh arrows are included.

Layout is the diagonal mesh: Euclid (x, y) sits at (x - y/2, y), a tube
vertex (idx, ht) at (idx + ht/2, ht).
"""

from __future__ import annotations

from collections import namedtuple
from html import escape

from .model import (PART_NAMES, DomainError, Euclid, Tube, Value, Vertex,
                    canonical, format_vertex, part_of)

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class UnknownPart(DomainError):
    pass


class RenderSpec(Value, namedtuple("RenderSpec",
                                    "P part window highlights fmt")):
    """highlights maps a label to a frozenset of vertices; it defaults to a
    fresh empty dict."""

    __slots__ = ()

    def __new__(cls, P, part, window, highlights=None, fmt="svg"):
        if highlights is None:
            highlights = {}
        return tuple.__new__(cls, (P, part, window, highlights, fmt))


class Node(Value, namedtuple("Node", "name px py text vertex label")):
    # label: the highlight label of the vertex, or None
    __slots__ = ()


def _name(a: int, b: int) -> str:
    return "n%s_%s" % (str(a).replace("-", "m"), str(b).replace("-", "m"))


def _highlight_lookup(spec: RenderSpec) -> dict[Vertex, str]:
    out: dict[Vertex, str] = {}
    w = spec.window
    for label in sorted(spec.highlights):
        for v in spec.highlights[label]:
            cv = canonical(v, spec.P)
            if not (part_of(cv) == spec.part and w.contains(cv)):
                raise DomainError(
                    "highlight %s is outside part %s or its window"
                    % (format_vertex(cv), spec.part))
            out.setdefault(cv, label)
    return out


def layout(spec: RenderSpec) -> tuple[list[Node], list[tuple[str, str]]]:
    """Nodes and mesh arrows (as name pairs) of the windowed part; the
    arrows come in the order of their source nodes."""
    if spec.part not in PART_NAMES:
        raise UnknownPart("part must be one of %s" % (", ".join(PART_NAMES)))
    marks = _highlight_lookup(spec)
    w = spec.window
    level = int(spec.part[1])
    nodes: list[Node] = []
    arrows: list[tuple[str, str]] = []
    if spec.part[0] == "e":
        for x in range(w.x_lo, w.x_hi + 1):
            for y in range(w.y_lo, w.y_hi + 1):
                name = _name(x, y)
                cv = canonical(Euclid(level, x, y), spec.P)
                nodes.append(Node(name, x - y / 2.0, float(y),
                                  "(%d,%d)" % (x, y), cv, marks.get(cv)))
                if x < w.x_hi:
                    arrows.append((name, _name(x + 1, y)))
                if y < w.y_hi:
                    arrows.append((name, _name(x, y + 1)))
        return nodes, arrows
    fam = "U" if spec.part[0] == "u" else "P"
    rank = spec.P.rank(fam)
    cap = w.tube_ht_cap
    for j in range(rank):
        for k in range(cap + 1):
            name = _name(j, k)
            v = Tube(fam, level, j, k)
            nodes.append(Node(name, j + k / 2.0, float(k),
                              "(%d,%d)" % (j, k), v, marks.get(v)))
            if k < cap:
                arrows.append((name, _name(j, k + 1)))
            if k:
                arrows.append((name, _name((j + 1) % rank, k - 1)))
    return nodes, arrows


def _palette(spec: RenderSpec) -> dict[str, str]:
    labels = sorted(spec.highlights)
    return {lab: _PALETTE[i % len(_PALETTE)] for i, lab in enumerate(labels)}


def render(spec: RenderSpec) -> str:
    emit = {"dot": _emit_dot, "svg": _emit_svg,
            "tikz": _emit_tikz}.get(spec.fmt)
    if emit is None:
        raise DomainError("unknown render format %r" % spec.fmt)
    nodes, arrows = layout(spec)
    return emit(spec.part, nodes, arrows, _palette(spec))


def layout_json(spec: RenderSpec) -> dict:
    nodes, arrows = layout(spec)
    return {
        "part": spec.part,
        "nodes": [
            {
                "name": n.name,
                "x": n.px,
                "y": n.py,
                "vertex": format_vertex(n.vertex),
                "highlight": n.label,
            }
            for n in nodes
        ],
        "arrows": [{"from": a, "to": b} for a, b in arrows],
    }


def _emit_dot(part, nodes, arrows, colors) -> str:
    lines = ["digraph part_%s {" % part,
             "  node [shape=circle, width=0.25, fixedsize=true, fontsize=8];"]
    for n in nodes:
        attrs = ['pos="%.2f,%.2f!"' % (n.px, n.py), 'label="%s"' % n.text]
        if n.label is not None:
            attrs.append('style=filled')
            attrs.append('fillcolor="%s"' % colors[n.label])
        lines.append("  %s [%s];" % (n.name, ", ".join(attrs)))
    for a, b in arrows:
        lines.append("  %s -> %s;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_svg(part, nodes, arrows, colors) -> str:
    unit = 48.0
    r = 9.0
    xs = [n.px for n in nodes]
    ys = [n.py for n in nodes]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    width = (x1 - x0) * unit
    height = (y1 - y0) * unit
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<svg xmlns="http://www.w3.org/2000/svg" '
               'viewBox="0 0 %.1f %.1f" width="%.1f" height="%.1f">'
               % (width, height, width, height))
    out.append('<defs><marker id="tip" viewBox="0 0 8 8" refX="7" refY="4" '
               'markerWidth="6" markerHeight="6" orient="auto">'
               '<path d="M0,0 L8,4 L0,8 z" fill="#444"/></marker></defs>')
    pos = {n.name: ((n.px - x0) * unit, (y1 - n.py) * unit) for n in nodes}
    for a, b in arrows:
        (ax, ay), (bx, by) = pos[a], pos[b]
        dx, dy = bx - ax, by - ay
        dist = (dx * dx + dy * dy) ** 0.5 or 1.0
        ux, uy = dx / dist, dy / dist
        out.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                   'stroke="#444" stroke-width="1" marker-end="url(#tip)"/>'
                   % (ax + ux * r, ay + uy * r, bx - ux * (r + 2),
                      by - uy * (r + 2)))
    for n in nodes:
        cx, cy = pos[n.name]
        fill = colors[n.label] if n.label is not None else "#ffffff"
        out.append('<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" '
                   'stroke="#222" stroke-width="1">'
                   '<title>%s</title></circle>'
                   % (cx, cy, r, fill,
                      escape(format_vertex(n.vertex), quote=False)))
        out.append('<text x="%.1f" y="%.1f" font-size="7" '
                   'text-anchor="middle" fill="#111">%s</text>'
                   % (cx, cy + 2.2, escape(n.text, quote=False)))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _emit_tikz(part, nodes, arrows, colors) -> str:
    # colors is in label order, so a label's index names its colour
    lab_index = {lab: i for i, lab in enumerate(colors)}
    out = ["\\documentclass[tikz,border=4pt]{standalone}"]
    for lab, i in lab_index.items():
        out.append("\\definecolor{hl%d}{HTML}{%s}" % (i, colors[lab][1:].upper()))
    out.append("\\begin{document}")
    out.append("\\begin{tikzpicture}[x=1.1cm, y=1.1cm,"
               " every node/.style={circle, draw, inner sep=1pt,"
               " minimum size=11pt, font=\\tiny}]")
    for n in nodes:
        style = ""
        if n.label is not None:
            style = "fill=hl%d!60" % lab_index[n.label]
        out.append("\\node[%s] (%s) at (%.2f,%.2f) {%s};"
                   % (style, n.name, n.px, n.py,
                      "$\\scriptscriptstyle %s$" % n.text))
    for a, b in arrows:
        out.append("\\draw[->, shorten >=1pt, shorten <=1pt] (%s) -- (%s);"
                   % (a, b))
    out.append("\\end{tikzpicture}")
    out.append("\\end{document}")
    return "\n".join(out) + "\n"
