"""Windowed mesh renderings: layout arithmetic and emitter well-formedness."""

import re
import xml.etree.ElementTree as ET

import pytest

from arq2d.homs import PART_NAMES, biperp
from arq2d.model import DomainError, Euclid, Params, Tube, Window
from arq2d.render import (
    RenderSpec,
    UnknownPart,
    layout,
    layout_json,
    render,
)

P33 = Params(3, 3)
W33 = Window(P33, 0, 3, 0, 3, 2)


def spec_for(part, fmt="svg", highlights=None, P=P33, window=W33):
    return RenderSpec(P, part, window, highlights or {}, fmt)


class TestLayoutCounts:
    @pytest.mark.parametrize("part", ["e0", "e1"])
    def test_euclid_counts(self, part):
        nodes, arrows = layout(spec_for(part))
        w = W33.x_hi - W33.x_lo + 1
        h = W33.y_hi - W33.y_lo + 1
        assert len(nodes) == w * h
        assert len(arrows) == (w - 1) * h + w * (h - 1)

    @pytest.mark.parametrize("part,family", [("u0", "U"), ("u1", "U"),
                                             ("p0", "P"), ("p1", "P")])
    def test_tube_counts(self, part, family):
        nodes, arrows = layout(spec_for(part))
        rank = P33.rank(family)
        cap = W33.tube_ht_cap
        assert len(nodes) == rank * (cap + 1)
        assert len(arrows) == 2 * rank * cap

    def test_node_names_unique(self):
        for part in PART_NAMES:
            nodes, _ = layout(spec_for(part))
            assert len({n.name for n in nodes}) == len(nodes)

    def test_bad_part_rejected(self):
        with pytest.raises(UnknownPart):
            layout(spec_for("z9"))


class TestHighlights:
    def test_biperp_highlight_covers_four_nodes(self):
        bp = biperp([Euclid(0, 1, 0)], P33)
        members = frozenset(
            Euclid(0, x, y)
            for x in range(-6, 7) for y in range(3)
            if bp.contains(Euclid(0, x, y)))
        window = Window(P33, -2, 1, 0, 3, 2)
        nodes, _ = layout(spec_for("e0", highlights={"bp": members},
                                   window=window))
        assert sum(1 for n in nodes if n.label == "bp") == 4

    def test_highlight_outside_part_rejected(self):
        with pytest.raises(DomainError):
            layout(spec_for("e0",
                            highlights={"s": frozenset({Euclid(1, 0, 0)})}))

    def test_highlight_above_cap_rejected(self):
        with pytest.raises(DomainError):
            layout(spec_for("u0",
                            highlights={"s": frozenset({Tube("U", 0, 0, 9)})}))

    def test_tube_highlight_marks_whole_orbit(self):
        members = frozenset({Tube("U", 0, 1, 0)})
        nodes, _ = layout(spec_for("u0", highlights={"tri": members}))
        hits = [n for n in nodes if n.label == "tri"]
        assert len(hits) == 1
        assert hits[0].vertex == Tube("U", 0, 1, 0)


class TestEmitters:
    @pytest.mark.parametrize("part", PART_NAMES)
    def test_svg_is_well_formed(self, part):
        text = render(spec_for(part, "svg"))
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        nodes, _ = layout(spec_for(part))
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        assert len(circles) == len(nodes)

    @pytest.mark.parametrize("fmt", ["dot", "svg", "tikz"])
    def test_byte_deterministic(self, fmt):
        a = render(spec_for("e0", fmt))
        b = render(spec_for("e0", fmt))
        assert a == b

    def test_dot_line_grammar(self):
        text = render(spec_for("u1", "dot"))
        lines = text.splitlines()
        assert lines[0].startswith("graph" ) or lines[0].startswith("digraph")
        assert lines[-1] == "}"
        node_re = re.compile(r'^  n[0-9m_]+ \[pos="[-0-9.]+,[-0-9.]+!".*\];$')
        edge_re = re.compile(r'^  n[0-9m_]+ -> n[0-9m_]+;$')
        nodes, arrows = layout(spec_for("u1"))
        assert sum(1 for l in lines if node_re.match(l)) == len(nodes)
        assert sum(1 for l in lines if edge_re.match(l)) == len(arrows)

    def test_tikz_environment_balance(self):
        text = render(spec_for("p0", "tikz"))
        for env in ("document", "tikzpicture"):
            assert text.count("\\begin{%s}" % env) == 1
            assert text.count("\\end{%s}" % env) == 1
        nodes, _ = layout(spec_for("p0"))
        assert text.count("\\node") == len(nodes)

    def test_unknown_format_rejected(self):
        with pytest.raises(DomainError):
            render(spec_for("e0", "png"))

    def test_layout_json_round_trips_counts(self):
        doc = layout_json(spec_for("e1"))
        nodes, arrows = layout(spec_for("e1"))
        assert len(doc["nodes"]) == len(nodes)
        assert len(doc["arrows"]) == len(arrows)
