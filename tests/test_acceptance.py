"""Acceptance checklist.

One test per criterion; each records a single PASS/FAIL line (printed in the
terminal summary) and asserts its stated time budget.  Criterion 6 pins the
engine to a frozen reference enumeration and is expected to fail: the
exhaustive search provably finds a strict superset of the reference list.
"""

import random
import re
import time
import xml.etree.ElementTree as ET

import pytest

from conftest import ACCEPTANCE_ROWS, SQUARE_DOC
from arq2d.brauer import classify, parse_graph
from arq2d.closure import certify_sms, extract_params, replay_trace
from arq2d.homs import PART_NAMES, biperp, stable_hom_nonzero
from arq2d.model import (
    Euclid,
    Params,
    Tube,
    canonical,
    format_vertex,
    fundamental_domain,
    omega,
    tau,
)
from arq2d.oracle import WindowSpec, mutually_orthogonal
from arq2d.ortho import (
    enumerate_ortho_on_paired,
    enumerate_ortho_on_triangle,
    maximal_systems_containing,
    maximality,
)
from arq2d.render import RenderSpec, layout, render


def conclude(num, title, ok, elapsed, detail):
    ACCEPTANCE_ROWS.append((num, title, bool(ok), elapsed, detail))
    assert ok, "criterion %d (%s): %s" % (num, title, detail)


CARD_PARAMS = ((2, 2), (2, 3), (3, 3))
ANCHOR = Euclid(0, 1, 0)


@pytest.fixture(scope="module")
def anchored_systems():
    """Exhaustive maximal systems through the anchor, shared by 7/8/9."""
    out = {}
    for (p, q) in CARD_PARAMS:
        P = Params(p, q)
        t0 = time.perf_counter()
        systems = maximal_systems_containing([ANCHOR], P)
        out[(p, q)] = (P, systems, time.perf_counter() - t0)
    return out


def test_criterion_01_classification():
    t0 = time.perf_counter()
    square = parse_graph(SQUARE_DOC)
    triangle = parse_graph({
        "vertices": [{"id": v, "multiplicity": 1} for v in "abc"],
        "edges": [{"id": "1", "ends": ["a", "b"]},
                  {"id": "2", "ends": ["b", "c"]},
                  {"id": "3", "ends": ["c", "a"]}],
        "rotation": {"a": [{"edge": "1", "slot": 0}, {"edge": "3", "slot": 1}],
                     "b": [{"edge": "2", "slot": 0}, {"edge": "1", "slot": 1}],
                     "c": [{"edge": "3", "slot": 0}, {"edge": "2", "slot": 1}]},
    })
    best = min(
        _timed(lambda: classify(square)) for _ in range(5))
    sq = classify(square)
    tr = classify(triangle)
    elapsed = time.perf_counter() - t0
    ok = (sq.to_json() == {"tag": "TwoDomestic", "p": 2, "q": 2, "n": 4}
          and tr.tag == "OneDomesticOddCycle"
          and best < 1e-3)
    conclude(1, "classification", ok, elapsed,
             "4-cycle -> TwoDomestic(2,2,n=4); 3-cycle -> odd-cycle class; "
             "classify in %.3f ms" % (best * 1e3))


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_region_formulas_match_brute_force():
    t0 = time.perf_counter()
    checked = 0
    for (p, q) in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4)):
        P = Params(p, q)
        window = WindowSpec.periods(P, 3)
        probes = window.vertices()
        for X in fundamental_domain(P):
            rep = biperp([X], P)
            for v in probes:
                assert rep.contains(v) == mutually_orthogonal(X, v, P), (X, v)
            checked += 1
    elapsed = time.perf_counter() - t0
    conclude(2, "region biperp equals brute force", elapsed < 60.0, elapsed,
             "%d anchors over five parameter pairs, 3-period windows"
             % checked)


def test_criterion_03_equivariance_and_quasi_simple_count():
    t0 = time.perf_counter()
    P = Params(3, 3)
    pool = fundamental_domain(P)

    def identities(X, Y, P):
        h = stable_hom_nonzero(X, Y, P)
        assert h == stable_hom_nonzero(Y, omega(X, P), P)
        assert h == stable_hom_nonzero(omega(X, P), omega(Y, P), P)
        assert h == stable_hom_nonzero(tau(X, P), tau(Y, P), P)

    for X in pool:
        for Y in pool:
            identities(X, Y, P)

    qs = [Tube(fam, level, j, 0) for fam in "UP" for level in (0, 1)
          for j in range(3)]
    for X in pool:
        if isinstance(X, Euclid):
            assert sum(stable_hom_nonzero(X, Z, P) for Z in qs) == 2
            assert sum(stable_hom_nonzero(Z, X, P) for Z in qs) == 2

    P4 = Params(4, 4)
    rng = random.Random(20260815)

    def rand_vertex():
        if rng.random() < 0.5:
            return Euclid(rng.randint(0, 1), rng.randint(-12, 12),
                          rng.randint(-12, 12))
        return Tube(rng.choice("UP"), rng.randint(0, 1),
                    rng.randint(-8, 8), rng.randint(0, 6))

    n_random = 10_000
    for _ in range(n_random):
        identities(rand_vertex(), rand_vertex(), P4)
    elapsed = time.perf_counter() - t0
    conclude(3, "duality and translation equivariance", elapsed < 30.0,
             elapsed,
             "%d ordered pairs on the (3,3) pool, %d random pairs at (4,4)"
             % (len(pool) ** 2, n_random))


def test_criterion_04_triangle_area_counts():
    t0 = time.perf_counter()
    P = Params(2, 5)
    h1 = enumerate_ortho_on_triangle("U", 0, 0, 1, P)
    h2 = enumerate_ortho_on_triangle("U", 0, 0, 2, P)
    h3max = enumerate_ortho_on_triangle("U", 0, 0, 3, P, maximal_only=True)
    sizes = {}
    for s in h3max:
        sizes[len(s)] = sizes.get(len(s), 0) + 1
    ok = (len(h1) == 4
          and sum(1 for s in h2 if len(s) == 2) == 6
          and sum(1 for s in h2 if len(s) == 3) == 1
          and len(h3max) == 9
          and sizes == {2: 2, 3: 6, 4: 1})
    elapsed = time.perf_counter() - t0
    conclude(4, "triangle-area system counts", ok, elapsed,
             "ht1: %d systems; ht2: %d pairs, %d triples; ht3 maximal: "
             "%d with sizes %s"
             % (len(h1), sum(1 for s in h2 if len(s) == 2),
                sum(1 for s in h2 if len(s) == 3), len(h3max), sizes))


def test_criterion_05_paired_area_cardinality():
    t0 = time.perf_counter()
    total = 0
    for rank in range(2, 7):
        P = Params(2, rank)
        for kind in (1, 2, 3):
            for h in range(rank - 1):
                systems = enumerate_ortho_on_paired("U", kind, 0, h, P,
                                                    maximal_only=True)
                assert systems, (rank, kind, h)
                assert {len(s) for s in systems} == {h + 1}, (rank, kind, h)
                total += len(systems)
    elapsed = time.perf_counter() - t0
    conclude(5, "paired-area maximal cardinality", elapsed < 120.0, elapsed,
             "ranks 2-6, kinds 1-3, every admissible height; "
             "%d maximal systems, all of size height+1" % total)


def test_criterion_06_reference_enumeration():
    t0 = time.perf_counter()
    P = Params(3, 3)
    reference = [
        [(0, 1, 0), (0, -1, 1), (1, -1, 3), (1, 0, 1)],
        [(0, 1, 0), (0, -1, 1), (1, -1, 3), (1, 1, 1)],
        [(0, 1, 0), (0, -1, 1), (1, -1, 2), (1, 0, 1)],
        [(0, 1, 0), (0, -1, 1), (1, -1, 2), (1, 1, 1)],
        [(0, 1, 0), (0, -1, 2), (0, 0, 1), (1, -1, 3), (1, 0, 2), (1, 1, 1)],
    ]
    expected = sorted(
        sorted(format_vertex(canonical(Euclid(c, x, y), P))
               for (c, x, y) in s)
        for s in reference)
    systems = maximal_systems_containing([ANCHOR], P,
                                         parts=frozenset({"e0", "e1"}))
    actual = sorted(sorted(format_vertex(v) for v in s) for s in systems)
    elapsed = time.perf_counter() - t0
    superset = all(s in actual for s in expected)
    conclude(6, "reference enumeration matched exactly", actual == expected,
             elapsed,
             "reference lists %d systems; exhaustive search finds %d "
             "(%s superset)"
             % (len(expected), len(actual),
                "strict" if superset and len(actual) > len(expected)
                else "not a"))


def test_criterion_07_cardinality_theorems(anchored_systems):
    total_elapsed = sum(e for (_, _, e) in anchored_systems.values())
    counts = {}
    for (p, q), (P, systems, _) in anchored_systems.items():
        counts[(p, q)] = len(systems)
        for s in systems:
            comp0 = [v for v in s if isinstance(v, Euclid) and v.comp == 0]
            comp1 = [v for v in s if isinstance(v, Euclid) and v.comp == 1]
            tubes_u = [v for v in s if isinstance(v, Tube) and v.family == "U"]
            tubes_p = [v for v in s if isinstance(v, Tube) and v.family == "P"]
            k = len(comp0)
            assert len(s) == p + q, s
            assert len(comp1) == k, s
            assert len(tubes_u) == q - k, s
            assert len(tubes_p) == p - k, s
    conclude(7, "cardinality and balance theorems", total_elapsed < 300.0,
             total_elapsed,
             "systems per (p,q): %s; each of size p+q with balanced "
             "components and complementary tube counts"
             % {k: counts[k] for k in sorted(counts)})


# derived-set size of every maximal system through the anchor, as the
# catalog-based closure engine computed it in the default window
CERTIFIED_DERIVED = {
    (2, 2): {
        "E(0,0,1);E(0,1,0);E(1,1,1);E(1,2,0)": 100,
        "E(0,1,0);E(1,0,1);TP(0,0,0);TU(0,1,0)": 96,
        "E(0,1,0);E(1,1,1);TP(1,0,0);TU(0,1,0)": 92,
        "E(0,1,0);E(1,2,0);TP(0,0,0);TU(1,1,0)": 96,
        "E(0,1,0);E(1,3,0);TP(1,0,0);TU(1,1,0)": 96,
    },
    (2, 3): {
        "E(0,0,1);E(0,1,0);E(1,0,2);E(1,1,1);TU(0,2,0)": 154,
        "E(0,0,1);E(0,1,0);E(1,1,1);E(1,2,0);TU(1,2,0)": 154,
        "E(0,0,2);E(0,1,0);E(1,1,1);E(1,2,0);TU(0,1,0)": 160,
        "E(0,0,2);E(0,1,0);E(1,1,2);E(1,2,0);TU(1,1,0)": 160,
        "E(0,1,0);E(1,0,1);TP(0,0,0);TU(0,1,0);TU(0,2,0)": 150,
        "E(0,1,0);E(1,0,1);TP(0,0,0);TU(0,1,1);TU(1,2,0)": 150,
        "E(0,1,0);E(1,0,2);TP(0,0,0);TU(0,2,0);TU(1,1,0)": 154,
        "E(0,1,0);E(1,1,1);TP(1,0,0);TU(0,1,0);TU(0,2,0)": 144,
        "E(0,1,0);E(1,1,1);TP(1,0,0);TU(0,1,1);TU(1,2,0)": 144,
        "E(0,1,0);E(1,1,2);TP(1,0,0);TU(0,2,0);TU(1,1,0)": 148,
        "E(0,1,0);E(1,2,0);TP(0,0,0);TU(0,1,0);TU(1,1,1)": 154,
        "E(0,1,0);E(1,2,0);TP(0,0,0);TU(1,1,0);TU(1,2,0)": 154,
        "E(0,1,0);E(1,3,0);TP(1,0,0);TU(0,1,0);TU(1,1,1)": 154,
        "E(0,1,0);E(1,3,0);TP(1,0,0);TU(1,1,0);TU(1,2,0)": 154,
    },
    (3, 3): {
        "E(0,-1,1);E(0,1,0);E(1,-1,2);E(1,0,1);TP(0,0,0);TU(0,2,0)": 210,
        "E(0,-1,1);E(0,1,0);E(1,-1,2);E(1,1,1);TP(1,0,0);TU(0,2,0)": 210,
        "E(0,-1,1);E(0,1,0);E(1,0,1);E(1,2,0);TP(0,0,0);TU(1,2,0)": 210,
        "E(0,-1,1);E(0,1,0);E(1,1,1);E(1,2,0);TP(1,0,0);TU(1,2,0)": 210,
        "E(0,-1,2);E(0,0,1);E(0,1,0);E(1,0,2);E(1,1,1);E(1,2,0)": 216,
        "E(0,-1,2);E(0,1,0);E(1,0,1);E(1,2,0);TP(0,0,0);TU(0,1,0)": 216,
        "E(0,-1,2);E(0,1,0);E(1,0,2);E(1,2,0);TP(0,0,0);TU(1,1,0)": 216,
        "E(0,-1,2);E(0,1,0);E(1,1,1);E(1,2,0);TP(1,0,0);TU(0,1,0)": 216,
        "E(0,-1,2);E(0,1,0);E(1,1,2);E(1,2,0);TP(1,0,0);TU(1,1,0)": 216,
        "E(0,0,1);E(0,1,0);E(1,-1,2);E(1,1,1);TP(0,2,0);TU(0,2,0)": 210,
        "E(0,0,1);E(0,1,0);E(1,0,2);E(1,1,1);TP(1,2,0);TU(0,2,0)": 204,
        "E(0,0,1);E(0,1,0);E(1,1,1);E(1,2,0);TP(0,2,0);TU(1,2,0)": 210,
        "E(0,0,1);E(0,1,0);E(1,1,1);E(1,3,0);TP(1,2,0);TU(1,2,0)": 210,
        "E(0,0,2);E(0,1,0);E(1,1,1);E(1,2,0);TP(0,2,0);TU(0,1,0)": 222,
        "E(0,0,2);E(0,1,0);E(1,1,1);E(1,3,0);TP(1,2,0);TU(0,1,0)": 216,
        "E(0,0,2);E(0,1,0);E(1,1,2);E(1,2,0);TP(0,2,0);TU(1,1,0)": 222,
        "E(0,0,2);E(0,1,0);E(1,1,2);E(1,3,0);TP(1,2,0);TU(1,1,0)": 216,
        "E(0,1,0);E(1,-1,1);TP(0,0,0);TP(0,2,0);TU(0,1,0);TU(0,2,0)": 204,
        "E(0,1,0);E(1,-1,1);TP(0,0,0);TP(0,2,0);TU(0,1,1);TU(1,2,0)": 204,
        "E(0,1,0);E(1,-1,1);TP(0,2,1);TP(1,0,0);TU(0,1,0);TU(0,2,0)": 204,
        "E(0,1,0);E(1,-1,1);TP(0,2,1);TP(1,0,0);TU(0,1,1);TU(1,2,0)": 204,
        "E(0,1,0);E(1,-1,2);TP(0,0,0);TP(0,2,0);TU(0,2,0);TU(1,1,0)": 210,
        "E(0,1,0);E(1,-1,2);TP(0,2,1);TP(1,0,0);TU(0,2,0);TU(1,1,0)": 210,
        "E(0,1,0);E(1,0,1);TP(0,0,0);TP(1,2,0);TU(0,1,0);TU(0,2,0)": 198,
        "E(0,1,0);E(1,0,1);TP(0,0,0);TP(1,2,0);TU(0,1,1);TU(1,2,0)": 198,
        "E(0,1,0);E(1,0,2);TP(0,0,0);TP(1,2,0);TU(0,2,0);TU(1,1,0)": 204,
        "E(0,1,0);E(1,1,1);TP(0,2,0);TP(1,2,1);TU(0,1,0);TU(0,2,0)": 192,
        "E(0,1,0);E(1,1,1);TP(0,2,0);TP(1,2,1);TU(0,1,1);TU(1,2,0)": 192,
        "E(0,1,0);E(1,1,1);TP(1,0,0);TP(1,2,0);TU(0,1,0);TU(0,2,0)": 192,
        "E(0,1,0);E(1,1,1);TP(1,0,0);TP(1,2,0);TU(0,1,1);TU(1,2,0)": 192,
        "E(0,1,0);E(1,1,2);TP(0,2,0);TP(1,2,1);TU(0,2,0);TU(1,1,0)": 198,
        "E(0,1,0);E(1,1,2);TP(1,0,0);TP(1,2,0);TU(0,2,0);TU(1,1,0)": 198,
        "E(0,1,0);E(1,2,0);TP(0,0,0);TP(0,2,0);TU(0,1,0);TU(1,1,1)": 210,
        "E(0,1,0);E(1,2,0);TP(0,0,0);TP(0,2,0);TU(1,1,0);TU(1,2,0)": 210,
        "E(0,1,0);E(1,2,0);TP(0,2,1);TP(1,0,0);TU(0,1,0);TU(1,1,1)": 210,
        "E(0,1,0);E(1,2,0);TP(0,2,1);TP(1,0,0);TU(1,1,0);TU(1,2,0)": 210,
        "E(0,1,0);E(1,3,0);TP(0,0,0);TP(1,2,0);TU(0,1,0);TU(1,1,1)": 210,
        "E(0,1,0);E(1,3,0);TP(0,0,0);TP(1,2,0);TU(1,1,0);TU(1,2,0)": 210,
        "E(0,1,0);E(1,4,0);TP(0,2,0);TP(1,2,1);TU(0,1,0);TU(1,1,1)": 210,
        "E(0,1,0);E(1,4,0);TP(0,2,0);TP(1,2,1);TU(1,1,0);TU(1,2,0)": 210,
        "E(0,1,0);E(1,4,0);TP(1,0,0);TP(1,2,0);TU(0,1,0);TU(1,1,1)": 210,
        "E(0,1,0);E(1,4,0);TP(1,0,0);TP(1,2,0);TU(1,1,0);TU(1,2,0)": 210,
    },
}


def test_criterion_08_certification(anchored_systems):
    t0 = time.perf_counter()
    certified = 0
    punctured_checked = 0
    for (p, q), (P, systems, _) in anchored_systems.items():
        assert len(systems) == len(CERTIFIED_DERIVED[(p, q)])
        for s in systems:
            doc = certify_sms(s, P)
            assert doc["certified"], (P, s)
            assert all(doc["targets"].values())
            final = replay_trace(s, doc["trace"], P)
            assert len(final) == doc["derived"]
            name = ";".join(sorted(format_vertex(canonical(v, P)) for v in s))
            assert doc["derived"] == CERTIFIED_DERIVED[(p, q)][name], name
            certified += 1
            for drop in s:
                rest = [v for v in s if v != drop]
                rep = maximality(rest, P)
                assert not rep.is_maximal, (P, s, drop)
                assert drop in rep.witnesses or not rep.homogeneous_blocked
                punctured_checked += 1
    elapsed = time.perf_counter() - t0
    conclude(8, "certification with replayable traces", elapsed < 600.0,
             elapsed,
             "%d/%d systems certified in the default window; %d punctured "
             "variants all non-maximal"
             % (certified, sum(len(s) for (_, s, _) in
                               anchored_systems.values()),
                punctured_checked))


def test_criterion_09_parameter_round_trip(anchored_systems):
    t0 = time.perf_counter()
    checked = 0
    for (p, q), (P, systems, _) in anchored_systems.items():
        for s in systems:
            out = extract_params(s, P)  # ParameterNotUnique must never fire
            predicted = sorted(format_vertex(v)
                               for v in out["predictedComp1"])
            actual = sorted(format_vertex(v) for v in s
                            if isinstance(v, Euclid) and v.comp == 1)
            assert predicted == actual, (P, s)
            checked += 1
    elapsed = time.perf_counter() - t0
    conclude(9, "gap-parameter round trip", True, elapsed,
             "%d systems; predicted second-component members all exact, "
             "no uniqueness failures" % checked)


def test_criterion_10_renderer():
    t0 = time.perf_counter()
    P = Params(3, 3)
    window = WindowSpec.periods(P, 1)
    w = window.x_hi - window.x_lo + 1
    h = window.y_hi - window.y_lo + 1
    node_re = re.compile(r'^  n[0-9m_]+ \[pos="[-0-9.]+,[-0-9.]+!".*\];$')
    edge_re = re.compile(r'^  n[0-9m_]+ -> n[0-9m_]+;$')
    for part in PART_NAMES:
        spec = RenderSpec(P, part, window, {}, "svg")
        nodes, arrows = layout(spec)
        if part in ("e0", "e1"):
            assert len(nodes) == w * h
            assert len(arrows) == (w - 1) * h + w * (h - 1)
        else:
            rank = P.rank("U" if part[0] == "u" else "P")
            assert len(nodes) == rank * (window.tube_ht_cap + 1)
            assert len(arrows) == 2 * rank * window.tube_ht_cap

        svg = render(spec)
        ET.fromstring(svg)

        dot_spec = RenderSpec(P, part, window, {}, "dot")
        dot = render(dot_spec)
        lines = dot.splitlines()
        assert lines[0].startswith("digraph ") and lines[-1] == "}"
        assert sum(1 for l in lines if node_re.match(l)) == len(nodes)
        assert sum(1 for l in lines if edge_re.match(l)) == len(arrows)

        for fmt in ("dot", "svg", "tikz"):
            s1 = render(RenderSpec(P, part, window, {}, fmt))
            s2 = render(RenderSpec(P, part, window, {}, fmt))
            assert s1 == s2
    elapsed = time.perf_counter() - t0
    conclude(10, "renderer counts and determinism", True, elapsed,
             "all six parts: window arithmetic, well-formed SVG, "
             "DOT grammar, byte-identical reruns")
