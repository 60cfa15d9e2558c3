import json

import pytest
from hypothesis import strategies as st

from arq2d.model import Euclid, Params, Tube


def params_strategy(lo=1, hi=5):
    return st.builds(Params, st.integers(lo, hi), st.integers(lo, hi))


@st.composite
def param_vertex(draw, span=8, ht_max=6, pmax=5):
    P = draw(params_strategy(1, pmax))
    if draw(st.booleans()):
        v = Tube(draw(st.sampled_from("UP")), draw(st.integers(0, 1)),
                 draw(st.integers(-span, span)), draw(st.integers(0, ht_max)))
    else:
        v = Euclid(draw(st.integers(0, 1)), draw(st.integers(-span, span)),
                   draw(st.integers(-span, span)))
    return P, v


@st.composite
def param_vertex_pair(draw, span=8, ht_max=6, pmax=5):
    P, v = draw(param_vertex(span, ht_max, pmax))
    if draw(st.booleans()):
        w = Tube(draw(st.sampled_from("UP")), draw(st.integers(0, 1)),
                 draw(st.integers(-span, span)), draw(st.integers(0, ht_max)))
    else:
        w = Euclid(draw(st.integers(0, 1)), draw(st.integers(-span, span)),
                   draw(st.integers(-span, span)))
    return P, v, w


def sigma_x(v):
    """The x shift: E(c,x,y) -> E(c,x+1,y), TP(l,j,k) -> TP(l,j+1,k); fixes
    the U tubes."""
    if isinstance(v, Euclid):
        return Euclid(v.comp, v.x + 1, v.y)
    return v if v.family == "U" else Tube("P", v.level, v.idx + 1, v.ht)


def sigma_y(v):
    """The y shift: E(c,x,y) -> E(c,x,y+1), TU(l,j,k) -> TU(l,j+1,k); fixes
    the P tubes."""
    if isinstance(v, Euclid):
        return Euclid(v.comp, v.x, v.y + 1)
    return v if v.family == "P" else Tube("U", v.level, v.idx + 1, v.ht)


def transpose(v):
    """The transpose T from (p,q) to (q,p): E(c,x,y) -> E(c,y,x), and
    TU(l,j,k) <-> TP(l,j,k).  (p,q) and (q,p) are one algebra with its
    axes swapped, so every answer commutes with T."""
    if isinstance(v, Euclid):
        return Euclid(v.comp, v.y, v.x)
    return Tube("P" if v.family == "U" else "U", v.level, v.idx, v.ht)


SQUARE_DOC = {
    "vertices": [{"id": v, "multiplicity": 1} for v in "abcd"],
    "edges": [{"id": "1", "ends": ["a", "b"]},
              {"id": "2", "ends": ["b", "c"]},
              {"id": "3", "ends": ["c", "d"]},
              {"id": "4", "ends": ["d", "a"]}],
    "rotation": {"a": [{"edge": "1", "slot": 0}, {"edge": "4", "slot": 1}],
                 "b": [{"edge": "2", "slot": 0}, {"edge": "1", "slot": 1}],
                 "c": [{"edge": "3", "slot": 0}, {"edge": "2", "slot": 1}],
                 "d": [{"edge": "4", "slot": 0}, {"edge": "3", "slot": 1}]},
}


@pytest.fixture
def square_doc():
    return json.loads(json.dumps(SQUARE_DOC))


@pytest.fixture
def square_path(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE_DOC))
    return str(path)


# acceptance criteria report lines: (number, title, ok, elapsed, detail)
ACCEPTANCE_ROWS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_ROWS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num, title, ok, elapsed, detail in sorted(ACCEPTANCE_ROWS):
        verdict = "PASS" if ok else "FAIL"
        tr.write_line("criterion %2d %-38s %s (%6.1fs)  %s"
                      % (num, title, verdict, elapsed, detail))
