"""Distinguished triangles and extension-closure reachability.

Triangles are stored as (a, mids, c) meaning a -> (+)mids -> c -> shift(a)
with shift = the inverse syzygy.  The closure engine runs three rules to a
least fixpoint over the triangles of a finite window: `ext` derives the mids
from a and c (orthogonal seeds make the closure summand-closed), `rot-right`
derives c from the mids and Omega^-1 a, `rot-left` a from the mids and
Omega c.  It generates triangles on demand from the vertices it derives;
`triangle_catalog` lists them all and serves as the reference.  Every
derivation is traced and traces replay deterministically.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import astuple, dataclass

from .model import (
    DomainError,
    Euclid,
    Params,
    Tube,
    Vertex,
    Window,
    canonical,
    canonical_set,
    format_vertex,
    omega,
    omega_inv,
    vertex_sort_key,
)
from .homs import QuasiCone
from .ortho import (NoEuclideanMember, is_orthogonal_system, maximality,
                    witness_pool)


class WindowTooSmall(DomainError):
    """Seeds or their syzygy shifts fall outside the closure window."""


class NotMaximal(DomainError):
    """Parameter extraction needs a maximal system."""


class ParameterNotUnique(DomainError):
    """A gap parameter or predicted vertex failed its uniqueness clause."""


def default_window(S, P: Params, periods: int = 1) -> Window:
    """The box around S and its Omega-shifts, padded by periods*(p+q), with
    tubes up to height periods*max(p,q)-1."""
    pts = []
    for v in S:
        v = canonical(v, P)
        for u in (v, omega(v, P), omega_inv(v, P)):
            if isinstance(u, Euclid):
                pts.append(u)
    pad = periods * (P.p + P.q)
    if pts:
        x_lo, x_hi = min(u.x for u in pts), max(u.x for u in pts)
        y_lo, y_hi = min(u.y for u in pts), max(u.y for u in pts)
    else:
        x_lo = x_hi = y_lo = y_hi = 0
    return Window(P, x_lo - pad, x_hi + pad, y_lo - pad, y_hi + pad,
                  periods * max(P.p, P.q) - 1)


@dataclass(frozen=True)
class DistinguishedTriangle:
    a: Vertex
    mids: tuple[Vertex, ...]
    c: Vertex
    family: str

    def sort_key(self):
        return (self.family, vertex_sort_key(self.a),
                tuple(vertex_sort_key(m) for m in self.mids),
                vertex_sort_key(self.c))

    def to_json(self) -> dict:
        return {
            "a": format_vertex(self.a),
            "mids": [format_vertex(m) for m in self.mids],
            "c": format_vertex(self.c),
        }


def triangle_catalog(P: Params, window: Window):
    """Every catalog triangle whose three slots all lie in the window.

    The closure engine never builds this list; it is the reference that
    the engine's triangles are checked against."""
    tris: dict = {}

    def emit(family, a, mids, c):
        a = canonical(a, P)
        mids = tuple(canonical(m, P) for m in mids)
        c = canonical(c, P)
        if not window.contains(a) or not window.contains(c):
            return
        if not all(window.contains(m) for m in mids):
            return
        key = (a, mids, c)
        if key not in tris:
            tris[key] = DistinguishedTriangle(a, mids, c, family)

    xs = range(window.x_lo, window.x_hi + 1)
    ys = range(window.y_lo, window.y_hi + 1)
    for comp in (0, 1):
        for i in xs:
            for j in ys:
                for k in range(1, window.x_hi - i + 1):
                    for l in range(1, window.y_hi - j + 1):
                        emit("T-mesh-E", Euclid(comp, i, j),
                             (Euclid(comp, i, j + l), Euclid(comp, i + k, j)),
                             Euclid(comp, i + k, j + l))
        # tube-to-component chains; the first coordinate couples to the
        # rank-p family, the second to the rank-q family
        for u in xs:
            for v in ys:
                for k in range(1, window.x_hi - u + 1):
                    if k - 1 > window.tube_ht_cap:
                        break
                    emit("T-H" if k == 1 else "T-H-comp",
                         Tube("P", comp, u, k - 1),
                         (Euclid(comp, u, v),), Euclid(comp, u + k, v))
                for k in range(1, window.y_hi - v + 1):
                    if k - 1 > window.tube_ht_cap:
                        break
                    emit("T-V" if k == 1 else "T-V-comp",
                         Tube("U", comp, v, k - 1),
                         (Euclid(comp, u, v),), Euclid(comp, u, v + k))
    for family in ("U", "P"):
        rank = P.rank(family)
        for level in (0, 1):
            for j in range(rank):
                for k in range(0, window.tube_ht_cap):
                    mids = (Tube(family, level, j, k + 1),)
                    if k >= 1:
                        mids = mids + (Tube(family, level, j + 1, k - 1),)
                    emit("T-mesh-T", Tube(family, level, j, k), mids,
                         Tube(family, level, j + 1, k))
    return sorted(tris.values(), key=DistinguishedTriangle.sort_key)


@dataclass(frozen=True)
class ClosureState:
    in_f: frozenset
    trace: tuple
    window: Window


def closure(S, P: Params, window: Window | None = None) -> ClosureState:
    """Least fixpoint of the three rules over the window's triangles.

    The fixpoint is evaluated on demand: when a vertex leaves the queue, the
    engine looks only at the triangles in which that vertex supplies a
    premise of a rule, found by joining its in-box lifts against the raw
    lifts of the vertices derived so far.  Its triangles are the ones
    `triangle_catalog` lists, so it reaches the same least fixpoint.
    """
    seeds = canonical_set(S, P)
    if window is None:
        window = default_window(seeds, P)
    for v in seeds:
        for u in (v, omega(v, P), omega_inv(v, P)):
            if not window.contains(u):
                raise WindowTooSmall("%s falls outside the closure window"
                                     % format_vertex(u))
    run = _Fixpoint(P, window)
    for v in seeds:
        run.add(astuple(v))
    run.drain()
    return ClosureState(frozenset(run.in_f), tuple(run.trace), window)


# Triangles inside the engine are raw: (family, a, mids, c), every slot a raw
# key, (comp, x, y) for a Euclidean vertex and (family, level, idx, ht) else.

def _omega(raw):
    """Omega of a raw key, as model.omega."""
    if len(raw) == 3:
        c, x, y = raw
        return (1 - c, x - c, y - c)
    f, l, j, h = raw
    return (f, 1 - l, j - l, h)


def _omega_inv(raw):
    """Omega^-1 of a raw key, as model.omega_inv."""
    if len(raw) == 3:
        c, x, y = raw
        return (1 - c, x + 1 - c, y + 1 - c)
    f, l, j, h = raw
    return (f, 1 - l, j + 1 - l, h)


def _mesh_e(c, i, j, x, y):
    """The rectangle with opposite corners (i, j) and (x, y): a is the lower
    left corner and c the upper right."""
    i, x = (i, x) if i < x else (x, i)
    j, y = (j, y) if j < y else (y, j)
    return ("T-mesh-E", (c, i, j), ((c, i, y), (c, x, j)), (c, x, y))


def _chain(f, c, u, v, k):
    """Tube chain with the mid at (u, v) and c k steps on: along x from the
    rank-p tube for f = "P", along y from the rank-q tube for f = "U"."""
    if f == "P":
        return ("T-H" if k == 1 else "T-H-comp", (f, c, u, k - 1),
                ((c, u, v),), (c, u + k, v))
    return ("T-V" if k == 1 else "T-V-comp", (f, c, v, k - 1),
            ((c, u, v),), (c, u, v + k))


def _mesh_t(f, l, j, k):
    mids = ((f, l, j, k + 1),)
    if k >= 1:
        mids += ((f, l, j + 1, k - 1),)
    return ("T-mesh-T", (f, l, j, k), mids, (f, l, j + 1, k))


class _Fixpoint:
    """Working state of one closure run.

    `have` holds the canonical keys of the derived vertices and
    `lifted[comp]` every raw in-box lift of a derived Euclidean vertex, so a
    raw corner inside the box is tested without canonicalising it.  Vertex
    and triangle objects are built only when a rule produces a vertex.

    `fire` checks every rule of one triangle.  Each tube-chain rule is
    written once for both axes: `axes[f]` holds family f's unit step, the
    box's bounds along it and the family's rank.
    """

    def __init__(self, P: Params, window: Window):
        self.P = P
        self.w = window
        self.have: set = set()
        self.lifted = (set(), set())
        self.in_f: list = []
        self.trace: list = []
        self.queue: deque = deque()
        self.axes = {"P": (1, 0, window.x_lo, window.x_hi, P.p),
                     "U": (0, 1, window.y_lo, window.y_hi, P.q)}

    def key(self, raw):
        """Canonical key of a raw key."""
        if len(raw) == 3:
            c, x, y = raw
            l = y // self.P.q
            return (c, x + self.P.p * l, y - self.P.q * l)
        f, l, j, h = raw
        return (f, l, j % self.P.rank(f), h)

    def vertex(self, raw) -> Vertex:
        k = self.key(raw)
        return Euclid(*k) if len(k) == 3 else Tube(*k)

    def add(self, key) -> Vertex:
        v = self.vertex(key)
        self.have.add(key)
        if len(key) == 3:
            self.lifted[key[0]].update(self.w.lifts(v))
        self.in_f.append(v)
        self.queue.append(v)
        return v

    def drain(self) -> None:
        """Pop the queue until no rule derives a new vertex."""
        while self.queue:
            v = self.queue.popleft()
            if isinstance(v, Euclid):
                self.pop_euclid(v)
            else:
                self.pop_tube(v)

    def derive(self, rule, tri, target) -> None:
        key = self.key(target)
        if key in self.have:
            return
        family, a, mids, c = tri
        vertex = self.vertex
        t = DistinguishedTriangle(vertex(a), tuple(vertex(m) for m in mids),
                                  vertex(c), family)
        self.trace.append((rule, t, self.add(key)))

    def fire(self, tri) -> None:
        """Each rule of one triangle that can add a vertex, checked in full."""
        _, a, mids, c = tri
        have, key = self.have, self.key
        has_a, has_c = key(a) in have, key(c) in have
        if has_a and has_c:
            for m in mids:
                self.derive("ext", tri, m)
        for m in mids:
            if key(m) not in have:
                return
        if not has_c and key(_omega_inv(a)) in have:
            self.derive("rot-right", tri, c)
        if not has_a and key(_omega(c)) in have:
            self.derive("rot-left", tri, a)

    def pop_euclid(self, v: Euclid) -> None:
        P, w, have, key, axes = self.P, self.w, self.have, self.key, self.axes
        cap, c, d = w.tube_ht_cap, v.comp, 1 - v.comp
        L = self.lifted[c]
        for x, y in w.lifts(v):
            # T-mesh-E with v at a corner: a lift off its row and column is
            # the opposite corner; fire unless the other two are lifted too
            for X, Y in list(L):
                if X != x and Y != y and ((x, Y) not in L or (X, y) not in L):
                    self.fire(_mesh_e(c, x, y, X, Y))
            # tube chains with v as c: ext once the tube a is derived
            for f, (dx, dy, lo, hi, r) in axes.items():
                s = x if dx else y
                for k in range(1, min(s - lo, cap + 1) + 1):
                    u, t = x - k * dx, y - k * dy
                    if (f, c, (s - k) % r, k - 1) in have and (u, t) not in L:
                        self.derive("ext", _chain(f, c, u, t, k), (c, u, t))
            # tube chains with v as the mid: rot-right needs Omega^-1 a,
            # rot-left needs Omega c
            for f, (dx, dy, lo, hi, r) in axes.items():
                s = x if dx else y
                for k in range(1, min(hi - s, cap + 1) + 1):
                    X, Y = x + k * dx, y + k * dy
                    if (X, Y) not in L and (f, d, (s + d) % r, k - 1) in have:
                        self.derive("rot-right", _chain(f, c, x, y, k),
                                    (c, X, Y))
                    if ((f, c, s % r, k - 1) not in have
                            and key(_omega((c, X, Y))) in have):
                        self.derive("rot-left", _chain(f, c, x, y, k),
                                    (f, c, s, k - 1))
        # v as Omega^-1 a of T-mesh-E: join the row and column through a
        a = omega(v, P)
        La = self.lifted[a.comp]
        for i, j in w.lifts(a):
            ups = [Y for Y in range(j + 1, w.y_hi + 1) if (i, Y) in La]
            rights = [X for X in range(i + 1, w.x_hi + 1) if (X, j) in La]
            for X in rights:
                for Y in ups:
                    if (X, Y) not in La:
                        self.derive("rot-right", _mesh_e(a.comp, i, j, X, Y),
                                    (a.comp, X, Y))
        # v as Omega c of T-mesh-E or of a tube chain: join through c
        cv = omega_inv(v, P)
        cc, Lc = cv.comp, self.lifted[cv.comp]
        for X, Y in w.lifts(cv):
            lefts = [i for i in range(w.x_lo, X) if (i, Y) in Lc]
            downs = [j for j in range(w.y_lo, Y) if (X, j) in Lc]
            for i in lefts:
                for j in downs:
                    if (i, j) not in Lc:
                        self.derive("rot-left", _mesh_e(cc, i, j, X, Y),
                                    (cc, i, j))
            for f, (dx, dy, lo, hi, r) in axes.items():
                s = X if dx else Y
                for k in range(1, min(s - lo, cap + 1) + 1):
                    if (X - k * dx, Y - k * dy) in Lc:
                        tri = _chain(f, cc, X - k * dx, Y - k * dy, k)
                        self.derive("rot-left", tri, tri[1])

    def pop_tube(self, v: Tube) -> None:
        f, k = v.family, v.ht + 1
        dx, dy, lo, hi, r = self.axes[f]
        # v as a of a tube chain: ext once c is derived
        L = self.lifted[v.level]
        for X, Y in list(L):
            s, u, t = (X if dx else Y) - k, X - k * dx, Y - k * dy
            if s >= lo and s % r == v.idx and (u, t) not in L:
                tri = _chain(f, v.level, u, t, k)
                self.derive("ext", tri, tri[2][0])
        # v as Omega^-1 a of a tube chain: rot-right once the mid is derived
        a = omega(v, self.P)
        L = self.lifted[a.level]
        for X, Y in list(L):
            s = X if dx else Y
            if (s % r == a.idx and s + k <= hi
                    and (X + k * dx, Y + k * dy) not in L):
                self.derive("rot-right", _chain(f, a.level, X, Y, k),
                            (a.level, X + k * dx, Y + k * dy))
        # T-mesh-T: v as a, c, either mid, Omega^-1 a or Omega c (the last
        # two name the same triangle, since Omega^-1 a == Omega c there)
        l, j, h = v.level, v.idx, v.ht
        for lv, jj, kk in ((l, j, h), (l, j - 1, h), (l, j, h - 1),
                           (l, j - 1, h + 1), (1 - l, j - l, h)):
            if 0 <= kk < self.w.tube_ht_cap:
                self.fire(_mesh_t(f, lv, jj, kk))


def replay_trace(S, trace, P: Params) -> frozenset:
    """Re-run a trace, checking every premise; returns the final set."""
    cur = {canonical(v, P) for v in S}
    for rule, tri, produced in trace:
        if rule == "ext":
            premises = (tri.a, tri.c)
        elif rule == "rot-right":
            premises = tri.mids + (omega_inv(tri.a, P),)
        elif rule == "rot-left":
            premises = tri.mids + (omega(tri.c, P),)
        else:
            raise DomainError("unknown trace rule %r" % (rule,))
        for u in premises:
            if u not in cur:
                raise DomainError("trace premise %s not established"
                                  % format_vertex(u))
        cur.add(produced)
    return frozenset(cur)


def trace_json_lines(trace):
    for rule, tri, produced in trace:
        yield json.dumps({"rule": rule, "triangle": tri.to_json(),
                          "produced": format_vertex(produced)},
                         sort_keys=True)


def certify_sms(S, P: Params, window: Window | None = None) -> dict:
    vs = canonical_set(S, P)
    if not is_orthogonal_system(vs, P):
        raise DomainError("set is not an orthogonal system of bricks")
    has_euclid = any(isinstance(v, Euclid) for v in vs)
    state = closure(vs, P, window)
    targets = {format_vertex(v): (omega_inv(v, P) in state.in_f) for v in vs}
    certified = has_euclid and all(targets.values())
    return {
        "certified": certified,
        "inconclusive": (not certified) and has_euclid,
        "hasEuclidean": has_euclid,
        "targets": targets,
        "members": [format_vertex(v) for v in vs],
        "derived": len(state.in_f),
        "trace": state.trace,
        "window": state.window,
    }


def _wings_clear(vs, family, level0_idx, level1_idx, P: Params) -> bool:
    cone0 = QuasiCone(family, 0, level0_idx % P.rank(family))
    cone1 = QuasiCone(family, 1, level1_idx % P.rank(family))
    for v in vs:
        if isinstance(v, Tube) and v.family == family:
            if cone0.contains(v, P) or cone1.contains(v, P):
                return False
    return True


def extract_params(S, P: Params) -> dict:
    """Gap parameters of a maximal system, plus the predicted comp-1 part.

    For each pair of cyclically consecutive comp-0 members the rank-p gap
    index t and rank-q gap index s are the unique values whose partner
    quasi-simple wings avoid S; the comp-1 member of the gap is the unique
    bi-perpendicular point of S-without-comp-1 inside the gap rectangle,
    read off that set's comp-1 witness pool.  All three are reported in absolute window coordinates.
    """
    vs = canonical_set(S, P)
    if not any(isinstance(v, Euclid) for v in vs):
        raise NoEuclideanMember("parameter extraction needs a Euclidean part")
    report = maximality(vs, P)
    if not report.is_maximal:
        if not is_orthogonal_system(vs, P):
            raise DomainError("set is not an orthogonal system of bricks")
        raise NotMaximal("witnesses remain: %s" %
                         [format_vertex(w) for w in report.witnesses])
    comp0 = sorted((v for v in vs if isinstance(v, Euclid) and v.comp == 0),
                   key=lambda v: v.x)
    if not comp0:
        raise DomainError("maximal system with empty comp-0 part")
    rest = [v for v in vs if not (isinstance(v, Euclid) and v.comp == 1)]
    comp1_witnesses = set(witness_pool(rest, P, ("e1",)))

    t_list, s_list, predicted = [], [], []
    ell = len(comp0)
    for r in range(ell):
        a_r, b_r = comp0[r].x, comp0[r].y
        if r + 1 < ell:
            a_n, b_n = comp0[r + 1].x, comp0[r + 1].y
        else:
            a_n, b_n = comp0[0].x + P.p, comp0[0].y - P.q

        for name, family, lo, hi, out in (("t", "P", a_r + 1, a_n, t_list),
                                          ("s", "U", b_n + 1, b_r, s_list)):
            found = [t for t in range(lo, hi + 1)
                     if _wings_clear(vs, family, t - 1, t, P)]
            if len(found) != 1:
                raise ParameterNotUnique("gap %d admits %s candidates %s"
                                         % (r, name, found))
            out.append(found[0])

        box = [w for x in range(a_r + 1, a_n + 1)
               for y in range(b_n + 1, b_r + 1)
               if (w := canonical(Euclid(1, x, y), P)) in comp1_witnesses]
        if len(box) != 1:
            raise ParameterNotUnique(
                "gap %d rectangle admits %s" %
                (r, [format_vertex(w) for w in box]))
        predicted.append(box[0])
    return {"tList": t_list, "sList": s_list, "predictedComp1": predicted}
