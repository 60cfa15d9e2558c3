"""Distinguished triangles and extension-closure reachability.

Triangles are stored as (a, mids, c) meaning a -> (+)mids -> c -> shift(a)
with shift = the inverse syzygy.  The closure engine runs three rules to a
least fixpoint over the triangles of a finite window: `ext` derives the mids
from a and c (orthogonal seeds make the closure summand-closed), `rot-right`
derives c from the mids and Omega^-1 a, `rot-left` a from the mids and
Omega c.  It generates triangles on demand from the vertices it derives:
each join walks the cells still missing from a bitmask row or column of
the derived lifts and tests a premise with one AND, against a line of the
box, the line of the other component that holds an Omega-shifted premise,
or a list of tube-height masks.  The offsets of a class's lifts in the box
are shared by every run on a box of the same shape.  `triangle_catalog`
lists the triangles and serves as the reference.  Every derivation is
traced in one form, a `Trace`: the raw steps the engine records, with the
`Params` they were recorded at.  `replay_trace` checks each step's premises
and conclusion on canonical keys, canonicalizing a raw slot only when a
check reads it, and `trace_json_lines` formats the steps as vertices.
"""

from __future__ import annotations

import functools
import json
from collections import deque, namedtuple

from .model import (
    DomainError,
    Euclid,
    Params,
    Tube,
    Value,
    Window,
    box_shifts,
    canonical,
    canonical_key,
    canonical_set,
    format_vertex,
    key,
    omega,
    omega_inv,
    omega_inv_key,
    omega_key,
    vertex,
    vertex_sort_key,
)
from .homs import _bits, _members, _witnesses
from .ortho import NoEuclideanMember, _maximality, _orthogonal


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


class DistinguishedTriangle(Value, namedtuple("DistinguishedTriangle",
                                               "a mids c family")):
    # mids: a tuple of vertices
    __slots__ = ()

    def sort_key(self):
        return (self.family, vertex_sort_key(self.a),
                tuple(vertex_sort_key(m) for m in self.mids),
                vertex_sort_key(self.c))


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


class Trace(tuple):
    """The derivation steps of one closure run, as the engine records them:
    (rule, (family, a, mids, c), produced), with raw slot keys and the
    canonical key of the produced vertex.  `P` is the Params of the run.
    Equality and hashing are those of the tuple of steps."""

    def __new__(cls, steps, P: Params):
        self = super().__new__(cls, steps)
        self.P = P
        return self

    def __getnewargs__(self):
        return tuple(self), self.P


class ClosureState(Value, namedtuple("ClosureState", "in_f trace window")):
    __slots__ = ()


def closure(S, P: Params, window: Window | None = None) -> ClosureState:
    """Least fixpoint of the three rules over the window's triangles.

    The fixpoint is evaluated on demand: when a vertex leaves the queue, the
    engine looks only at the triangles in which that vertex supplies a
    premise of a rule, found by joining its in-box lifts against bitmasks
    of the lifts derived so far.  Its triangles are the ones
    `triangle_catalog` lists, so it reaches the same least fixpoint.
    """
    run = _closure(canonical_set(S, P), P, window)
    return ClosureState(frozenset(map(vertex, run.have)),
                        Trace(run.steps, P), run.w)


def _closure(seeds, P: Params, window: Window | None) -> _Fixpoint:
    """The drained engine of a canonical list."""
    if window is None:
        window = default_window(seeds, P)
    elif not isinstance(window, Window):
        raise DomainError("window is not a Window: %r" % (window,))
    elif window.P != P:
        raise DomainError("window built at (p,q) = (%d,%d), closure at "
                          "(%d,%d)" % (*window.P, *P))
    for v in seeds:
        for u in (v, omega(v, P), omega_inv(v, P)):
            if not window.contains(u):
                raise WindowTooSmall("%s falls outside the closure window"
                                     % format_vertex(u))
    run = _Fixpoint(P, window)
    for v in seeds:
        run.add(key(v))
    run.drain()
    return run


# Triangles inside the engine are raw: (family, a, mids, c), every slot a
# raw key of model.key, not necessarily canonical.


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
    mids = ((f, l, j, k + 1),) + (((f, l, j + 1, k - 1),) if k else ())
    return ("T-mesh-T", (f, l, j, k), mids, (f, l, j + 1, k))


# The offsets of a class's lifts depend only on P, the box's shape and the
# class's place relative to the box, so every run on a box of one shape
# shares them; the _LIFT_TABLES most recently used shapes are kept.
_LIFT_TABLES = 32


@functools.lru_cache(maxsize=_LIFT_TABLES)
def _lift_table(P: Params, width: int, height: int) -> dict:
    """The lift offsets of a width x height box, filled on demand: the
    Euclidean class whose representative with 0 <= j < q lies at (i, j)
    from the box's lower-left cell maps to the offsets of its lifts, in
    `box_shifts` order.  A table holds one entry for each class that meets
    the box or lies one Omega step from one that does."""
    return {}


class _Fixpoint:
    """Working state of one closure run, on raw keys: it builds no vertex
    and no triangle.

    `have` is the set of canonical keys of the derived vertices.
    For each component, `rows[comp][j]` is an int bitmask of the derived
    raw lifts in row j of the box (bit i for x = x_lo + i), `cols[comp][i]`
    one of column i (bit j for y = y_lo + j), and bit j of `gaps[comp]` is
    set while row j has a missing cell.  `tubes[f][level][idx]` has bit ht
    for each derived tube of family f, and `diags[f][level][(idx + ht) mod
    rank]` bit cap - ht: shifted by s - 1 - cap, it marks the mids (s - 1 -
    ht) of the tube chains whose c is cell s of a line.  The lifts fill most
    of the box, so each join walks the missing cells of a line, the slots a
    rule can still fill, and tests each with one AND: against a
    perpendicular line, a height mask, or the line of the other component
    one over, which holds an Omega-shifted box cell unless it leaves the
    box.  The walks along a diagonal need no test.  `lifts` reads a class's
    in-box lifts off `offsets`, the table of the box's shape that every run
    on such a box shares and fills.  Each vertex a rule produces appends
    (rule, raw triangle, canonical key) to `steps`, which the caller wraps
    in a `Trace` once the run ends.  `left` counts the window vertices not
    yet derived: every target a join names is one, so `drain` stops when it
    reaches 0.
    """

    def __init__(self, P: Params, window: Window):
        self.P, self.w = P, window
        self.have: set = set()
        self.x0, self.y0 = window.x_lo, window.y_lo
        width = window.x_hi - window.x_lo + 1
        height = window.y_hi - window.y_lo + 1
        self.rows = ([0] * height, [0] * height)
        self.cols = ([0] * width, [0] * width)
        self.row_full = (1 << width) - 1
        self.gaps = [(1 << height) - 1] * 2
        self.tubes, self.diags = ({f: ([0] * P.rank(f), [0] * P.rank(f))
                                   for f in "PU"} for _ in range(2))
        self.offsets = _lift_table(P, width, height)
        self.steps: list = []
        self.queue: deque = deque()
        # a shift class has one lift whose next lift (x - p, y + q) leaves
        # the box; each tube family has rank * (cap + 1) vertices per level
        self.left = 2 * (width * height - max(width - P.p, 0) * max(
            height - P.q, 0) + (P.p + P.q) * (window.tube_ht_cap + 1))
        # family, unit step along its axis, rank, cells on its lines
        self.axes = (("P", 1, 0, P.p, width), ("U", 0, 1, P.q, height))

    def lifts(self, key):
        """Lifts of a canonical Euclidean key, as offsets from the box's
        lower-left cell, read off the offsets table of the box's shape."""
        # the table key is the offset of the class's representative with
        # 0 <= j < q, the same whatever the box's origin
        (p, q), j = self.P, key[2] - self.y0
        s = j // q
        i, j = key[1] - self.x0 + p * s, j - q * s
        got = self.offsets.get((i, j))
        if got is None:
            got = self.offsets[i, j] = tuple(
                (i - p * l, j + q * l) for l in box_shifts(
                    self.P, i, j, 0, self.w.x_hi - self.x0, 0,
                    self.w.y_hi - self.y0))
        return got

    def add(self, key) -> None:
        self.have.add(key)
        self.left -= 1
        if len(key) == 3:
            rows, cols = self.rows[key[0]], self.cols[key[0]]
            for i, j in self.lifts(key):
                rows[j] |= 1 << i
                cols[i] |= 1 << j
                if rows[j] == self.row_full:
                    self.gaps[key[0]] &= ~(1 << j)
        else:
            f, l, j, h = key
            self.tubes[f][l][j] |= 1 << h
            self.diags[f][l][(j + h) % self.P.rank(f)] |= 1 << (
                self.w.tube_ht_cap - h)
        self.queue.append(key)

    def drain(self) -> None:
        """Pop the queue until no rule derives a new vertex or every window
        vertex is derived."""
        while self.queue and self.left:
            key = self.queue.popleft()
            (self.pop_euclid if len(key) == 3 else self.pop_tube)(*key)

    def derive(self, rule, tri, target) -> None:
        # every join names a target it found missing: a Euclidean target is
        # a cell of its walk, and no two lifts share a line
        target = canonical_key(target, self.P)
        self.add(target)
        self.steps.append((rule, tri, target))

    def fire(self, f, l, j, k) -> None:
        """Each rule of the T-mesh-T from (f, l, j, k) that can add a
        vertex, read off the height masks: Omega^-1 a is Omega c there."""
        T, r = self.tubes[f][l], self.P.rank(f)
        at_a, at_c = T[j % r], T[(j + 1) % r]
        has_a, has_c = at_a >> k & 1, at_c >> k & 1
        if has_a and has_c:
            # the mids (j, k + 1) and (j + 1, k - 1), each while missing
            tri = _mesh_t(f, l, j, k)
            if not at_a >> (k + 1) & 1:
                self.derive("ext", tri, tri[2][0])
            if k and not at_c >> (k - 1) & 1:
                self.derive("ext", tri, tri[2][1])
        elif (at_a >> (k + 1) & 1 and (not k or at_c >> (k - 1) & 1)
              and self.tubes[f][1 - l][(j + 1 - l) % r] >> k & 1):
            tri = _mesh_t(f, l, j, k)
            if not has_c:
                self.derive("rot-right", tri, tri[3])
            if not has_a:
                self.derive("rot-left", tri, tri[1])

    def corner(self, c, i, j, column) -> None:
        """T-mesh-E with the comp-c lift (i, j) at a corner: walk the missing
        cells S of its column (or row).  Beyond the lift, S is a mid of an
        `ext` with the lift as a, or the c of a `rot-right` with the lift as
        a mid; before it, a mid of an `ext` with it as c, or the a of a
        `rot-left`.  The witness is the nearest lift on S's perpendicular
        line: for a rotation the other mid, off the lift's row and column,
        so the Omega-shifted premise lies in the box, one line over."""
        d, x0, y0 = 1 - c, self.x0, self.y0
        s, t, line, cross, other = (
            (j, i, self.cols[c][i], self.rows[c], self.rows[d]) if column
            else (i, j, self.rows[c][j], self.cols[c], self.cols[d]))
        n, below, above = len(cross), (1 << t) - 1, -(2 << t)
        if line == (1 << n) - 1:
            return
        beyond = other[s + d] >> d if s + 1 < n else 0
        before = other[s - c] << c if s else 0
        for missing, ext, rot, rule in (
                (~line & ((1 << n) - 1) & -(2 << s), above, beyond & below,
                 "rot-right"),
                (~line & ((1 << s) - 1), below, before & above, "rot-left")):
            while missing:
                missing ^= (low := missing & -missing)
                S = low.bit_length() - 1
                L = cross[S]
                h, name = L & ext, "ext"
                if not h:
                    h, name = L & rot, rule
                    if not h:
                        continue
                T = (h & -h).bit_length() - 1 if h >> t else h.bit_length() - 1
                X, Y, u, w = (T, S, i, S) if column else (S, T, S, j)
                self.derive(name, _mesh_e(c, x0 + i, y0 + j, x0 + X, y0 + Y),
                            (c, x0 + u, y0 + w))

    def pop_euclid(self, c, vx, vy) -> None:
        P, tubes, diags = self.P, self.tubes, self.diags
        x0, y0, cap = self.x0, self.y0, self.w.tube_ht_cap
        rows, cols, d = self.rows, self.cols, 1 - c
        R, C = rows[c], cols[c]
        for i, j in self.lifts((c, vx, vy)):
            self.corner(c, i, j, True)
            self.corner(c, i, j, False)
            x, y = x0 + i, y0 + j
            for f, dx, dy, r, n in self.axes:
                # the line through v along f's axis, v's offset s on it, and
                # the lines of the other component parallel to it
                line, s, t, at, other = ((R[j], i, j, x, rows[d]) if dx
                                         else (C[i], j, i, y, cols[d]))
                # k runs to the end of the line or a tube of height cap
                ks = (1 << (n - 1 - s if n - s < cap + 2 else cap + 1)) - 1
                # v as the c of a tube chain: ext fills each missing mid k
                # steps back whose tube a, on a diagonal, is derived
                lo, diag = s - 1 - cap, diags[f][c][(at - 1) % r]
                m = ~line & (diag << lo if lo >= 0 else diag >> -lo)
                while m:
                    m ^= (low := m & -m)
                    k = s + 1 - low.bit_length()
                    tri = _chain(f, c, x - k * dx, y - k * dy, k)
                    self.derive("ext", tri, tri[2][0])
                # v as the mid: rot-right fills each missing c whose Omega^-1
                # a is derived, rot-left each missing tube a whose Omega c
                # is, k - c steps on along line t - c of the other component
                # (looked up by key when t - c = -1 is outside the box)
                m = ~line >> (s + 1) & ks & tubes[f][d][(at + d) % r]
                while m:
                    m ^= (low := m & -m)
                    tri = _chain(f, c, x, y, low.bit_length())
                    self.derive("rot-right", tri, tri[3])
                m = ~tubes[f][c][at % r] & ks
                if t >= c:
                    m &= other[t - c] >> (s + 1 - c)
                while m:
                    m ^= (low := m & -m)
                    tri = _chain(f, c, x, y, low.bit_length())
                    if t >= c or omega_key(tri[3], P) in self.have:
                        self.derive("rot-left", tri, tri[1])
        # v as Omega^-1 a (Omega c) of T-mesh-E: the mids lie on a's (c's)
        # row and column; each missing cell beyond (before) them is a c (an a)
        for rule, u, up in (("rot-right", omega_key((c, vx, vy), P), True),
                            ("rot-left", omega_inv_key((c, vx, vy), P), False)):
            e = u[0]
            R, C = rows[e], cols[e]
            for i, j in self.lifts(u):
                ups = C[i] & (-(2 << j) if up else (1 << j) - 1) & self.gaps[e]
                rights = R[j] & (-(2 << i) if up else (1 << i) - 1)
                while ups:
                    ups ^= (low := ups & -ups)
                    Y = low.bit_length() - 1
                    m = rights & ~R[Y]
                    while m:
                        m ^= (low := m & -m)
                        X = low.bit_length() - 1
                        self.derive(rule, _mesh_e(e, x0 + i, y0 + j, x0 + X,
                                                  y0 + Y), (e, x0 + X, y0 + Y))
                if up:
                    continue
                # v as Omega c of a tube chain: each missing tube a, on a
                # diagonal, whose mid k steps back from c is derived
                x, y = x0 + i, y0 + j
                for f, dx, dy, r, _ in self.axes:
                    line, s, at = (R[j], i, x) if dx else (C[i], j, y)
                    lo, diag = s - 1 - cap, diags[f][e][(at - 1) % r]
                    m = line & ~(diag << lo if lo >= 0 else diag >> -lo) & (
                        (1 << s) - (1 << max(lo, 0)))
                    while m:  # down the line, so up the heights
                        k = s + 1 - m.bit_length()
                        m ^= 1 << s - k
                        tri = _chain(f, e, x - k * dx, y - k * dy, k)
                        self.derive("rot-left", tri, tri[1])

    def pop_tube(self, f, l, j, h) -> None:
        dx, r, k = f == "P", self.P.rank(f), h + 1
        # a chain's mid (s, t) and c (s + k, t) lie on lines s and s + k
        # along f's axis: columns for family P, rows for family U
        lines, origin = (self.cols, self.x0) if dx else (self.rows, self.y0)
        _, al, aj, _ = omega_key((f, l, j, h), self.P)
        # v as a: ext fills each missing mid before a derived c; v as
        # Omega^-1 a: rot-right fills each missing c beyond a derived mid
        for level, idx, rule in ((l, j, "ext"), (al, aj, "rot-right")):
            L = lines[level]
            for s in range((idx - origin) % r, len(L) - k, r):
                mid, c = L[s], L[s + k]
                m = c & ~mid if rule == "ext" else mid & ~c
                while m:
                    m ^= (low := m & -m)
                    t = low.bit_length() - 1
                    u, w = (s, t) if dx else (t, s)
                    tri = _chain(f, level, self.x0 + u, self.y0 + w, k)
                    self.derive(rule, tri,
                                tri[2][0] if rule == "ext" else tri[3])
        # T-mesh-T: v as a, c, either mid, Omega^-1 a or Omega c (the last
        # two name the same triangle, since Omega^-1 a == Omega c there)
        for lv, jj, kk in ((l, j, h), (l, j - 1, h), (l, j, h - 1),
                           (l, j - 1, h + 1), (1 - l, j - l, h)):
            if 0 <= kk < self.w.tube_ht_cap:
                self.fire(f, lv, jj, kk)


def replay_trace(S, trace, P: Params) -> frozenset:
    """Re-run a `Trace` recorded at P, checking every premise and that each
    step produces its rule's conclusion; returns the final set.  A slot is
    canonicalized only when a check reads it: an `ext` mid after the
    produced one is checked to be a 3- or 4-field key and no further."""
    if not isinstance(P, Params):
        raise DomainError("P is not a Params: %r" % (P,))
    if not isinstance(trace, Trace):
        raise DomainError("trace is not a Trace: %r" % (trace,))
    if trace.P != P:
        raise DomainError("trace recorded at (p,q) = (%d,%d), replayed "
                          "at (%d,%d)" % (*trace.P, *P))
    cur = set(map(key, canonical_set(S, P)))
    for step in trace:
        try:
            rule, (_, a, mids, c), produced = step
            # the conclusions, the premises, and the canonical shifted premise
            if rule == "ext":
                conclusions, premises, shifted = mids, (a, c), None
            elif rule == "rot-right":
                conclusions, premises, shifted = (c,), mids, omega_inv_key(
                    a, P)
            elif rule == "rot-left":
                conclusions, premises, shifted = (a,), mids, omega_key(c, P)
            else:
                raise DomainError("unknown trace rule %r" % (rule,))
            # a conclusion after the produced one is not canonicalized, so
            # each is first checked to be a key
            if not all(len(u) in (3, 4) for u in conclusions):
                raise TypeError("a conclusion is not a key")
            for u in conclusions:
                if canonical_key(u, P) == produced:
                    break
            else:
                raise DomainError("trace step produces %s, not a conclusion "
                                  "of %s" % (format_vertex(vertex(produced)),
                                             rule))
            for u in premises:
                if (u := canonical_key(u, P)) not in cur:
                    break
            else:
                u = shifted
            if u is not None and u not in cur:
                raise DomainError("trace premise %s not established"
                                  % format_vertex(vertex(u)))
        except (TypeError, ValueError):
            raise DomainError("malformed trace step %r" % (step,)) from None
        cur.add(produced)
    return frozenset(map(vertex, cur))


def trace_json_lines(trace):
    """One JSON line per step of a `Trace`, each slot named by its
    canonical vertex."""
    P = trace.P

    def name(k):
        return format_vertex(vertex(canonical_key(k, P)))

    for rule, (_, a, mids, c), produced in trace:
        tri = {"a": name(a), "mids": list(map(name, mids)), "c": name(c)}
        yield json.dumps({"rule": rule, "triangle": tri,
                          "produced": name(produced)}, sort_keys=True)


def certify_sms(S, P: Params, window: Window | None = None) -> dict:
    band, mem, off = _members(S, P)
    if not _orthogonal(band, mem, off):
        raise DomainError("set is not an orthogonal system of bricks")
    vs = [band.cand[i] for i in _bits(mem)]
    has_euclid = bool(mem & band.euclid)
    run = _closure(vs, P, window)
    targets = {format_vertex(v): omega_inv_key(key(v), P) in run.have
               for v in vs}
    certified = has_euclid and all(targets.values())
    return {
        "certified": certified,
        "inconclusive": (not certified) and has_euclid,
        "hasEuclidean": has_euclid,
        "targets": targets,
        "members": [format_vertex(v) for v in vs],
        "derived": len(run.have),
        "trace": Trace(run.steps, P),
        "window": run.w,
    }


def extract_params(S, P: Params) -> dict:
    """Gap parameters of a maximal system, plus the predicted comp-1 part.

    For each pair of cyclically consecutive comp-0 members the rank-p gap
    index t and rank-q gap index s are the unique values whose partner
    quasi-simple wings avoid S; the comp-1 member of the gap is the unique
    bi-perpendicular point of S-without-comp-1 inside the gap rectangle,
    read off that set's comp-1 witness mask.  All three are read off the
    bits of the member mask and reported in absolute window coordinates."""
    band, mem, off = _members(S, P)
    if not mem & band.euclid:
        raise NoEuclideanMember("parameter extraction needs a Euclidean part")
    report = _maximality(band, mem, off)
    if not report.is_maximal:
        if not _orthogonal(band, mem, off):
            raise DomainError("set is not an orthogonal system of bricks")
        raise NotMaximal("witnesses remain: %s" %
                         [format_vertex(w) for w in report.witnesses])
    comp0 = [band.cand[i] for i in _bits(mem & band.part_bits["e0"])]
    if not comp0:
        raise DomainError("maximal system with empty comp-0 part")
    # S without its comp-1 members has comp0[0] least, so the same band
    e1 = band.part_bits["e1"]
    comp1 = _witnesses(band, mem & ~e1, (), None) & e1
    # bit l*rank + i of cover[f]: a tube member of family f on level l
    # covers residue i, one of idx..idx+ht mod the rank, as QuasiCone does
    cover = {"P": 0, "U": 0}
    for f, l, j, h in map(band.cand.__getitem__, _bits(mem & ~band.euclid)):
        rank = P.rank(f)
        run = (2 << h) - 1 << j  # j..j+h, below 2*rank as h <= rank-2
        cover[f] |= ((run | run >> rank) & (1 << rank) - 1) << l * rank

    p, q = P
    t_list, s_list, predicted = [], [], []
    ell = len(comp0)
    for r in range(ell):
        a_r, b_r = comp0[r].x, comp0[r].y
        if r + 1 < ell:
            a_n, b_n = comp0[r + 1].x, comp0[r + 1].y
        else:
            a_n, b_n = comp0[0].x + p, comp0[0].y - q

        for name, family, lo, hi, out in (("t", "P", a_r + 1, a_n, t_list),
                                          ("s", "U", b_n + 1, b_r, s_list)):
            bits, rank = cover[family], P.rank(family)
            found = [t for t in range(lo, hi + 1)
                     if not bits >> (t - 1) % rank & 1
                     and not bits >> rank + t % rank & 1]
            if len(found) != 1:
                raise ParameterNotUnique("gap %d admits %s candidates %s"
                                         % (r, name, found))
            out.append(found[0])

        # cell (1, x, y) is canonical (1, x + p*l, y % q) with l = y // q:
        # band bit width + k*q + y % q, with k = x + p*l - lo in 0..2p
        box = [band.cand[i] for x in range(a_r + 1, a_n + 1)
               for y in range(b_n + 1, b_r + 1)
               if 0 <= (k := x + p * (y // q) - band.lo) <= 2 * p
               and comp1 >> (i := band.width + k * q + y % q) & 1]
        if len(box) != 1:
            raise ParameterNotUnique(
                "gap %d rectangle admits %s" %
                (r, [format_vertex(w) for w in box]))
        predicted.append(box[0])
    return {"tList": t_list, "sList": s_list, "predictedComp1": predicted}
