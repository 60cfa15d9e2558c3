"""Triangle catalog, extension-closure fixpoint, certification, parameters."""

import copy
import functools
import hashlib
import json
import pickle
import random
import time

import pytest

from conftest import sigma_x, sigma_y, transpose
from arq2d import model
from arq2d.closure import (
    DistinguishedTriangle,
    _Fixpoint,
    _LIFT_TABLES,
    _lift_table,
    NotMaximal,
    Trace,
    WindowTooSmall,
    certify_sms,
    closure,
    default_window,
    extract_params,
    replay_trace,
    trace_json_lines,
    triangle_catalog,
)
from arq2d.model import (
    DomainError,
    Euclid,
    Params,
    Tube,
    Window,
    canonical,
    canonical_set,
    format_vertex,
    omega,
    omega_inv,
    tau,
)
from arq2d.homs import biperp
from arq2d.ortho import (
    NoEuclideanMember,
    is_orthogonal_system,
    maximal_systems_containing,
    maximality,
    witness_pool,
)

P33 = Params(3, 3)
FLAGSHIP = (Euclid(0, 1, 0), Euclid(0, -1, 2), Euclid(0, 0, 1),
            Euclid(1, -1, 3), Euclid(1, 0, 2), Euclid(1, 1, 1))


@pytest.fixture(scope="module")
def flagship_state():
    return closure(FLAGSHIP, P33)


@pytest.fixture(scope="module")
def flagship_cert():
    return certify_sms(FLAGSHIP, P33)


@pytest.fixture
def add_once(monkeypatch):
    """Wrap `_Fixpoint.add` so that adding a key twice fails the test: every
    join names only targets it found missing, so `derive` needs no check
    of a Euclidean target's bit."""
    add = _Fixpoint.add

    def once(run, key):
        assert key not in run.have, key
        return add(run, key)

    monkeypatch.setattr(_Fixpoint, "add", once)


class TestWindow:
    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            Window(P33, 1, 0, 0, 0, 1)
        with pytest.raises(DomainError):
            Window(P33, 0, 0, 0, 0, -1)

    def test_euclid_membership_is_lift_quantified(self):
        w = Window(P33, 0, 2, 0, 2, 1)
        assert w.contains(Euclid(0, 1, 1))
        # E(0,4,-2) is identified with E(0,1,1), which lands in the box
        assert w.contains(Euclid(0, 4, -2))
        assert not w.contains(Euclid(0, 4, 0))

    def test_tube_membership_is_height_capped(self):
        w = Window(P33, 0, 2, 0, 2, 1)
        assert w.contains(Tube("U", 0, 0, 1))
        assert not w.contains(Tube("U", 0, 0, 2))

    @pytest.mark.parametrize("periods,box,derived", [
        (2, (-14, 15, -12, 14, 5), 396),
        (3, (-20, 21, -18, 20, 8), 576),
    ])
    def test_default_window_periods_pin(self, periods, box, derived):
        # recorded from the CLI's hand-padded window before default_window
        # took a periods argument
        w = default_window(FLAGSHIP, P33, periods)
        assert w == Window(P33, *box)
        assert certify_sms(FLAGSHIP, P33, w)["derived"] == derived

    def test_default_window_covers_seed_shifts(self):
        w = default_window(FLAGSHIP, P33)
        from arq2d.model import omega
        for v in FLAGSHIP:
            assert w.contains(v)
            assert w.contains(omega(v, P33))
            assert w.contains(omega_inv(v, P33))


class TestCatalog:
    def test_no_duplicates_and_window_containment(self):
        P = Params(2, 2)
        w = default_window([Euclid(0, 0, 0)], P)
        cat = triangle_catalog(P, w)
        assert len(cat) == len(set(cat)) == 2754
        for t in cat:
            assert w.contains(t.a) and w.contains(t.c)
            assert all(w.contains(m) for m in t.mids)

    def test_known_mesh_triangle_present(self):
        P = Params(2, 2)
        w = Window(P, -2, 2, -2, 2, 1)
        cat = triangle_catalog(P, w)
        want = DistinguishedTriangle(
            canonical(Euclid(0, 0, 0), P),
            (canonical(Euclid(0, 0, 1), P), canonical(Euclid(0, 1, 0), P)),
            canonical(Euclid(0, 1, 1), P),
            "T-mesh-E")
        assert want in cat

    def test_tube_mesh_triangles_close_the_rank(self):
        P = Params(2, 3)
        w = Window(P, 0, 0, 0, 0, 1)
        cat = [t for t in triangle_catalog(P, w) if t.family == "T-mesh-T"]
        # every quasi-simple has a mesh triangle to its cyclic successor
        starts = {t.a for t in cat if isinstance(t.a, Tube) and t.a.ht == 0}
        for fam in ("U", "P"):
            for level in (0, 1):
                for j in range(P.rank(fam)):
                    assert Tube(fam, level, j, 0) in starts


class TestClosureEngine:
    def test_orthogonal_seed_stays_inside(self, flagship_state):
        assert set(FLAGSHIP_CANON) <= flagship_state.in_f

    def test_deterministic(self, flagship_state):
        again = closure(FLAGSHIP, P33)
        assert again.in_f == flagship_state.in_f
        assert again.trace == flagship_state.trace

    def test_monotone_in_window(self, flagship_state):
        w = flagship_state.window
        bigger = Window(P33, w.x_lo - 1, w.x_hi + 1, w.y_lo - 1,
                               w.y_hi + 1, w.tube_ht_cap)
        grown = closure(FLAGSHIP, P33, bigger)
        assert flagship_state.in_f <= grown.in_f

    def test_window_too_small(self):
        w = Window(P33, 0, 1, 0, 1, 1)
        with pytest.raises(WindowTooSmall):
            closure(FLAGSHIP, P33, w)

    @pytest.mark.parametrize("run", [closure, certify_sms],
                             ids=lambda f: f.__name__)
    def test_window_of_other_params_rejected(self, run):
        P = Params(2, 3)
        S = maximal_systems_containing([Euclid(0, 1, 0)], P)[0]
        with pytest.raises(DomainError, match=r"^window built at \(p,q\) = "
                           r"\(3,3\), closure at \(2,3\)$"):
            run(S, P, default_window(S, P33))

    def test_single_tube_seed_is_inert(self):
        state = closure([Tube("U", 0, 0, 0)],
                        P33, Window(P33, -3, 3, -3, 3, 1))
        assert state.in_f == frozenset({Tube("U", 0, 0, 0)})
        assert state.trace == ()


@functools.lru_cache(maxsize=None)
def _rules(P, window):
    """Each catalog triangle with the premises of its rotations."""
    return [(t.a, t.mids, t.c, omega_inv(t.a, P), omega(t.c, P))
            for t in triangle_catalog(P, window)]


def naive_closure(S, P, window):
    """The three rules applied over the whole catalog until nothing changes."""
    F = {canonical(v, P) for v in S}
    while True:
        before = len(F)
        for a, mids, c, right, left in _rules(P, window):
            if a in F and c in F:
                F.update(mids)
            if all(m in F for m in mids):
                if right in F:
                    F.add(c)
                if left in F:
                    F.add(a)
        if len(F) == before:
            return frozenset(F)


def assert_matches_reference(S, P, window=None):
    state = closure(S, P, window)
    assert state.in_f == naive_closure(S, P, state.window), S
    assert replay_trace(S, state.trace, P) == state.in_f, S
    return state


class TestAgainstCatalog:
    """The demand-driven engine against a naive fixpoint over the catalog."""

    @pytest.fixture(autouse=True, scope="class")
    def drop_catalogs(self):
        yield
        _rules.cache_clear()

    def test_two_two_maximal_and_punctured(self):
        P = Params(2, 2)
        systems = maximal_systems_containing([Euclid(0, 1, 0)], P)
        assert len(systems) == 5
        for s in systems:
            assert_matches_reference(s, P)
            for drop in s:
                assert_matches_reference([v for v in s if v != drop], P)

    def test_two_three_maximal(self):
        P = Params(2, 3)
        systems = maximal_systems_containing([Euclid(0, 1, 0)], P)
        assert len(systems) == 14
        for s in systems:
            assert_matches_reference(s, P)

    def test_flagship_default_and_grown_window(self):
        assert_matches_reference(FLAGSHIP, P33)
        # one more period (p, -q) of the identification of lifts
        w = default_window(FLAGSHIP, P33)
        grown = Window(P33, w.x_lo, w.x_hi + 3, w.y_lo - 3, w.y_hi,
                              w.tube_ht_cap)
        assert_matches_reference(FLAGSHIP, P33, grown)

    def test_random_seeds_in_small_windows(self):
        # boxes around the seeds and their syzygy shifts, padded by 0-2,
        # with random tube height caps: these reach joins that the
        # orthogonal systems above never need
        rng = random.Random(2026)
        for _ in range(150):
            P = Params(rng.randint(1, 3), rng.randint(1, 3))
            S = [Euclid(rng.randint(0, 1), rng.randint(-2, 2),
                        rng.randint(-2, 2)) if rng.random() < 0.75 else
                 Tube(rng.choice("UP"), rng.randint(0, 1), rng.randint(0, 2),
                      rng.randint(0, 2))
                 for _ in range(rng.randint(1, 5))]
            pts = [u for v in S
                   for u in (canonical(v, P), omega(v, P), omega_inv(v, P))
                   if isinstance(u, Euclid)] or [Euclid(0, 0, 0)]
            pad = [rng.randint(0, 2) for _ in range(4)]
            cap = max([v.ht for v in S if isinstance(v, Tube)]
                      + [rng.randint(0, 3)])
            w = Window(P, min(u.x for u in pts) - pad[0],
                              max(u.x for u in pts) + pad[1],
                              min(u.y for u in pts) - pad[2],
                              max(u.y for u in pts) + pad[3], cap)
            assert_matches_reference(S, P, w)

    def test_tube_only_seed(self):
        P = Params(2, 3)
        seed = [Tube("U", 0, 0, 1), Tube("U", 1, 1, 0), Tube("P", 0, 0, 0),
                Tube("P", 1, 1, 1)]
        state = assert_matches_reference(seed, P)
        assert len(state.in_f) > len(seed)


def _random_seed_windows(n=150, seed=2026):
    """The random seed/window pairs of
    TestAgainstCatalog.test_random_seeds_in_small_windows, drawn the same
    way."""
    rng = random.Random(seed)
    for _ in range(n):
        P = Params(rng.randint(1, 3), rng.randint(1, 3))
        S = [Euclid(rng.randint(0, 1), rng.randint(-2, 2),
                    rng.randint(-2, 2)) if rng.random() < 0.75 else
             Tube(rng.choice("UP"), rng.randint(0, 1), rng.randint(0, 2),
                  rng.randint(0, 2))
             for _ in range(rng.randint(1, 5))]
        pts = [u for v in S
               for u in (canonical(v, P), omega(v, P), omega_inv(v, P))
               if isinstance(u, Euclid)] or [Euclid(0, 0, 0)]
        pad = [rng.randint(0, 2) for _ in range(4)]
        cap = max([v.ht for v in S if isinstance(v, Tube)]
                  + [rng.randint(0, 3)])
        yield P, S, Window(P, min(u.x for u in pts) - pad[0],
                           max(u.x for u in pts) + pad[1],
                           min(u.y for u in pts) - pad[2],
                           max(u.y for u in pts) + pad[3], cap)


def _window_grid():
    """Boxes of every size up to (2p+1) x (2q+1) at p, q <= 4, so narrower
    than p and shorter than q among them, at two offsets and two tube
    height caps: 2,304 windows."""
    for p in range(1, 5):
        for q in range(1, 5):
            P = Params(p, q)
            for width in range(1, 2 * p + 2):
                for height in range(1, 2 * q + 2):
                    for x, y in ((-2, 1), (1, -3)):
                        for cap in (0, 2):
                            yield Window(P, x, x + width - 1, y,
                                         y + height - 1, cap)


class TestBoxShifts:
    def test_matches_a_scan_over_shifts(self):
        """`model.box_shifts` lists every l that puts (x - p*l, y + q*l) in
        the box, in order, for each point within p + 1 columns and q + 1
        rows of each box of `_window_grid()`."""
        for w in _window_grid():
            (p, q), box = w.P, w[1:5]
            # a box spans at most 2p + 1 columns and 2q + 1 rows, so a
            # shift that lands a point in it has |l| <= 4
            xs = {x: {l for l in range(-16, 17)
                      if w.x_lo <= x - p * l <= w.x_hi}
                  for x in range(w.x_lo - p - 1, w.x_hi + p + 2)}
            ys = {y: {l for l in range(-16, 17)
                      if w.y_lo <= y + q * l <= w.y_hi}
                  for y in range(w.y_lo - q - 1, w.y_hi + q + 2)}
            for x, at_x in xs.items():
                for y, at_y in ys.items():
                    assert list(model.box_shifts(w.P, x, y, *box)) == sorted(
                        at_x & at_y), (w, x, y)


class TestLiftTables:
    """`_Fixpoint.lifts` reads the offsets table of its box's shape, which
    every run on a box of that shape shares and fills."""

    def test_offsets_match_window_lifts(self):
        """Each box cell's class has offsets equal to `Window.lifts` less
        the box's lower-left cell.  The windows share shapes but not origins:
        `_window_grid()` puts each shape at (x_lo, y_lo) = (-2, 1) and
        (1, -3), whose y_lo differ mod q for q = 3; the flagship's two-period
        window is moved to every y_lo mod 3 and to a positive x_lo."""
        flagship = default_window(FLAGSHIP, P33, 2)
        moved = [flagship._replace(x_lo=flagship.x_lo + dx,
                                   x_hi=flagship.x_hi + dx,
                                   y_lo=flagship.y_lo + dy,
                                   y_hi=flagship.y_hi + dy)
                 for dx in (0, 20) for dy in (0, 1, 2)]
        for w in list(_window_grid()) + moved:
            run = _Fixpoint(w.P, w)
            shape = (w.P, w.x_hi - w.x_lo + 1, w.y_hi - w.y_lo + 1)
            assert run.offsets is _lift_table(*shape), w
            for c in (0, 1):
                for x in range(w.x_lo, w.x_hi + 1):
                    for y in range(w.y_lo, w.y_hi + 1):
                        k = model.canonical_key((c, x, y), w.P)
                        assert list(run.lifts(k)) == [
                            (lx - w.x_lo, ly - w.y_lo) for lx, ly in
                            w.lifts(model.vertex(k))], (w, k)

    def test_table_size_is_independent_of_origin(self):
        """The flagship's closure in its two-period window, and in that
        window moved by the shift (-p*l, q*l) for l = 1..4, so y_lo steps by
        q: every run derives the same set and the table of the shape gains
        no entry after the first."""
        w = default_window(FLAGSHIP, P33, 2)
        sizes, derived = [], set()
        for l in range(5):
            moved = w._replace(x_lo=w.x_lo - 3 * l, x_hi=w.x_hi - 3 * l,
                               y_lo=w.y_lo + 3 * l, y_hi=w.y_hi + 3 * l)
            state = closure(FLAGSHIP, P33, moved)
            derived.add(state.in_f)
            sizes.append(len(_lift_table(P33, w.x_hi - w.x_lo + 1,
                                         w.y_hi - w.y_lo + 1)))
        assert len(derived) == 1 and len(set(sizes)) == 1, sizes

    def test_cache_is_bounded(self):
        for width in range(1, 2 * _LIFT_TABLES + 1):
            _lift_table(P33, width, 1)
        info = _lift_table.cache_info()
        assert info.maxsize == _LIFT_TABLES == info.currsize


class TestStop:
    """`drain` stops once `left`, the window vertices not yet derived,
    reaches 0.  Every target a join names is a window vertex, so no later
    pop could derive anything."""

    def test_starting_left_counts_window_vertices(self):
        for w in _window_grid():
            assert _Fixpoint(w.P, w).left == len(w.vertices()), w

    def test_lifts_share_no_line(self):
        """Why a join never names a derived Euclidean target: it walks the
        cells of one line that were missing when the walk began, and each
        vertex it derives has no other lift on that line."""
        for w in _window_grid():
            for v in w.vertices():
                if isinstance(v, Euclid):
                    lifts = w.lifts(v)
                    assert len({x for x, _ in lifts}) == len(lifts), (w, v)
                    assert len({y for _, y in lifts}) == len(lifts), (w, v)

    def test_each_key_added_once(self, add_once):
        """Every maximal system through E(0,1,0) at (2,2), (2,3) and (3,3)
        and each punctured variant, and the random seed windows.  The
        (3,4) and (4,4) sweeps below run under the same wrapper."""
        for P in (Params(2, 2), Params(2, 3), P33):
            for s in maximal_systems_containing([Euclid(0, 1, 0)], P):
                for S in [s] + [s[:i] + s[i + 1:] for i in range(len(s))]:
                    closure(S, P)
        for P, S, w in _random_seed_windows():
            closure(S, P, w)


class TestMaskInvariant:
    """After a drain, the engine's bitmasks describe exactly the derived
    vertices: each component's row and column masks hold the box lifts of
    its derived Euclidean vertices, a row is a gap while it is not full,
    the per-family height lists hold the derived heights, and `left`
    counts the window vertices not derived."""

    def test_masks_rebuilt_from_lifts(self):
        for P, S, w in _random_seed_windows():
            run = _Fixpoint(P, w)
            for v in canonical_set(S, P):
                run.add(model.key(v))
            run.drain()
            assert run.left == len(w.vertices()) - len(run.have), (P, S, w)
            width, height = w.x_hi - w.x_lo + 1, w.y_hi - w.y_lo + 1
            rows = ([0] * height, [0] * height)
            cols = ([0] * width, [0] * width)
            tubes, diags = ({f: ([0] * P.rank(f), [0] * P.rank(f))
                             for f in "PU"} for _ in range(2))
            for key in run.have:
                if len(key) == 3:
                    for x, y in w.lifts(Euclid(*key)):
                        rows[key[0]][y - w.y_lo] |= 1 << (x - w.x_lo)
                        cols[key[0]][x - w.x_lo] |= 1 << (y - w.y_lo)
                    continue
                f, l, j, h = key
                tubes[f][l][j] |= 1 << h
                diags[f][l][(j + h) % P.rank(f)] |= 1 << (w.tube_ht_cap - h)
            assert (run.rows, run.cols) == (rows, cols), (P, S, w)
            for comp in (0, 1):
                assert run.gaps[comp] == sum(
                    1 << j for j, row in enumerate(rows[comp])
                    if row != (1 << width) - 1), (P, S, w)
            assert (run.tubes, run.diags) == (tubes, diags), (P, S, w)

    @pytest.mark.parametrize("box,mid,omega_c,a", [
        ((0, 8, 0, 1), Euclid(1, 3, 0), Euclid(0, 3, -1), Tube("P", 1, 1, 0)),
        ((0, 1, 0, 8), Euclid(1, 0, 3), Euclid(0, -1, 3), Tube("U", 1, 1, 0)),
    ], ids=["row-0", "column-0"])
    def test_omega_line_outside_the_box(self, box, mid, omega_c, a):
        """The rot-left tube-chain join with a comp-1 mid on row 0 (column
        0): Omega of the chain's c lies one line outside the box, so the
        engine looks it up by key.  The mid, with one lift in the box, is
        derived after Omega c has been popped, so that join is the one
        that derives the tube a."""
        P = Params(2, 2)
        w = Window(P, *box, 2)
        assert len(w.lifts(mid)) == 1
        run = _Fixpoint(P, w)
        for v in (omega_c, mid):
            run.add(model.key(canonical(v, P)))
            run.drain()
            assert run.left == len(w.vertices()) - len(run.have)
        in_f = frozenset(map(model.vertex, run.have))
        assert a in in_f
        assert in_f == naive_closure([omega_c, mid], P, w)
        assert replay_trace([omega_c, mid], Trace(run.steps, P), P) == in_f
        assert_matches_reference([omega_c, mid], P, w)


def _premise_slots(t, P):
    """(rule, premises, conclusions) of each rule of a catalog triangle."""
    return (("ext", (t.a, t.c), t.mids),
            ("rot-right", t.mids + (omega_inv(t.a, P),), (t.c,)),
            ("rot-left", t.mids + (omega(t.c, P),), (t.a,)))


def _derived_last(P, window, premises, held):
    """Drain a fresh engine on every premise but one, then add that one
    and drain again; return the canonical keys it derived."""
    run = _Fixpoint(P, window)
    for group in (premises[:held] + premises[held + 1:],
                  premises[held:held + 1]):
        for v in group:
            if model.key(v) not in run.have:
                run.add(model.key(v))
        run.drain()
    return run.have


class TestEveryPremiseTriggers:
    """Each premise slot of each rule fires that rule when it is derived
    last.  The least fixpoint needs every slot: a missing join can go
    unseen on whole systems when other triangles derive the same vertex."""

    BUDGET_S = 30  # the test takes about 5 s on a 2-core VM

    def check(self, P, window, triangles):
        runs = 0
        for t in triangles:
            for rule, premises, conclusions in _premise_slots(t, P):
                for held in range(len(premises)):
                    have = _derived_last(P, window, premises, held)
                    for v in conclusions:
                        assert model.key(v) in have, (rule, t, premises[held])
                    runs += 1
        return runs

    def test_whole_catalog_and_a_sample(self):
        start = time.perf_counter()
        P = Params(1, 2)
        w = Window(P, -2, 2, -3, 3, 2)
        assert self.check(P, w, triangle_catalog(P, w)) == 3348
        P = Params(2, 3)
        w = Window.periods(P, 1)
        sample = random.Random(2027).sample(triangle_catalog(P, w), 150)
        self.check(P, w, sample)
        assert time.perf_counter() - start < self.BUDGET_S


def _fills_window(doc):
    return doc["derived"] == len(doc["window"].vertices())


class TestSweepBeyondAcceptance:
    """Every maximal (3,4) and (4,4) system through E(0,1,0) certifies and
    replays to its `derived`, and so does the flagship at four periods.
    The (3,4) and flagship pins were recorded from the engine before the
    bitmask joins.

    An observation, not a claim of the paper: each of these maximal
    systems derives every vertex of its default window, so its closure
    ends at the stop, and no punctured variant does (every variant at
    (3,4), one per system at (4,4)).  No key is added twice."""

    BUDGET_S = 15  # about 6 s on a 2-core VM; the set-based joins took 20 s

    def test_three_four_systems_and_flagship_four_periods(self, add_once):
        start = time.perf_counter()
        P = Params(3, 4)
        systems = maximal_systems_containing([Euclid(0, 1, 0)], P)
        assert len(systems) == 132
        total = 0
        for s in systems:
            doc = certify_sms(s, P)
            assert doc["certified"], s
            assert len(replay_trace(s, doc["trace"], P)) == doc["derived"], s
            assert _fills_window(doc), s
            total += doc["derived"]
            for i in range(len(s)):
                assert not _fills_window(certify_sms(s[:i] + s[i + 1:], P))
        assert total == 37968
        doc = certify_sms(FLAGSHIP, P33, default_window(FLAGSHIP, P33, 4))
        assert doc["certified"]
        assert len(replay_trace(FLAGSHIP, doc["trace"], P33)) == 756
        assert (doc["derived"], len(doc["trace"])) == (756, 750)
        assert time.perf_counter() - start < self.BUDGET_S

    def test_four_four_systems(self, add_once):
        # pins recorded before the height masks became per-family lists;
        # about 8 s on a 2-core VM, half of it the punctured variants
        start = time.perf_counter()
        P = Params(4, 4)
        systems = maximal_systems_containing([Euclid(0, 1, 0)], P)
        assert len(systems) == 429
        total = 0
        for n, s in enumerate(systems):
            doc = certify_sms(s, P)
            assert doc["certified"], s
            assert len(replay_trace(s, doc["trace"], P)) == doc["derived"], s
            assert _fills_window(doc), s
            total += doc["derived"]
            i = n % len(s)
            assert not _fills_window(certify_sms(s[:i] + s[i + 1:], P)), s
        assert total == 155576
        assert time.perf_counter() - start < 30


class TestEquivariance:
    """Closure commutes with tau, which shifts the window by (-1, -1)."""

    SYSTEMS = maximal_systems_containing([Euclid(0, 1, 0)], Params(2, 3))

    def test_closure_commutes_with_tau(self):
        P = Params(2, 3)
        for s in self.SYSTEMS:
            state = closure(s, P)
            w = state.window
            moved = closure([tau(v, P) for v in s], P,
                            Window(P, w.x_lo - 1, w.x_hi - 1,
                                          w.y_lo - 1, w.y_hi - 1,
                                          w.tube_ht_cap))
            assert moved.in_f == {tau(v, P) for v in state.in_f}, s

    def test_verdict_is_tau_invariant(self):
        P = Params(2, 3)
        for s in self.SYSTEMS:
            moved = [tau(v, P) for v in s]
            assert (certify_sms(moved, P)["certified"]
                    == certify_sms(s, P)["certified"]), s


class TestTransposeEquivariance:
    """The transpose T from (p,q) to (q,p) maps the 14 maximal (2,3)
    systems through E(0,1,0) onto the maximal (3,2) systems through its
    image, keeps the certify_sms verdict, and maps the closure's derived
    set onto the closure of the image on the transposed window; the same
    holds for each punctured variant, whose closure stops short of the
    window.  T swaps the x and y axes, so it checks the engine's x-axis
    paths against its y-axis ones."""

    BUDGET_S = 10  # about 0.4 s on a 2-core VM

    def test_certify_and_closure_commute(self):
        start = time.perf_counter()
        P, PT = Params(2, 3), Params(3, 2)
        systems = maximal_systems_containing([Euclid(0, 1, 0)], P)
        assert len(systems) == 14
        images = maximal_systems_containing([transpose(Euclid(0, 1, 0))], PT)
        assert {frozenset(canonical(transpose(v), PT) for v in s)
                for s in systems} == set(map(frozenset, images))
        for s in systems:
            for S in [s] + [s[:i] + s[i + 1:] for i in range(len(s))]:
                doc = certify_sms(S, P)
                w = doc["window"]
                wt = Window(PT, w.y_lo, w.y_hi, w.x_lo, w.x_hi, w.tube_ht_cap)
                T = [transpose(v) for v in S]
                got = certify_sms(T, PT, wt)
                assert got["certified"] == doc["certified"], S
                assert got["derived"] == doc["derived"], S
                assert closure(T, PT, wt).in_f == {
                    canonical(transpose(v), PT)
                    for v in closure(S, P, w).in_f}, S
        assert time.perf_counter() - start < self.BUDGET_S


class TestShiftEquivariance:
    """Certification commutes with the shift sigma_x: sigma_x S has the same
    verdict and `derived` as S, and its in_f is the canonical sigma_x-image
    of S's.  The verdict is also sigma_y-invariant; `derived` is not checked
    under sigma_y, because `default_window` boxes canonical representatives
    and sigma_y wraps y.  This is a symmetry of the combinatorial model
    observed by running the engine, not a claim from the paper.  Covers the
    188 maximal systems through E(0,1,0) at (2,3), (3,3) and (3,4)."""

    BUDGET_S = 30  # about 6.5 s on a 2-core VM

    def test_sigma_x_and_sigma_y(self):
        start = time.perf_counter()
        count = 0
        for P in (Params(2, 3), Params(3, 3), Params(3, 4)):
            for s in maximal_systems_containing([Euclid(0, 1, 0)], P):
                doc = certify_sms(s, P)
                in_f = replay_trace(s, doc["trace"], P)
                moved = [sigma_x(v) for v in s]
                got = certify_sms(moved, P)
                assert got["certified"] == doc["certified"], s
                assert got["derived"] == doc["derived"], s
                assert replay_trace(moved, got["trace"], P) == {
                    canonical(sigma_x(v), P) for v in in_f}, s
                got = certify_sms([sigma_y(v) for v in s], P)
                assert got["certified"] == doc["certified"], s
                count += 1
        assert count == 188
        assert time.perf_counter() - start < self.BUDGET_S


class TestWindowMonotonicity:
    """One more period of `default_window` only adds vertices and keeps the
    verdict, and it adds the same number of vertices to every maximal
    system of one (p,q).  Covers every maximal system through E(0,1,0) at
    (2,3) and (3,3), at N = 1, 2 and 3 periods."""

    # about 6 s on a 2-core VM; (3,4) would add 7.9-9.7 s, so it is left out
    BUDGET_S = 30
    GROWTH = {Params(2, 3): 130, Params(3, 3): 180}

    def test_windows_nest(self):
        start = time.perf_counter()
        for P, growth in self.GROWTH.items():
            for s in maximal_systems_containing([Euclid(0, 1, 0)], P):
                prev = None
                for n in (1, 2, 3):
                    doc = certify_sms(s, P, default_window(s, P, n))
                    in_f = replay_trace(s, doc["trace"], P)
                    if prev is not None:
                        assert prev[0] <= in_f, (s, n)
                        assert doc["certified"] == prev[1], (s, n)
                        assert len(in_f) - len(prev[0]) == growth, (s, n)
                    prev = in_f, doc["certified"]
        assert time.perf_counter() - start < self.BUDGET_S


class TestTrace:
    def test_replay_matches_closure(self, flagship_state):
        final = replay_trace(FLAGSHIP, flagship_state.trace, P33)
        assert final == flagship_state.in_f

    def test_tampered_trace_rejected(self, flagship_state):
        trace = flagship_state.trace
        assert len(trace) > 2
        # move the first derivation last; later steps lose a premise
        with pytest.raises(DomainError,
                           match="trace premise .* not established"):
            replay_trace(FLAGSHIP, Trace(trace[1:] + trace[:1], P33), P33)

    def test_unknown_rule_rejected(self, flagship_state):
        rule, tri, prod = flagship_state.trace[0]
        with pytest.raises(DomainError, match="unknown trace rule 'shear'"):
            replay_trace(FLAGSHIP, Trace([("shear", tri, prod)], P33), P33)

    @pytest.mark.parametrize("seeds,rule,produced", [
        # replayed before the conclusion check: TU(0,0,5) is not a slot of
        # the triangle
        ((Euclid(0, 1, 0), Euclid(0, 2, 1)), "ext", Tube("U", 0, 0, 5)),
        ((Euclid(0, 1, 0), Euclid(0, 2, 1)), "ext", "c"),
        (FLAGSHIP, "rot-right", "a"),
        (FLAGSHIP, "rot-left", "c"),
    ], ids=["ext-off-triangle", "ext-corner", "rot-right-a", "rot-left-c"])
    def test_step_must_produce_its_conclusion(self, seeds, rule, produced):
        trace = closure(seeds, P33).trace
        n = next(i for i, step in enumerate(trace) if step[0] == rule)
        tri = trace[n][1]
        # a produced key is canonical; tri holds (family, a, mids, c)
        produced = model.canonical_key(
            tri[{"a": 1, "c": 3}[produced]] if isinstance(produced, str)
            else model.key(produced), P33)
        step = (rule, tri, produced)
        with pytest.raises(DomainError, match="not a conclusion of " + rule):
            replay_trace(seeds, Trace(trace[:n] + (step,), P33), P33)

    # sha256 of the joined `trace_json_lines` of each case, recorded before
    # the joins read their premises off the bitmasks; like CERTIFIED_DERIVED
    # they are never re-recorded to absorb a change
    DIGESTS = {
        Params(2, 2): "ad866e4b93d9a1ba46a5fcf060ba847b"
                      "da59987294a17508bb80609dec337711",
        Params(2, 3): "4e57dceb5a7ebc5dfc3ddde5b1216fa7"
                      "9f3c54eac7ea4208b119f756dcbb2424",
        Params(3, 3): "9d4950354b13f53f0f3a8b13c82a5361"
                      "1fedd25c69285ed84b88b536cc14a238",
        Params(3, 4): "29ee9647c3a636e3431d7cb392b62b05"
                      "cbc008d325a2c68906dd7ba2853931c6",
        "flagship-window-2": "98d171403921c78ef87df1da08ef1ebb"
                             "a12e400bd1bc9783da32c234cb4087fc",
        "tube-only": "aa288719e0426d7c2e95100d48721cb5"
                     "155041b658847e71893cc2808c8c7b6d",
    }

    @pytest.mark.parametrize("case", list(DIGESTS), ids=str)
    def test_trace_bytes_pinned(self, case):
        """Every maximal system through E(0,1,0) at (p,q), in enumeration
        order; the flagship at two periods; the tube-only seed of
        TestAgainstCatalog."""
        if isinstance(case, Params):
            traces = [certify_sms(s, case)["trace"] for s in
                      maximal_systems_containing([Euclid(0, 1, 0)], case)]
        elif case == "tube-only":
            seed = [Tube("U", 0, 0, 1), Tube("U", 1, 1, 0),
                    Tube("P", 0, 0, 0), Tube("P", 1, 1, 1)]
            traces = [closure(seed, Params(2, 3)).trace]
        else:
            w = default_window(FLAGSHIP, P33, 2)
            traces = [certify_sms(FLAGSHIP, P33, w)["trace"]]
        text = "\n".join(line for t in traces for line in trace_json_lines(t))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[case]

    # the same digest over every punctured variant of every maximal system
    # through E(0,1,0), in enumeration order, each member dropped in turn:
    # 20, 70, 252 and 924 inconclusive closures; recorded before the witness
    # queries read each member's band index once, and never re-recorded
    PUNCTURED_DIGESTS = {
        Params(2, 2): "84c4b307f86bdd5a303f6bcb90767ee6"
                      "879d860695b5870815512597ee0cf14e",
        Params(2, 3): "94305124f2b435464404799c101fa2e1"
                      "878fa3bbbf08956cca7c79e0b9727a13",
        Params(3, 3): "2b090007dbf578404a0157bd41ce5fab"
                      "dc00a583c47af77cd168187c6494213a",
        Params(3, 4): "91656983040c680d1784ec94df8eba2e"
                      "a6cdc1637254323ddc0cefb55dfb503c",
    }

    @pytest.mark.parametrize("P", list(PUNCTURED_DIGESTS), ids=str)
    def test_punctured_trace_bytes_pinned(self, P):
        lines = []
        for S in maximal_systems_containing([Euclid(0, 1, 0)], P):
            for i in range(len(S)):
                rest = S[:i] + S[i + 1:]
                doc = certify_sms(rest, P)
                # every step derives one vertex beyond the seeds
                assert len(doc["trace"]) == doc["derived"] - len(rest)
                lines += trace_json_lines(doc["trace"])
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PUNCTURED_DIGESTS[P]

    # one step each; the raw-unread-mid steps are ext steps whose first mid
    # is the one produced, from two seeds, so no check reads the second mid
    MALFORMED = [
        ("ext", "x", "y"), ("rot-left", None, None), ("ext",), "zz",
        ("ext", ("T-mesh-E", (0, 1, 0)), (0, 1, 1)),
        ("ext", ("T-mesh-E", "x", ("y",), "z"), "w"),
        ("rot-left", ("T-mesh-E", None, (), None), None),
        ("ext", ("T-mesh-E", (0, 1, 0), ((0, 1, 1),), (0, 2, 2)), ()),
    ] + [("ext", ("T-mesh-E", (0, 1, 0), ((0, 1, 4), mid), (0, -1, 2)),
          (0, 4, 1)) for mid in ("zz", None, (0, 1))]

    @pytest.mark.parametrize("S,trace,P,message", [
        (FLAGSHIP, Trace([step], P33), P33, "^malformed trace step")
        for step in MALFORMED
    ] + [
        (FLAGSHIP + ("E(0,1,0)",), Trace((), P33), P33,
         r"^member 'E\(0,1,0\)' is not a vertex$"),
        ((None,), Trace((), P33), P33, "^member None is not a vertex$"),
        (FLAGSHIP, None, P33, "^trace is not a Trace: None$"),
        (FLAGSHIP, 5, P33, "^trace is not a Trace: 5$"),
        (FLAGSHIP, [], P33, r"^trace is not a Trace: \[\]$"),
        (FLAGSHIP, Trace((), P33), (3, 3),
         r"^P is not a Params: \(3, 3\)$"),
    ], ids=["strings", "nones", "short-step", "string-step", "raw-short-step",
            "raw-strings", "raw-nones", "raw-empty-produced",
            "raw-unread-mid-string", "raw-unread-mid-none",
            "raw-unread-mid-short", "member-string", "member-none",
            "trace-none", "trace-int", "trace-list", "params-tuple"])
    def test_malformed_step_rejected(self, S, trace, P, message):
        """Each malformed step is a DomainError, and so is each argument of
        the wrong kind.  An unread mid must still be a 3- or 4-field key."""
        with pytest.raises(DomainError, match=message):
            replay_trace(S, trace, P)

    def test_trace_replayed_under_other_params_rejected(self):
        # a Trace replays only under the Params it was recorded at; another
        # pair is rejected by name before any step is read
        P = Params(2, 3)
        S = maximal_systems_containing([Euclid(0, 1, 0)], P)[0]
        doc = certify_sms(S, P)
        with pytest.raises(DomainError, match=r"^trace recorded at \(p,q\) "
                           r"= \(2,3\), replayed at \(3,2\)$"):
            replay_trace(S, doc["trace"], Params(3, 2))
        assert len(replay_trace(S, doc["trace"], P)) == doc["derived"]

    @pytest.mark.parametrize("tamper,message", [
        ("dropped", "trace premise .* not established"),
        ("rule", "unknown trace rule 'shear'"),
        ("produced", "not a conclusion of rot-right"),
        ("premise-out-of-domain", "component index must be 0 or 1"),
        ("produced-out-of-domain", "component index must be 0 or 1"),
    ])
    def test_raw_trace_tampered(self, flagship_state, tamper, message):
        """The first step dropped, an unknown rule, a rot-right producing
        its a, and a rot-right with a slot off components 0 and 1, as a mid
        premise or as the c it produces."""
        steps = flagship_state.trace
        n = next(i for i, step in enumerate(steps) if step[0] == "rot-right")
        rule, (family, a, mids, c), produced = steps[n]
        off = (2,) + c[1:]
        tampered = {
            "dropped": steps[1:],
            "rule": [("shear",) + steps[0][1:]],
            "produced": steps[:n] + ((rule, (family, a, mids, c),
                                      model.canonical_key(a, P33)),),
            "premise-out-of-domain": steps[:n] + (
                (rule, (family, a, (off,) + mids[1:], c), produced),),
            "produced-out-of-domain": steps[:n] + (
                (rule, (family, a, mids, off),
                 model.canonical_key(off, P33)),),
        }[tamper]
        assert replay_trace(FLAGSHIP, Trace(steps[:n + 1], P33), P33)
        with pytest.raises(DomainError, match=message):
            replay_trace(FLAGSHIP, Trace(tampered, P33), P33)

    @pytest.mark.parametrize("slot", ["premise", "produced"])
    def test_raw_trace_unknown_family(self, flagship_state, slot):
        """A hand-built `Trace` whose rot-right has a tube slot of family
        "X", as a mid premise or as the c it produces: replaying the step
        raises Tube's error."""
        steps = flagship_state.trace
        n = next(i for i, step in enumerate(steps) if step[0] == "rot-right")
        rule, (family, a, mids, c), produced = steps[n]
        off = ("X", 0, 5, 0)
        step = {
            "premise": (rule, (family, a, (off,) + mids[1:], c), produced),
            "produced": (rule, (family, a, mids, off), ("X", 0, 2, 0)),
        }[slot]
        with pytest.raises(DomainError, match="tube family must be"):
            replay_trace(FLAGSHIP, Trace(steps[:n] + (step,), P33), P33)

    def test_trace_is_a_tuple_of_raw_steps(self, flagship_state):
        """A trace compares and hashes as the tuple of its steps, carries
        the Params it was recorded at, and survives a copy and a pickle."""
        trace = flagship_state.trace
        steps = tuple(trace)
        assert isinstance(trace, Trace) and len(trace) == len(steps) > 7
        assert trace == steps and steps == trace and hash(trace) == hash(steps)
        assert trace == Trace(steps, Params(2, 3)) and Trace((), P33) == ()
        assert trace != steps[:-1] and trace != list(steps)
        assert trace.P == P33
        for twin in (copy.deepcopy(trace), pickle.loads(pickle.dumps(trace))):
            assert type(twin) is Trace and twin == trace and twin.P == P33
        for rule, (family, a, mids, c), produced in trace:
            assert produced == model.canonical_key(produced, P33)
            assert produced in {model.canonical_key(u, P33)
                                for u in (a, *mids, c)}

    def test_non_canonical_lift_rejected(self, flagship_state):
        """A step whose produced key is another lift of the produced class
        fails the replay: produced keys are canonical."""
        trace = flagship_state.trace
        n = next(i for i, step in enumerate(trace) if step[0] == "rot-right")
        rule, tri, (comp, x, y) = trace[n]
        step = (rule, tri, (comp, x - 3, y + 3))
        assert replay_trace(FLAGSHIP, Trace(trace[:n + 1], P33), P33)
        with pytest.raises(DomainError, match="not a conclusion of rot-right"):
            replay_trace(FLAGSHIP, Trace(trace[:n] + (step,), P33), P33)

    def test_json_lines_shape(self, flagship_state):
        lines = list(trace_json_lines(flagship_state.trace))
        assert len(lines) == len(flagship_state.trace)
        doc = json.loads(lines[0])
        assert set(doc) == {"rule", "triangle", "produced"}
        assert set(doc["triangle"]) == {"a", "mids", "c"}


class TestCertification:
    def test_flagship_certifies(self, flagship_cert):
        assert flagship_cert["certified"] is True
        assert flagship_cert["inconclusive"] is False
        assert flagship_cert["hasEuclidean"] is True
        assert all(flagship_cert["targets"].values())
        assert flagship_cert["derived"] == 216
        assert flagship_cert["members"] == [
            "E(0,-1,2)", "E(0,0,1)", "E(0,1,0)",
            "E(1,0,2)", "E(1,1,1)", "E(1,2,0)"]

    def test_non_maximal_orthogonal_set_inconclusive(self):
        doc = certify_sms([Euclid(0, 1, 0)], P33)
        assert doc["certified"] is False
        assert doc["inconclusive"] is True
        assert doc["hasEuclidean"] is True

    def test_all_tube_set_reports_no_euclidean(self):
        doc = certify_sms([Tube("U", 0, 0, 0)], P33)
        assert doc["certified"] is False
        assert doc["inconclusive"] is False
        assert doc["hasEuclidean"] is False

    @pytest.mark.parametrize("S", [
        FLAGSHIP + (Euclid(0, 1, 1),),  # Hom(E(0,1,0), E(0,1,1)) != 0
        (Euclid(0, 1, 0), Tube("U", 0, 0, 2)),  # above the brick cap
    ], ids=["flagship-plus-one", "non-brick"])
    def test_non_orthogonal_set_is_domain_error(self, S):
        with pytest.raises(DomainError,
                           match="^set is not an orthogonal system of bricks$"):
            certify_sms(S, P33)


class TestParameterExtraction:
    def test_flagship_round_trip(self):
        out = extract_params(FLAGSHIP, P33)
        assert out["tList"] == [0, 1, 2]
        assert out["sList"] == [2, 1, 0]
        predicted = sorted(format_vertex(v) for v in out["predictedComp1"])
        actual = sorted(format_vertex(canonical(v, P33)) for v in FLAGSHIP
                        if canonical(v, P33).comp == 1)
        assert predicted == actual == ["E(1,0,2)", "E(1,1,1)", "E(1,2,0)"]

    def test_every_two_two_system_round_trips(self):
        P = Params(2, 2)
        for s in maximal_systems_containing([Euclid(0, 1, 0)], P):
            out = extract_params(s, P)
            predicted = {canonical(v, P) for v in out["predictedComp1"]}
            actual = {v for v in s
                      if isinstance(v, Euclid) and v.comp == 1}
            assert predicted == actual

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (2, 2), (2, 3), (2, 5),
                                     (3, 3), (3, 4), (4, 4)])
    def test_predicted_comp1_is_gap_corner(self, p, q):
        """An observed pattern, not a theorem of the paper: the predicted
        comp-1 member of gap r is E(1, t_r, s_r).  It also holds on all
        12,440 gaps of the systems through E(0,1,0) up to (5,5)."""
        P = Params(p, q)
        for s in maximal_systems_containing([Euclid(0, 1, 0)], P):
            out = extract_params(s, P)
            corners = [canonical(Euclid(1, t, s_), P)
                       for t, s_ in zip(out["tList"], out["sList"])]
            assert out["predictedComp1"] == corners, s

    def test_punctured_system_not_maximal(self):
        punctured = [v for v in FLAGSHIP if v != Euclid(0, 0, 1)]
        with pytest.raises(NotMaximal):
            extract_params(punctured, P33)

    def test_requires_euclidean_member(self):
        with pytest.raises(NoEuclideanMember):
            extract_params([Tube("U", 0, 0, 0)], P33)

    def test_non_orthogonal_set_is_domain_error(self):
        # before the check this failed late, as ParameterNotUnique
        with pytest.raises(DomainError) as exc:
            extract_params(FLAGSHIP + (Euclid(0, 1, 1),), P33)
        assert type(exc.value) is DomainError
        assert str(exc.value) == "set is not an orthogonal system of bricks"


def _raw_lift(v, P, l):
    """Another representative of v: (x - p*l, y + q*l), or the index plus
    l times the rank."""
    if isinstance(v, Euclid):
        return Euclid(v.comp, v.x - P.p * l, v.y + P.q * l)
    return Tube(v.family, v.level, v.idx + P.rank(v.family) * l, v.ht)


def _answer(query, S, P):
    try:
        return query(S, P)
    except DomainError as exc:
        return type(exc), str(exc)


class TestCanonicalBoundary:
    """Each public query canonicalizes its input once and its private
    helpers never again, so a set written as raw lifts, with duplicates and
    in reversed order, gets the answer of its canonical list.  Checked on
    every maximal (3,3) system through E(0,1,0) and each punctured variant:
    294 sets.  Time budget 30 s (about 4 s measured on a 2-core VM)."""

    QUERIES = {
        "is_orthogonal_system": is_orthogonal_system,
        "maximality": maximality,
        "witness_pool": witness_pool,
        "extract_params": extract_params,
        "biperp": biperp,
        "certify_sms": certify_sms,
    }

    def test_raw_lifts_give_the_canonical_answer(self):
        t0 = time.perf_counter()
        systems = maximal_systems_containing([Euclid(0, 1, 0)], P33)
        sets = systems + [S[:i] + S[i + 1:] for S in systems
                          for i in range(len(S))]
        for S in sets:
            assert canonical_set(S, P33) == S
            raw = [_raw_lift(v, P33, i % 5 - 2) for i, v in enumerate(S)]
            raw = (raw + [_raw_lift(v, P33, 1) for v in S[::2]])[::-1]
            for name, query in self.QUERIES.items():
                assert _answer(query, raw, P33) == _answer(query, S, P33), \
                    (name, S)
        assert time.perf_counter() - t0 < 30.0

    @pytest.mark.parametrize("call,message", [
        (lambda: certify_sms([Euclid(0, 1, 0)], (2, 3)),
         r"^P is not a Params: \(2, 3\)$"),
        (lambda: closure([Euclid(0, 1, 0)], (2, 3)),
         r"^P is not a Params: \(2, 3\)$"),
        (lambda: maximality([Euclid(0, 1, 0)], (2, 3)),
         r"^P is not a Params: \(2, 3\)$"),
        (lambda: biperp([Euclid(0, 1, 0)], (2, 3)),
         r"^P is not a Params: \(2, 3\)$"),
        (lambda: extract_params(FLAGSHIP, (3, 3)),
         r"^P is not a Params: \(3, 3\)$"),
        (lambda: certify_sms(["E(0,1,0)"], Params(2, 3)),
         r"^member 'E\(0,1,0\)' is not a vertex$"),
        (lambda: witness_pool([Euclid(0, 1, 0), (0, 0, 1)], P33),
         r"^member \(0, 0, 1\) is not a vertex$"),
        (lambda: is_orthogonal_system([None], P33),
         r"^member None is not a vertex$"),
        (lambda: closure(FLAGSHIP, P33, (-3, 3, -3, 3, 2)),
         r"^window is not a Window: \(-3, 3, -3, 3, 2\)$"),
    ], ids=["certify-params", "closure-params", "maximality-params",
            "biperp-params", "extract-params", "certify-string-member",
            "witness-tuple-member", "orthogonal-none-member",
            "closure-tuple-window"])
    def test_wrong_kind_is_domain_error(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()


FLAGSHIP_CANON = tuple(canonical(v, P33) for v in FLAGSHIP)
