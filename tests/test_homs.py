"""Stable Hom predicate and the region calculus behind supports."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    param_vertex_pair,
    params_strategy,
    sigma_x,
    sigma_y,
    transpose,
)
from arq2d import homs
from arq2d.homs import (
    EMPTY,
    PART_NAMES,
    All,
    BackwardCone,
    FiniteSet,
    ForwardCone,
    Intersection,
    QuasiCone,
    Rectangle,
    ResidueBand,
    TriangleArea,
    TubeResidueBand,
    TubeZone,
    Union,
    biperp,
    lsupp,
    omega_inv_region,
    part_of,
    rsupp,
    stable_hom_nonzero,
)
from arq2d.model import (
    Euclid,
    Params,
    Tube,
    Window,
    canonical,
    fundamental_domain,
    omega,
    omega_inv,
    tau,
    vertex_sort_key,
)
from arq2d.oracle import WindowSpec, brute_biperp, mutually_orthogonal
from arq2d.ortho import maximal_systems_containing, maximality, witness_pool


def quasi_simples(P):
    out = []
    for fam in ("U", "P"):
        for level in (0, 1):
            for j in range(P.rank(fam)):
                out.append(Tube(fam, level, j, 0))
    return out


class TestPredicateFixed:
    def test_euclid_same_component(self):
        P = Params(3, 3)
        X = Euclid(0, 0, 0)
        assert stable_hom_nonzero(X, X, P)
        assert stable_hom_nonzero(X, Euclid(0, 1, 0), P)
        assert stable_hom_nonzero(X, Euclid(0, 0, 1), P)
        assert not stable_hom_nonzero(X, Euclid(0, -1, 0), P)
        assert not stable_hom_nonzero(X, Euclid(0, 2, -1), P)
        # one full period along the x axis needs the y budget of one period
        assert stable_hom_nonzero(X, Euclid(0, 3, -3), P)

    def test_euclid_cross_component(self):
        P = Params(3, 3)
        X = Euclid(0, 0, 0)
        assert stable_hom_nonzero(X, Euclid(1, 0, 0), P)
        # cross-component cone opens toward negative x as y grows
        assert stable_hom_nonzero(X, Euclid(1, -3, 1), P)
        assert not stable_hom_nonzero(X, Euclid(1, 2, -1), P)
        assert not stable_hom_nonzero(X, Euclid(1, 3, 0), P)
        assert not stable_hom_nonzero(X, Euclid(1, 0, 3), P)

    def test_euclid_to_tube_levels(self):
        P = Params(3, 3)
        X = Euclid(0, 0, 0)
        # level-1 tubes receive from comp 0; level-0 tubes do not
        assert stable_hom_nonzero(X, Tube("U", 1, 0, 0), P)
        assert not stable_hom_nonzero(X, Tube("U", 0, 0, 0), P)
        assert stable_hom_nonzero(X, Tube("P", 1, 0, 0), P)
        assert stable_hom_nonzero(X, Tube("U", 1, 2, 1), P)
        assert not stable_hom_nonzero(X, Tube("U", 1, 2, 0), P)

    def test_tube_to_euclid(self):
        P = Params(3, 3)
        T = Tube("U", 0, 0, 0)
        assert stable_hom_nonzero(T, Euclid(0, 5, 0), P)
        assert not stable_hom_nonzero(T, Euclid(0, 5, 1), P)
        assert not stable_hom_nonzero(T, Euclid(1, 5, 0), P)

    def test_within_tube(self):
        P = Params(2, 4)
        a = Tube("U", 0, 1, 1)
        assert stable_hom_nonzero(a, a, P)
        assert stable_hom_nonzero(a, Tube("U", 0, 1, 2), P)
        assert stable_hom_nonzero(a, Tube("U", 0, 2, 3), P)
        assert not stable_hom_nonzero(a, Tube("U", 0, 3, 0), P)
        assert stable_hom_nonzero(a, Tube("U", 1, 1, 0), P)

    def test_cross_family_zero(self):
        P = Params(3, 4)
        for lu in (0, 1):
            for lp in (0, 1):
                assert not stable_hom_nonzero(
                    Tube("U", lu, 0, 1), Tube("P", lp, 0, 1), P)
                assert not stable_hom_nonzero(
                    Tube("P", lp, 0, 1), Tube("U", lu, 0, 1), P)


class TestEquivariance:
    @given(param_vertex_pair())
    def test_serre_duality(self, pvw):
        P, v, w = pvw
        assert stable_hom_nonzero(v, w, P) == \
            stable_hom_nonzero(w, omega(v, P), P)

    @given(param_vertex_pair())
    def test_omega_equivariance(self, pvw):
        P, v, w = pvw
        assert stable_hom_nonzero(v, w, P) == \
            stable_hom_nonzero(omega(v, P), omega(w, P), P)

    @given(param_vertex_pair())
    def test_tau_equivariance(self, pvw):
        P, v, w = pvw
        assert stable_hom_nonzero(v, w, P) == \
            stable_hom_nonzero(tau(v, P), tau(w, P), P)

    @given(param_vertex_pair())
    def test_canonical_invariance(self, pvw):
        P, v, w = pvw
        assert stable_hom_nonzero(v, w, P) == \
            stable_hom_nonzero(canonical(v, P), canonical(w, P), P)


class TestTranspose:
    """The transpose T takes the quiver at (p,q) to the one at (q,p), so it
    preserves the Hom predicate."""

    @given(param_vertex_pair())
    def test_hom_predicate_commutes(self, pvw):
        # the pairs cover (p,q) up to (5,5) and include non-bricks
        P, v, w = pvw
        assert stable_hom_nonzero(transpose(v), transpose(w),
                                  Params(P.q, P.p)) == \
            stable_hom_nonzero(v, w, P)

    def test_hom_predicate_commutes_on_a_grid(self):
        """Every ordered pair of a grid at (2,3): Euclidean vertices with
        |x|, |y| <= 3 and tubes with |idx| <= 3 up to height 4."""
        P, PT = Params(2, 3), Params(3, 2)
        grid = [Euclid(c, x, y) for c in (0, 1) for x in range(-3, 4)
                for y in range(-3, 4)] + [
            Tube(f, l, j, h) for f in "UP" for l in (0, 1)
            for j in range(-3, 4) for h in range(5)]
        pairs = [(v, transpose(v)) for v in grid]
        for v, tv in pairs:
            for w, tw in pairs:
                assert stable_hom_nonzero(tv, tw, PT) == \
                    stable_hom_nonzero(v, w, P), (v, w)


class TestShiftSymmetry:
    """The shifts sigma_x and sigma_y preserve the Hom predicate; tau is the
    inverse of their composite.  This is a symmetry of the combinatorial
    model found by running the engine, not a claim from the paper.  The
    pairs cover (p,q) up to (5,5), and tube heights up to 6 include
    non-bricks."""

    @pytest.mark.parametrize("shift", [sigma_x, sigma_y],
                             ids=["sigma_x", "sigma_y"])
    @given(pvw=param_vertex_pair())
    def test_hom_predicate_invariant(self, shift, pvw):
        P, v, w = pvw
        assert stable_hom_nonzero(shift(v), shift(w), P) == \
            stable_hom_nonzero(v, w, P)

    @given(pvw=param_vertex_pair())
    def test_tau_is_the_inverse_composite(self, pvw):
        P, v, _ = pvw
        assert canonical(sigma_x(sigma_y(tau(v, P))), P) == canonical(v, P)

    @pytest.mark.parametrize("shift", [sigma_x, sigma_y],
                             ids=["sigma_x", "sigma_y"])
    @pytest.mark.parametrize("p,q", [(3, 3), (4, 4), (3, 5)])
    def test_shifted_anchor_gives_the_shifted_systems(self, shift, p, q):
        # compared as sets: the shift moves tube indices, so it can change
        # the vertex_sort_key order of the members and of the systems
        P = Params(p, q)
        anchor = Euclid(0, 1, 0)
        shifted = {frozenset(canonical(shift(v), P) for v in S)
                   for S in maximal_systems_containing([anchor], P)}
        found = {frozenset(S)
                 for S in maximal_systems_containing([shift(anchor)], P)}
        assert found == shifted


class TestTallTube:
    """A tube vertex of any height has a support of bounded size: rsupp
    keeps one e0 residue per residue class."""

    @pytest.mark.parametrize("v", [Tube("U", 0, 1, 10**9),
                                   Tube("P", 1, 2, 10**9)],
                             ids=["TU", "TP"])
    def test_support_of_a_tall_vertex(self, v):
        P = Params(3, 4)
        start = time.perf_counter()
        r, l = rsupp(v, P), lsupp(v, P)
        assert time.perf_counter() - start < 1.0
        # the source's e0 band sits in rsupp on level 0, in lsupp on level 1
        band = (r if v.level == 0 else l).parts["e0"].describe(P)
        assert band["residues"] == list(range(P.rank(v.family)))
        probes = Window.periods(P, 2).vertices()
        probes += [Tube(f, level, j, h) for f in "UP" for level in (0, 1)
                   for j in range(P.rank(f))
                   for h in (10**9 - 1, 10**9, 10**9 + 1, 3 * 10**9)]
        for Y in probes:
            assert r.contains(Y) == stable_hom_nonzero(v, Y, P), Y
            assert l.contains(Y) == stable_hom_nonzero(Y, v, P), Y


class TestQuasiSimpleCount:
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 3), (3, 4)])
    def test_two_each_direction(self, p, q):
        P = Params(p, q)
        qs = quasi_simples(P)
        for x in range(p):
            for y in range(q):
                for comp in (0, 1):
                    X = Euclid(comp, x, y)
                    hits_out = [Z for Z in qs if stable_hom_nonzero(X, Z, P)]
                    hits_in = [Z for Z in qs if stable_hom_nonzero(Z, X, P)]
                    assert len(hits_out) == 2, (X, hits_out)
                    assert len(hits_in) == 2, (X, hits_in)
                    # one hit per family, on opposite levels
                    assert {z.family for z in hits_out} == {"U", "P"}
                    assert {z.family for z in hits_in} == {"U", "P"}


class TestBandRows:
    """A band row lists the candidates orthogonal to one vertex, computed
    from closed forms of the Hom predicate with no call to it."""

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("q", range(1, 7))
    def test_rows_match_oracle(self, p, q):
        """Every row of three bands, and the rows of Euclidean vertices off
        the band and of tall tubes, against the oracle over the band."""
        P = Params(p, q)
        for ax in (0, 1 - p, p + 2):
            band = homs._Band(P, ax)
            cand, n = band.cand, len(band.cand)
            want = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if mutually_orthogonal(cand[i], cand[j], P):
                        want[i] |= 1 << j
                        want[j] |= 1 << i
            assert [band.row(i, band.full) for i in range(n)] == want
            assert band.ortho == want
            away = [Euclid(c, ax + dx, y) for c in (0, 1)
                    for dx in (-3 * p, -p - 1, p + 1, 2 * p + 1)
                    for y in range(q)]
            tall = [Tube(f, l, j, h) for f in "UP" for l in (0, 1)
                    for j in range(P.rank(f))
                    for h in range(P.rank(f) - 1, P.rank(f) + 2)]
            for v in away + tall:
                assert band.orthogonal(v) == sum(
                    1 << j for j, w in enumerate(cand)
                    if mutually_orthogonal(v, w, P)), v

    def test_cold_maximality_makes_no_hom_call(self, monkeypatch):
        def no_hom(*args):
            raise AssertionError("Hom call from a band table")

        monkeypatch.setattr(homs, "stable_hom_nonzero", no_hom)
        homs._band.cache_clear()
        P = Params(40, 40)
        report = maximality([Euclid(0, 1, 0)], P)
        band = homs._band(P, 1)
        assert [band.cand[i] for i, row in enumerate(band.ortho)
                if row is not None] == [Euclid(0, 1, 0)]
        assert report.witnesses == tuple(
            band.cand[i] for i in homs._bits(band.ortho[band.index[
                Euclid(0, 1, 0)]]))
        assert not report.is_maximal
        homs._band.cache_clear()

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (4, 2)])
    def test_rows_commute_with_transpose(self, p, q):
        """T maps the row of v at (p,q) onto the row of T(v) at (q,p), as
        vertex sets on the candidates both bands hold.  A Euclidean v is
        the anchor of its image's band, whose row is then complete."""
        P, PT = Params(p, q), Params(q, p)
        for ax in (0, 2):
            band = homs._Band(P, ax)
            image = [canonical(transpose(w), PT) for w in band.cand]
            for i, v in enumerate(band.cand):
                tv = image[i]
                anchor = (tv if isinstance(tv, Euclid)
                          else canonical(transpose(Euclid(0, ax, 0)), PT))
                other = homs._band(PT, anchor.x)
                row = {image[j] for j in homs._bits(band.row(i, band.full))}
                rowT = {other.cand[j] for j in homs._bits(
                    other.orthogonal(tv))}
                assert rowT & set(image) == row & set(other.cand), v

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4)])
    def test_witness_queries_commute_with_transpose(self, p, q):
        P, PT = Params(p, q), Params(q, p)

        def T(S):
            return [canonical(transpose(v), PT) for v in S]

        seeds = []
        for S in maximal_systems_containing([Euclid(0, 1, 0)], P):
            seeds += [S] + [S[:i] + S[i + 1:] for i in range(len(S))]
        homs._band.cache_clear()
        for S in seeds:
            pool = witness_pool(S, P)
            assert sorted(T(pool), key=vertex_sort_key) == \
                witness_pool(T(S), PT), S
            report, image = maximality(S, P), maximality(T(S), PT)
            assert image.is_maximal == report.is_maximal
            assert set(image.witnesses) == set(T(report.witnesses))
            assert image.homogeneous_blocked == report.homogeneous_blocked


class TestRegionCoherence:
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2)])
    def test_supports_match_predicate(self, p, q):
        P = Params(p, q)
        window = WindowSpec.periods(P, 2)
        probes = window.vertices()
        for X in fundamental_domain(P):
            r = rsupp(X, P)
            l = lsupp(X, P)
            for Y in probes:
                assert r.contains(Y) == stable_hom_nonzero(X, Y, P), (X, Y)
                assert l.contains(Y) == stable_hom_nonzero(Y, X, P), (X, Y)

    def test_lsupp_is_shifted_rsupp(self):
        P = Params(3, 2)
        window = WindowSpec.periods(P, 2)
        for X in (Euclid(0, 1, 1), Euclid(1, 0, 0), Tube("U", 0, 1, 0),
                  Tube("P", 1, 2, 1)):
            l = lsupp(X, P)
            r = rsupp(X, P)
            for Y in window.vertices():
                assert l.contains(Y) == r.contains(omega(Y, P))

    def test_region_images_match_vertex_omega(self):
        P = Params(3, 2)
        window = WindowSpec.periods(P, 2).vertices()
        for X in fundamental_domain(P):
            for rep in (rsupp(X, P), biperp([X], P)):
                for name in PART_NAMES:
                    r = rep.parts[name]
                    inv = omega_inv_region(r, P)
                    for Y in window:
                        assert inv.contains(Y, P) == r.contains(omega(Y, P), P)

    @pytest.mark.parametrize("p,q", [(2, 3), (1, 3), (2, 2), (2, 5), (3, 4),
                                     (4, 3), (5, 5)])
    def test_biperp_window_equals_brute(self, p, q):
        """Sets with a Euclidean member read their bi-perp from the anchor
        band's table; it must agree with a brute-force sweep of a window
        around the band whatever filled the table, cold and then warm."""
        P = Params(p, q)
        sets = _random_biperp_sets(random.Random(100 * p + q), P)
        homs._band.cache_clear()
        answers = [[biperp(S, P) for S in sets] for _ in ("cold", "warm")]
        assert [r.to_json() for r in answers[0]] == \
            [r.to_json() for r in answers[1]]
        for S, rep in zip(sets, answers[0]):
            ax = min((canonical(v, P) for v in S if isinstance(v, Euclid)),
                     key=vertex_sort_key).x
            window = WindowSpec(P, ax - 2 * p, ax + 2 * p, -q, 2 * q - 1,
                                max(p, q))
            expected = set(brute_biperp(S, window))
            got = {v for v in window.vertices() if rep.contains(v)}
            assert got == expected, S
            for region in rep.parts.values():
                if isinstance(region, FiniteSet):
                    assert all(window.contains(v) for v in region.vertices), S


def _random_biperp_sets(rng, P):
    """Multi-member sets: {E(0,0,0), TU(1,1,0)}, orthogonal sets grown
    greedily with the first Euclidean member on comp 0 and on comp 1,
    random (mostly non-orthogonal) sets, and sets with a member outside
    the anchor band or a tube member above the brick cap."""

    def vertex(comps=(0, 1)):
        if rng.random() < 0.6:
            return Euclid(rng.choice(comps), rng.randrange(-2 * P.p, 2 * P.p),
                          rng.randrange(-P.q, 2 * P.q))
        f = rng.choice("UP")
        r = P.rank(f)
        return Tube(f, rng.randrange(2), rng.randrange(-r, 2 * r),
                    rng.randrange(r + 1))

    sets = [[Euclid(0, 0, 0), Tube("U", 1, 1, 0)]]
    for comps in ((0, 1), (1,)) * 3:
        S = [canonical(Euclid(comps[0], rng.randrange(P.p), 0), P)]
        for _ in range(12):
            v = canonical(vertex(comps), P)
            if v not in S and all(mutually_orthogonal(v, u, P) for u in S):
                S.append(v)
        sets.append(S)
    sets += [[vertex() for _ in range(rng.randint(2, 5))] for _ in range(6)]
    sets += [[Euclid(1, 0, 1), vertex((1,))] for _ in range(2)]
    sets.append([Euclid(0, 0, 0), Euclid(0, 3 * P.p, 0), Euclid(1, -3 * P.p, 1)])
    sets.append([Euclid(1, 0, 0), Tube("U", 0, 0, P.q - 1), Tube("P", 1, 0, P.p)])
    return [S for S in sets
            if len({canonical(v, P) for v in S}) > 1
            and any(isinstance(v, Euclid) for v in S)]


def _random_tube_sets(rng, P, n):
    """n sets of 1-3 tube vertices, raw indices, heights up to the rank."""

    def tube():
        f = rng.choice("UP")
        r = P.rank(f)
        return Tube(f, rng.randrange(2), rng.randrange(-r, 2 * r),
                    rng.randrange(r + 1))

    return [[tube() for _ in range(rng.randint(1, 3))] for _ in range(n)]


class TestOmegaInvRegion:
    """omega_inv_region maps every region kind that biperp returns: a
    FiniteSet vertex by vertex and an Intersection member by member, so
    the image holds omega_inv(v) exactly when the region holds v."""

    @staticmethod
    def assert_image(r, P, probes):
        image = omega_inv_region(r, P)
        for v in probes:
            assert image.contains(omega_inv(v, P), P) == r.contains(v, P), \
                (r, v)

    @pytest.mark.parametrize("S,part,kind", [
        ([Euclid(0, 0, 0), Tube("U", 1, 1, 0)], "e0", FiniteSet),
        ([Tube("U", 0, 0, 0), Tube("P", 0, 0, 0)], "u0", Intersection),
    ], ids=["finite-set", "intersection"])
    def test_reproducers(self, S, part, kind):
        # both raised TypeError("unknown region ...")
        P = Params(3, 3)
        r = biperp(S, P).parts[part]
        assert type(r) is kind
        self.assert_image(r, P, WindowSpec.periods(P, 2).vertices())

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 3), (4, 3)])
    def test_random_biperp_parts(self, p, q):
        P = Params(p, q)
        probes = WindowSpec.periods(P, 2).vertices()
        rng = random.Random(30 * p + q)
        sets = _random_biperp_sets(rng, P) + _random_tube_sets(rng, P, 20)
        kinds = set()
        for S in sets:
            for r in biperp(S, P).parts.values():
                kinds.add(type(r))
                self.assert_image(r, P, probes)
        assert {FiniteSet, Intersection} <= kinds


class TestTubeOnlyBiperp:
    """A set without a Euclidean member intersects its members' reports.
    A member above the brick cap (ht > rank - 2) meets every Euclidean
    vertex, so its report lists its own family's bricks."""

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 3), (4, 3)])
    def test_window_equals_brute(self, p, q):
        P = Params(p, q)
        window = WindowSpec.periods(P, 2)
        probes = window.vertices()
        rng = random.Random(20 * p + q)
        sets = [[], [Tube("U", 0, 1, 0)], [Tube("U", 0, 0, q - 1)],
                [Tube("P", 1, 1, p)], [Tube("U", 1, 0, q), Tube("P", 0, 2, 0)]]
        sets += _random_tube_sets(rng, P, 40)
        for S in sets:
            rep = biperp(S, P)
            got = [v for v in probes if rep.contains(v)]
            assert got == brute_biperp(S, window), S

    def test_non_brick_member_excludes_its_hom_targets(self):
        P = Params(4, 3)
        X, Y = Tube("P", 1, 3, 4), Tube("P", 0, 0, 2)
        assert stable_hom_nonzero(X, Y, P)
        rep = biperp([X], P)
        assert not rep.contains(Y)
        assert rep.to_json()["parts"]["e0"] == {"kind": "empty"}


class TestSingleBrickBiperpShape:
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 3), (3, 4)])
    def test_euclid_slice_counts(self, p, q):
        P = Params(p, q)
        X = Euclid(0, 1, 0)
        rep = biperp([X], P)
        classes = {0: set(), 1: set()}
        for comp in (0, 1):
            for x in range(1 - 3 * p, 1 + 3 * p):
                for y in range(q):
                    v = Euclid(comp, x, y)
                    if rep.contains(v):
                        classes[comp].add(v)
        assert len(classes[0]) == (p - 1) * (q - 1)
        assert len(classes[1]) == p * q

    def test_report_serialises(self):
        P = Params(3, 3)
        doc = biperp([Euclid(0, 1, 0)], P).to_json()
        assert set(doc["parts"]) == {"e0", "e1", "u0", "u1", "p0", "p1"}
        assert isinstance(doc["homogeneous_meets"], bool)
        assert part_of(Tube("P", 1, 0, 0)) == "p1"


class TestDescribe:
    """One region of each of the 14 kinds that supports JSON reports, with
    the describe(P) output it has at (3, 4)."""

    @pytest.mark.parametrize("region,doc", [
        (EMPTY, {"kind": "empty"}),
        (All("u1"), {"kind": "all", "part": "u1"}),
        (FiniteSet(frozenset({Tube("U", 0, 1, 0), Euclid(1, 2, 3)})),
         {"kind": "set", "vertices": ["E(1,2,3)", "TU(0,1,0)"]}),
        (ForwardCone(0, 1, 2),
         {"kind": "forward_cone", "comp": 0, "x": 1, "y": 2}),
        (BackwardCone(1, -1, 0),
         {"kind": "backward_cone", "comp": 1, "x": -1, "y": 0}),
        (Rectangle(1, -1, 1, 1, 3),
         {"kind": "rectangle", "comp": 1, "x": [-1, 1], "y": [1, 3]}),
        (ResidueBand("x", 0, frozenset({4, 5})),
         {"kind": "x_band", "comp": 0, "residues": [1, 2]}),
        (ResidueBand("y", 1, frozenset({1, 5, 6})),
         {"kind": "y_band", "comp": 1, "residues": [1, 2]}),
        (QuasiCone("U", 1, 2),
         {"kind": "quasi_cone", "family": "U", "level": 1, "idx": 2}),
        (TriangleArea("P", 0, 1, 1),
         {"kind": "triangle", "family": "P", "level": 0, "idx": 1,
          "apex_ht": 1}),
        (TubeZone("U", 0, 1, 3, 3, None),
         {"kind": "tube_zone", "family": "U", "level": 0, "idx": [1, 3],
          "top": [3, None]}),
        (TubeZone("P", 1, None, 2, 2, 4),
         {"kind": "tube_zone", "family": "P", "level": 1, "idx": [None, 2],
          "top": [2, 4]}),
        (TubeResidueBand("P", 1, frozenset({0, 4}), frozenset({2})),
         {"kind": "tube_residue_band", "family": "P", "level": 1,
          "idx_residues": [0, 1], "top_residues": [2]}),
        (Union((TriangleArea("U", 0, 1, 0),
                TubeResidueBand("U", 0, frozenset({3}), frozenset({3})))),
         {"kind": "union", "members": [
             {"kind": "triangle", "family": "U", "level": 0, "idx": 1,
              "apex_ht": 0},
             {"kind": "tube_residue_band", "family": "U", "level": 0,
              "idx_residues": [3], "top_residues": [3]}]}),
        (Intersection((QuasiCone("P", 1, 0), All("p1"))),
         {"kind": "intersection", "members": [
             {"kind": "quasi_cone", "family": "P", "level": 1, "idx": 0},
             {"kind": "all", "part": "p1"}]}),
    ], ids=lambda x: "" if isinstance(x, dict) else type(x).__name__)
    def test_pinned(self, region, doc):
        assert region.describe(Params(3, 4)) == doc


@st.composite
def _tube_probe(draw):
    """(P, v, family, level): a tube vertex, tall ones included, and most
    often its own family and level."""
    P = draw(params_strategy(1, 5))
    v = Tube(draw(st.sampled_from("UP")), draw(st.integers(0, 1)),
             draw(st.integers(-12, 12)), draw(st.integers(0, 12)))
    if draw(st.integers(0, 3)):
        return P, v, v.family, v.level
    return P, v, draw(st.sampled_from("UP")), draw(st.integers(0, 1))


def _lift_search(region, v, P, holds):
    """Brute force: v is on the region's family and level, and some lift
    i' = idx + rank*m with |m| <= 40 passes holds(i', ht).  Bounds and
    indices stay within 12 of 0 and heights at most 12, so any lift that
    meets the bounds has such an m."""
    r = P.rank(v.family)
    return (v.family, v.level) == (region.family, region.level) and any(
        holds(v.idx + r * m, v.ht) for m in range(-40, 41))


# None (an infinite bound) as one value in 26, not one draw in two
_bound = st.sampled_from([None, *range(-12, 13)])


class TestTubeIntervalRegions:
    """QuasiCone, TriangleArea and TubeZone hold a tube vertex exactly
    when a direct search finds a lift that meets the bounds their
    docstrings state."""

    @settings(max_examples=80)
    @given(_tube_probe(), st.integers(-12, 12))
    def test_quasi_cone(self, probe, idx):
        P, v, family, level = probe
        region = QuasiCone(family, level, idx)
        assert region.contains(v, P) == _lift_search(
            region, v, P, lambda i, ht: i <= idx <= i + ht)

    @settings(max_examples=80)
    @given(_tube_probe(), st.integers(-12, 12), st.integers(-3, 12))
    def test_triangle_area(self, probe, idx, apex_ht):
        P, v, family, level = probe
        region = TriangleArea(family, level, idx, apex_ht)
        assert region.contains(v, P) == _lift_search(
            region, v, P, lambda i, ht: idx <= i and i + ht <= idx + apex_ht)

    @settings(max_examples=150)
    @example((Params(2, 3), Tube("U", 0, 7, 9), "U", 0),
             (None, None, None, None))
    @given(_tube_probe(), st.tuples(_bound, _bound, _bound, _bound))
    def test_tube_zone(self, probe, bounds):
        P, v, family, level = probe
        lo, hi, top_lo, top_hi = bounds

        def holds(i, ht):
            return ((lo is None or lo <= i) and (hi is None or i <= hi)
                    and (top_lo is None or top_lo <= i + ht)
                    and (top_hi is None or i + ht <= top_hi))

        region = TubeZone(family, level, lo, hi, top_lo, top_hi)
        assert region.contains(v, P) == _lift_search(region, v, P, holds)
