"""Orthogonal-system predicates, triangle enumeration, maximal extension."""

import gc
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arq2d
from conftest import transpose
from arq2d import homs
from arq2d.closure import extract_params
from arq2d.homs import PART_NAMES, part_of
from arq2d.model import (
    DomainError,
    Euclid,
    HeightOutOfRange,
    Params,
    Tube,
    canonical,
    canonical_set,
    is_brick_candidate,
    vertex_sort_key,
)
from arq2d.oracle import (
    WindowSpec,
    _brute_orthogonal_subsets,
    _maximal_cliques,
    brute_biperp,
    exhaustive_max_ortho,
    mutually_orthogonal,
)
from arq2d.ortho import (
    MaximalityReport,
    NoEuclideanMember,
    _branches,
    _cliques,
    _maximal,
    enumerate_ortho_on_paired,
    enumerate_ortho_on_triangle,
    enumeration_report,
    euclidean_ortho_check,
    is_orthogonal_system,
    maximal_systems_containing,
    maximality,
    paired_pool,
    triangle_pool,
    witness_pool,
)


class TestPredicates:
    def test_orthogonal_examples(self):
        P = Params(3, 3)
        assert is_orthogonal_system([], P)
        assert is_orthogonal_system([Euclid(0, 1, 0)], P)
        assert is_orthogonal_system([Euclid(0, 1, 0), Euclid(0, 0, 1)], P)
        # forward hom from (1,0) to (1,1) breaks orthogonality
        assert not is_orthogonal_system([Euclid(0, 1, 0), Euclid(0, 1, 1)], P)
        # non-brick tube vertex disqualifies the set outright
        assert not is_orthogonal_system([Tube("U", 0, 0, 2)], P)

    @given(st.integers(1, 4), st.integers(1, 4),
           st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                    min_size=0, max_size=4))
    @settings(max_examples=150)
    def test_band_check_matches_pairwise(self, p, q, coords):
        P = Params(p, q)
        members = [Euclid(0, x, y) for x, y in coords]
        assert euclidean_ortho_check(members, P) == \
            is_orthogonal_system(members, P)

    def test_band_check_rejects_mixed_input(self):
        P = Params(2, 2)
        with pytest.raises(DomainError):
            euclidean_ortho_check([Euclid(0, 0, 0), Tube("U", 0, 0, 0)], P)
        with pytest.raises(DomainError):
            euclidean_ortho_check([Euclid(0, 0, 0), Euclid(1, 0, 0)], P)


class TestTrianglePools:
    def test_pool_size_is_triangular(self):
        P = Params(2, 5)
        for h in range(4):
            pool = triangle_pool("U", 0, 0, h, P)
            assert len(pool) == (h + 1) * (h + 2) // 2
            assert all(t.ht <= h for t in pool)

    def test_height_cap(self):
        P = Params(2, 3)
        with pytest.raises(HeightOutOfRange):
            triangle_pool("U", 0, 0, 2, P)
        with pytest.raises(HeightOutOfRange):
            paired_pool("U", 1, 0, 3, P)

    def test_unknown_pairing_kind(self):
        with pytest.raises(DomainError):
            paired_pool("U", 4, 0, 1, Params(2, 5))


class TestTriangleCounts:
    """Frozen enumeration on a rank-5 tube; heights 0 through 3."""

    P = Params(2, 5)

    def test_height_zero(self):
        assert len(enumerate_ortho_on_triangle("U", 0, 0, 0, self.P)) == 1

    def test_height_one_all_systems(self):
        systems = enumerate_ortho_on_triangle("U", 0, 0, 1, self.P)
        rep = enumeration_report(systems)
        assert rep["count"] == 4
        assert rep["byCardinality"] == {"1": 3, "2": 1}

    def test_height_two_pairs_and_triples(self):
        systems = enumerate_ortho_on_triangle("U", 0, 0, 2, self.P)
        rep = enumeration_report(systems)
        assert rep["byCardinality"]["2"] == 6
        assert rep["byCardinality"]["3"] == 1

    def test_height_three_maximal(self):
        systems = enumerate_ortho_on_triangle("U", 0, 0, 3, self.P,
                                              maximal_only=True)
        rep = enumeration_report(systems)
        assert rep["count"] == 9
        assert rep["byCardinality"] == {"2": 2, "3": 6, "4": 1}

    def test_negative_height_is_empty(self):
        assert enumerate_ortho_on_triangle("U", 0, 0, -1, self.P) == []
        assert enumerate_ortho_on_paired("U", 1, 0, -1, self.P) == []


class TestPairedCardinality:
    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", [1, 2, 3])
    def test_maximal_systems_have_height_plus_one(self, rank, kind):
        P = Params(2, rank)
        for h in range(rank - 1):
            systems = enumerate_ortho_on_paired("U", kind, 0, h, P,
                                                maximal_only=True)
            assert systems, (rank, kind, h)
            assert {len(s) for s in systems} == {h + 1}

    def test_catalan_counts_kind_one(self):
        P = Params(2, 6)
        counts = [len(enumerate_ortho_on_paired("U", 1, 0, h, P,
                                                maximal_only=True))
                  for h in range(5)]
        assert counts == [1, 2, 5, 14, 42]


class TestMaximality:
    def test_single_euclid_not_maximal(self):
        P = Params(2, 2)
        rep = maximality([Euclid(0, 1, 0)], P)
        assert not rep.is_maximal
        assert rep.homogeneous_blocked
        assert len(rep.witnesses) == 9

    def test_tube_only_set_never_certified_maximal(self):
        P = Params(2, 2)
        rep = maximality([Tube("U", 0, 0, 0)], P)
        assert not rep.is_maximal
        assert not rep.homogeneous_blocked
        assert rep.witnesses == ()
        assert witness_pool([Tube("U", 0, 0, 0)], P) == []

    def test_part_names_checked_before_tube_only_shortcut(self):
        P = Params(2, 2)
        for S in ([Tube("U", 0, 0, 0)], [Euclid(0, 1, 0)]):
            with pytest.raises(DomainError, match="unknown part zz"):
                witness_pool(S, P, ("zz",))
            with pytest.raises(DomainError, match="unknown part zz"):
                maximality(S, P, ("e0", "zz"))

    def test_empty_parts_rejected(self):
        # witness_pool and maximality: TestBandTable, on every seed
        with pytest.raises(DomainError,
                           match="^parts must name at least one part$"):
            maximal_systems_containing([Euclid(0, 1, 0)], Params(3, 3), ())

    def test_non_orthogonal_set_not_maximal(self):
        # its witness pool is empty, since a member only shrinks the pool
        P = Params(3, 3)
        S = [Euclid(0, 1, 0), Euclid(0, -1, 2), Euclid(0, 0, 1),
             Euclid(1, -1, 3), Euclid(1, 0, 2), Euclid(1, 1, 1),
             Euclid(0, 1, 1)]
        assert maximality(S, P) == MaximalityReport(False, (), True)
        assert maximality(S[:-1], P) == MaximalityReport(True, (), True)

    def test_full_system_is_maximal(self):
        P = Params(2, 2)
        systems = maximal_systems_containing([Euclid(0, 1, 0)], P)
        for s in systems:
            rep = maximality(s, P)
            assert rep.is_maximal
            assert rep.witnesses == ()


class TestMaximalExtension:
    def test_counts_at_two_two(self):
        P = Params(2, 2)
        systems = maximal_systems_containing([Euclid(0, 1, 0)], P)
        rep = enumeration_report(systems)
        assert rep["count"] == 5
        assert rep["byCardinality"] == {"4": 5}

    def test_euclid_only_counts_at_three_three(self):
        P = Params(3, 3)
        systems = maximal_systems_containing(
            [Euclid(0, 1, 0)], P, parts=frozenset({"e0", "e1"}))
        rep = enumeration_report(systems)
        assert rep["count"] == 15
        assert rep["byCardinality"] == {"2": 2, "4": 12, "6": 1}

    def test_systems_are_orthogonal_and_contain_seed(self):
        P = Params(2, 3)
        seed = canonical(Euclid(0, 0, 0), P)
        for s in maximal_systems_containing([seed], P):
            assert seed in s
            assert is_orthogonal_system(s, P)

    def test_maximal_seed_is_its_own_extension(self):
        # the (3,3) flagship leaves no witness, so the pool is empty
        P = Params(3, 3)
        S = canonical_set([Euclid(0, 1, 0), Euclid(0, -1, 2), Euclid(0, 0, 1),
                           Euclid(1, -1, 3), Euclid(1, 0, 2), Euclid(1, 1, 1)],
                          P)
        assert maximal_systems_containing(S, P) == [S]

    def test_requires_euclidean_member(self):
        P = Params(2, 2)
        with pytest.raises(NoEuclideanMember):
            maximal_systems_containing([Tube("U", 0, 0, 0)], P)

    def test_rejects_non_orthogonal_seed(self):
        P = Params(3, 3)
        with pytest.raises(DomainError):
            maximal_systems_containing(
                [Euclid(0, 1, 0), Euclid(0, 1, 1)], P)


class TestAgainstOracle:
    """The bitset clique search against the oracle's naive Bron-Kerbosch."""

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
    @pytest.mark.parametrize("parts", [None, frozenset({"e0", "e1"})])
    @pytest.mark.parametrize("anchor", [Euclid(0, 1, 0), Euclid(1, 0, 2)])
    def test_anchored_systems(self, p, q, parts, anchor):
        self.check_anchored(Params(p, q), parts, anchor)

    @pytest.mark.parametrize("anchor", [Euclid(0, 1, 0), Euclid(1, 0, 2)])
    def test_anchored_systems_four_four(self, anchor):
        """429 systems; the oracle takes about 0.5 s per anchor."""
        self.check_anchored(Params(4, 4), None, anchor)

    @staticmethod
    def check_anchored(P, parts, anchor):
        fast = maximal_systems_containing([anchor], P, parts=parts)
        slow = exhaustive_max_ortho(P, anchor, parts)["systems"]
        assert {tuple(s) for s in fast} == {tuple(s) for s in slow}
        assert len(fast) == len(slow)

    @pytest.mark.parametrize("kind", [None, 1, 2, 3])
    def test_triangle_and_paired_areas(self, kind):
        P = Params(2, 5)
        for h in range(4):
            if kind is None:
                pool = triangle_pool("U", 0, 1, h, P)
                fast = enumerate_ortho_on_triangle("U", 0, 1, h, P,
                                                   maximal_only=True)
            else:
                pool = paired_pool("U", kind, 1, h, P)
                fast = enumerate_ortho_on_paired("U", kind, 1, h, P,
                                                 maximal_only=True)
            slow = _maximal_cliques(pool, P)
            assert {tuple(s) for s in fast} == {tuple(s) for s in slow}
            assert len(fast) == len(slow)

    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
    def test_all_systems_on_areas(self, rank):
        """The all-systems branch, in both families, against the oracle's
        depth-first subsets of the same pool, order included."""
        for family, P in (("U", Params(2, rank)), ("P", Params(rank, 2))):
            for kind in (None, 1, 2, 3):
                for h in range(rank - 1):
                    for idx in (1, rank - 1):
                        if kind is None:
                            pool = triangle_pool(family, 0, idx, h, P)
                            fast = enumerate_ortho_on_triangle(
                                family, 0, idx, h, P)
                        else:
                            pool = paired_pool(family, kind, idx, h, P)
                            fast = enumerate_ortho_on_paired(
                                family, kind, idx, h, P)
                        slow = _brute_orthogonal_subsets(pool, P)
                        assert fast == slow, (family, kind, h, idx)


class _Graph:
    """A band stand-in for _maximal: vertex i is the int i, and row(i, mask)
    is i's neighbours in mask."""

    def __init__(self, adj):
        self.adj = adj
        self.cand = list(range(len(adj)))

    def row(self, i, mask):
        return self.adj[i] & mask


def _random_graph(rng, n, density):
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _brute_cliques(adj, pool):
    """Maximal cliques of the graph on the pool's vertices, as sorted index
    tuples in sorted order, from a pass over every subset of the pool."""
    members = [i for i in range(len(adj)) if pool >> i & 1]
    clique = {0: True}
    found = []
    for k in range(1, 1 << len(members)):
        low = (k & -k).bit_length() - 1
        rest = k & (k - 1)
        s = sum(1 << members[b] for b in range(len(members)) if k >> b & 1)
        clique[k] = clique[rest] and all(
            adj[members[low]] >> members[b] & 1
            for b in range(len(members)) if rest >> b & 1)
        if clique[k] and not any(adj[v] & s == s and not s >> v & 1
                                 for v in members):
            found.append(tuple(i for i in members if s >> i & 1))
    return sorted(found)


class TestCliqueSearch:
    """The memoized clique search on random graphs, against every subset."""

    def test_random_graphs_against_brute_force(self):
        rng = random.Random(12)
        shared_cand = 0
        for trial in range(120):
            n = rng.randint(0, 14)
            density = rng.choice((0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0))
            adj = _random_graph(rng, n, density)
            pool = sum(1 << i for i in range(n)
                       if trial % 3 == 0 or rng.random() < 0.7)
            want = _brute_cliques(adj, pool) if pool else []
            got = [tuple(n - 1 - j for j in reversed(list(homs._bits(m))))
                   for m in _cliques(adj, pool)]
            assert got == want, (n, density, pool)
            if not pool:
                continue
            # a common seed outside the pool keeps the order
            seed = [i for i in range(n) if not pool >> i & 1
                    and rng.random() < 0.5]
            want = sorted(tuple(sorted(seed + list(c))) for c in want)
            assert _maximal(_Graph(adj), pool, seed) == [list(c)
                                                         for c in want]
            memo = {}
            _branches(adj, n - 1, memo, pool, 0)
            shared_cand += len(memo) - len({cand for cand, _ in memo})
        # some state met a cand that an earlier state met with another excl
        assert shared_cand > 0

    def test_searches_leave_no_reference_cycles(self):
        P = Params(2, 6)
        gc.disable()
        try:
            gc.collect()
            maximal_systems_containing([Euclid(0, 1, 0)], Params(5, 5))
            enumerate_ortho_on_triangle("U", 0, 0, 3, P)
            enumerate_ortho_on_triangle("U", 0, 0, 3, P, maximal_only=True)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _naive_pool(S, P):
    """Anchor-band brick candidates orthogonal to every member of S, one
    candidate at a time by the oracle's predicate; [] without a Euclidean
    member."""
    vs = {canonical(v, P) for v in S}
    euclid = sorted((v for v in vs if isinstance(v, Euclid)),
                    key=vertex_sort_key)
    if not euclid:
        return []
    ax = euclid[0].x
    band = [Euclid(c, x, y) for c in (0, 1)
            for x in range(ax - P.p, ax + P.p + 1) for y in range(P.q)]
    band += [Tube(f, level, i, k) for f in "UP" for level in (0, 1)
             for i in range(P.rank(f)) for k in range(P.rank(f) - 1)]
    return sorted((v for v in band if v not in vs and all(
        mutually_orthogonal(v, u, P) for u in vs)), key=vertex_sort_key)


def _random_seeds(rng, P):
    def vertex():
        if rng.random() < 0.7:
            return Euclid(rng.randrange(2), rng.randrange(-2 * P.p, 2 * P.p),
                          rng.randrange(-P.q, 2 * P.q))
        f = rng.choice("UP")
        r = P.rank(f)
        return Tube(f, rng.randrange(2), rng.randrange(-r, 2 * r),
                    rng.randrange(r))  # ht r-1 is not a brick

    seeds = []
    for _ in range(4):  # orthogonal, grown greedily
        S = []
        for _ in range(12):
            v = canonical(vertex(), P)
            if (is_brick_candidate(v, P) and v not in S
                    and all(mutually_orthogonal(v, u, P) for u in S)):
                S.append(v)
        seeds.append(S)
    seeds += [[vertex() for _ in range(rng.randint(1, 5))] for _ in range(3)]
    # members outside the anchor band: far comp-0 and comp-1 Euclidean
    # vertices and a tube vertex above the brick cap
    seeds.append([Euclid(0, 0, 0), Euclid(0, 3 * P.p, 0),
                  Euclid(1, -3 * P.p, 1), Tube("U", 0, 0, P.q - 1)])
    seeds.append([Tube("U", 0, 0, 0), Tube("P", 1, 1, 0)])  # tube-only
    return seeds


def _oracle_orthogonal(S, P):
    vs = {canonical(v, P) for v in S}
    return all(is_brick_candidate(v, P) for v in vs) and all(
        mutually_orthogonal(a, b, P) for a, b in itertools.combinations(vs, 2))


class TestSystemPredicate:
    """is_orthogonal_system reads the band table of its first Euclidean
    member, or the band at x = 0 for a tube-only set."""

    @pytest.mark.parametrize("p,q", [(1, 3), (2, 2), (2, 5), (3, 4), (4, 3),
                                     (5, 5)])
    def test_against_oracle(self, p, q, monkeypatch):
        P = Params(p, q)
        rng = random.Random(2000 * p + q)
        sets = [[]]
        for _ in range(8):
            sets += _random_seeds(rng, P)
        for S in list(sets[1:]):
            if len(S) > 1:  # one member moved, often breaking one pair
                i = rng.randrange(len(S))
                v = canonical(S[i], P)
                moved = (Euclid(v.comp, v.x + rng.choice((-1, 1)), v.y)
                         if isinstance(v, Euclid)
                         else Tube(v.family, v.level, v.idx + 1, v.ht))
                sets.append(S[:i] + [moved] + S[i + 1:])
        # Euclidean pairs near and beyond the edge of the anchor band
        sets += [[Euclid(0, 0, 0), Euclid(c, x, y)] for c in (0, 1)
                 for x in range(-2 * p - 1, 2 * p + 2) for y in range(q)]
        want = [_oracle_orthogonal(S, P) for S in sets]
        assert True in want and False in want
        order = list(range(len(sets)))
        homs._band.cache_clear()
        rng.shuffle(order)
        cold = {i: is_orthogonal_system(sets[i], P) for i in order}
        assert [cold[i] for i in range(len(sets))] == want

        def no_hom(*args):
            raise AssertionError("Hom call on a warm band")

        # once the members' rows are warm no Hom call is needed
        monkeypatch.setattr(homs, "stable_hom_nonzero", no_hom)
        rng.shuffle(order)
        warm = {i: is_orthogonal_system(sets[i], P) for i in order}
        assert warm == cold


class TestTransposeQueries:
    """is_orthogonal_system, maximal_systems_containing (compared as sets)
    and extract_params' predictedComp1 commute with the transpose T: (p,q)
    and (q,p) are one algebra with its axes swapped, so T checks the x-axis
    bits of the member mask, and of each gap rectangle, against the y-axis
    ones.  The seeds are every maximal system through E(0,1,0), each
    punctured variant and random sets."""

    BUDGET_S = 10  # about 0.4 s for the three cases on a 2-core VM

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (2, 5)])
    def test_queries_commute_with_transpose(self, p, q):
        start = time.perf_counter()
        P, PT = Params(p, q), Params(q, p)

        def T(S):
            return [canonical(transpose(v), PT) for v in S]

        systems = maximal_systems_containing([Euclid(0, 1, 0)], P)
        seeds = [S[:i] + S[i + 1:] for S in systems for i in range(len(S))]
        seeds += _random_seeds(random.Random(5000 * p + q), P)
        verdicts = set()
        for S in systems + seeds:
            verdicts.add(is_orthogonal_system(S, P))
            assert is_orthogonal_system(T(S), PT) == \
                is_orthogonal_system(S, P), S
        assert verdicts == {True, False}
        for S in [[Euclid(0, 1, 0)]] + seeds:
            if (any(isinstance(v, Euclid) for v in S)
                    and is_orthogonal_system(S, P)):
                want = {frozenset(T(s))
                        for s in maximal_systems_containing(S, P)}
                assert set(map(frozenset, maximal_systems_containing(
                    T(S), PT))) == want, S
        for S in systems:
            want = T(extract_params(S, P)["predictedComp1"])
            got = extract_params(T(S), PT)["predictedComp1"]
            assert set(got) == set(want) and len(got) == len(want), S
        assert time.perf_counter() - start < self.BUDGET_S


class TestBandTable:
    """witness_pool and maximality read a shared, demand-filled table; they
    must agree with a per-candidate oracle filter whatever filled it."""

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 5), (3, 4), (4, 3), (5, 5)])
    def test_against_naive_filter(self, p, q):
        P = Params(p, q)
        rng = random.Random(1000 * p + q)
        seeds = _random_seeds(rng, P)
        subsets = [frozenset(c) for k in range(1, len(PART_NAMES) + 1)
                   for c in itertools.combinations(PART_NAMES, k)]
        queries = [(i, parts) for i in range(len(seeds)) for parts in subsets]
        naive = [_naive_pool(S, P) for S in seeds]
        homs._band.cache_clear()
        answers = []
        for _ in ("cold", "warm"):
            rng.shuffle(queries)
            got = {}
            for i, parts in queries:
                got[i, parts] = (witness_pool(seeds[i], P, parts),
                                 maximality(seeds[i], P, parts))
            answers.append(got)
        assert answers[0] == answers[1]
        for (i, parts), (pool, report) in answers[0].items():
            want = [v for v in naive[i] if part_of(v) in parts]
            assert pool == want, (seeds[i], parts)
            blocked = any(isinstance(v, Euclid) for v in seeds[i])
            maximal = (not want and blocked
                       and _oracle_orthogonal(seeds[i], P))
            assert report == MaximalityReport(maximal, tuple(want), blocked)
        assert witness_pool(seeds[-1], P) == []
        for S in seeds:
            for ask in (witness_pool, maximality):
                with pytest.raises(DomainError,
                                   match="^parts must name at least one"):
                    ask(S, P, frozenset())
        # every row the tables hold is the oracle's verdict on each
        # candidate of its band
        for S in seeds:
            euclid = sorted((canonical(v, P) for v in S
                             if isinstance(v, Euclid)), key=vertex_sort_key)
            if not euclid:
                continue
            band = homs._band(P, euclid[0].x)
            held = [i for i, row in enumerate(band.ortho) if row is not None]
            assert held
            for i in held:
                v = band.cand[i]
                assert band.ortho[i] == sum(
                    1 << j for j, w in enumerate(band.cand)
                    if w != v and mutually_orthogonal(v, w, P)), v

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 5), (3, 4), (5, 5)])
    def test_default_parts_are_every_part(self, p, q):
        # parts=None is not validated and masks every candidate; it must
        # answer as PART_NAMES does, on a cold table and on a warm one
        P = Params(p, q)
        seeds = _random_seeds(random.Random(3000 * p + q), P)
        seeds += [[Euclid(c, x, y)] for c in (0, 1) for x in range(p)
                  for y in range(q)]
        answers = {}
        for parts in (None, PART_NAMES):
            homs._band.cache_clear()
            for phase in ("cold", "warm"):
                answers[parts, phase] = [
                    (witness_pool(S, P, parts), maximality(S, P, parts))
                    for S in seeds]
        want = answers[PART_NAMES, "cold"]
        assert all(got == want for got in answers.values())

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (3, 4)])
    def test_warm_rows_make_no_hom_call(self, p, q, monkeypatch):
        # orthogonal seeds lie in their anchor's band: once one query with
        # every part (and the member pairs, which maximality reads on an
        # empty pool) has filled a seed's rows, every query of that seed,
        # with any parts, reads the table alone
        P = Params(p, q)
        seeds = _random_seeds(random.Random(4000 * p + q), P)[:4]
        for S in maximal_systems_containing([Euclid(0, 1, 0)], P):
            seeds += [S] + [S[:i] + S[i + 1:] for i in range(len(S))]
        queries = [(S, parts) for S in seeds
                   for parts in (None, PART_NAMES, ("e1",), ("u0", "p1"))]
        homs._band.cache_clear()
        cold = [(witness_pool(S, P, parts), maximality(S, P, parts))
                for S, parts in queries]
        homs._band.cache_clear()
        for S in seeds:
            witness_pool(S, P)
            is_orthogonal_system(S, P)

        def no_hom(*args):
            raise AssertionError("Hom call on a warm band")

        monkeypatch.setattr(homs, "stable_hom_nonzero", no_hom)
        warm = [(witness_pool(S, P, parts), maximality(S, P, parts))
                for S, parts in queries]
        assert warm == cold

    def test_fresh_table_memory_is_linear(self):
        # a table builds rows on demand, so before any query it holds no
        # row: a fresh (60,60) band has 28,680 candidates and peaked at
        # 5.2 MB, against 61 MB when every row started with its diagonal bit
        tracemalloc.start()
        try:
            homs._Band(Params(60, 60), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def test_witness_pool_complete():
    """witness_pool scans only the anchor's band; the brute-force bi-perp
    over a window three periods wide finds no brick candidate it misses.
    Checked on E(0,1,0) and every punctured maximal system through it at
    (2,3) and (3,3): 324 sets.  Time budget 20 s (about 1.5 s measured on
    a 2-core VM)."""
    t0 = time.perf_counter()
    for P in (Params(2, 3), Params(3, 3)):
        window = WindowSpec.periods(P, 3)
        systems = maximal_systems_containing([Euclid(0, 1, 0)], P)
        seeds = [[Euclid(0, 1, 0)]]
        seeds += [S[:i] + S[i + 1:] for S in systems for i in range(len(S))]
        for S in seeds:
            brute = sorted((v for v in brute_biperp(S, window)
                            if is_brick_candidate(v, P)), key=vertex_sort_key)
            assert witness_pool(S, P) == brute, S
    assert time.perf_counter() - t0 < 20.0


def test_anchored_count_pin():
    """Observed pattern, not a theorem of the paper: the maximal systems
    through E(0,1,0) number Catalan(p+q-1) at every p, q <= 5 (429 at
    (4,4), 4,862 at (5,5)) and at (6,6) (58,786).  Every (4,4) system's
    comp-1 part is the one extract_params predicts.  Time budget 15 s
    (about 0.5 s measured on a 2-core VM, 0.25 s of it at (6,6))."""
    t0 = time.perf_counter()
    for p, q in [(p, q) for p in range(1, 6) for q in range(1, 6)] + [(6, 6)]:
        n = p + q - 1
        systems = maximal_systems_containing([Euclid(0, 1, 0)], Params(p, q))
        assert len(systems) == comb(2 * n, n) // (n + 1), (p, q)
    P = Params(4, 4)
    for S in maximal_systems_containing([Euclid(0, 1, 0)], P):
        predicted = extract_params(S, P)["predictedComp1"]
        comp1 = [v for v in S if isinstance(v, Euclid) and v.comp == 1]
        assert sorted(predicted, key=vertex_sort_key) == comp1
    assert time.perf_counter() - t0 < 15.0


def test_one_completion():
    """Observed pattern, not a theorem of the paper: removing any member
    other than E(0,1,0) from a maximal system through it leaves a set whose
    only maximal extension is that system, at every (p,q) from (2,2) to
    (4,4): 15, 56, 210, 792 and 3,003 sets.  So no two of these maximal
    systems differ in one member.  Time budget 15 s (about 0.2 s measured
    for all five pairs on a 2-core VM)."""
    t0 = time.perf_counter()
    anchor = Euclid(0, 1, 0)
    counts = {}
    for pq in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)):
        P = Params(*pq)
        for S in maximal_systems_containing([anchor], P):
            for i, m in enumerate(S):
                if m != anchor:
                    rest = S[:i] + S[i + 1:]
                    assert maximal_systems_containing(rest, P) == [S], rest
                    counts[pq] = counts.get(pq, 0) + 1
    assert counts == {(2, 2): 15, (2, 3): 56, (3, 3): 210, (3, 4): 792,
                      (4, 4): 3003}
    assert time.perf_counter() - t0 < 15.0


def test_import_leaves_networkx_out():
    src = os.path.dirname(os.path.dirname(arq2d.__file__))
    code = ("import sys, arq2d; "
            "print([m for m in ('networkx', 'urllib.request') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


# Prints the arq2d modules that have run.  A lazy module turns into a plain
# module when its first attribute access runs it; type() reads no attribute,
# so the check runs nothing itself.
RAN = ("import sys, types\n"
       "def ran():\n"
       "    return sorted(m for m in ('model', 'homs', 'ortho', 'closure',\n"
       "                              'brauer', 'render', 'oracle')\n"
       "                  if type(sys.modules.get('arq2d.' + m))\n"
       "                  is types.ModuleType)\n")


def run_fresh(code: str) -> str:
    src = os.path.dirname(os.path.dirname(arq2d.__file__))
    return subprocess.run([sys.executable, "-c", RAN + code],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src)).stdout


def test_import_runs_no_layer():
    assert run_fresh("import arq2d; print(ran())").strip() == "[]"


def test_cli_registers_every_layer():
    # bench/tracing.py patches all six layers after `import arq2d.cli`
    out = run_fresh("import arq2d.cli; print([m for m in ('model', 'homs', "
                    "'ortho', 'closure', 'brauer', 'render') "
                    "if 'arq2d.' + m not in sys.modules])")
    assert out.strip() == "[]"


# each command and the layers it runs, in sorted order
COMMAND_LAYERS = [
    (["classify", "GRAPH"], ["brauer", "model"]),
    (["algebra", "GRAPH", "--emit", "json"], ["brauer", "model"]),
    (["supports", "--p", "2", "--q", "2", "--set", "E(0,0,0)"],
     ["homs", "model"]),
    (["biperp", "--p", "2", "--q", "2", "--set", "E(0,0,0)"],
     ["homs", "model"]),
    (["render", "e0", "--p", "2", "--q", "2"], ["model", "render"]),
    (["enumerate-max", "--p", "2", "--q", "2", "--set", "E(0,1,0)"],
     ["homs", "model", "ortho"]),
    (["certify-sms", "--p", "2", "--q", "2", "--set", "E(0,0,0)"],
     ["closure", "homs", "model", "ortho"]),
    (["oracle-check"], ["homs", "model", "oracle"]),
]


@pytest.mark.parametrize("argv, layers", COMMAND_LAYERS,
                         ids=[argv[0] for argv, _ in COMMAND_LAYERS])
def test_each_command_runs_only_its_layers(argv, layers, square_path):
    # the value types are namedtuples: building dataclasses costs a command
    # milliseconds at start-up, so no command may import the module
    argv = [square_path if a == "GRAPH" else a for a in argv]
    out = run_fresh("import contextlib, io\n"
                    "from arq2d.cli import main\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    "    code = main(%r)\n"
                    "print(code, 'dataclasses' in sys.modules, ran())"
                    % argv)
    code, dataclasses, ran = out.split(" ", 2)
    assert code == ("3" if argv[0] == "oracle-check" else "0")
    assert dataclasses == "False"
    assert ran.strip() == repr(layers)


def quasi_simple_chain_shape(W, segment, P: Params) -> bool:
    """Check the normal form: level-1 indices lo..split, level-0 split+1..hi.

    W must consist of quasi-simples of a single family; anything else fails
    the shape.  The empty set matches with an empty segment prefix.
    """
    lo, hi = segment
    vs = canonical_set(W, P)
    if not vs:
        return lo > hi
    if not all(isinstance(v, Tube) and v.ht == 0 for v in vs):
        return False
    if len({v.family for v in vs}) > 1:
        return False
    family = vs[0].family
    for split in range(lo - 1, hi + 1):
        want = {canonical(Tube(family, 1, i, 0), P)
                for i in range(lo, split + 1)}
        want |= {canonical(Tube(family, 0, i, 0), P)
                 for i in range(split + 1, hi + 1)}
        if set(vs) == want:
            return True
    return False


class TestChainShape:
    def test_matching_shapes(self):
        P = Params(2, 4)
        W = [Tube("U", 1, 0, 0), Tube("U", 1, 1, 0), Tube("U", 0, 2, 0)]
        assert quasi_simple_chain_shape(W, (0, 2), P)
        # all level 1
        W2 = [Tube("U", 1, 0, 0), Tube("U", 1, 1, 0), Tube("U", 1, 2, 0)]
        assert quasi_simple_chain_shape(W2, (0, 2), P)
        # all level 0
        W3 = [Tube("U", 0, 0, 0), Tube("U", 0, 1, 0)]
        assert quasi_simple_chain_shape(W3, (0, 1), P)

    def test_rejected_shapes(self):
        P = Params(2, 4)
        # level 0 before level 1 violates the normal form
        W = [Tube("U", 0, 0, 0), Tube("U", 1, 1, 0)]
        assert not quasi_simple_chain_shape(W, (0, 1), P)
        # wrong segment
        W2 = [Tube("U", 1, 0, 0)]
        assert not quasi_simple_chain_shape(W2, (1, 1), P)
        # non-quasi-simple member
        assert not quasi_simple_chain_shape([Tube("U", 0, 0, 1)], (0, 0), P)
        # mixed families
        assert not quasi_simple_chain_shape(
            [Tube("U", 1, 0, 0), Tube("P", 0, 1, 0)], (0, 1), P)

    def test_empty_set_matches_empty_segment(self):
        P = Params(2, 2)
        assert quasi_simple_chain_shape([], (1, 0), P)
        assert not quasi_simple_chain_shape([], (0, 1), P)


class TestReport:
    def test_include_systems_formats_vertices(self):
        P = Params(2, 2)
        systems = maximal_systems_containing([Euclid(0, 1, 0)], P)
        rep = enumeration_report(systems, include_systems=True)
        assert len(rep["systems"]) == rep["count"]
        for s in rep["systems"]:
            assert all(isinstance(v, str) for v in s)
