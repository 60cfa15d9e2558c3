"""Orthogonal-system predicates, triangle enumeration, maximal extension."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arq2d
from arq2d.model import (
    DomainError,
    Euclid,
    HeightOutOfRange,
    Params,
    Tube,
    canonical,
)
from arq2d.oracle import _maximal_cliques, exhaustive_max_ortho
from arq2d.ortho import (
    NoEuclideanMember,
    enumerate_ortho_on_paired,
    enumerate_ortho_on_triangle,
    enumeration_report,
    euclidean_ortho_check,
    is_orthogonal_system,
    maximal_systems_containing,
    maximality,
    paired_pool,
    quasi_simple_chain_shape,
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
        P = Params(p, q)
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


def test_import_leaves_networkx_out():
    src = os.path.dirname(os.path.dirname(arq2d.__file__))
    code = ("import sys, arq2d; "
            "print([m for m in ('networkx', 'urllib.request') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


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
