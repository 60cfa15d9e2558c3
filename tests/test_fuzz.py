"""Differential fuzz of the member-mask queries against the oracle.

maximality (with random parts), witness_pool, is_orthogonal_system and
extract_params read a set through one member mask on a band table.  Here
hypothesis draws sets the mask must handle: raw non-canonical lifts,
duplicates, Euclidean members off the anchor's band, tubes that are not
bricks, tube-only and mixed sets, and maximal systems with one of these
changes.  Each answer is checked against the oracle's brute force over a
window around the anchor, which trusts only the Hom predicate.  Bad input
of any kind must raise DomainError.  Budget: about 3 s in all on a 2-core
VM, set by max_examples.
"""

import functools
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arq2d.closure import NoEuclideanMember, NotMaximal, extract_params
from arq2d.homs import PART_NAMES, part_of
from arq2d.model import (
    DomainError,
    Euclid,
    Params,
    Tube,
    canonical,
    format_vertex,
    is_brick_candidate,
    vertex_sort_key,
)
from arq2d.oracle import WindowSpec, brute_biperp, mutually_orthogonal
from arq2d.ortho import (
    MaximalityReport,
    is_orthogonal_system,
    maximal_systems_containing,
    maximality,
    witness_pool,
)

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@functools.lru_cache(maxsize=None)
def _systems(P, anchor):
    return maximal_systems_containing([anchor], P)


def _lift(v, P, l):
    """Another representative of v: (x - p*l, y + q*l), or the index plus
    l times the rank."""
    if isinstance(v, Euclid):
        return Euclid(v.comp, v.x - P.p * l, v.y + P.q * l)
    return Tube(v.family, v.level, v.idx + P.rank(v.family) * l, v.ht)


@st.composite
def member_sets(draw):
    """(P, S): a random mixed set or a changed maximal system, written as
    raw lifts in a random order, often with duplicates."""
    P = Params(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    euclid = st.builds(Euclid, st.integers(0, 1), st.integers(-4 * P.p, 4 * P.p),
                       st.integers(-2 * P.q, 3 * P.q))
    tube = st.sampled_from("UP").flatmap(lambda f: st.builds(
        Tube, st.just(f), st.integers(0, 1),
        st.integers(-P.rank(f), 2 * P.rank(f)), st.integers(0, P.rank(f) + 1)))
    if draw(st.booleans()):
        S = draw(st.lists(st.one_of(euclid, tube), max_size=6))
    else:
        anchor = Euclid(0, draw(st.integers(-2, 2)), draw(st.integers(0, P.q - 1)))
        systems = _systems(P, anchor)
        S = list(systems[draw(st.integers(0, len(systems) - 1))])
        change = draw(st.sampled_from(
            ("none", "drop", "off-band", "non-brick", "extra", "tubes")))
        if change == "drop":
            del S[draw(st.integers(0, len(S) - 1))]
        elif change == "off-band":
            S.append(Euclid(draw(st.integers(0, 1)),
                            anchor.x + draw(st.sampled_from((-1, 1))) * (
                                P.p + draw(st.integers(1, 2 * P.p))),
                            draw(st.integers(0, P.q - 1))))
        elif change == "non-brick":
            f = draw(st.sampled_from("UP"))
            S.append(Tube(f, draw(st.integers(0, 1)),
                          draw(st.integers(0, P.rank(f) - 1)),
                          P.rank(f) - 1 + draw(st.integers(0, 2))))
        elif change == "extra":
            S.append(draw(st.one_of(euclid, tube)))
        elif change == "tubes":
            S = [v for v in S if isinstance(v, Tube)]
    S = [_lift(v, P, draw(st.integers(-2, 2))) for v in S]
    if S and draw(st.booleans()):
        S += [_lift(v, P, draw(st.integers(-1, 1)))
              for v in draw(st.lists(st.sampled_from(S), max_size=3))]
    return P, draw(st.permutations(S))


def _oracle(S, P):
    """(orthogonal, blocked, pool): the oracle's orthogonality of S, whether
    S has a Euclidean member, and every brick candidate outside S that is
    orthogonal to all of S, from a window that spans two periods on each
    side of the least Euclidean member."""
    vs = {canonical(v, P) for v in S}
    orthogonal = all(is_brick_candidate(v, P) for v in vs) and all(
        mutually_orthogonal(a, b, P) for a, b in itertools.combinations(vs, 2))
    euclid = sorted((v for v in vs if isinstance(v, Euclid)),
                    key=vertex_sort_key)
    if not euclid:
        return orthogonal, False, []
    ax = euclid[0].x
    window = WindowSpec(P, ax - 2 * P.p, ax + 2 * P.p, -P.q, 2 * P.q - 1,
                        max(P.p, P.q))
    pool = sorted((v for v in brute_biperp(vs, window)
                   if is_brick_candidate(v, P) and v not in vs),
                  key=vertex_sort_key)
    return orthogonal, True, pool


class TestAgainstOracle:
    @given(member_sets(), st.one_of(st.none(), st.sets(
        st.sampled_from(PART_NAMES), min_size=1)))
    @FUZZ
    def test_witness_queries(self, case, parts):
        P, S = case
        orthogonal, blocked, pool = _oracle(S, P)
        assert is_orthogonal_system(S, P) == orthogonal
        want = [v for v in pool if parts is None or part_of(v) in parts]
        assert witness_pool(S, P, parts) == want
        assert maximality(S, P, parts) == MaximalityReport(
            orthogonal and blocked and not want, tuple(want), blocked)

    @given(member_sets())
    @FUZZ
    def test_extract_params(self, case):
        P, S = case
        orthogonal, blocked, pool = _oracle(S, P)
        try:
            got = extract_params(S, P)
        except DomainError as exc:
            got = exc
        if not blocked:
            assert type(got) is NoEuclideanMember
        elif not orthogonal:
            assert type(got) is DomainError
            assert str(got) == "set is not an orthogonal system of bricks"
        elif pool:
            assert type(got) is NotMaximal
            assert str(got) == "witnesses remain: %s" % [
                format_vertex(v) for v in pool]
        else:
            # a maximal system: each gap's predicted comp-1 member is one of
            # its comp-1 members, and each member is predicted once (an
            # observation, criterion 9)
            comp1 = {canonical(v, P) for v in S
                     if isinstance(v, Euclid) and v.comp == 1}
            assert isinstance(got, dict), got
            assert sorted(got["predictedComp1"], key=vertex_sort_key) == \
                sorted(comp1, key=vertex_sort_key)


BAD_MEMBERS = st.one_of(
    st.tuples(st.integers(0, 1), st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.sampled_from("UP"), st.integers(0, 1), st.integers(-9, 9),
              st.integers(0, 5)),
    st.text(max_size=8), st.none(), st.integers(), st.lists(st.integers()))

QUERIES = (is_orthogonal_system, maximality, witness_pool, extract_params,
           maximal_systems_containing)


class TestBadInput:
    @given(member_sets(), BAD_MEMBERS, st.integers(0, 8),
           st.sampled_from(QUERIES))
    @FUZZ
    def test_non_vertex_member(self, case, bad, at, query):
        P, S = case
        S = list(S)
        S.insert(min(at, len(S)), bad)
        try:
            query(S, P)
        except DomainError as exc:
            assert str(exc) == "member %r is not a vertex" % (bad,)
        else:
            raise AssertionError("accepted %r" % (bad,))

    @given(member_sets(), st.sampled_from(QUERIES),
           st.sampled_from([(2, 3), None, "2,3", [2, 3]]))
    @FUZZ
    def test_params_not_a_params(self, case, query, P):
        _, S = case
        try:
            query(S, P)
        except DomainError as exc:
            assert str(exc) == "P is not a Params: %r" % (P,)
        else:
            raise AssertionError("accepted P = %r" % (P,))

    @given(member_sets(), st.sampled_from(
        (maximality, witness_pool, maximal_systems_containing)),
        st.sets(st.sampled_from(PART_NAMES + ("e2", "tu0", "")), max_size=3))
    @FUZZ
    def test_parts(self, case, query, parts):
        # bad parts give DomainError; maximal_systems_containing checks its
        # seed first, with DomainError too
        P, S = case
        try:
            query(S, P, parts)
        except DomainError:
            pass
        else:
            assert parts and parts <= set(PART_NAMES)
