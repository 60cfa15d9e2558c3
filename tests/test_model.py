"""Vertex model: canonical forms, translation and syzygy actions, parsing,
windows, and the import boundary around the oracle."""

import ast
import copy
import pathlib
import pickle
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import arq2d
from conftest import param_vertex, params_strategy
from arq2d import brauer, closure, homs, model, ortho, render
from arq2d.homs import Rectangle
from arq2d.model import (
    DomainError,
    Euclid,
    HeightOutOfRange,
    Params,
    Tube,
    Value,
    Window,
    canonical,
    format_vertex,
    fundamental_domain,
    is_brick_candidate,
    key,
    omega,
    omega_inv,
    omega_inv_key,
    omega_key,
    parse_vertex,
    tau,
    tau_inv,
    vertex_sort_key,
)
from arq2d.oracle import WindowSpec


class TestCanonical:
    def test_euclid_window(self):
        P = Params(3, 2)
        assert canonical(Euclid(0, 5, -3), P) == Euclid(0, -1, 1)
        assert canonical(Euclid(1, 0, 2), P) == Euclid(1, 3, 0)

    @given(param_vertex())
    def test_idempotent(self, pv):
        P, v = pv
        c = canonical(v, P)
        assert canonical(c, P) is c

    @given(param_vertex(), st.integers(-4, 4))
    def test_identification_orbit(self, pv, l):
        P, v = pv
        if isinstance(v, Euclid):
            shifted = Euclid(v.comp, v.x - P.p * l, v.y + P.q * l)
        else:
            shifted = Tube(v.family, v.level, v.idx + P.rank(v.family) * l, v.ht)
        assert canonical(shifted, P) == canonical(v, P)

    @given(param_vertex())
    def test_vertex_inverts_key(self, pv):
        P, v = pv
        for u in (v, canonical(v, P)):
            assert model.vertex(key(u)) == u
            assert model.vertex(model.canonical_key(key(u), P)) == canonical(
                v, P)

    @given(param_vertex())
    def test_canonical_ranges(self, pv):
        P, v = pv
        c = canonical(v, P)
        if isinstance(c, Euclid):
            assert 0 <= c.y < P.q
        else:
            assert 0 <= c.idx < P.rank(c.family)


class TestActions:
    @given(param_vertex())
    def test_omega_round_trip(self, pv):
        P, v = pv
        cv = canonical(v, P)
        assert omega_inv(omega(v, P), P) == cv
        assert omega(omega_inv(v, P), P) == cv
        k = key(v)
        assert (omega_inv_key(omega_key(k, P), P)
                == omega_key(omega_inv_key(k, P), P) == key(cv))

    @given(param_vertex())
    def test_omega_squared_is_tau(self, pv):
        P, v = pv
        assert omega(omega(v, P), P) == tau(v, P)
        assert omega_key(omega_key(key(v), P), P) == key(tau(v, P))

    @given(param_vertex())
    def test_tau_round_trip(self, pv):
        P, v = pv
        assert tau_inv(tau(v, P), P) == canonical(v, P)
        assert tau(tau_inv(v, P), P) == canonical(v, P)

    @given(param_vertex())
    def test_omega_commutes_with_tau(self, pv):
        P, v = pv
        assert omega(tau(v, P), P) == tau(omega(v, P), P)

    def test_fixed_values(self):
        P = Params(3, 3)
        assert tau(Euclid(0, 2, 3), P) == canonical(Euclid(0, 1, 2), P)
        assert omega(Euclid(0, 1, 0), P) == Euclid(1, 1, 0)
        assert omega(Euclid(1, 1, 0), P) == canonical(Euclid(0, 0, -1), P)
        assert omega(Tube("U", 0, 1, 0), P) == Tube("U", 1, 1, 0)
        assert omega(Tube("U", 1, 0, 2), P) == Tube("U", 0, 2, 2)
        assert omega_inv(Tube("P", 0, 2, 1), P) == Tube("P", 1, 0, 1)

    def test_level_alternates(self):
        P = Params(2, 4)
        v = Tube("U", 0, 1, 1)
        assert omega(v, P).level == 1
        assert omega(omega(v, P), P).level == 0


class TestParsing:
    @given(param_vertex())
    def test_round_trip(self, pv):
        _, v = pv
        assert parse_vertex(format_vertex(v)) == v

    def test_spacing_tolerated(self):
        assert parse_vertex(" E( 0 , -1 , 2 ) ") == Euclid(0, -1, 2)
        assert parse_vertex("TP(1,0,3)") == Tube("P", 1, 0, 3)

    @pytest.mark.parametrize("bad", ["", "E(1,2)", "X(0,0,0)", "E(0,0,0",
                                     "TU(0, 0, 0) extra"])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_vertex(bad)


class TestPool:
    @given(params_strategy())
    def test_fundamental_domain_size(self, P):
        expected = 2 * P.p * P.q + 2 * P.q * (P.q - 1) + 2 * P.p * (P.p - 1)
        pool = fundamental_domain(P)
        assert len(pool) == expected
        assert len(set(pool)) == expected
        assert all(is_brick_candidate(v, P) for v in pool)
        assert all(canonical(v, P) == v for v in pool)

    def test_brick_candidate_boundary(self):
        P = Params(2, 4)
        assert is_brick_candidate(Tube("U", 0, 0, 2), P)
        assert not is_brick_candidate(Tube("U", 0, 0, 3), P)
        assert is_brick_candidate(Tube("P", 1, 0, 0), P)
        assert not is_brick_candidate(Tube("P", 1, 0, 1), P)
        assert is_brick_candidate(Euclid(0, 9, -9), P)

    def test_sort_key_orders_every_pool(self):
        P = Params(3, 2)
        pool = fundamental_domain(P)
        ordered = sorted(pool, key=vertex_sort_key)
        assert len(ordered) == len(set(map(vertex_sort_key, pool)))


class TestValidation:
    def test_params_positive(self):
        with pytest.raises(DomainError):
            Params(0, 1)
        with pytest.raises(DomainError):
            Params(2, -1)

    @pytest.mark.parametrize("p,q", [("2", 3), (2.0, 3), (2, 3.0), (True, 3),
                                     (2, None)], ids=str)
    def test_params_are_integers(self, p, q):
        with pytest.raises(DomainError) as info:
            Params(p, q)
        assert str(info.value) == "component parameters must be integers"

    def test_vertex_fields(self):
        with pytest.raises(DomainError):
            Euclid(2, 0, 0)
        with pytest.raises(DomainError):
            Tube("X", 0, 0, 0)
        with pytest.raises(HeightOutOfRange):
            Tube("U", 0, 0, -1)

    @pytest.mark.parametrize("k", [(2, 0, 0), ("X", 0, 0, 0), ("P", 2, 0, 0),
                                   ("U", 0, 0, -1), ("U", 0, 0, 0, 9), (),
                                   ("U", 0)], ids=str)
    def test_vertex_of_a_key_outside_the_domain(self, k):
        """`model.vertex` skips the checking constructor only for a key
        inside the domain; any other raises the constructor's error, a
        TypeError for a key of a length other than 3 or 4."""
        error = DomainError if len(k) in (3, 4) else TypeError
        with pytest.raises(error) as info:
            model.vertex(k)
        with pytest.raises(error) as direct:
            (Euclid if len(k) == 3 else Tube)(*k)
        assert type(info.value) is type(direct.value)
        assert str(info.value) == str(direct.value)


    def test_rank_of_each_family(self):
        P = Params(3, 4)
        assert (P.rank("U"), P.rank("P")) == (4, 3)
        for family in ("X", "u", "", None):
            with pytest.raises(DomainError, match="tube family must be"):
                P.rank(family)

    @pytest.mark.parametrize("key_map", [model.canonical_key, omega_key,
                                         omega_inv_key],
                             ids=lambda f: f.__name__)
    def test_key_maps_reject_an_unknown_family(self, key_map):
        """A hand-built tube key of an unknown family raises Tube's error
        instead of being wrapped by the rank of "P"."""
        P = Params(3, 4)
        with pytest.raises(DomainError) as info:
            key_map(("X", 0, 5, 0), P)
        with pytest.raises(DomainError) as direct:
            Tube("X", 0, 5, 0)
        assert str(info.value) == str(direct.value)

class TestWindow:
    @given(param_vertex(), st.integers(-8, 8), st.integers(1, 12),
           st.integers(-8, 8), st.integers(1, 12), st.integers(0, 4))
    @example((Params(5, 4), Euclid(0, 7, -3)), 1, 2, -1, 3, 0)
    @example((Params(5, 4), Euclid(0, 8, -3)), 1, 2, -1, 3, 0)
    def test_lifts_match_lattice_scan(self, pv, x_lo, width, y_lo, height, cap):
        # widths start at 1, so many boxes are narrower than one period
        P, v = pv
        w = Window(P, x_lo, x_lo + width - 1, y_lo, y_lo + height - 1, cap)
        if isinstance(v, Tube):
            assert w.contains(v) == (v.ht <= cap)
            return
        scan = [(v.x - P.p * l, v.y + P.q * l) for l in range(-40, 41)]
        scan = [(x, y) for x, y in scan
                if w.x_lo <= x <= w.x_hi and w.y_lo <= y <= w.y_hi]
        assert w.lifts(v) == scan
        assert w.contains(v) == bool(scan)
        assert w.contains(canonical(v, P)) == bool(scan)

    @given(param_vertex(), st.integers(-8, 8), st.integers(-1, 12),
           st.integers(-8, 8), st.integers(-1, 12))
    @example((Params(1, 3), Euclid(0, 0, 1)), 0, 0, 1, 2)
    @example((Params(3, 1), Euclid(1, 0, 1)), 1, 2, 1, 0)
    def test_rectangle_matches_lattice_scan(self, pv, x_lo, width, y_lo, height):
        # width or height 0 or -1 gives an empty rectangle, as the single
        # bi-perp has at p = 1 or q = 1
        P, v = pv
        rect = Rectangle(0, x_lo, x_lo + width - 1, y_lo, y_lo + height - 1)
        if isinstance(v, Tube):
            assert not rect.contains(v, P)
            return
        scan = [(v.x - P.p * l, v.y + P.q * l) for l in range(-40, 41)]
        hit = any(rect.x_lo <= x <= rect.x_hi and rect.y_lo <= y <= rect.y_hi
                  for x, y in scan)
        assert rect.contains(v, P) == (hit and v.comp == 0)
        assert rect.contains(canonical(v, P), P) == (hit and v.comp == 0)

    @pytest.mark.parametrize("n", [0, -2])
    def test_periods_below_one_rejected(self, n):
        with pytest.raises(DomainError):
            Window.periods(Params(2, 3), n)


_P = Params(3, 2)
_W = Window(_P, 0, 2, 0, 1, 1)
# one instance of every value class of the package
VALUES = [
    _P, Euclid(0, 1, -1), Tube("U", 1, 2, 0), _W,
    homs.Empty(), homs.All("e0"), homs.FiniteSet(frozenset({Euclid(0, 1, 0)})),
    homs.ForwardCone(0, 1, 2), homs.BackwardCone(1, 1, 2),
    homs.Rectangle(0, 0, 1, -1, 1), homs.ResidueBand("x", 0, frozenset({1})),
    homs.QuasiCone("U", 1, 0), homs.TriangleArea("P", 0, 1, 2),
    homs.TubeZone("U", 0, None, 1, 1, None),
    homs.TubeResidueBand("U", 1, frozenset({0}), frozenset({1})),
    homs.Union((homs.All("e0"), homs.QuasiCone("P", 1, 1))),
    homs.Intersection((homs.All("u1"), homs.QuasiCone("U", 1, 1))),
    homs.SupportReport(_P, {"e0": homs.All("e0")}, True),
    brauer.BrauerGraph(("a", "b"), {"a": 1, "b": 2}, {"1": ("a", "b")},
                       {"a": (("1", 0),), "b": (("1", 1),)}),
    brauer.DomesticClass("OutOfScope", 3),
    brauer.Arrow("a:0", "1", "2", "a"),
    brauer.Relation("typeI", (("a:0", "b:0"), ("a:1",))),
    brauer.QuiverPresentation(("1",), (), (), (), ()),
    render.RenderSpec(_P, "e0", _W),
    render.Node("n0_0", 0.0, 0.0, "E(0,0,0)", Euclid(0, 0, 0), None),
    closure.DistinguishedTriangle(Euclid(0, 0, 0), (Euclid(0, 0, 1),),
                                  Euclid(0, 1, 1), "T-mesh-E"),
    closure.ClosureState(frozenset({(0, 1, 0)}), (), _W),
    ortho.MaximalityReport(False, (Euclid(0, 1, 0),), True),
]


class TestValueContract:
    """Every value class is a namedtuple with the Value mixin: immutable,
    printed as Name(field=value, ...), equal only within its class, and
    copied or pickled whole."""

    def test_every_value_class_is_listed(self):
        classes = {obj for module in (model, homs, brauer, render, closure,
                                      ortho)
                   for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, Value)
                   and obj.__module__ == module.__name__ and obj is not Value}
        assert {type(v) for v in VALUES} == classes
        assert len(classes) == len(VALUES) == 28

    @pytest.mark.parametrize("v", VALUES, ids=lambda v: type(v).__name__)
    def test_contract(self, v):
        fields = ", ".join("%s=%r" % (name, getattr(v, name))
                           for name in v._fields)
        assert repr(v) == "%s(%s)" % (type(v).__name__, fields)
        for name in v._fields + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(v, name, 0)
        for twin in (copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(twin) is type(v) and twin == v
            assert not twin != v
        assert v != tuple(v) and tuple(v) != v

    def test_equality_is_type_strict(self):
        assert homs.ForwardCone(0, 1, 2) != homs.BackwardCone(0, 1, 2)
        assert hash(homs.ForwardCone(0, 1, 2)) == hash((0, 1, 2))
        assert Euclid(0, 1, 0) != (0, 1, 0)
        assert (0, 1, 0) != Euclid(0, 1, 0)
        assert Euclid(0, 1, 0) not in {(0, 1, 0)}
        assert (0, 1, 0) not in {Euclid(0, 1, 0)}
        spec = WindowSpec(_P, 0, 2, 0, 1, 1)
        assert spec != _W and _W != spec
        assert spec == WindowSpec(*_W)

    def test_keyword_construction_and_defaults(self):
        assert Euclid(comp=0, x=1, y=-1) == Euclid(0, 1, -1)
        assert Window(P=_P, x_lo=0, x_hi=2, y_lo=0, y_hi=1,
                      tube_ht_cap=1) == _W
        cls = brauer.DomesticClass("OutOfScope", n=3)
        assert cls[2:] == (None,) * 5
        a, b = render.RenderSpec(_P, "e0", _W), render.RenderSpec(_P, "e0", _W)
        assert a.highlights == {} and a.highlights is not b.highlights
        assert a.fmt == "svg"

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Params(0, 1), DomainError,
         "component parameters must be positive"),
        (lambda: Params(p=2, q=-1), DomainError,
         "component parameters must be positive"),
        (lambda: Euclid(2, 0, 0), DomainError,
         "Euclidean component index must be 0 or 1"),
        (lambda: Euclid(comp=-1, x=0, y=0), DomainError,
         "Euclidean component index must be 0 or 1"),
        (lambda: Tube("X", 0, 0, 0), DomainError,
         "tube family must be 'U' or 'P'"),
        (lambda: Tube("U", 2, 0, 0), DomainError, "tube level must be 0 or 1"),
        (lambda: Tube("U", 0, 0, -1), HeightOutOfRange,
         "tube height must be >= 0"),
        (lambda: Window(_P, 1, 0, 0, 1, 0), DomainError, "empty window"),
        (lambda: Window(_P, 0, 1, 1, 0, 0), DomainError, "empty window"),
        (lambda: Window(_P, 0, 1, 0, 1, -1), DomainError,
         "negative tube height cap"),
        (lambda: WindowSpec(_P, 0, 1, 0, 3, 1), DomainError,
         "window must cover at least one full period"),
        (lambda: WindowSpec(_P, 0, 3, 0, 3, -1), DomainError,
         "negative tube height cap"),
        (lambda: WindowSpec.periods(_P, 0), DomainError,
         "a window spans at least 1 period (got 0)"),
    ])
    def test_validation_errors(self, build, error, message):
        with pytest.raises(DomainError) as info:
            build()
        assert type(info.value) is error
        assert str(info.value) == message


SRC = pathlib.Path(arq2d.__file__).parent


def _package_imports(path):
    """(module, names) for each import of an arq2d module in one file;
    `from . import m` is reported as (m, set()), and `import arq2d` as
    ("", set())."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "arq2d" or alias.name.startswith("arq2d."):
                    yield alias.name[len("arq2d."):], set()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "arq2d" and not module.startswith("arq2d."):
                    continue
                module = module[len("arq2d"):].lstrip(".")
            if module:
                yield module, {alias.name for alias in node.names}
            else:
                for alias in node.names:
                    yield alias.name, set()


class TestImportBoundary:
    def test_oracle_trusts_only_the_model_and_the_predicate(self):
        # the oracle is the independent check: of the package it takes the
        # model and the Hom predicate by name, and no fast path
        for module, names in _package_imports(SRC / "oracle.py"):
            assert module == "model" or (
                module == "homs" and names == {"stable_hom_nonzero"}), (
                    module, names)

    def test_homs_imports_only_the_model(self):
        # the band tables live in homs, and ortho reads them from there
        assert {module for module, _ in
                _package_imports(SRC / "homs.py")} == {"model"}

    def test_ortho_calls_no_hom_predicate(self):
        # ortho answers every orthogonality question from the band tables;
        # importing homs whole would hide the predicate from this check
        for module, names in _package_imports(SRC / "ortho.py"):
            assert module != "homs" or names, "ortho imports homs whole"
            assert not names & {"_orthogonal_pair", "stable_hom_nonzero"}, \
                names

    def test_only_cli_uses_the_oracle(self):
        for path in sorted(SRC.glob("*.py")):
            if path.name == "cli.py":
                continue
            assert all(module != "oracle"
                       for module, _ in _package_imports(path)), path.name

    def test_cli_takes_only_the_frozen_counts(self):
        used = [names for module, names in _package_imports(SRC / "cli.py")
                if module == "oracle"]
        assert used == [{"reproduce_frozen_counts"}]


class TestPackageSurface:
    def test_exports_are_their_modules_objects(self):
        assert len(arq2d.__all__) == 44
        for name in arq2d.__all__:
            obj = getattr(arq2d, name)
            # the Vertex union alias has no __module__ of its own
            home = "arq2d.model" if name == "Vertex" else obj.__module__
            assert vars(sys.modules[home])[name] is obj, name

    def test_dir_lists_every_export(self):
        assert set(arq2d.__all__) <= set(dir(arq2d))

    def test_star_import(self):
        namespace = {}
        exec("from arq2d import *", namespace)
        assert all(namespace[name] is getattr(arq2d, name)
                   for name in arq2d.__all__)

    def test_submodule_names_stay_modules(self):
        for name in ("closure", "render"):
            assert getattr(arq2d, name) is sys.modules["arq2d." + name]
        assert arq2d.closure.certify_sms is arq2d.certify_sms
        assert arq2d.render.layout is arq2d.layout

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            arq2d.no_such_name
        assert not hasattr(arq2d, "reproduce_frozen_counts")
