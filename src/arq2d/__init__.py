"""Combinatorial engine for the stable AR quiver of a 2-domestic algebra.

Importing the package runs none of its layers.  Each layer module is put in
sys.modules as a lazy module (importlib.util.LazyLoader) that runs on its
first attribute access, and the package serves the exported names from their
modules on first use (PEP 562).  A `python -m arq2d.cli` command thus runs
only the layers it calls.
"""

import importlib.util
import sys

# layer module -> the names the package exports from it.  The submodule
# names `closure` and `render` stay bound to the modules; their like-named
# entry points are reached through the submodules.
_EXPORTS = {
    "model": ("DomainError", "Euclid", "HeightOutOfRange", "Params", "Tube",
              "Vertex", "Window", "canonical", "format_vertex",
              "fundamental_domain", "is_brick_candidate", "omega",
              "omega_inv", "parse_vertex", "tau", "tau_inv",
              "vertex_sort_key"),
    "homs": ("biperp", "lsupp", "rsupp", "stable_hom_nonzero"),
    "brauer": ("DomesticClass", "QuiverPresentation", "build_quiver",
               "classify", "emit_quiver_dot", "parse_graph"),
    "ortho": ("NoEuclideanMember", "enumerate_ortho_on_paired",
              "enumerate_ortho_on_triangle", "enumeration_report",
              "euclidean_ortho_check", "is_orthogonal_system",
              "maximal_systems_containing", "maximality"),
    "closure": ("NotMaximal", "ParameterNotUnique", "WindowTooSmall",
                "certify_sms", "extract_params", "replay_trace",
                "triangle_catalog"),
    "render": ("RenderSpec", "layout"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _lazy(name: str):
    """Register the submodule `name` to run on its first attribute access
    (the LazyLoader recipe of the importlib documentation)."""
    spec = importlib.util.find_spec(__name__ + "." + name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# cli and oracle stay ordinary modules: `python -m arq2d.cli` warns when cli
# is already in sys.modules, and only cli imports the oracle
model = _lazy("model")
homs = _lazy("homs")
brauer = _lazy("brauer")
ortho = _lazy("ortho")
closure = _lazy("closure")
render = _lazy("render")


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
