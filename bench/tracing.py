"""Per-layer counters for a traced benchmark run.

The tracer replaces public functions of the arq2d modules with wrappers that
count calls and add up time while the tracer is active.  A name bound with
`from .model import canonical` is a separate binding in the importing module,
so each function is replaced in every module that holds the same object.
`arq2d.oracle` is left alone: it is the independent check, and the checks run
with the tracer inactive anyway.

Hot predicates record a count and a total time, not one span per call.  A
function that calls itself (rsupp, biperp) is timed at its outermost call
only; times are otherwise inclusive of the layers below.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

# (module, function, metric key, mode); mode "count" only counts calls,
# "time" counts and times them, "size" also adds up len() of the result.
PATCHES = (
    ("model", "canonical", "model.canonical", "count"),
    ("model", "omega", "model.omega", "count"),
    ("model", "omega_inv", "model.omega", "count"),
    ("homs", "stable_hom_nonzero", "homs.stable_hom_nonzero", "time"),
    ("homs", "rsupp", "homs.rsupp", "time"),
    ("homs", "lsupp", "homs.lsupp", "time"),
    ("homs", "biperp", "homs.biperp", "time"),
    ("ortho", "is_orthogonal_system", "ortho.is_orthogonal_system", "time"),
    ("ortho", "witness_pool", "ortho.witness_pool", "size"),
    ("ortho", "maximality", "ortho.maximality", "time"),
    ("ortho", "maximal_systems_containing", "ortho.maximal_systems_containing",
     "size"),
    ("closure", "triangle_catalog", "closure.triangle_catalog", "size"),
    ("closure", "closure", "closure.closure", "time"),
    ("closure", "replay_trace", "closure.replay_trace", "time"),
    ("closure", "extract_params", "closure.extract_params", "time"),
    ("closure", "certify_sms", "closure.certify_sms", "time"),
    ("brauer", "classify", "brauer.classify", "time"),
    ("brauer", "build_quiver", "brauer.build_quiver", "time"),
    ("render", "render", "render.render", "time"),
)

# modules whose bindings are replaced; oracle is deliberately absent
LAYER_MODULES = ("model", "homs", "ortho", "closure", "brauer", "render", "cli")


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = collections.Counter()
        self.secs = collections.Counter()
        self.items = collections.Counter()
        self._running: set[str] = set()

    def snapshot(self) -> dict:
        return dict(self.secs)

    def _wrap(self, key: str, fn, mode: str):
        calls, secs, items, running = (self.calls, self.secs, self.items,
                                       self._running)
        clock = time.perf_counter
        tracer = self

        if mode == "count":
            def counted(*args, **kwargs):
                if tracer.active:
                    calls[key] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        sized = mode == "size"

        def timed(*args, **kwargs):
            if not tracer.active or key in running:
                return fn(*args, **kwargs)
            running.add(key)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                secs[key] += clock() - t0
                calls[key] += 1
                running.discard(key)
            if sized:
                items[key] += len(out)
            return out
        return functools.wraps(fn)(timed)

    def install(self) -> None:
        """Replace every binding of the patched functions in arq2d."""
        import arq2d.cli  # noqa: F401  (loads every submodule)
        holders = [sys.modules["arq2d"]]
        holders += [sys.modules["arq2d." + m] for m in LAYER_MODULES]
        for module, name, key, mode in PATCHES:
            original = getattr(sys.modules["arq2d." + module], name)
            wrapper = self._wrap(key, original, mode)
            for holder in holders:
                if getattr(holder, name, None) is original:
                    setattr(holder, name, wrapper)
