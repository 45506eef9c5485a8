"""Per-layer counters and self-time spans, installed from outside the package.

Every public function of a traced tstructkit module, and every public
method of ``QuiverBackend``, is replaced on its module or class by a wrapper,
so calls made inside the package (which look names up on the module) are
seen too.  Four kinds of wrapper exist:

* ``count``: bumps a call counter and nothing else.  Used for everything
  not named in ``PLAN``, and for hot leaves such as ``derived.dobj``.
* ``span``: counter plus a timed span on a stack; a span's self time is
  its duration minus the time of the spans it encloses.
* ``leaf``: counter plus a timer that does not push a span.  Used for
  leaves called millions of times (``fplinalg``, ``p1_membership``) that
  call no spanned function.  Nested calls inside a leaf are counted but not
  timed again.
* ``yields``: counter plus a count of the items a generator hands out.

An optional key function records distinct argument tuples, from which the
share of calls that no memo could serve follows.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

# (module short name, function name) -> (kind, key function or None)
PLAN = {
    ("quiver", "__init__"): ("span", None),
    ("quiver", "middle_terms"): ("span", lambda self, quot, sub: (quot, sub)),
    ("quiver", "objs_with_dims"): ("count", lambda self, dims: tuple(dims)),
    ("quiver", "part_sets"): ("span", lambda self, x, y: (x, y)),
    ("quiver", "morphisms"): ("yields", None),
    ("quiver", "decompose_rep"): ("span", None),
    ("quiver", "hom_basis"): ("span", None),
    ("core", "is_closed"): ("span", None),
    ("core", "closure"): ("span", None),
    ("core", "is_tilting_in"): ("span", None),
    ("derived", "enumerate_narrow_sequences"): ("span", None),
    ("derived", "star_membership"): ("span", None),
    ("refined", "xi"): ("span", None),
    ("refined", "psi"): ("span", None),
    # x arrives normalised: from window_objects, or from the DFS via dobj
    ("refined", "star_oracle_membership"):
        ("span", lambda backend, r, n, m, x, *a, **k: (id(r), n, m, tuple(sorted(x.items())))),
    ("dedekind", "middle_term_types"): ("span", lambda a, b: (a, b)),
    ("dedekind", "subquotient_pairs"): ("span", None),
    ("dedekind", "ded_co_narrow_validate"): ("span", None),
    ("projline", "p1_membership"): ("leaf", None),
    ("projline", "classify_p1_sequence"): ("span", None),
    ("cli", "cmd_verify"): ("span", None),
}

LEAF_MODULES = ("fplinalg",)  # every public function is a timed leaf
LAYERS = ("fplinalg", "quiver", "core", "derived", "refined", "projline",
          "dedekind", "cli")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.keys = defaultdict(set)
        self.extra = Counter()
        self._open = []  # child-time accumulator of every open span
        self._in_leaf = False

    def wrap(self, name, fn, kind="count", key=None, group=None):
        calls, keys = self.calls, self.keys
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                if key is not None:
                    keys[name].add(key(*args, **kwargs))
                return fn(*args, **kwargs)
            return counted
        if kind == "yields":
            extra = self.extra

            @functools.wraps(fn)
            def yielding(*args, **kwargs):
                calls[name] += 1
                for item in fn(*args, **kwargs):
                    extra[name + ".yielded"] += 1
                    yield item
            return yielding
        if kind == "leaf":
            return self._leaf(name, group or name, fn)
        if kind == "span":
            return self._span(name, fn, key)
        raise ValueError(f"unknown wrapper kind {kind!r}")

    def _span(self, name, fn, key):
        calls, keys, self_s, incl_s, open_ = (self.calls, self.keys, self.self_s,
                                              self.incl_s, self._open)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            if key is not None:
                keys[name].add(key(*args, **kwargs))
            child = [0.0]
            open_.append(child)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                open_.pop()
                self_s[name] += dt - child[0]
                incl_s[name] += dt
                if open_:
                    open_[-1][0] += dt
        return spanned

    def _leaf(self, name, group, fn):
        calls, self_s, open_ = self.calls, self.self_s, self._open
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            calls[name] += 1
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_leaf = False
                self_s[group] += dt
                if open_:
                    open_[-1][0] += dt
        return timed


def _public_functions(mod):
    for name, obj in list(vars(mod).items()):
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield name, obj


def install(tracer):
    """Wrap the public functions of tstructkit's layer modules and the public
    methods (and constructor) of QuiverBackend.  Returns the tracer."""
    import importlib

    for short in LAYERS:
        mod = importlib.import_module(f"tstructkit.{short}")
        for name, fn in _public_functions(mod):
            if short in LEAF_MODULES:
                wrapped = tracer.wrap(f"{short}.{name}", fn, "leaf", group=short)
            else:
                kind, key = PLAN.get((short, name), ("count", None))
                wrapped = tracer.wrap(f"{short}.{name}", fn, kind, key)
            setattr(mod, name, wrapped)
    cls = importlib.import_module("tstructkit.quiver").QuiverBackend
    extra = tracer.extra
    shims = {"objs_with_dims": _count_candidates(extra), "middle_terms": _count_accepted(extra)}
    for name, fn in list(vars(cls).items()):
        if not inspect.isfunction(fn) or (name.startswith("_") and name != "__init__"):
            continue
        kind, key = PLAN.get(("quiver", name), ("count", None))
        label = "quiver.build" if name == "__init__" else f"quiver.{name}"
        if name in shims:
            fn = shims[name](fn)
        setattr(cls, name, tracer.wrap(label, fn, kind, key))
    return tracer


def _count_candidates(extra):
    """objs_with_dims only runs on a middle_terms miss; tally its candidates."""
    def shim(fn):
        @functools.wraps(fn)
        def inner(self, dims):
            out = fn(self, dims)
            extra["quiver.objs_with_dims.candidates"] += len(out)
            return out
        return inner
    return shim


def _count_accepted(extra):
    """Middle terms returned by the calls that searched candidates."""
    def shim(fn):
        @functools.wraps(fn)
        def inner(self, quot, sub):
            before = extra["quiver.objs_with_dims.candidates"]
            out = fn(self, quot, sub)
            if extra["quiver.objs_with_dims.candidates"] != before:
                extra["quiver.middle_terms.accepted"] += len(out)
            return out
        return inner
    return shim


def module_calls(tracer, short):
    """Calls into every wrapped public function of one module."""
    prefix = short + "."
    return sum(n for name, n in tracer.calls.items() if name.startswith(prefix))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

CALLS = ("quiver.middle_terms", "quiver.objs_with_dims", "quiver.part_sets",
         "quiver.decompose_rep", "quiver.hom_basis", "core.classify_subcat",
         "core.is_closed", "core.closure", "derived.dobj", "derived.star_membership",
         "refined.star_oracle_membership", "dedekind.middle_term_types",
         "dedekind.p_extension_types", "dedekind.subquotient_pairs",
         "projline.p1_membership")
SELF_SHARES = ("quiver.middle_terms", "quiver.part_sets", "quiver.decompose_rep",
               "quiver.hom_basis", "fplinalg", "core.is_closed", "core.closure",
               "core.is_tilting_in", "derived.enumerate_narrow_sequences", "refined.xi",
               "derived.star_membership", "refined.star_oracle_membership", "refined.psi",
               "dedekind.middle_term_types", "dedekind.subquotient_pairs",
               "dedekind.ded_co_narrow_validate", "projline.p1_membership", "projline.classify_p1_sequence", "cli.cmd_verify")
INCL_SHARES = ("quiver.build", "quiver.middle_terms")  # inclusive of their callees
DISTINCT = ("quiver.middle_terms", "quiver.objs_with_dims", "quiver.part_sets",
            "refined.star_oracle_membership", "dedekind.middle_term_types")
ISOLATION = ("quiver", "core", "derived", "refined", "projline", "dedekind")


def layer_metrics(tracer, setup_s, solve_s):
    """name -> (value, unit) for one traced pass.  Self times are shares of
    the pass's wall time (set-up plus solve), whose parts trace.setup_s and
    trace.solve_s give; a layer a workload never enters reads 0."""
    wall = setup_s + solve_s
    out = {"trace.setup_s": (setup_s, "s"), "trace.solve_s": (solve_s, "s")}
    for short in ISOLATION + ("fplinalg",):
        out[f"{short}.calls"] = (module_calls(tracer, short), "count")
    for name in CALLS:
        out[f"{name}.calls"] = (tracer.calls[name], "count")
    out["quiver.morphisms.yielded"] = (tracer.extra["quiver.morphisms.yielded"], "count")
    for name in SELF_SHARES:
        out[f"{name}.self_share"] = (tracer.self_s[name] / wall, "ratio")
    for name in INCL_SHARES:
        out[f"{name}.incl_share"] = (tracer.incl_s[name] / wall, "ratio")
    for name in DISTINCT:
        n = tracer.calls[name]
        out[f"{name}.distinct_ratio"] = (len(tracer.keys[name]) / n if n else 0.0, "ratio")
    cands = tracer.extra["quiver.objs_with_dims.candidates"]
    out["quiver.middle_terms.accept_ratio"] = (
        tracer.extra["quiver.middle_terms.accepted"] / cands if cands else 0.0, "ratio")
    return out
