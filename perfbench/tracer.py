"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install()` replaces each traced function of `jetflow` with a timing
wrapper *at every name it is bound to*: modules import functions by name
(`recover` binds `hatted_shift_jet`, `solve_exact` and `delta0_linear`;
`jet` binds `compose`; `cli` binds `shift_jet`, `parse_poly`, ...), and a
wrapper on only the defining module would miss those calls.  Methods are
replaced on their class.  `Tracer.restore()` puts every original back.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Spans nest through a plain stack: the package is
single-threaded.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from math import comb

# Traced callables per layer: module-level functions by name, methods as
# "Class.method".  For univar, fields, serialize and borel every public
# function of the module is traced, so their self time is the layer's.
SPANS = {
    "poly": ["MultiPoly.mul_trunc", "Substituter.apply", "compose", "divide_exact",
             "bivariate_homog_gcd"],
    "jet": ["VectorFieldJet.flow_coeffs", "shift_jet", "hatted_shift_jet",
            "flow_time_jet", "flow_taylor_coeffs", "flow_bijet", "jet_inverse"],
    "recover": ["recover_shift_jet", "divide_by_initial_part", "delta0_linear",
                "verify_residual"],
    "linalg": ["solve_exact", "minimal_polynomial", "rref", "nullspace"],
    "parsing": ["parse_poly"],
    "cli": ["run"],
}
WHOLE_MODULE_LAYERS = ("univar", "fields", "serialize", "borel")

# Per-layer metrics reported by a traced run: (name, unit).
METRICS = [
    ("poly.mul_trunc.calls", "count"), ("poly.mul_trunc.self_s", "s"),
    ("poly.mul_trunc.terms_out", "count"), ("poly.mul_trunc.max_terms", "count"),
    ("poly.Substituter.apply.calls", "count"), ("poly.Substituter.apply.self_s", "s"),
    ("jet.flow_coeffs.calls", "count"), ("jet.flow_coeffs.self_s", "s"),
    ("jet.flow_coeffs.hit_ratio", "ratio"),
    ("recover.divide_by_initial_part.calls", "count"),
    ("recover.divide_by_initial_part.self_s", "s"),
    ("recover.divide_by_initial_part.system_cells", "count"),
    ("linalg.solve_exact.calls", "count"), ("linalg.solve_exact.self_s", "s"),
    ("recover.delta0_linear.calls", "count"), ("recover.delta0_linear.self_s", "s"),
    ("jet.flow_time_jet.calls", "count"), ("jet.flow_time_jet.self_s", "s"),
    ("jet.flow_time_jet.rk4_steps", "count"),
    ("poly.compose.calls", "count"), ("poly.compose.self_s", "s"),
    ("jet.shift_jet.self_s", "s"),
    ("jet.hatted_shift_jet.calls", "count"), ("jet.hatted_shift_jet.self_s", "s"),
    ("recover.recover_shift_jet.self_s", "s"),
    ("cli.import_ms", "ms"), ("cli.run.self_s", "s"),
    ("parsing.parse_poly.calls", "count"), ("parsing.parse_poly.self_s", "s"),
    ("serialize.self_s", "s"), ("fields.self_s", "s"), ("univar.self_s", "s"),
    ("linalg.minimal_polynomial.self_s", "s"), ("borel.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

_MARK = "__perfbench_span__"


def _targets():
    """(span name, owner, attribute, original) for every traced callable."""
    out = []
    for layer, names in SPANS.items():
        mod = importlib.import_module(f"jetflow.{layer}")
        for name in names:
            cls_name, _, meth = name.rpartition(".")
            owner = getattr(mod, cls_name) if cls_name else mod
            attr = meth if cls_name else name
            out.append((f"{layer}.{name}", owner, attr, getattr(owner, attr)))
    for layer in WHOLE_MODULE_LAYERS:
        mod = importlib.import_module(f"jetflow.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    return out


def _jetflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "jetflow" or name.startswith("jetflow."))]


class Tracer:
    """Span and counter recorder; install() patches, restore() undoes it."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {"poly.mul_trunc.terms_out": 0, "poly.mul_trunc.max_terms": 0,
                       "jet.flow_coeffs.hits": 0,
                       "recover.divide_by_initial_part.system_cells": 0,
                       "jet.flow_time_jet.compose_calls": 0}
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        pre, post = self._hooks(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = pre(args, kwargs) if pre else None
            result = None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                if post:
                    post(token, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, _MARK, name)
        return wrapper

    def _hooks(self, name):
        counts, calls = self.counts, self.calls
        if name == "poly.MultiPoly.mul_trunc":
            def post(_, result):
                if result is not None:
                    n = len(result.terms)
                    counts["poly.mul_trunc.terms_out"] += n
                    if n > counts["poly.mul_trunc.max_terms"]:
                        counts["poly.mul_trunc.max_terms"] = n
            return None, post
        if name == "jet.VectorFieldJet.flow_coeffs":
            # A hit is a call that ran no mul_trunc.
            def pre(args, kwargs):
                return calls["poly.MultiPoly.mul_trunc"]

            def post(before, _):
                if calls["poly.MultiPoly.mul_trunc"] == before:
                    counts["jet.flow_coeffs.hits"] += 1
            return pre, post
        if name == "jet.flow_time_jet":
            # Four compositions per RK4 step.
            def pre(args, kwargs):
                return calls["poly.compose"]

            def post(before, _):
                counts["jet.flow_time_jet.compose_calls"] += calls["poly.compose"] - before
            return pre, post
        if name == "recover.divide_by_initial_part":
            def pre(args, kwargs):
                counts["recover.divide_by_initial_part.system_cells"] += _system_cells(
                    *args, **kwargs)
            return pre, None
        return None, None

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every traced callable at every binding inside `jetflow`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = _targets()
        wrappers = {id(orig): self._wrap(name, orig) for name, _, _, orig in targets}
        for _, owner, attr, orig in targets:
            if inspect.isclass(owner):
                self._patch(owner, attr, orig, wrappers[id(orig)])
        for mod in _jetflow_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and not inspect.isclass(obj):
                    self._patch(mod, attr, obj, wrapper)
        return self

    def _patch(self, owner, attr, orig, wrapper):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- results -----------------------------------------------------------

    def snapshot(self):
        """Raw totals, mergeable across processes with `merge`."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def _system_cells(v, p_vec, l=None, tol=None):
    """Rows x unknowns of the initial-part system, from the arguments alone."""
    def polys(obj):
        seq = obj.coords if hasattr(obj, "coords") else obj
        return [q.poly if hasattr(q, "poly") else q for q in seq]

    v_polys, p_polys = polys(v), polys(p_vec)
    nvars = p_polys[0].nvars
    p_deg = max((q.degree() for q in p_polys if not q.is_zero()), default=-1)
    if l is None:
        l = max((q.degree() for q in v_polys if not q.is_zero()), default=-1) - p_deg
    if l < 0 or p_deg < 0:
        return 0
    rows = len(v_polys) * comb(p_deg + l + nvars - 1, nvars - 1)
    return rows * comb(l + nvars - 1, nvars - 1)


def merge(snapshots):
    """Sum raw totals; the running maximum stays a maximum."""
    out = {"calls": {}, "self_s": {}, "counts": {}}
    for snap in snapshots:
        for key in ("calls", "self_s"):
            for name, value in snap[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name, value in snap["counts"].items():
            if name.endswith("max_terms"):
                out["counts"][name] = max(out["counts"].get(name, 0), value)
            else:
                out["counts"][name] = out["counts"].get(name, 0) + value
    return out


def per_layer(raw, import_ms, overhead_ratio):
    """The per-layer metrics, from merged raw totals."""
    calls, self_s, counts = raw["calls"], raw["self_s"], raw["counts"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    fc_calls = c("jet.VectorFieldJet.flow_coeffs")
    values = {
        "poly.mul_trunc.calls": c("poly.MultiPoly.mul_trunc"),
        "poly.mul_trunc.self_s": s("poly.MultiPoly.mul_trunc"),
        "poly.mul_trunc.terms_out": counts.get("poly.mul_trunc.terms_out", 0),
        "poly.mul_trunc.max_terms": counts.get("poly.mul_trunc.max_terms", 0),
        "poly.Substituter.apply.calls": c("poly.Substituter.apply"),
        "poly.Substituter.apply.self_s": s("poly.Substituter.apply"),
        "jet.flow_coeffs.calls": fc_calls,
        "jet.flow_coeffs.self_s": s("jet.VectorFieldJet.flow_coeffs"),
        "jet.flow_coeffs.hit_ratio": (counts.get("jet.flow_coeffs.hits", 0) / fc_calls
                                      if fc_calls else 0.0),
        "recover.divide_by_initial_part.calls": c("recover.divide_by_initial_part"),
        "recover.divide_by_initial_part.self_s": s("recover.divide_by_initial_part"),
        "recover.divide_by_initial_part.system_cells":
            counts.get("recover.divide_by_initial_part.system_cells", 0),
        "linalg.solve_exact.calls": c("linalg.solve_exact"),
        "linalg.solve_exact.self_s": s("linalg.solve_exact"),
        "recover.delta0_linear.calls": c("recover.delta0_linear"),
        "recover.delta0_linear.self_s": s("recover.delta0_linear"),
        "jet.flow_time_jet.calls": c("jet.flow_time_jet"),
        "jet.flow_time_jet.self_s": s("jet.flow_time_jet"),
        "jet.flow_time_jet.rk4_steps": counts.get("jet.flow_time_jet.compose_calls", 0) // 4,
        "poly.compose.calls": c("poly.compose"),
        "poly.compose.self_s": s("poly.compose"),
        "jet.shift_jet.self_s": s("jet.shift_jet"),
        "jet.hatted_shift_jet.calls": c("jet.hatted_shift_jet"),
        "jet.hatted_shift_jet.self_s": s("jet.hatted_shift_jet"),
        "recover.recover_shift_jet.self_s": s("recover.recover_shift_jet"),
        "cli.import_ms": import_ms,
        "cli.run.self_s": s("cli.run"),
        "parsing.parse_poly.calls": c("parsing.parse_poly"),
        "parsing.parse_poly.self_s": s("parsing.parse_poly"),
        "serialize.self_s": layer_self("serialize"),
        "fields.self_s": layer_self("fields"),
        "univar.self_s": layer_self("univar"),
        "linalg.minimal_polynomial.self_s": s("linalg.minimal_polynomial"),
        "borel.self_s": layer_self("borel"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}


def wrapped_bindings():
    """Every binding inside `jetflow` that still holds a tracer wrapper."""
    found = []
    for mod in _jetflow_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{attr}.{m}" for m, v in vars(obj).items()
                             if hasattr(v, _MARK))
    return found
