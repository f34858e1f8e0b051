"""Spans around heisring's public entry points, recorded from outside the package.

``Tracer.install`` rebinds each traced function in every loaded ``heisring``
module namespace that holds it (``from .profiles import validate`` makes a
second binding), so calls between modules pass through the wrapper too.
``uninstall`` restores the originals, so untraced passes run the unmodified
code. Spans are aggregated in memory per (span name, surface label); the
self time of a span is its duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

from heisring import cli, curves, exprparse, modulus, profiles, revcoords, surface


def _points_arg(index):
    return lambda args: int(np.size(args[index]))


# (module, function name, points-from-args or None); the span is "<module>.<function>"
SPANS = (
    (revcoords, "pstar_pair", _points_arg(1)),
    (revcoords, "phi_map_arrays", None),
    (revcoords, "phi_inv_arrays", None),
    (revcoords, "horizontality_rhs", None),
    (revcoords, "integrate_over_box", None),
    (modulus, "make_ring", None),
    (modulus, "rho0_values", _points_arg(1)),
    (modulus, "numeric_modulus", None),
    (modulus, "mc_modulus", None),
    (modulus, "admissibility_report", None),
    (modulus, "restricted_oracle", None),
    (curves, "random_horizontal_curve", None),
    (curves, "quasiradial", None),
    (curves, "line_integral", None),
    (surface, "horizontal_area", None),
    (surface, "flow_curve", None),
    (surface, "export_mesh", None),
    (surface, "mean_curvature", None),
    (exprparse, "evaluate", None),
    (cli, "main", None),
)

# Layers whose per-call time is compared across surfaces (ROADMAP's 2x target).
VS_KORANYI = ("modulus.numeric_modulus", "modulus.mc_modulus",
              "curves.random_horizontal_curve", "curves.quasiradial",
              "curves.line_integral")


class Stat:
    __slots__ = ("calls", "points", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.points = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    """Aggregating span recorder; one per process, installed only when tracing."""

    def __init__(self):
        self.surface = "-"
        self.stats: dict[tuple[str, str], Stat] = {}
        self.counters: dict[str, int] = {}
        self.top_s = 0.0  # summed duration of spans with no parent span
        self._stack: list[list] = []  # [name, time covered by children]
        self._saved: list[tuple] = []

    def reset(self):
        self.stats = {}
        self.counters = {}
        self.top_s = 0.0

    def _span(self, name, fn, points=None, name_of=None, reentrant=True):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not reentrant and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)  # recursion stays inside one span
            key = name if name_of is None else name_of(args)
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_s += dur
                stat = self.stats.get((key, self.surface))
                if stat is None:
                    stat = self.stats[(key, self.surface)] = Stat()
                stat.calls += 1
                stat.self_s += dur - frame[1]
                stat.incl_s += dur
                if points is not None:
                    stat.points += points(args)
        return wrapper

    def _counted(self, fn, counter, inside):
        """``fn`` counting its calls made while a span named ``inside`` is open."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(frame[0] == inside for frame in self._stack):
                self.counters[counter] = self.counters.get(counter, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Rebind the traced entry points; undone by ``uninstall``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for owner, attr, points in SPANS:
            fn = getattr(owner, attr)
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapped[id(fn)] = self._span(name, fn, points,
                                         reentrant=name != "exprparse.evaluate")
        wrapped[id(revcoords.jacobian)] = self._counted(
            revcoords.jacobian, "revcoords.integrand_calls", "revcoords.integrate_over_box")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "heisring" or mod_name.startswith("heisring.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)])

        # ProfileCurve.eval is split on whether the curve is a by-argument
        # reparametrisation (Newton inversion) or a native evaluator.
        orig_eval = profiles.ProfileCurve.eval
        self._saved.append((profiles.ProfileCurve, "eval", orig_eval))
        span = self._span(
            "profiles.eval_native", orig_eval, _points_arg(1),
            name_of=lambda args: ("profiles.eval_byarg"
                                  if args[0].by_argument and args[0].source is not None
                                  else "profiles.eval_native"))
        profiles.ProfileCurve.eval = self._counted(span, "profiles.native_in_byarg",
                                                   "profiles.eval_byarg")

    def uninstall(self):
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved = []


# -- per-layer metrics ------------------------------------------------------------

CALLS_POINTS_SELF = ("profiles.eval_native", "profiles.eval_byarg",
                     "revcoords.pstar_pair", "modulus.rho0_values")
CALLS_SELF = ("revcoords.phi_map_arrays", "revcoords.phi_inv_arrays",
              "revcoords.horizontality_rhs", "revcoords.integrate_over_box",
              "curves.random_horizontal_curve", "curves.quasiradial",
              "curves.line_integral", "surface.mean_curvature",
              "exprparse.evaluate", "cli.main")
SELF_ONLY = ("modulus.make_ring", "modulus.numeric_modulus", "modulus.mc_modulus",
             "modulus.admissibility_report", "modulus.restricted_oracle",
             "surface.horizontal_area", "surface.flow_curve", "surface.export_mesh")


def _totals(tracer, name):
    tot = Stat()
    for (key, _surface), stat in tracer.stats.items():
        if key == name:
            tot.calls += stat.calls
            tot.points += stat.points
            tot.self_s += stat.self_s
            tot.incl_s += stat.incl_s
    return tot


def _per_call(tracer, name, surface):
    stat = tracer.stats.get((name, surface))
    return stat.incl_s / stat.calls if stat is not None and stat.calls else 0.0


def layer_metrics(tracer, accuracy):
    """Per-layer metric values by name; a layer the workload never reaches reads 0."""
    out = {}
    for name in CALLS_POINTS_SELF + CALLS_SELF + SELF_ONLY:
        tot = _totals(tracer, name)
        if name not in SELF_ONLY:
            out[f"{name}.calls"] = tot.calls
        if name in CALLS_POINTS_SELF:
            out[f"{name}.points"] = tot.points
        out[f"{name}.self_s"] = tot.self_s
    byarg = out["profiles.eval_byarg.calls"]
    out["profiles.native_per_byarg"] = (
        tracer.counters.get("profiles.native_in_byarg", 0) / byarg if byarg else 0.0)
    out["revcoords.integrand_calls"] = tracer.counters.get("revcoords.integrand_calls", 0)
    for name in ("revcoords.roundtrip_err", "modulus.quad_rel_err", "modulus.mc_sigma",
                 "modulus.adm_min", "modulus.oracle_dev", "curves.quasi_err",
                 "curves.residual_max"):
        out[name] = accuracy.get(name, 0.0)
    # Per-call inclusive time against the Koranyi sphere: the work of the
    # modulus routes sits in child spans, so their self time would say little.
    for name in VS_KORANYI:
        base = _per_call(tracer, name, "koranyi")
        for surface in ("bubble", "cc"):
            out[f"{name}.vs_koranyi.{surface}"] = (
                _per_call(tracer, name, surface) / base if base else 0.0)
    return out


def surface_table(tracer):
    """{layer: {surface: [calls, inclusive seconds]}} for the ROADMAP layers."""
    table = {}
    for (name, surface), stat in sorted(tracer.stats.items()):
        if name in VS_KORANYI:
            table.setdefault(name, {})[surface] = [stat.calls, stat.incl_s]
    return table
