"""The names the benchmark in perfbench/ wraps and calls must keep existing.

perfbench/tracing.py rebinds heisring functions by name and
perfbench/workloads.py calls them; a rename here makes every benchmark run
fail, so the contract is checked in the tier-1 suite.
"""

import ast
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402  (needs perfbench/ on sys.path)

from heisring import curves, modulus, profiles, revcoords  # noqa: E402

HEISRING_MODULES = ("cli", "curves", "modulus", "profiles", "revcoords")


def test_traced_spans_exist():
    for owner, attr, _points in tracing.SPANS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    assert callable(revcoords.jacobian)
    assert callable(profiles.ProfileCurve.eval)


def _bindings():
    out = {(name, attr): val for name, mod in sys.modules.items()
           if name == "heisring" or name.startswith("heisring.")
           for attr, val in vars(mod).items()}
    out[("ProfileCurve", "eval")] = profiles.ProfileCurve.eval
    return out


def test_tracer_uninstall_restores_bindings():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert revcoords.pstar_pair is not before[("heisring.revcoords", "pstar_pair")]
        assert profiles.ProfileCurve.eval is not before[("ProfileCurve", "eval")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())


def test_workload_calls_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    called = {(node.value.id, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in HEISRING_MODULES}
    for name in ("random_family", "quasiradial_family"):
        assert ("curves", name) in called
    for name in ("rho0_density", "analytic_modulus"):
        assert ("modulus", name) in called
    assert ("revcoords", "phi_inv_arrays") in called
    missing = [f"{mod}.{attr}" for mod, attr in sorted(called)
               if not hasattr(sys.modules[f"heisring.{mod}"], attr)]
    assert not missing


@pytest.fixture(scope="module")
def ring():
    return modulus.make_ring(profiles.catalog("bubble_set", 1.0), 1.0, 2.0)


def test_family_members_carry_residual(ring):
    fam = curves.random_family(ring, 2, seed0=0, n=64)
    grid = curves.quasiradial_family(ring, n_beta=2, n_phi=2, n=64)
    for member in (*fam, *grid):
        assert member.residual >= 0.0


def test_byarg_eval_reaches_source_through_profilecurve_eval(ring):
    # profiles.native_per_byarg counts native ProfileCurve.eval calls nested
    # in a by-argument one; an evaluator bypassing eval would read 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ring.profile.eval(np.linspace(profiles.BETA_LO + 0.1, profiles.BETA_HI - 0.1, 16))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, {})
    assert metrics["profiles.eval_byarg.calls"] == 1
    assert metrics["profiles.eval_native.calls"] >= 1
    assert metrics["profiles.native_per_byarg"] == metrics["profiles.eval_native.calls"]


def test_family_work_runs_inside_traced_spans(ring):
    # perfbench calls random_family and quasiradial_family, which the tracer
    # does not wrap: their work must run inside the wrapped generators, or the
    # curve layers read 0 and trace.span_cover_frac falls below its 0.95 gate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        fam = curves.random_family(ring, 20, seed0=0, n=64)
        grid = curves.quasiradial_family(ring, n_beta=4, n_phi=4, n=64)
        modulus.admissibility_report(ring, fam)
        curves.line_integral(modulus.rho0_density(ring), grid)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, {})
    assert metrics["curves.random_horizontal_curve.calls"] == 1
    assert metrics["curves.quasiradial.calls"] == 1
    assert metrics["revcoords.horizontality_rhs.calls"] == 1
    assert metrics["curves.line_integral.calls"] == 2
    assert tracer.top_s >= 0.95 * wall
