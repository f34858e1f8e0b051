"""The four benchmark workloads and their accuracy gates.

Each workload has a ``setup(seed, tmpdir)`` that builds every profile and ring
it uses (the ``setup_s`` work) and a ``run_pass(state, checks, tracer)`` that
makes one pass over its full input set. Every gate uses a tolerance that the
acceptance suite already pins (criteria 01, 02, 03, 05) or a CLI exit code. A
gate that misses, or raises, counts as one failed check; it never aborts the
pass, so a speed-up that costs accuracy shows in ``fail_frac``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import traceback

import numpy as np

from heisring import cli, curves, modulus, profiles, revcoords

SURFACES = (("koranyi", "koranyi_sphere"), ("bubble", "bubble_set"), ("cc", "cc_sphere"))

QUAD_RINGS = ((1.0, 2.0), (1.0, math.e), (0.5, 3.0))  # as criterion 01
MC_SAMPLES = 10 ** 6  # as criterion 02
ROUNDTRIP_POINTS = 10 ** 5
ADM_CURVES = 300
ADM_GRID = 16  # quasiradial grid is ADM_GRID x ADM_GRID
CURVE_SAMPLES = 256
CLI_CURVES = 200

BUBBLE_PROFILE = """\
# the bubble surface written in the profile language
param R = 1
f = 2*R*sin(s/(2*R))
g = 2*R^2*sin(s/R) - 2*R*s + 2*pi*R^2
domain = (0, 2*pi*R)
"""

# Accuracy figures a workload records; worst value over the pass.
ACCURACY = {
    "revcoords.roundtrip_err": max,
    "modulus.quad_rel_err": max,
    "modulus.mc_sigma": max,
    "modulus.adm_min": min,
    "modulus.oracle_dev": max,
    "curves.quasi_err": max,
    "curves.residual_max": max,
}


class Checks:
    """Counts gates attempted and failed, and keeps the worst accuracy figures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.accuracy: dict[str, float] = {}

    def gate(self, label, fn):
        """Run ``fn`` (returns True when within tolerance); never raises."""
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception:  # a gate that raises is one failed check
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print(f"check failed: {label}", file=sys.stderr)
        return ok

    def record(self, name, value):
        value = float(value)
        old = self.accuracy.get(name)
        self.accuracy[name] = value if old is None else ACCURACY[name](old, value)


def _catalog_ring(full_name, a, b):
    return modulus.make_ring(profiles.catalog(full_name, 1.0), a, b)


# -- quadrature ------------------------------------------------------------------


def quadrature_setup(seed, tmpdir):
    return [(label, a, b, _catalog_ring(full, a, b))
            for label, full in SURFACES for a, b in QUAD_RINGS]


def quadrature_pass(rings, checks, tracer):
    for label, a, b, ring in rings:
        tracer.surface = label

        def gate(ring=ring, a=a, b=b):
            want = modulus.analytic_modulus(a, b)
            rel = abs(modulus.numeric_modulus(ring) - want) / want
            checks.record("modulus.quad_rel_err", rel)
            return rel <= 1e-5
        checks.gate(f"quadrature {label} ({a:g}, {b:g})", gate)


# -- monte-carlo -----------------------------------------------------------------


def monte_carlo_setup(seed, tmpdir):
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for label, full in SURFACES:
        xi = rng.uniform(-1.5, 1.5, ROUNDTRIP_POINTS)
        beta = rng.uniform(profiles.BETA_LO + 1e-3, profiles.BETA_HI - 1e-3,
                           ROUNDTRIP_POINTS)
        phi = rng.uniform(0.0, 2 * math.pi - 1e-9, ROUNDTRIP_POINTS)
        out.append((label, _catalog_ring(full, 1.0, 2.0), (xi, beta, phi)))
    return {"seed": seed, "rings": out}


def monte_carlo_pass(state, checks, tracer):
    seed = state["seed"]
    for label, ring, (xi, beta, phi) in state["rings"]:
        tracer.surface = label

        def mc_gate(ring=ring):
            value, stderr = modulus.mc_modulus(ring, n=MC_SAMPLES, seed=seed)
            sigma = abs(value - modulus.analytic_modulus(ring.a, ring.b)) / stderr
            checks.record("modulus.mc_sigma", sigma)
            return sigma <= 3.0

        def roundtrip_gate(ring=ring, xi=xi, beta=beta, phi=phi):
            z, t = revcoords.phi_map_arrays(ring.profile, xi, beta, phi)
            xi2, beta2, phi2 = revcoords.phi_inv_arrays(ring.profile, z, t)
            err = max(float(np.max(np.abs(xi2 - xi))), float(np.max(np.abs(beta2 - beta))),
                      float(np.max(np.abs(phi2 - phi))))
            checks.record("revcoords.roundtrip_err", err)
            return err <= 1e-12
        checks.gate(f"monte-carlo {label}", mc_gate)
        checks.gate(f"roundtrip {label}", roundtrip_gate)


# -- admissibility ---------------------------------------------------------------


def admissibility_setup(seed, tmpdir):
    return {"seed": seed,
            "rings": [(label, _catalog_ring(full, 1.0, 2.0)) for label, full in SURFACES]}


def admissibility_pass(state, checks, tracer):
    for label, ring in state["rings"]:
        tracer.surface = label

        def random_gate(ring=ring):
            fam = curves.random_family(ring, ADM_CURVES, seed0=state["seed"],
                                       n=CURVE_SAMPLES)
            rep = modulus.admissibility_report(ring, fam)
            checks.record("modulus.adm_min", rep.min)
            checks.record("curves.residual_max", max(c.residual for c in fam))
            return rep.min >= 0.999

        def quasi_gate(ring=ring):
            grid = curves.quasiradial_family(ring, n_beta=ADM_GRID, n_phi=ADM_GRID,
                                             n=CURVE_SAMPLES)
            rho = modulus.rho0_density(ring)
            vals = np.array([curves.line_integral(rho, g) for g in grid])
            err = float(np.max(np.abs(vals - 1.0)))
            checks.record("curves.quasi_err", err)
            checks.record("curves.residual_max", max(c.residual for c in grid))
            return err <= 1e-9
        checks.gate(f"random family {label}", random_gate)
        checks.gate(f"quasiradial grid {label}", quasi_gate)


# -- cli-user-profile ------------------------------------------------------------


def cli_setup(seed, tmpdir):
    path = os.path.join(tmpdir, "bubble_profile.txt")
    with open(path, "w") as fh:
        fh.write(BUBBLE_PROFILE)
    with open(path) as fh:
        curve = profiles.parse_profile(fh.read(), name=path)
    modulus.make_ring(curve, 1.0, 2.0)
    return {"seed": seed, "profile": path, "tmpdir": tmpdir}


def _cli(argv):
    """(exit code, stdout) of one in-process ``heisring`` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_pass(state, checks, tracer):
    tracer.surface = "user"
    prof, tmp = state["profile"], state["tmpdir"]
    checks.gate("cli validate", lambda: _cli(["validate", "--profile", prof])[0] == 0)

    report = {}

    def run_modulus():
        code, out = _cli(["modulus", "--profile", prof, "--a", "1", "--b", "2",
                          "--curves", str(CLI_CURVES), "--oracle", "--json",
                          "--seed", str(state["seed"])])
        report.update(json.loads(out))
        return code == 0
    checks.gate("cli modulus", run_modulus)

    def rel_err():
        checks.record("modulus.quad_rel_err", report["rel_err"])
        return report["rel_err"] <= 1e-8

    def adm_min():
        checks.record("modulus.adm_min", report["admissibility"]["min"])
        return report["admissibility"]["min"] >= 0.999

    def oracle_dev():
        dev = report["oracle"]["max_dev_from_uniform"]
        checks.record("modulus.oracle_dev", dev)
        return dev <= 1e-6
    checks.gate("cli modulus rel_err", rel_err)
    checks.gate("cli modulus admissibility", adm_min)
    checks.gate("cli modulus oracle", oracle_dev)

    checks.gate("cli geometry", lambda: _cli(
        ["geometry", "--profile", prof, "--flow", "1.0,0.0",
         "--csv", os.path.join(tmp, "geometry.csv")])[0] == 0)
    checks.gate("cli export-mesh", lambda: _cli(
        ["export-mesh", "--profile", prof, "--out", os.path.join(tmp, "mesh.obj")])[0] == 0)


WORKLOADS = {
    "quadrature": (quadrature_setup, quadrature_pass),
    "monte-carlo": (monte_carlo_setup, monte_carlo_pass),
    "admissibility": (admissibility_setup, admissibility_pass),
    "cli-user-profile": (cli_setup, cli_pass),
}
