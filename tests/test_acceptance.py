"""Acceptance gate: ten numbered end-to-end criteria, one summary line each.

Each test prints a single machine-greppable PASS/FAIL line (bypassing output
capture) and then asserts. Tolerances are pinned in the assertions.
"""

import math
import time

import numpy as np
import pytest

from heisring import curves as cv
from heisring import modulus as md
from heisring import revcoords as rc
from heisring import surface as sf
from heisring.profiles import (BETA_HI, BETA_LO, catalog, koranyi_image,
                               parse_profile, reparam_by_argument, validate)

SURFACES = ("koranyi_sphere", "bubble_set", "cc_sphere")


@pytest.fixture(scope="module")
def rings():
    return {name: md.make_ring(catalog(name, 1.0), 1.0, 2.0)
            for name in SURFACES}


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}",
              flush=True)
    assert ok, detail


def test_01_modulus_reproduction(capsys):
    worst = 0.0
    slowest = 0.0
    for name in SURFACES:
        for a, b in ((1.0, 2.0), (1.0, math.e), (0.5, 3.0)):
            t0 = time.perf_counter()
            ring = md.make_ring(catalog(name, 1.0), a, b)
            got = md.numeric_modulus(ring)
            slowest = max(slowest, time.perf_counter() - t0)
            want = md.analytic_modulus(a, b)
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-5 and slowest <= 10.0
    report(capsys, 1, ok,
           f"modulus vs pi^2 log(b/a)^-3: worst rel err {worst:.2e} "
           f"(tol 1e-5), slowest case {slowest:.2f}s (limit 10s)")


def test_02_density_integral_two_routes(capsys, rings):
    worst_sigma = 0.0
    for name, ring in rings.items():
        quad = md.numeric_modulus(ring)
        mc, stderr = md.mc_modulus(ring, n=10 ** 6, seed=2024)
        worst_sigma = max(worst_sigma, abs(mc - quad) / stderr)
    ok = worst_sigma <= 3.0
    report(capsys, 2, ok,
           f"rho0^4 integral quadrature vs Monte Carlo (10^6 samples): "
           f"worst deviation {worst_sigma:.2f} standard errors (limit 3)")


def test_03_admissibility(capsys, rings):
    worst_min = math.inf
    worst_quasi = 0.0
    for name, ring in rings.items():
        rho = md.rho0_density(ring)
        fam = cv.random_family(ring, 1000, seed0=0, n=256)
        rep = md.admissibility_report(ring, fam)
        worst_min = min(worst_min, rep.min)
        grid = cv.quasiradial_family(ring, n_beta=64, n_phi=64, n=256)
        vals = cv.line_integral(rho, grid)
        worst_quasi = max(worst_quasi, float(np.max(np.abs(vals - 1.0))))
    ok = worst_min >= 0.999 and worst_quasi <= 1e-9
    report(capsys, 3, ok,
           f"admissibility: min over 3x1000 random curves {worst_min:.6f} "
           f"(>= 0.999), quasiradial 64x64 worst |integral-1| "
           f"{worst_quasi:.2e} (<= 1e-9)")


def test_04_lower_bound_oracle(capsys, rings):
    ring = rings["koranyi_sphere"]
    want = md.analytic_modulus(ring.a, ring.b)
    uniform = 1.0 / ring.log_ratio
    worst_val = 0.0
    worst_dev = 0.0
    for n_bins in (2, 64, 1024):
        value, h = md.restricted_oracle(ring, n_bins, seed=1)
        worst_val = max(worst_val, abs(value - want) / want)
        worst_dev = max(worst_dev, float(np.max(np.abs(h - uniform))) / uniform)
    ok = worst_val <= 1e-6 and worst_dev <= 1e-6
    report(capsys, 4, ok,
           f"restricted oracle (bins 2/64/1024): value rel err "
           f"{worst_val:.2e} (<= 1e-6), minimizer dev {worst_dev:.2e} (<= 1e-6)")


def test_05_coordinate_system(capsys, rings):
    rng = np.random.Generator(np.random.Philox(key=55))
    worst_rt = 0.0
    worst_jac = 0.0
    for name, ring in rings.items():
        prof = ring.profile
        xi = rng.uniform(-1.5, 1.5, 10 ** 4)
        beta = rng.uniform(BETA_LO + 1e-3, BETA_HI - 1e-3, 10 ** 4)
        phi = rng.uniform(0.0, 2 * math.pi - 1e-9, 10 ** 4)
        z, t = rc.phi_map_arrays(prof, xi, beta, phi)
        xi2, beta2, phi2 = rc.phi_inv_arrays(prof, z, t)
        worst_rt = max(worst_rt,
                       float(np.max(np.abs(xi2 - xi))),
                       float(np.max(np.abs(beta2 - beta))),
                       float(np.max(np.abs(phi2 - phi))))
        h = 1e-6
        for _ in range(10 ** 3 // 3 + 1):
            x0 = float(rng.uniform(-1.0, 1.0))
            b0 = float(rng.uniform(BETA_LO + 0.05, BETA_HI - 0.05))

            def col(dx, db, dp):
                zp, tp = rc.phi_map_arrays(prof, x0 + dx * h, b0 + db * h, dp * h)
                zm, tm = rc.phi_map_arrays(prof, x0 - dx * h, b0 - db * h, -dp * h)
                return np.array([(zp - zm).real, (zp - zm).imag, tp - tm]) / (2 * h)

            fd = abs(np.linalg.det(np.column_stack(
                [col(1, 0, 0), col(0, 1, 0), col(0, 0, 1)])))
            jac = float(rc.jacobian(x0, rc.pstar_pair(prof, b0)[0]))
            worst_jac = max(worst_jac, abs(jac - fd) / fd)
    ok = worst_rt <= 1e-12 and worst_jac <= 1e-6
    report(capsys, 5, ok,
           f"coordinates: roundtrip worst {worst_rt:.2e} (<= 1e-12), "
           f"Jacobian vs finite differences worst rel {worst_jac:.2e} (<= 1e-6)")


def test_06_horizontality(capsys, rings):
    worst_res = 0.0
    for name, ring in rings.items():
        profile = catalog(name, 1.0)
        lo, hi = profile.domain
        flow = sf.flow_curve(profile, 0.5 * (lo + hi), 0.1,
                             (lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo)))
        quasi = cv.quasiradial(ring, 2.5, 0.3)
        rand = cv.random_horizontal_curve(ring, seed=6)
        for curve in (flow, quasi, rand):
            worst_res = max(worst_res, curve.residual)
    for k in (0.0, 1.0, -2.0):
        worst_res = max(worst_res, cv.cc_lift(k, 1.0).residual)

    # horizontal speed against finite differences of the ambient position
    prof = rings["bubble_set"].profile
    h = 1e-7
    worst_speed = 0.0
    for u in np.linspace(-0.8, 0.8, 30):
        xi, dxi = 0.3 * float(u), 0.3
        beta = math.pi + 0.4 * math.sin(float(u))
        dbeta = 0.4 * math.cos(float(u))
        dphi = float(rc.horizontality_rhs(beta, dxi, dbeta, *rc.pstar_pair(prof, beta)))
        speed = float(rc.horizontal_speed(prof, xi, beta, dxi, dbeta))
        zp, _ = rc.phi_map_arrays(prof, xi + dxi * h, beta + dbeta * h, dphi * h)
        zm, _ = rc.phi_map_arrays(prof, xi - dxi * h, beta - dbeta * h, -dphi * h)
        fd_speed = abs(complex((zp - zm) / (2 * h)))
        worst_speed = max(worst_speed, abs(speed - fd_speed) / fd_speed)
    ok = worst_res <= 1e-8 and worst_speed <= 1e-6
    report(capsys, 6, ok,
           f"horizontality: worst curve residual {worst_res:.2e} (<= 1e-8), "
           f"speed vs finite differences {worst_speed:.2e} (<= 1e-6)")


def _projected_curvature(profile, s0):
    """Signed curvature of the planar projection of the flow curve at s0."""
    lo, hi = profile.domain
    span = (s0 - 0.005 * (hi - lo), s0 + 0.005 * (hi - lo))
    curve = sf.flow_curve(profile, s0, 0.0, span, n=32)
    i = curve.tau.size // 2
    h = curve.tau[1] - curve.tau[0]
    dz = curve.dz[i]
    # Richardson-extrapolated central difference of the velocity
    ddz1 = (curve.dz[i + 1] - curve.dz[i - 1]) / (2 * h)
    ddz2 = (curve.dz[i + 2] - curve.dz[i - 2]) / (4 * h)
    ddz = (4.0 * ddz1 - ddz2) / 3.0
    return float(np.imag(np.conj(dz) * ddz) / np.abs(dz) ** 3)


def test_07_curvature_equivalence(capsys):
    worst = 0.0
    for name in SURFACES:
        profile = catalog(name, 1.0)
        lo, hi = profile.domain
        for s in np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 100):
            want = _projected_curvature(profile, float(s))
            got = sf.mean_curvature(profile, float(s))
            worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    equiv_ok = worst <= 1e-3

    # lifted-circle clause: compare H^h(k) on the catalog surface against k
    profile = catalog("cc_sphere", 1.0)
    cc_worst = 0.0
    for k in (0.2, -0.2, 1.0, -1.0, 2.0, -2.0):
        got = sf.mean_curvature(profile, k)
        cc_worst = max(cc_worst, abs(got - k) / abs(k))
    cc_ok = cc_worst <= 1e-3
    ok = equiv_ok and cc_ok
    report(capsys, 7, ok,
           f"curvature: signed-curvature oracle worst rel {worst:.2e} "
           f"(<= 1e-3, {'ok' if equiv_ok else 'fail'}); H^h(k) vs k on the "
           f"lifted-circle surface worst rel {cc_worst:.2e} "
           f"(<= 1e-3, {'ok' if cc_ok else 'fail'})")


def test_08_horizontal_area(capsys):
    from scipy import integrate as si

    oracle, _ = si.quad(lambda u: math.sqrt(math.sin(u)), 0.0, math.pi,
                        epsabs=0.0, epsrel=1e-12)
    oracle *= 2.0 * math.pi
    got = sf.horizontal_area(catalog("koranyi_sphere", 1.0))
    rel = abs(got - oracle) / oracle
    scale_err = 0.0
    for R in (0.5, 1.7, 3.0):
        scaled = sf.horizontal_area(catalog("koranyi_sphere", R))
        scale_err = max(scale_err, abs(scaled - R ** 3 * got) / (R ** 3 * got))
    ok = rel <= 1e-6 and scale_err <= 1e-10
    report(capsys, 8, ok,
           f"area: vs independent quadrature rel {rel:.2e} (<= 1e-6), "
           f"R^3 scaling err {scale_err:.2e} (<= 1e-10)")


def test_09_quasiradial_angle(capsys, rings):
    rng = np.random.Generator(np.random.Philox(key=9))
    worst_k = 0.0
    for _ in range(50):
        q = (float(rng.uniform(-1, 1)), float(rng.uniform(BETA_LO + 0.01, BETA_HI - 0.01)),
             float(rng.uniform(0, 2 * math.pi)))
        theta = md.quasiradial_angle(rings["koranyi_sphere"], *q)
        worst_k = max(worst_k, min(abs(theta), abs(abs(theta) - math.pi)))

    worst_cf = 0.0
    min_cos = math.inf
    for name in ("bubble_set", "cc_sphere"):
        ring = rings[name]
        grid = np.linspace(BETA_LO, BETA_HI, 4098)[1:-1]  # validation grid
        for beta in grid[:: len(grid) // 200]:
            theta = md.quasiradial_angle(ring, 0.0, float(beta), 0.0)
            _, dps = rc.pstar_pair(ring.profile, float(beta))
            want = abs(math.sin(math.atan2(dps.imag, dps.real) - float(beta)))
            worst_cf = max(worst_cf, abs(abs(math.cos(theta)) - want))
            min_cos = min(min_cos, abs(math.cos(theta)))
    ok = worst_k <= 1e-10 and worst_cf <= 1e-9 and min_cos > 0.0
    report(capsys, 9, ok,
           f"angle: sphere-of-the-gauge worst |theta mod pi| {worst_k:.2e} "
           f"(<= 1e-10); closed-form dev {worst_cf:.2e} (<= 1e-9); "
           f"min |cos theta| {min_cos:.3f} (> 0)")


def test_10_validators(capsys):
    catalog_ok = True
    details = []
    for name in SURFACES:
        rep = validate(catalog(name, 1.0))
        for label, chk in (("A1", rep.a1), ("A2", rep.a2),
                           ("beta", rep.beta_monotone)):
            if not chk.passed:
                catalog_ok = False
                details.append(f"{name}:{label}")

    pinched = validate(parse_profile(
        "f = sin(s)*sin(s); g = pi/2 - s; domain = (0, 2*pi)", name="pinched"))
    rising = validate(parse_profile(
        "f = sin(s); g = s - pi/2; domain = (0, pi)", name="rising"))
    wobble = validate(parse_profile(
        "f = sin(s) * (1 - 0.9*exp(-10*(s - 1.5)^2)); g = cos(s);"
        " domain = (0, pi)", name="wobble"))
    counter_ok = (
        not pinched.a1.passed and pinched.a1.witness is not None
        and not rising.a2.passed and rising.a2.witness is not None
        and rising.a1.passed
        and not wobble.beta_monotone.passed
        and wobble.beta_monotone.witness is not None
        and wobble.a1.passed and wobble.a2.passed)
    ok = catalog_ok and counter_ok
    report(capsys, 10, ok,
           f"validators: catalog {'all pass' if catalog_ok else 'failing ' + ','.join(details)}; "
           f"counterexamples {'each fail the intended check' if counter_ok else 'broken'}")
