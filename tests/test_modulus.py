"""Ring membership, extremal density, modulus routes, oracle, angle."""

import math

import numpy as np
import pytest

from heisring import curves as cv
from heisring import modulus as md
from heisring import revcoords as rc
from heisring.heis import HPoint
from heisring.profiles import (BETA_HI, BETA_LO, EvaluationError, ValidationError,
                               catalog, clip_to_band, parse_profile, reparam_by_argument)
from heisring.revcoords import RevPoint

RING = md.make_ring(catalog("koranyi_sphere", 1.0), 1.0, 2.0)
RING_B = md.make_ring(catalog("bubble_set", 1.0), 1.0, 2.0)
RING_CC = md.make_ring(catalog("cc_sphere", 1.0), 1.0, 2.0)


def test_make_ring_rejects_bad_bounds():
    with pytest.raises(ValueError):
        md.make_ring(catalog("koranyi_sphere", 1.0), 2.0, 1.0)


def test_make_ring_rejects_invalid_profile():
    rising = parse_profile("f = sin(s); g = s - pi/2; domain = (0, pi)",
                           name="rising")
    with pytest.raises(ValidationError):
        md.make_ring(rising, 1.0, 2.0)


def test_membership_koranyi():
    # for the unit Koranyi sphere the ring is just 1 < gauge < 2
    assert md.membership(RING, HPoint(1.5 + 0j, 0.0)) is md.Location.INSIDE
    assert md.membership(RING, HPoint(3 + 0j, 0.0)) is md.Location.OUTSIDE
    assert md.membership(RING, HPoint(0.5j, 0.1)) is md.Location.OUTSIDE
    assert md.membership(RING, HPoint(2.0 + 0j, 0.0)) is md.Location.BOUNDARY
    assert md.membership(RING, HPoint(0j, 1.0)) is md.Location.BOUNDARY


def test_rho0_koranyi_values():
    L = math.log(2.0)
    p = HPoint(1.5 + 0j, 0.0)
    assert md.rho0(RING, p) == pytest.approx(1.0 / (L * 1.5))
    assert md.rho0(RING, HPoint(5 + 0j, 0.0)) == 0.0
    # vanishes on the vertical axis inside the ring
    assert md.rho0(RING, HPoint(0j, 2.0)) == 0.0


def test_rho0_rejects_origin():
    with pytest.raises(ValueError):
        md.rho0(RING, HPoint(0j, 0.0))


def test_rho0_dilation_covariance():
    # rho0 is (-1)-homogeneous under dilations inside the ring
    p = HPoint(1.2 + 0.3j, 0.4)
    big = md.make_ring(catalog("koranyi_sphere", 1.0), 1.0, 4.0)
    q = HPoint(2.0 * p.z, 4.0 * p.t)
    a = md.rho0(big, p) * math.log(4.0)
    b = md.rho0(big, q) * math.log(4.0) * 2.0
    assert a == pytest.approx(b, rel=1e-12)


def test_analytic_modulus_values():
    assert md.analytic_modulus(1.0, 2.0) == pytest.approx(29.636257682862013)
    assert md.analytic_modulus(1.0, math.e) == pytest.approx(math.pi ** 2)
    assert md.analytic_modulus(0.5, 3.0) == pytest.approx(1.715776125142135)
    with pytest.raises(ValueError):
        md.analytic_modulus(2.0, 1.0)


@pytest.mark.parametrize("ring", [RING, RING_B, RING_CC],
                         ids=["koranyi", "bubble", "cc"])
def test_numeric_modulus_matches_analytic(ring):
    want = md.analytic_modulus(ring.a, ring.b)
    got = md.numeric_modulus(ring)
    assert got == pytest.approx(want, rel=1e-9)


def test_mc_modulus_within_stderr():
    value, stderr = md.mc_modulus(RING_B, n=200_000, seed=1)
    want = md.analytic_modulus(1.0, 2.0)
    assert abs(value - want) <= 3.0 * stderr
    assert stderr < 0.5


def test_mc_modulus_reproducible():
    a = md.mc_modulus(RING, n=10_000, seed=5)
    b = md.mc_modulus(RING, n=10_000, seed=5)
    assert a == b


@pytest.mark.parametrize("ring", [RING_B, RING_CC], ids=["bubble", "cc"])
def test_mc_modulus_chunking_is_exact(monkeypatch, ring):
    chunked = md.mc_modulus(ring, n=10 ** 6, seed=0)
    monkeypatch.setattr(md, "MC_CHUNK", 2 * 10 ** 6)
    assert md.mc_modulus(ring, n=10 ** 6, seed=0) == chunked


# mc_modulus(ring (1, 2), n=10**6, seed) as (value, stderr) float hex, taken
# before the shell bracket culled p*; seed 105 keeps the cc miss at -3.35 sigma
MC_1E6 = {
    ("koranyi", 0): ("0x1.da0138cfe266fp+4", "0x1.d584493c140e5p-5"),
    ("koranyi", 105): ("0x1.d7976820f56adp+4", "0x1.d3a917fe1ae15p-5"),
    ("bubble", 0): ("0x1.da10cab117d1ap+4", "0x1.24661b95631e8p-4"),
    ("bubble", 105): ("0x1.d6f71c1ea080dp+4", "0x1.2321aac09a6bcp-4"),
    ("cc", 0): ("0x1.da4045c4d65aap+4", "0x1.777b918d8909dp-5"),
    ("cc", 105): ("0x1.d7bd695e95351p+4", "0x1.7549a87982548p-5"),
}
RINGS = {"koranyi": RING, "bubble": RING_B, "cc": RING_CC}


@pytest.mark.parametrize("name, seed", sorted(MC_1E6))
def test_mc_modulus_is_pinned(name, seed):
    value, stderr = md.mc_modulus(RINGS[name], n=10 ** 6, seed=seed)
    assert (value.hex(), stderr.hex()) == MC_1E6[name, seed]


def _exact_rho0(ring, z, t, closed, tol, ratio=None):
    """rho0 with the indicator taken from the exact boundary ratio everywhere."""
    if ratio is None:
        ratio = md.boundary_ratio(ring, z, t)
    pad = tol if closed else -tol
    az = np.abs(z)
    vals = az / np.sqrt(az ** 4 + t * t) / ring.log_ratio
    return np.where((ratio > ring.a - pad) & (ratio < ring.b + pad), vals, 0.0)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_rho0_values_near_shells_match_exact_indicator(name):
    # points within 1e-12 to 1e-3 (relative) of either shell, on both sides
    ring = RINGS[name]
    rng = np.random.Generator(np.random.Philox(key=11))
    n = 2 * 10 ** 5
    beta = rng.uniform(BETA_LO, BETA_HI, n)
    offset = np.exp(rng.uniform(math.log(1e-12), math.log(1e-3), n))
    radius = np.where(rng.random(n) < 0.5, ring.a, ring.b)
    radius *= 1.0 + np.where(rng.random(n) < 0.5, offset, -offset)
    z, t = rc.phi_map_arrays(ring.profile, np.log(radius), beta,
                             rng.uniform(0.0, 2.0 * math.pi, n))
    ratio = md.boundary_ratio(ring, z, t)
    for closed in (True, False):
        for tol in (0.0, 1e-9, 1e-6):
            got = md.rho0_values(ring, z, t, closed=closed, tol=tol)
            assert np.array_equal(got, _exact_rho0(ring, z, t, closed, tol, ratio))


def test_rho0_values_keeps_scalar_and_broadcast_shapes():
    # one point on each shell (exact test), one inside and one outside (culled)
    z = np.array([2.0, 1.0j, 1.5, 3.0])[:, None] * np.exp(1j * np.array([0.0, 1.0]))
    t = np.array([0.0, 0.0])
    got = md.rho0_values(RING_CC, z, t)
    assert got.shape == (4, 2)
    for i, j in np.ndindex(got.shape):
        one = md.rho0_values(RING_CC, z[i, j], t[j])
        assert one.shape == () and one == got[i, j]
    assert np.array_equal(got, _exact_rho0(RING_CC, z, t, True, 1e-9))
    with pytest.raises(ValueError):
        md.rho0_values(RING_CC, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    with pytest.raises(EvaluationError):  # a nan point takes the exact test
        md.rho0_values(RING_CC, np.array([1.5, 1.0]), np.array([0.0, np.nan]))


PARSED = {
    "bubble": """param R = {R}
f = 2*R*sin(s/(2*R))
g = 2*R^2*sin(s/R) - 2*R*s + 2*pi*R^2
domain = (0, 2*pi*R)""",
    # not symmetric about beta = pi: the minimum of |p*| lies 0.92 of the way
    # through its cell, where only the step widening covers it
    "tilted": "param R = {R}; f = R*sin(s); g = R^2*(2*cos(s) + 0.6*sin(s)^2); "
              "domain = (0, pi)",
}


@pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("name", ["koranyi_sphere", "bubble_set", "cc_sphere",
                                  "bubble", "tilted"])
def test_shell_bracket_holds_on_dense_betas(name, R):
    curve = (parse_profile(PARSED[name].format(R=R), name=name) if name in PARSED
             else catalog(name, R))
    ring = md.RevolutionRing(reparam_by_argument(curve), 1.0, 2.0)
    lo, hi = ring.shell_bracket
    assert lo.shape == hi.shape == (md.BRACKET_CELLS,)
    assert np.count_nonzero(np.isinf(hi)) <= 8  # culling reaches almost every cell
    beta = BETA_LO + math.pi * (np.arange(2 ** 20) + 0.5) / 2 ** 20
    cell = (np.arange(2 ** 20) * md.BRACKET_CELLS) >> 20
    room = 1.0 + md.BRACKET_MARGIN / 2  # bounds keep room for rounding
    for k in range(0, 2 ** 20, 2 ** 16):
        ps, _ = rc.pstar_pair(ring.profile, clip_to_band(beta[k:k + 2 ** 16]))
        s = np.sqrt(np.abs(ps))
        c = cell[k:k + 2 ** 16]
        assert np.all(lo[c] * room <= s) and np.all(s * room <= hi[c])


# -- admissibility -------------------------------------------------------------


def test_quasiradial_admissibility_exact():
    fam = cv.quasiradial_family(RING, n_beta=8, n_phi=4, n=128)
    rep = md.admissibility_report(RING, fam)
    assert rep.n == 32
    assert rep.min == pytest.approx(1.0, abs=1e-9)
    assert rep.mean == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_random_admissibility_above_one():
    fam = cv.random_family(RING_B, 40, seed0=0, n=256)
    rep = md.admissibility_report(RING_B, fam)
    assert rep.min >= 0.999
    assert rep.mean >= rep.min
    assert sum(rep.histogram) == 40


# -- restricted oracle ---------------------------------------------------------


@pytest.mark.parametrize("n_bins", [2, 64])
def test_restricted_oracle_uniform_minimizer(n_bins):
    value, h = md.restricted_oracle(RING, n_bins, seed=3)
    want = md.analytic_modulus(1.0, 2.0)
    assert value == pytest.approx(want, rel=1e-9)
    uniform = 1.0 / RING.log_ratio
    assert np.max(np.abs(h - uniform)) / uniform < 1e-8


def test_restricted_oracle_independent_of_seed():
    v1, _ = md.restricted_oracle(RING_B, 16, seed=0)
    v2, _ = md.restricted_oracle(RING_B, 16, seed=99)
    assert v1 == pytest.approx(v2, rel=1e-10)


def test_simplex_projection():
    h = md._project_scaled_simplex(np.array([0.5, -0.2, 0.9]), 1.0)
    assert h.min() >= 0.0
    assert h.sum() == pytest.approx(1.0)
    # already-feasible points project to themselves
    v = np.array([0.25, 0.25, 0.5])
    assert np.allclose(md._project_scaled_simplex(v, 1.0), v)


# -- angle ---------------------------------------------------------------------


def test_angle_zero_on_koranyi():
    rng = np.random.Generator(np.random.Philox(key=2))
    for _ in range(20):
        q = RevPoint(float(rng.uniform(-1, 1)),
                     float(rng.uniform(BETA_LO + 0.05, BETA_HI - 0.05)),
                     float(rng.uniform(0, 2 * math.pi)))
        theta = md.quasiradial_angle(RING, q)
        assert min(abs(theta), abs(abs(theta) - math.pi)) < 1e-10


@pytest.mark.parametrize("ring", [RING_B, RING_CC], ids=["bubble", "cc"])
def test_angle_closed_form_agreement(ring):
    # the dual-route agreement check inside quasiradial_angle is the assertion
    from heisring import revcoords
    for beta in np.linspace(BETA_LO + 0.1, BETA_HI - 0.1, 15):
        theta = md.quasiradial_angle(ring, RevPoint(0.2, float(beta), 1.0))
        _, dps = revcoords.pstar_pair(ring.profile, float(beta))
        want = math.sin(math.atan2(dps.imag, dps.real) - float(beta))
        assert abs(math.cos(theta)) == pytest.approx(abs(want), abs=1e-9)


def test_report_schema():
    report = md.modulus_report(RING, "koranyi", curve_count=5, seed=0,
                               oracle_bins=8)
    assert list(report) == ["surface", "a", "b", "analytic", "numeric",
                            "rel_err", "admissibility", "oracle"]
    assert list(report["admissibility"]) == ["n", "min", "mean"]
    assert list(report["oracle"]) == ["value", "max_dev_from_uniform"]
