"""Ring membership, extremal density, modulus routes, oracle, angle."""

import math

import numpy as np
import pytest

from heisring import curves as cv
from heisring import modulus as md
from heisring.heis import HPoint
from heisring.profiles import (BETA_HI, BETA_LO, ValidationError, catalog,
                               parse_profile)
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
