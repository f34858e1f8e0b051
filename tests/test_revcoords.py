"""Revolution coordinates: roundtrips, Jacobian, horizontality, integration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisring import revcoords
from heisring.profiles import BETA_HI, BETA_LO, EDGE_OFFSET, catalog, reparam_by_argument

KORANYI = catalog("koranyi_sphere", 1.0)
BUBBLE = reparam_by_argument(catalog("bubble_set", 1.0))
CC = reparam_by_argument(catalog("cc_sphere", 1.0))
ALL = {"koranyi": KORANYI, "bubble": BUBBLE, "cc": CC}

xi_st = st.floats(min_value=-2.0, max_value=2.0)
beta_st = st.floats(min_value=BETA_LO + 1e-3, max_value=BETA_HI - 1e-3)
phi_st = st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9)


@settings(max_examples=60)
@given(xi_st, beta_st, phi_st)
def test_roundtrip_koranyi(xi, beta, phi):
    z, t = revcoords.phi_map_arrays(KORANYI, xi, beta, phi)
    back = revcoords.phi_inv_arrays(KORANYI, z, t)
    assert np.shape(back[0]) == ()
    assert back == pytest.approx((xi, beta, phi), abs=1e-12)


@pytest.mark.parametrize("name", sorted(ALL))
def test_roundtrip_all_surfaces(name):
    curve = ALL[name]
    rng = np.random.Generator(np.random.Philox(key=11))
    xi = rng.uniform(-1.5, 1.5, 500)
    beta = rng.uniform(BETA_LO + 1e-3, BETA_HI - 1e-3, 500)
    phi = rng.uniform(0.0, 2.0 * math.pi - 1e-6, 500)
    z, t = revcoords.phi_map_arrays(curve, xi, beta, phi)
    xi2, beta2, phi2 = revcoords.phi_inv_arrays(curve, z, t)
    assert np.max(np.abs(xi2 - xi)) < 1e-10
    assert np.max(np.abs(beta2 - beta)) < 1e-10
    assert np.max(np.abs(phi2 - phi)) < 1e-12


def test_inverse_rejects_vertical_axis():
    with pytest.raises(ValueError):
        revcoords.phi_inv_arrays(KORANYI, 0j, 1.0)


@pytest.mark.parametrize("name", sorted(ALL))
def test_jacobian_matches_finite_differences(name):
    curve = ALL[name]
    rng = np.random.Generator(np.random.Philox(key=3))
    h = 1e-6
    for _ in range(40):
        xi = float(rng.uniform(-1.0, 1.0))
        beta = float(rng.uniform(BETA_LO + 0.05, BETA_HI - 0.05))
        phi = float(rng.uniform(0.0, 2 * math.pi))

        def xyt(a, b, c):
            z, t = revcoords.phi_map_arrays(curve, a, b, c)
            return np.array([complex(z).real, complex(z).imag, float(t)])

        cols = [
            (xyt(xi + h, beta, phi) - xyt(xi - h, beta, phi)) / (2 * h),
            (xyt(xi, beta + h, phi) - xyt(xi, beta - h, phi)) / (2 * h),
            (xyt(xi, beta, phi + h) - xyt(xi, beta, phi - h)) / (2 * h),
        ]
        fd = abs(np.linalg.det(np.column_stack(cols)))
        jac = float(revcoords.jacobian(xi, revcoords.pstar_pair(curve, beta)[0]))
        assert jac == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("name", sorted(ALL))
def test_horizontality_rhs_matches_contact_form(name):
    # a derivative triple obeying the rhs must annihilate the contact form
    curve = ALL[name]
    rng = np.random.Generator(np.random.Philox(key=5))
    xi = rng.uniform(-1.0, 1.0, 100)
    beta = rng.uniform(BETA_LO + 0.05, BETA_HI - 0.05, 100)
    dxi = rng.uniform(-2.0, 2.0, 100)
    dbeta = rng.uniform(-2.0, 2.0, 100)
    ps, dps = revcoords.pstar_pair(curve, beta)
    dphi = revcoords.horizontality_rhs(beta, dxi, dbeta, ps, dps)
    # omega = e^(2 xi) (2 Im p* dxi + Im dp* dbeta - 2 Re p* dphi)
    omega = np.exp(2.0 * xi) * (2.0 * np.imag(ps) * dxi + np.imag(dps) * dbeta
                                - 2.0 * np.real(ps) * dphi)
    assert np.max(np.abs(omega)) < 1e-9


def test_horizontal_speed_matches_ambient_finite_differences():
    curve = BUBBLE
    h = 1e-7

    def gamma(u):
        # a horizontal path (xi(u), beta(u), phi(u)) through the ring
        xi = 0.3 * u
        beta = math.pi + 0.4 * math.sin(u)
        dxi = 0.3
        dbeta = 0.4 * math.cos(u)
        return xi, beta, dxi, dbeta

    for u in np.linspace(-1.0, 1.0, 11):
        xi, beta, dxi, dbeta = gamma(float(u))
        speed = float(revcoords.horizontal_speed(curve, xi, beta, dxi, dbeta))
        xm, bm, _, _ = gamma(float(u) - h)
        xp, bp, _, _ = gamma(float(u) + h)
        zm, _ = revcoords.phi_map_arrays(curve, xm, bm, 0.0)
        zp, _ = revcoords.phi_map_arrays(curve, xp, bp, 0.0)
        # |dz| of the horizontal lift: modulus of the z-derivative is
        # independent of the phase, which drops out of |z' + i phi' z|
        z0, _ = revcoords.phi_map_arrays(curve, xi, beta, 0.0)
        dphi = float(revcoords.horizontality_rhs(beta, dxi, dbeta,
                                                 *revcoords.pstar_pair(curve, beta)))
        dz = (zp - zm) / (2 * h) + 1j * dphi * z0
        assert speed == pytest.approx(abs(complex(dz)), rel=1e-5)


def test_integrate_rejects_empty_xi_range():
    with pytest.raises(ValueError, match="empty xi range"):
        revcoords.integrate_over_box(KORANYI, lambda *_: 1.0, (1.0, 1.0))


def test_integrate_constant_against_jacobian():
    # integral of 1 dm^3 over the box equals the closed form
    # (e^{4 xi1} - e^{4 xi0})/4 * 2 pi * int |p*|^2 dbeta
    from scipy import integrate as si

    val = revcoords.integrate_over_box(KORANYI, lambda *_: 1.0, (0.0, 0.5))
    radial, _ = si.quad(lambda b: 1.0, BETA_LO, BETA_HI)  # |p*| = 1 for R = 1
    expected = (math.exp(2.0) - 1.0) / 4.0 * 2.0 * math.pi * radial
    assert val == pytest.approx(expected, rel=1e-9)


def test_integrate_requires_by_argument():
    raw = catalog("bubble_set", 1.0)
    with pytest.raises(ValueError):
        revcoords.integrate_over_box(raw, lambda *_: 1.0, (0.0, 1.0))


def test_integrate_bubble_constant_matches_nested_quad():
    # |p*|^2 behaves like (beta - pi/2)^(3/2) at the band edges of the bubble,
    # so the cubature must subdivide; the value is that of nested 1-D quad
    val = revcoords.integrate_over_box(BUBBLE, lambda *_: 1.0, (0.0, 0.5))
    assert val == pytest.approx(756.6894735213466, rel=1e-9)


def test_integrate_with_error_certifies_the_bubble_constant():
    # scipy.integrate.cubature's GK21 loop gives the same bits after the same
    # 105 splits
    val, err, subdivisions = revcoords.integrate_over_box(
        BUBBLE, lambda *_: 1.0, (0.0, 0.5), with_error=True)
    assert val.hex() == "0x1.7a5840ab1fdb5p+9"
    assert subdivisions == 105
    assert 0.0 < err <= 1e-9 * val
    assert revcoords.integrate_over_box(BUBBLE, lambda *_: 1.0, (0.0, 0.5)) == val


def test_integrate_evaluates_pstar_once_per_box(monkeypatch):
    # the integrand and the Jacobian get the one p* array of their box
    pstar_pair, jacobian = revcoords.pstar_pair, revcoords.jacobian
    evaluated, handed = [], []

    def counting_pstar_pair(curve, beta):
        evaluated.append(pstar_pair(curve, beta))
        return evaluated[-1]

    def recording_jacobian(xi, ps):
        handed.append(("jacobian", ps))
        return jacobian(xi, ps)

    def f(xi, beta, ps):
        handed.append(("f", ps))
        return 1.0
    monkeypatch.setattr(revcoords, "pstar_pair", counting_pstar_pair)
    monkeypatch.setattr(revcoords, "jacobian", recording_jacobian)
    val, _, subdivisions = revcoords.integrate_over_box(BUBBLE, f, (0.0, 0.5), with_error=True)
    assert subdivisions == 105
    assert len(evaluated) == 1 + 4 * subdivisions
    assert [who for who, _ in handed] == ["f", "jacobian"] * len(evaluated)
    for (ps, _), (_, to_f), (_, to_jacobian) in zip(evaluated, handed[::2], handed[1::2]):
        assert to_f is ps and to_jacobian is ps and ps.shape == (1, 21)
    assert val.hex() == "0x1.7a5840ab1fdb5p+9"


# an infinite integrand makes inf - inf in the error sum, which numpy warns of
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_integrate_rejects_a_non_finite_result(value):
    with pytest.raises(revcoords.IntegrationError, match="non-finite result"):
        revcoords.integrate_over_box(KORANYI, lambda *_: value, (0.0, 0.5))


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9, math.inf])
def test_integrate_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        revcoords.integrate_over_box(KORANYI, lambda *_: 1.0, (0.0, 0.5), tol=tol)


XI_BOX = (0.25, 1.0)
BETA_BOX = (BETA_LO + EDGE_OFFSET, BETA_HI - EDGE_OFFSET)


def _tensor_moment(p, q):
    """(relative error, relative error estimate, subdivisions) of
    integrate_over_box for (u^p + 1)(v^q + 1) on the Koranyi box, where u and v
    are xi and beta scaled to [-1, 1]; tol = 1 keeps the one first box."""
    (x0, x1), (b0, b1) = XI_BOX, BETA_BOX
    cx, hx, cb, hb = (x0 + x1) / 2, (x1 - x0) / 2, (b0 + b1) / 2, (b1 - b0) / 2

    def f(xi, beta, ps):  # |p*| = 1 on the sphere, so the Jacobian is e^(4 xi)
        return (((xi - cx) / hx) ** p + 1) * (((beta - cb) / hb) ** q + 1) * np.exp(-4.0 * xi)

    val, err, subdivisions = revcoords.integrate_over_box(KORANYI, f, XI_BOX, tol=1.0,
                                                          with_error=True)
    moment = [(1 + (-1) ** k) / (k + 1) + 2 for k in (p, q)]  # of u^k + 1 over [-1, 1]
    want = 2.0 * math.pi * hx * hb * moment[0] * moment[1]
    return val / want - 1.0, err / want, subdivisions


def test_gk21_is_exact_to_degree_31_in_each_variable():
    for p in range(32):
        for q in range(32):
            rel, _, subdivisions = _tensor_moment(p, q)
            assert subdivisions == 0
            assert abs(rel) < 1e-14, (p, q)
    assert abs(_tensor_moment(32, 0)[0]) > 1e-12
    assert abs(_tensor_moment(0, 32)[0]) > 1e-12


def test_gauss_error_estimate_is_exact_to_degree_19_in_each_variable():
    assert _tensor_moment(19, 19)[1] < 1e-14
    assert _tensor_moment(20, 0)[1] > 1e-7
    assert _tensor_moment(0, 20)[1] > 1e-7


def test_integrate_nonintegrable_raises_within_cap():
    with pytest.raises(revcoords.IntegrationError,
                       match=f"not_converged after {revcoords.MAX_SUBDIVISIONS} "):
        revcoords.integrate_over_box(
            KORANYI, lambda xi, beta, ps: 1.0 / np.abs(beta - 3.0), (0.0, 0.5))

