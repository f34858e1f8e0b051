"""Revolution coordinates (xi, beta, phi) adapted to a surface of revolution.

The coordinate map is
    Phi(xi, beta, phi) = (e^(xi+i phi) Re^(1/2)(-p*(beta)), e^(2 xi) Im p*(beta))
for a profile parametrized by its Koranyi argument beta. The module provides
the forward and inverse maps, the Jacobian, the horizontality condition and
horizontal speed in these coordinates, and change-of-variables integration
over the ring box.
"""

from __future__ import annotations

import math

import numpy as np
import scipy

from .profiles import (BETA_HI, BETA_LO, EDGE_OFFSET, ProfileCurve, band_atan2,
                       clip_to_band, koranyi_image, phase_rate)

MAX_SUBDIVISIONS = 200  # cap on the adaptive cubature's region splits


class IntegrationError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""


def pstar_pair(curve: ProfileCurve, beta):
    """(p*(beta), dp*/dbeta) for a by-argument profile; every map of this module
    that evaluates p* rejects any other profile here."""
    if not curve.by_argument:
        raise ValueError(
            f"profile {curve.name!r} is not parametrized by argument; "
            "call reparam_by_argument first"
        )
    return koranyi_image(curve, beta)


def _phi_map(xi, phi, ps):
    """(z, t) = Phi(xi, beta, phi), from p* at beta."""
    return (np.exp(xi + 1j * np.asarray(phi)) * np.sqrt(np.real(-ps)),
            np.exp(2.0 * np.asarray(xi)) * np.imag(ps))


def phi_map_arrays(curve: ProfileCurve, xi, beta, phi):
    """Vectorized forward map; returns (z, t)."""
    return _phi_map(xi, phi, pstar_pair(curve, beta)[0])


def phi_map_tangent(xi, phi, dxi, dbeta, dphi, ps, dps):
    """(z, t, dz, dt): Phi(xi, beta, phi) and its derivative along a path with
    derivatives (dxi, dbeta, dphi), from the p* pair at beta."""
    z, t = _phi_map(xi, phi, ps)
    # a named factor: numpy reuses a large temporary right operand in place as
    # the left one, and that swap changes the rounding of a complex product
    dlog_term = dxi + 1j * dphi + 0.5 * (np.real(-dps) * dbeta / np.real(-ps))
    return z, t, z * dlog_term, 2.0 * dxi * t + np.exp(2.0 * xi) * np.imag(dps) * dbeta


def phi_inv_arrays(curve: ProfileCurve, z, t):
    """Vectorized inverse map; returns (xi, beta, phi). Requires z != 0."""
    z = np.asarray(z, dtype=complex)
    t = np.asarray(t, dtype=float)
    if np.any(z == 0):
        raise ValueError("inverse revolution coordinates are undefined on the vertical axis")
    alpha = -np.abs(z) ** 2 + 1j * t
    beta = band_atan2(alpha.imag, alpha.real)
    ps, _ = pstar_pair(curve, clip_to_band(beta))
    xi = 0.5 * np.log(np.abs(alpha) / np.abs(ps))
    phi = np.mod(np.angle(z), 2.0 * math.pi)
    return xi, beta, phi


def jacobian(curve: ProfileCurve, xi, beta):
    """Jacobian determinant e^(4 xi) |p*(beta)|^2 of the forward map."""
    ps, _ = pstar_pair(curve, beta)
    return np.exp(4.0 * np.asarray(xi)) * np.abs(ps) ** 2


def horizontality_rhs(beta, dxi, dbeta, ps, dps):
    """dphi demanded by the horizontality condition, from the p* pair at beta."""
    return np.tan(np.asarray(beta)) * np.asarray(dxi) + phase_rate(ps, dps) * np.asarray(dbeta)


def horizontal_speed(curve: ProfileCurve, xi, beta, dxi, dbeta):
    """Horizontal speed of a horizontal curve in revolution coordinates."""
    ps, dps = pstar_pair(curve, np.asarray(beta))
    re = np.real(-ps)
    if np.any(re <= 0):
        raise ValueError("horizontal speed undefined at the band edge (Re(-p*) = 0)")
    return np.exp(np.asarray(xi)) / np.sqrt(re) * \
        np.abs(ps * np.asarray(dxi) + 0.5 * dps * np.asarray(dbeta))


def integrate_over_box(curve: ProfileCurve, f, xi_range: tuple[float, float],
                       tol: float = 1e-9) -> float:
    """Integral of a phi-independent f(xi, beta) against the coordinate Jacobian
    over ``xi_range`` x the argument band x the full turn in phi.

    One adaptive product Gauss-Kronrod (GK21) cubature over (xi, beta); the
    phi factor 2 pi is exact. ``f`` receives whole node arrays; its result is
    broadcast against them, so a constant such as ``lambda *_: 1.0`` works.
    Band edges are avoided by EDGE_OFFSET; the integrand there carries a
    vanishing cos^2(beta)-type weight for all densities of interest.

    Raises IntegrationError when the cubature has not converged to relative
    tolerance ``tol`` after MAX_SUBDIVISIONS splits, or when its one error
    estimate for the whole integral exceeds max(10 tol |result|, 1e-13), and
    ValueError when ``xi_range`` is empty.
    """
    if not xi_range[0] < xi_range[1]:
        raise ValueError(f"empty xi range {xi_range}")

    def integrand(x):
        xi, beta = x[:, 0], x[:, 1]
        return f(xi, beta) * jacobian(curve, xi, beta)

    res = scipy.integrate.cubature(integrand, [xi_range[0], BETA_LO + EDGE_OFFSET],
                                   [xi_range[1], BETA_HI - EDGE_OFFSET], rule="gk21",
                                   rtol=tol, atol=0.0, max_subdivisions=MAX_SUBDIVISIONS)
    result, err = 2.0 * math.pi * float(res.estimate), 2.0 * math.pi * float(res.error)
    if res.status != "converged" or abs(err) > max(10.0 * tol * abs(result), 1e-13):
        raise IntegrationError(
            f"estimated cubature error {err:.3e} above tolerance for result {result:.6e} "
            f"({res.status} after {res.subdivisions} subdivisions)"
        )
    return result
