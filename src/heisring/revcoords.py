"""Revolution coordinates (xi, beta, phi) adapted to a surface of revolution.

The coordinate map is
    Phi(xi, beta, phi) = (e^(xi+i phi) Re^(1/2)(-p*(beta)), e^(2 xi) Im p*(beta))
for a profile parametrized by its Koranyi argument beta. The module provides
the forward and inverse maps, the Jacobian, the horizontality condition and
horizontal speed in these coordinates, and change-of-variables integration
over the ring box by an adaptive tensor-product Gauss-Kronrod cubature.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .profiles import (BETA_HI, BETA_LO, EDGE_OFFSET, ProfileCurve, band_atan2,
                       clip_to_band, koranyi_image, phase_rate)

MAX_SUBDIVISIONS = 200  # cap on the adaptive cubature's region splits

# QUADPACK's dqk21 table (Piessens et al., 1983) in scipy's order: the 21 Kronrod
# nodes from +1 down to -1; the 10-point Gauss rule sits on the odd-indexed ones.
# Its weights are scipy's roots_legendre(10) values, up to 72 ulps from dqk21's,
# so that the error estimates, and with them the order of the splits, match scipy's
_XK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_WK = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
                0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                0.149445554002916905664936468389821])
_WG = np.array([0.06667134430868714, 0.14945134915058053, 0.21908636251598224,
                0.26926671930999674, 0.2955242247147533])
_XK = np.concatenate([_XK, -_XK[-2::-1]])
_WK, _WG = np.concatenate([_WK, _WK[-2::-1]]), np.concatenate([_WG, _WG[::-1]])
# the 441 product Kronrod weights, then the 100 Gauss ones negated for the error
_W2 = np.concatenate([np.outer(_WK, _WK).ravel(), -np.outer(_WG, _WG).ravel()])


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


class _Region(tuple):
    """(estimate, error, lo, hi) of one box; heapq pops the largest error first."""
    __slots__ = ()

    def __lt__(self, other):
        return self[1] > other[1]


def integrate_over_box(curve: ProfileCurve, f, xi_range: tuple[float, float],
                       tol: float = 1e-9, with_error: bool = False):
    """Integral of a phi-independent f(xi, beta) against the coordinate Jacobian
    over ``xi_range`` x the argument band x the full turn in phi.

    One adaptive product Gauss-Kronrod (GK21) cubature over (xi, beta); the
    phi factor 2 pi is exact. Each box evaluates ``f`` and the Jacobian once,
    on its 21 x 21 Kronrod grid passed as the broadcast pair ``xi[:, None]``,
    ``beta[None, :]``, so p* is computed on 21 distinct beta; ``f``'s result is
    broadcast against the grid, so a constant such as ``lambda *_: 1.0`` works.
    The box's error estimate is its Kronrod sum minus the 10-point Gauss sum
    read from the same grid. The box with the largest error is split into
    four until the summed error is at most ``tol`` times the summed estimate.
    Band edges are avoided by EDGE_OFFSET; the integrand there carries a
    vanishing cos^2(beta)-type weight for all densities of interest.

    Returns the integral, or with ``with_error`` the triple (integral, error
    estimate, subdivisions). Raises IntegrationError when MAX_SUBDIVISIONS
    splits have not reached relative tolerance ``tol``, and ValueError when
    ``xi_range`` is empty or ``tol`` is not positive and finite.
    """
    if not xi_range[0] < xi_range[1]:
        raise ValueError(f"empty xi range {xi_range}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    def box(lo, hi):
        xi, beta = ((_XK + 1) * ((b - a) * 0.5) + a for a, b in zip(lo, hi))
        vals = f(xi[:, None], beta[None, :]) * jacobian(curve, xi[:, None], beta[None, :])
        terms = _W2 * ((hi[0] - lo[0]) * (hi[1] - lo[1]) / 4) * np.concatenate(
            [vals.ravel(), vals[-2::-2, -2::-2].ravel()])
        return _Region((np.sum(terms[:441]), abs(np.sum(terms)), lo, hi))

    heap = [box((xi_range[0], BETA_LO + EDGE_OFFSET), (xi_range[1], BETA_HI - EDGE_OFFSET))]
    est, err, _, _ = heap[0]
    subdivisions = 0
    while err > tol * abs(est) and subdivisions < MAX_SUBDIVISIONS:
        worst = heapq.heappop(heap)
        est, err = est - worst[0], err - worst[1]
        (x0, y0), (x1, y1) = worst[2], worst[3]
        xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
        for part in (box((x0, y0), (xm, ym)), box((x0, ym), (xm, y1)),
                     box((xm, y0), (x1, ym)), box((xm, ym), (x1, y1))):
            est, err = est + part[0], err + part[1]
            heapq.heappush(heap, part)
        subdivisions += 1
    result, error = 2.0 * math.pi * float(est), 2.0 * math.pi * float(err)
    if subdivisions == MAX_SUBDIVISIONS:  # even if the last split converged, as scipy's loop
        raise IntegrationError(
            f"estimated cubature error {error:.3e} above tolerance for result {result:.6e} "
            f"(not_converged after {subdivisions} subdivisions)"
        )
    return (result, error, subdivisions) if with_error else result
