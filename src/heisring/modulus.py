"""Revolution rings, the extremal density, and the modulus machinery.

The analytic modulus of the boundary-connecting horizontal curve family in a
revolution ring is pi^2 (log(b/a))^-3; this module reproduces it by
quadrature in revolution coordinates, cross-checks by ambient Monte Carlo,
verifies admissibility of the extremal density over curve families, and runs
a restricted convex-optimization oracle for the lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import curves as curves_mod
from . import revcoords
from . import surface as surface_mod
from .profiles import (BETA_HI, BETA_LO, EDGE_OFFSET, ProfileCurve, ValidationError,
                       band_atan2, clip_to_band, reparam_by_argument, uniform_cell, validate)


BRACKET_CELLS = 2 ** 12  # uniform beta cells of RevolutionRing.shell_bracket
BRACKET_MARGIN = 1e-12  # relative rounding margin of the shell bracket


@dataclass(frozen=True)
class RevolutionRing:
    """Domain between the dilates D_a and D_b of a revolution surface."""

    profile: ProfileCurve  # parametrized by argument
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < self.b):
            raise ValueError(f"need 0 < a < b, got a={self.a}, b={self.b}")
        if not self.profile.by_argument:
            raise ValueError("ring profile must be parametrized by argument")

    @property
    def log_ratio(self) -> float:
        return math.log(self.b / self.a)

    @cached_property
    def shell_bracket(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (lo, hi) of sqrt|p*(beta)| on BRACKET_CELLS uniform beta cells.

        A cell spans its node values, with the |p*| range widened by the largest
        log|p*| step of the cell and its neighbours, and by BRACKET_MARGIN. Edge
        cells, and cells whose midpoint value falls outside, get (0, inf).
        """
        beta = BETA_LO + math.pi * np.arange(2 * BRACKET_CELLS + 1) / (2 * BRACKET_CELLS)
        # the edge cells get (0, inf) whatever their outer nodes, so those sit
        # EDGE_OFFSET inside the band, where every profile's inversion reaches
        beta = np.clip(beta, BETA_LO + EDGE_OFFSET, BETA_HI - EDGE_OFFSET)
        # eight pstar_pair calls keep the by-argument evaluator's temporaries small
        s = np.sqrt(np.abs(np.concatenate([revcoords.pstar_pair(self.profile, b)[0]
                                           for b in np.array_split(beta, 8)])))
        nodes, mids = s[::2], s[1::2]
        step = np.pad(np.abs(np.diff(np.log(nodes))), 1)  # half the log|p*| step
        widen = np.exp(np.maximum(np.maximum(step[:-2], step[1:-1]), step[2:]))
        lo = np.minimum(nodes[:-1], nodes[1:]) / widen / (1.0 + BRACKET_MARGIN)
        hi = np.maximum(nodes[:-1], nodes[1:]) * widen * (1.0 + BRACKET_MARGIN)
        loose = (mids < lo) | (mids > hi)
        loose[[0, -1]] = True
        return np.where(loose, 0.0, lo), np.where(loose, np.inf, hi)


def make_ring(curve: ProfileCurve, a: float, b: float,
              grid_n: int = 4096) -> RevolutionRing:
    """Validate a profile, reparametrize it by argument, and build the ring.

    The ring only needs the Koranyi image to sweep the argument band
    monotonically with endpoints on the two halves of the imaginary axis, so
    the required checks are positivity of f with vanishing endpoint limits,
    strict monotonicity of arg p*, and the endpoint signs of g, all read from
    one ``validate`` report. Interior monotonicity of g itself is reported
    there but not needed here.
    """
    base = curve.source if curve.by_argument and curve.source is not None else curve
    report = validate(base, grid_n=grid_n)
    failed = [name for name, ok in (
        ("A1", report.a1.passed),
        ("beta monotone", report.beta_monotone.passed),
        ("g endpoint signs", report.g_signs),
    ) if not ok]
    if failed:
        raise ValidationError(
            f"profile {curve.name!r} failed validation: {', '.join(failed)}"
        )
    return RevolutionRing(reparam_by_argument(curve), a, b)


def _gauge_terms(z, t):
    """(|z|, |z|^4 + t^2, gauge, beta) at ambient points off the origin."""
    az = np.abs(np.asarray(z, dtype=complex))
    t = np.asarray(t, dtype=float)
    r4 = az ** 4 + t * t
    if np.any(r4 == 0.0):
        if np.all((az == 0.0) & (t == 0.0) | (r4 != 0.0)):
            raise ValueError("boundary ratio and rho0 are undefined at the group origin")
        raise ValueError("boundary ratio and rho0 are undefined where |z|^4 + t^2 "
                         "underflows to 0, at a point off the group origin")
    return az, r4, r4 ** 0.25, band_atan2(t, -az * az)


def _ratio(ring: RevolutionRing, gauge, beta):
    return gauge / np.sqrt(np.abs(revcoords.pstar_pair(ring.profile, clip_to_band(beta))[0]))


def boundary_ratio(ring: RevolutionRing, z, t):
    """gauge(z,t) / |p*(arg alpha(z,t))|^(1/2); the ring is a < ratio < b."""
    return _ratio(ring, *_gauge_terms(z, t)[2:])


def rho0_values(ring: RevolutionRing, z, t, closed: bool = True,
                tol: float = 1e-9):
    """Vectorized extremal density (log(b/a))^-1 |z| (|z|^4+t^2)^(-1/2) X(ring).

    With ``closed`` the indicator includes the boundary shells (a measure-zero
    change that keeps line integrals along boundary-touching curves exact).
    Only points that the ring's shell bracket cannot classify evaluate p*.
    """
    az, r4, gauge, beta = _gauge_terms(z, t)
    pad = tol if closed else -tol
    lo, hi = ring.shell_bracket
    cell = uniform_cell(beta, BETA_LO, BETA_HI, BRACKET_CELLS)  # nan goes to a (0, inf) cell
    inside = np.asarray((gauge > ((ring.a - pad) * hi)[cell])
                        & (gauge < ((ring.b + pad) * lo)[cell]))
    check = ~(inside | (gauge < ((ring.a - pad) * lo)[cell])
              | (gauge > ((ring.b + pad) * hi)[cell]))
    if np.any(check):
        ratio = _ratio(ring, gauge[check], beta[check])
        inside[check] = (ratio > ring.a - pad) & (ratio < ring.b + pad)
    vals = az / np.sqrt(r4) / ring.log_ratio
    return np.where(inside, vals, 0.0)


def rho0_density(ring: RevolutionRing) -> Callable:
    """rho0 of the ring as a plain vectorized callable rho(z, t)."""
    return lambda z, t: rho0_values(ring, z, t)


def analytic_modulus(a: float, b: float) -> float:
    """pi^2 (log(b/a))^-3."""
    if not (0.0 < a < b):
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    return math.pi ** 2 / math.log(b / a) ** 3


def numeric_modulus(ring: RevolutionRing, tol: float = 1e-9, with_error: bool = False):
    """Integral of rho0^4 by quadrature in revolution coordinates.

    The density is evaluated through the ambient formula at Phi(xi, beta, phi)
    rather than through its simplified pullback, so this route is independent
    of the closed-form computation it is checked against; Phi is formed from
    the p* that integrate_over_box evaluates once per box and also hands to
    the Jacobian. ``with_error`` returns (value, error estimate,
    subdivisions), as integrate_over_box does.
    """

    def f(xi, beta, ps):
        z, t = revcoords.phi_map(xi, math.pi, ps)
        return rho0_values(ring, z, t) ** 4

    return revcoords.integrate_over_box(ring.profile, f, (math.log(ring.a), math.log(ring.b)),
                                        tol=tol, with_error=with_error)


MC_CHUNK = 2 ** 16  # points per rho0_values call; bounds the per-point working set


def mc_modulus(ring: RevolutionRing, n: int = 10 ** 6,
               seed: int = 0) -> tuple[float, float]:
    """Ambient Monte Carlo of the rho0^4 integral; returns (value, std error).

    Uniform rejection sampling over a bounding box of the outer shell in
    Cartesian coordinates; completely independent of revolution coordinates.
    The density is evaluated MC_CHUNK samples at a time. Raises ValueError for
    n < 2, which has no standard error, and ArithmeticError when the value or
    its standard error is not finite.
    """
    if n < 2:
        raise ValueError(f"mc_modulus needs n >= 2 samples, got {n}")
    beta_grid = np.linspace(BETA_LO + EDGE_OFFSET, BETA_HI - EDGE_OFFSET, 20001)
    ps, _ = revcoords.pstar_pair(ring.profile, beta_grid)
    zmax = 1.0001 * ring.b * float(np.sqrt(np.max(np.real(-ps))))
    tmax = 1.0001 * ring.b ** 2 * float(np.max(np.imag(ps)))
    tmin = 1.0001 * ring.b ** 2 * float(np.min(np.imag(ps)))
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = rng.uniform(-zmax, zmax, n)
    y = rng.uniform(-zmax, zmax, n)
    t = rng.uniform(tmin, tmax, n)
    volume = (2.0 * zmax) ** 2 * (tmax - tmin)
    vals = np.empty(n)
    for i in range(0, n, MC_CHUNK):
        j = slice(i, i + MC_CHUNK)
        sq = np.square(rho0_values(ring, x[j] + 1j * y[j], t[j], closed=False))
        np.square(sq, out=vals[j])  # rho0^4 by two squarings, as np.power is slow on zeros
    value = volume * float(np.mean(vals))
    stderr = volume * float(np.std(vals, ddof=1) / math.sqrt(n))
    if not math.isfinite(value) or not math.isfinite(stderr):
        raise ArithmeticError(
            f"Monte Carlo gave the non-finite value {value!r} with standard error {stderr!r}")
    return value, stderr


# -- admissibility ------------------------------------------------------------------


ADMISSIBILITY_SLACK = 1e-3  # budget for quadrature and phase-integration error


@dataclass(frozen=True)
class AdmissibilityReport:
    n: int
    min: float
    mean: float
    histogram: tuple
    bin_edges: tuple
    max_error: float  # largest Simpson error estimate of the line integrals


def admissibility_report(ring: RevolutionRing,
                         family: curves_mod.HorizontalCurve) -> AdmissibilityReport:
    """rho0 line integrals over a family, with the largest Simpson error
    estimate; pass iff min >= 1 - ADMISSIBILITY_SLACK and max_error <=
    ADMISSIBILITY_SLACK."""
    vals, errors = curves_mod.line_integral(rho0_density(ring), family, with_error=True)
    span = (float(np.min(vals)), float(np.max(vals))) if vals.size else (0.0, 1.0)
    if span[1] - span[0] < 1e-9 * max(1.0, abs(span[0])):
        # degenerate range (e.g. all quasiradials give exactly 1)
        span = (span[0] - 0.5, span[1] + 0.5)
    hist, edges = np.histogram(vals, bins=20, range=span)
    return AdmissibilityReport(
        n=len(family),
        min=float(np.min(vals)) if vals.size else math.inf,
        mean=float(np.mean(vals)) if vals.size else math.nan,
        histogram=tuple(int(h) for h in hist),
        bin_edges=tuple(float(e) for e in edges),
        max_error=float(np.max(errors, initial=0.0)),
    )


# -- restricted optimization oracle ---------------------------------------------------


class OptimizationError(RuntimeError):
    pass


def _project_scaled_simplex(h: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {h >= 0, sum(h) = total}."""
    u = np.sort(h)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, h.size + 1)
    cond = u - css / idx > 0
    rho_idx = idx[cond][-1]
    lam = css[cond][-1] / rho_idx
    return np.maximum(h - lam, 0.0)


ORACLE_GRAD_TOL = 1e-12  # relative projected-gradient size at which the oracle stops
ORACLE_MAX_ITER = 200000  # projected-gradient steps before the oracle gives up


def restricted_oracle(ring: RevolutionRing, n_bins: int, seed: int = 0):
    """Minimize pi^2 sum(h^4) dxi over piecewise-constant radial profiles.

    Constraint: h >= 0, sum(h) dxi = 1 (unit line integral on every
    quasiradial). Solved by projected gradient with backtracking from a
    random positive start; the known closed form (uniform h = 1/log(b/a),
    value = analytic modulus) is never used by the solver.
    Returns (value, h).
    """
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")
    L = ring.log_ratio
    dxi = L / n_bins
    rng = np.random.Generator(np.random.Philox(key=seed))
    h = rng.uniform(0.5, 1.5, n_bins) / L
    h = _project_scaled_simplex(h, 1.0 / dxi)

    def objective(v):
        return math.pi ** 2 * float(np.sum(v ** 4)) * dxi

    obj = objective(h)
    step = 1.0 / (12.0 * math.pi ** 2 * float(np.max(h)) ** 2 * dxi)
    for _ in range(ORACLE_MAX_ITER):
        grad = 4.0 * math.pi ** 2 * h ** 3 * dxi
        trial_step = step
        for _bt in range(60):
            h_new = _project_scaled_simplex(h - trial_step * grad, 1.0 / dxi)
            obj_new = objective(h_new)
            if obj_new <= obj + float(grad @ (h_new - h)) \
                    + float(np.sum((h_new - h) ** 2)) / (2.0 * trial_step):
                break
            trial_step *= 0.5
        else:
            raise OptimizationError("backtracking line search failed")
        move = float(np.max(np.abs(h_new - h)))
        h, obj = h_new, obj_new
        pg_norm = move / trial_step
        if pg_norm <= ORACLE_GRAD_TOL * max(1.0, float(np.max(np.abs(grad)))):
            break
    else:
        raise OptimizationError("projected gradient did not converge")
    return obj, h


# -- quasiradial angle ------------------------------------------------------------------


def quasiradial_angle(ring: RevolutionRing, xi: float, beta: float, phi: float) -> float:
    """Angle at Phi(xi, beta, phi) between the quasiradial tangent and the leaf normal.

    Computed two ways: from the inner product of the horizontal tangent with
    the horizontal normal of the leaf through the point, and from the closed
    form pi/2 - arg(dp*(beta)) + beta. The two must agree to 1e-9.
    """
    if not (BETA_LO < beta < BETA_HI):
        raise ValueError(f"beta {beta} outside the open band")
    ps, dps = revcoords.pstar_pair(ring.profile, beta)
    # horizontal tangent of the quasiradial: xi' = 1, beta' = 0, phi' = tan(beta)
    dz = revcoords.phi_map_tangent(xi, phi, 1.0, 0.0, math.tan(beta), ps, dps)[2]
    tangent = np.array([dz.real, dz.imag])
    # horizontal normal of the leaf S_xi at the point, the profile dilated by e^xi,
    # which points as the undilated one does
    normal = np.array(surface_mod.horizontal_normal_components(ring.profile, beta, phi))

    cos_num = float(tangent @ normal) / (
        float(np.hypot(*tangent)) * float(np.hypot(*normal)))
    theta = math.pi / 2 - math.atan2(float(np.imag(dps)), float(np.real(dps))) + beta
    theta = math.remainder(theta, 2.0 * math.pi)
    cos_closed = math.cos(theta)
    if abs(cos_num - cos_closed) > 1e-9:
        raise ArithmeticError(
            f"angle computations disagree: cos={cos_num!r} vs closed form {cos_closed!r}"
        )
    return theta


# -- serializable summary ------------------------------------------------------------------


def modulus_report(ring: RevolutionRing, surface_name: str,
                   curve_count: int = 0, seed: int = 0,
                   oracle_bins: int = 0, tol: float = 1e-9) -> dict:
    """JSON-ready summary used by the command line front end."""
    analytic = analytic_modulus(ring.a, ring.b)
    numeric, quad_error, subdivisions = numeric_modulus(ring, tol=tol, with_error=True)
    report: dict = {
        "surface": surface_name,
        "a": ring.a,
        "b": ring.b,
        "analytic": analytic,
        "numeric": numeric,
        "rel_err": abs(numeric - analytic) / analytic,
        "quad_error": quad_error,
        "quad_subdivisions": subdivisions,
    }
    if curve_count > 0:
        family = curves_mod.random_family(ring, curve_count, seed0=seed)
        adm = admissibility_report(ring, family)
        report["admissibility"] = {"n": adm.n, "min": adm.min, "mean": adm.mean,
                                   "max_error": adm.max_error}
    if oracle_bins > 0:
        value, h = restricted_oracle(ring, oracle_bins, seed=seed)
        uniform = 1.0 / ring.log_ratio
        report["oracle"] = {
            "value": value,
            "max_dev_from_uniform": float(np.max(np.abs(h - uniform))) / uniform,
        }
    return report
