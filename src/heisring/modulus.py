"""Revolution rings, the extremal density, and the modulus machinery.

The analytic modulus of the boundary-connecting horizontal curve family in a
revolution ring is pi^2 (log(b/a))^-3; this module reproduces it by
quadrature in revolution coordinates, cross-checks by ambient Monte Carlo,
verifies admissibility of the extremal density over curve families, and runs
a restricted convex-optimization oracle for the lower bound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import curves as curves_mod
from . import revcoords
from .heis import HPoint
from .profiles import (BETA_HI, BETA_LO, ProfileCurve, ValidationError, arg_band,
                       clip_to_band, endpoint_limit, reparam_by_argument, validate)


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

    @property
    def box(self) -> revcoords.Box:
        return revcoords.Box((math.log(self.a), math.log(self.b)))

    @cached_property
    def shell_bracket(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (lo, hi) of sqrt|p*(beta)| on BRACKET_CELLS uniform beta cells.

        A cell spans its node values, with the |p*| range widened by the largest
        log|p*| step of the cell and its neighbours, and by BRACKET_MARGIN. Edge
        cells, and cells whose midpoint value falls outside, get (0, inf).
        """
        beta = BETA_LO + math.pi * np.arange(2 * BRACKET_CELLS + 1) / (2 * BRACKET_CELLS)
        # eight pstar_pair calls keep the by-argument evaluator's temporaries small
        s = np.sqrt(np.abs(np.concatenate([revcoords.pstar_pair(self.profile, clip_to_band(b))[0]
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
    strict monotonicity of arg p*, and the endpoint signs of g. Interior
    monotonicity of g itself is reported by ``validate`` but not needed here.
    """
    base = curve.source if curve.by_argument and curve.source is not None else curve
    report = validate(base, grid_n=grid_n)
    ga = endpoint_limit(base, "lo", 3)
    gb = endpoint_limit(base, "hi", 3)
    failed = [name for name, ok in (
        ("A1", report.a1.passed),
        ("beta monotone", report.beta_monotone.passed),
        ("g endpoint signs", ga > 0.0 and gb < 0.0),
    ) if not ok]
    if failed:
        raise ValidationError(
            f"profile {curve.name!r} failed validation: {', '.join(failed)}"
        )
    return RevolutionRing(reparam_by_argument(curve), a, b)


class Location(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def _gauge_terms(z, t):
    """(|z|, |z|^4 + t^2, gauge, beta) at ambient points off the origin."""
    az = np.abs(np.asarray(z, dtype=complex))
    t = np.asarray(t, dtype=float)
    r4 = az ** 4 + t * t
    if np.any(r4 == 0.0):
        raise ValueError("boundary ratio and rho0 are undefined at the group origin")
    return az, r4, r4 ** 0.25, arg_band(-az ** 2 + 1j * t)


def _ratio(ring: RevolutionRing, gauge, beta):
    return gauge / np.sqrt(np.abs(revcoords.pstar_pair(ring.profile, clip_to_band(beta))[0]))


def boundary_ratio(ring: RevolutionRing, z, t):
    """gauge(z,t) / |p*(arg alpha(z,t))|^(1/2); the ring is a < ratio < b."""
    return _ratio(ring, *_gauge_terms(z, t)[2:])


def membership(ring: RevolutionRing, p: HPoint, tol: float = 1e-9) -> Location:
    ratio = float(boundary_ratio(ring, p.z, p.t))
    if abs(ratio - ring.a) <= tol or abs(ratio - ring.b) <= tol:
        return Location.BOUNDARY
    if ring.a < ratio < ring.b:
        return Location.INSIDE
    return Location.OUTSIDE


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
    cell = np.fmin((beta - BETA_LO) * (BRACKET_CELLS / math.pi),
                   BRACKET_CELLS - 1).astype(np.intp)  # fmin sends nan to a (0, inf) cell
    inside = np.asarray((gauge > ((ring.a - pad) * hi)[cell])
                        & (gauge < ((ring.b + pad) * lo)[cell]))
    check = ~(inside | (gauge < ((ring.a - pad) * lo)[cell])
              | (gauge > ((ring.b + pad) * hi)[cell]))
    if np.any(check):
        ratio = _ratio(ring, gauge[check], beta[check])
        inside[check] = (ratio > ring.a - pad) & (ratio < ring.b + pad)
    vals = az / np.sqrt(r4) / ring.log_ratio
    return np.where(inside, vals, 0.0)


def rho0(ring: RevolutionRing, p: HPoint) -> float:
    return float(rho0_values(ring, p.z, p.t))


def rho0_density(ring: RevolutionRing) -> Callable:
    """rho0 of the ring as a plain vectorized callable rho(z, t)."""
    return lambda z, t: rho0_values(ring, z, t)


def analytic_modulus(a: float, b: float) -> float:
    """pi^2 (log(b/a))^-3."""
    if not (0.0 < a < b):
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    return math.pi ** 2 / math.log(b / a) ** 3


def numeric_modulus(ring: RevolutionRing, tol: float = 1e-9) -> float:
    """Integral of rho0^4 by quadrature in revolution coordinates.

    The density is evaluated through the ambient formula at Phi(xi, beta, phi)
    rather than through its simplified pullback, so this route is independent
    of the closed-form computation it is checked against.
    """
    prof = ring.profile

    def f(xi, beta, phi):
        z, t = revcoords.phi_map_arrays(prof, xi, beta, phi)
        return rho0_values(ring, z, t) ** 4

    return revcoords.integrate_over_box(prof, f, ring.box, tol=tol,
                                        phi_independent=True)


MC_CHUNK = 2 ** 16  # points per rho0_values call; bounds the per-point working set


def mc_modulus(ring: RevolutionRing, n: int = 10 ** 6,
               seed: int = 0) -> tuple[float, float]:
    """Ambient Monte Carlo of the rho0^4 integral; returns (value, std error).

    Uniform rejection sampling over a bounding box of the outer shell in
    Cartesian coordinates; completely independent of revolution coordinates.
    The density is evaluated MC_CHUNK samples at a time.
    """
    beta_grid = np.linspace(BETA_LO + 1e-9, BETA_HI - 1e-9, 20001)
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
        vals[j] = rho0_values(ring, x[j] + 1j * y[j], t[j], closed=False) ** 4
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n))
    return volume * mean, volume * stderr


# -- admissibility ------------------------------------------------------------------


ADMISSIBILITY_SLACK = 1e-3  # budget for quadrature and phase-integration error


@dataclass(frozen=True)
class AdmissibilityReport:
    n: int
    min: float
    mean: float
    histogram: tuple
    bin_edges: tuple
    slack: float

    @property
    def passed(self) -> bool:
        return self.min >= 1.0 - self.slack


def admissibility_report(ring: RevolutionRing, family: curves_mod.CurveFamily,
                         rho: Optional[Callable] = None,
                         slack: float = ADMISSIBILITY_SLACK) -> AdmissibilityReport:
    """Line integrals of a density over a family; pass iff min >= 1 - slack."""
    if rho is None:
        rho = rho0_density(ring)
    vals = curves_mod.line_integral(rho, family)
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
        slack=slack,
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


def restricted_oracle(ring: RevolutionRing, n_bins: int, seed: int = 0,
                      grad_tol: float = 1e-12, max_iter: int = 200000):
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
    for _ in range(max_iter):
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
        if pg_norm <= grad_tol * max(1.0, float(np.max(np.abs(grad)))):
            break
    else:
        raise OptimizationError("projected gradient did not converge")
    return obj, h


# -- quasiradial angle ------------------------------------------------------------------


def quasiradial_angle(ring: RevolutionRing, q: revcoords.RevPoint) -> float:
    """Angle at Phi(q) between the quasiradial tangent and the leaf normal.

    Computed two ways: from the inner product of the horizontal tangent with
    the horizontal normal of the leaf through the point, and from the closed
    form pi/2 - arg(dp*(beta)) + beta. The two must agree to 1e-9.
    """
    if not (BETA_LO < q.beta < BETA_HI):
        raise ValueError(f"beta {q.beta} outside the open band")
    prof = ring.profile
    ps, dps = revcoords.pstar_pair(prof, q.beta)
    re = float(np.real(-ps))

    # horizontal tangent of the quasiradial through q (derivative in xi)
    z, t = revcoords.phi_map_arrays(prof, q.xi, q.beta, q.phi)
    dz = complex(z) * (1.0 + 1j * math.tan(q.beta))
    tangent = np.array([dz.real, dz.imag])

    # horizontal normal of the leaf S_xi at q: profile dilated by e^xi
    w = np.exp(1j * q.phi) * complex(dps)
    normal = float(np.sqrt(re)) * np.array([-w.imag, w.real])

    cos_num = float(tangent @ normal) / (
        float(np.hypot(*tangent)) * float(np.hypot(*normal)))
    theta = math.pi / 2 - math.atan2(float(np.imag(dps)), float(np.real(dps))) + q.beta
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
    numeric = numeric_modulus(ring, tol=tol)
    report: dict = {
        "surface": surface_name,
        "a": ring.a,
        "b": ring.b,
        "analytic": analytic,
        "numeric": numeric,
        "rel_err": abs(numeric - analytic) / analytic,
    }
    if curve_count > 0:
        family = curves_mod.random_family(ring, curve_count, seed0=seed)
        adm = admissibility_report(ring, family)
        report["admissibility"] = {"n": adm.n, "min": adm.min, "mean": adm.mean}
    if oracle_bins > 0:
        value, h = restricted_oracle(ring, oracle_bins, seed=seed)
        uniform = 1.0 / ring.log_ratio
        report["oracle"] = {
            "value": value,
            "max_dev_from_uniform": float(np.max(np.abs(h - uniform))) / uniform,
        }
    return report
