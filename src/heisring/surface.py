"""Surfaces of revolution as patches sigma(s, phi) with horizontal geometry.

Covers the Euclidean and horizontal normals, horizontal area, the Legendrian
foliation (flow curves), the horizontal mean curvature, and mesh export.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy

from .profiles import ProfileCurve, koranyi_image


class CurvatureError(ArithmeticError):
    """Mean curvature indeterminate (one-sided limits disagree)."""


@dataclass(frozen=True)
class SurfacePatch:
    """Revolution surface patch (s, phi) -> D_scale(f(s) e^(i phi), g(s))."""

    profile: ProfileCurve
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def domain(self):
        return self.profile.domain


def patch_xyz(surface: SurfacePatch, s, phi):
    """Vectorized patch evaluation; returns (z, t) after dilation."""
    f, _, _, g, _, _ = surface.profile.eval(s)
    d = surface.scale
    return d * f * np.exp(1j * np.asarray(phi)), d * d * g


def horizontal_normal_components(surface: SurfacePatch, s, phi):
    """(nu_X, nu_Y) components of N^h at sigma(s, phi), vectorized."""
    f, fd, _, g, gd, _ = surface.profile.eval(s)
    d = surface.scale
    dps = d * d * (-2.0 * f * fd + 1j * gd)  # dp* of the dilated profile
    w = np.exp(1j * np.asarray(phi)) * dps
    return -d * f * np.imag(w), d * f * np.real(w)


AREA_TOL = 1e-10  # relative tolerance of the horizontal-area quadrature
AREA_LIMIT = 200  # subinterval limit of the horizontal-area quadrature


def horizontal_area(surface: SurfacePatch) -> float:
    """Horizontal area 2 pi int Re^(1/2)(-p*) |dp*| ds, scaling as scale^3.

    The integrand can have integrable square-root endpoint singularities;
    adaptive open quadrature reports its error estimate and fails loudly if
    it exceeds 100 AREA_TOL relative.
    """
    lo, hi = surface.profile.domain

    def integrand(s):
        ps, dps = koranyi_image(surface.profile, s)
        return math.sqrt(float(np.real(-ps))) * float(np.abs(dps))

    val, err = scipy.integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=AREA_TOL,
                                    limit=AREA_LIMIT)
    if abs(err) > max(100.0 * AREA_TOL * abs(val), 1e-12):
        raise RuntimeError(f"area quadrature error estimate {err:.3e} too large")
    return 2.0 * math.pi * val * surface.scale ** 3


def flow_phase_rate(surface: SurfacePatch, s):
    """d phi / d s along the Legendrian foliation: Im dp* / (2 Re p*)."""
    ps, dps = koranyi_image(surface.profile, s)
    re = np.real(ps)
    if np.any(re == 0):
        raise ZeroDivisionError("flow integrand blows up: Re p* = 0 inside span")
    return np.imag(dps) / (2.0 * re)


def flow_curve(surface: SurfacePatch, s0: float, phi0: float,
               span: tuple[float, float], n: int = 1024):
    """Integral curve of the horizontal flow through sigma(s0, phi0).

    Returns a HorizontalCurve sampled on ``n + 1`` points of ``span``;
    phase integration uses an adaptive embedded Runge-Kutta pair.
    """
    from .curves import HorizontalCurve  # local import to avoid a cycle

    lo, hi = surface.profile.domain
    a, b = span
    if not (lo < a <= s0 <= b < hi):
        raise ValueError(f"span {span} with anchor {s0} not inside profile domain")
    s_samples = np.linspace(a, b, n + 1)
    phi = np.empty_like(s_samples)
    rhs = lambda s, _y: float(flow_phase_rate(surface, s))
    if a == b:
        phi[:] = phi0
    else:
        ahead = s_samples >= s0
        for side, order in ((ahead, 1), (~ahead, -1)):  # integrate away from s0
            t_eval = s_samples[side][::order]
            if t_eval.size:
                sol = scipy.integrate.solve_ivp(rhs, (s0, t_eval[-1]), [phi0], t_eval=t_eval,
                                                rtol=1e-12, atol=1e-12, method="RK45")
                if not sol.success:
                    raise RuntimeError(f"flow integration failed: {sol.message}")
                phi[side] = sol.y[0][::order]

    f, fd, _, g, gd, _ = surface.profile.eval(s_samples)
    d = surface.scale
    dphi = np.asarray(flow_phase_rate(surface, s_samples))
    z = d * f * np.exp(1j * phi)
    t = d * d * g
    dz = d * (fd + 1j * f * dphi) * np.exp(1j * phi)
    dt = d * d * gd
    return HorizontalCurve.from_samples(s_samples, z, t, dz, dt)


def mean_curvature(surface: SurfacePatch, s: float) -> float:
    """Horizontal mean curvature H^h(s); independent of phi.

    At isolated points where fd(s) = 0 the formula is indeterminate; the value
    is recovered from one-sided evaluations at s +- h and their average is
    returned when they agree to 1e-3 relative.
    """
    lo, hi = surface.profile.domain
    f, fd, _, _, _, _ = surface.profile.eval(s)
    fscale = max(1.0, abs(f))
    if abs(fd) < 1e-8 * fscale:
        h = 1e-5 * (hi - lo)
        left = _mean_curvature_regular(surface, s - h)
        right = _mean_curvature_regular(surface, s + h)
        mid = 0.5 * (left + right)
        if abs(left - right) > 1e-3 * max(1.0, abs(mid)):
            raise CurvatureError(
                f"mean curvature indeterminate at s={s}: one-sided values "
                f"{left:.6g} and {right:.6g} disagree"
            )
        return mid
    return _mean_curvature_regular(surface, s)


def _mean_curvature_regular(surface: SurfacePatch, s: float) -> float:
    f, fd, fdd, _, _, gdd = surface.profile.eval(s)
    _, dps = koranyi_image(surface.profile, s)
    ddps = -2.0 * (fd * fd + f * fdd) + 1j * gdd
    m = abs(dps)
    u = dps / m
    du = ddps / m - dps * np.real(np.conj(dps) * ddps) / m ** 3
    return float((-np.imag(u) / f - np.imag(du) / fd) / surface.scale)


# -- mesh export -----------------------------------------------------------------


def export_mesh(surface: SurfacePatch, obj_path: str, csv_path: str | None = None,
                n_s: int = 128, n_phi: int = 64) -> tuple[str, str]:
    """Write a triangulated (s, phi) grid as Wavefront OBJ plus a sidecar CSV.

    Vertices are `v x y t`; the mesh wraps in phi and leaves pole holes. The
    CSV carries per-vertex horizontal-normal norm and mean curvature (``nan``
    where the curvature formula is indeterminate).
    """
    lo, hi = surface.profile.domain
    s_vals = lo + (hi - lo) * (np.arange(1, n_s + 1)) / (n_s + 1)
    phi_vals = 2.0 * math.pi * np.arange(n_phi) / n_phi

    ss, pp = np.meshgrid(s_vals, phi_vals, indexing="ij")
    z, t = patch_xyz(surface, ss.ravel(), pp.ravel())
    n1, n2 = horizontal_normal_components(surface, ss.ravel(), pp.ravel())
    nh = np.hypot(n1, n2)

    hh = np.empty(n_s)
    for i, s in enumerate(s_vals):
        try:
            hh[i] = mean_curvature(surface, float(s))
        except (CurvatureError, ArithmeticError):
            hh[i] = math.nan

    with open(obj_path, "w") as fh:
        fh.write(f"# heisring revolution surface mesh {n_s}x{n_phi}\n")
        for x, y, tv in zip(z.real, z.imag, t):
            fh.write(f"v {x:.17g} {y:.17g} {tv:.17g}\n")
        for i in range(n_s - 1):
            for j in range(n_phi):
                jn = (j + 1) % n_phi
                a = i * n_phi + j + 1
                b = i * n_phi + jn + 1
                c = (i + 1) * n_phi + jn + 1
                d = (i + 1) * n_phi + j + 1
                fh.write(f"f {a} {b} {c}\n")
                fh.write(f"f {a} {c} {d}\n")

    if csv_path is None:
        csv_path = obj_path.rsplit(".", 1)[0] + "_vertices.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "phi", "x", "y", "t", "Nh_norm", "Hh"])
        for idx in range(z.size):
            i = idx // n_phi
            writer.writerow([
                f"{ss.ravel()[idx]:.17g}", f"{pp.ravel()[idx]:.17g}",
                f"{z.real[idx]:.17g}", f"{z.imag[idx]:.17g}", f"{t[idx]:.17g}",
                f"{nh[idx]:.17g}", f"{hh[i]:.17g}",
            ])
    return obj_path, csv_path
