"""Surfaces of revolution as patches sigma(s, phi) with horizontal geometry.

Covers the Euclidean and horizontal normals, horizontal area, the Legendrian
foliation (flow curves), the horizontal mean curvature, and mesh export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .profiles import ProfileCurve, _image, koranyi_image, phase_rate


class CurvatureError(ArithmeticError):
    """Mean curvature undefined: dp* = 0 or f = 0 at the point."""


@dataclass(frozen=True)
class SurfacePatch:
    """Revolution surface patch (s, phi) -> D_scale(f(s) e^(i phi), g(s))."""

    profile: ProfileCurve
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def patch_xyz(surface: SurfacePatch, s, phi):
    """Vectorized patch evaluation; returns (z, t) after dilation."""
    f, _, _, g, _, _ = surface.profile.eval(s)
    d = surface.scale
    return d * f * np.exp(1j * np.asarray(phi)), d * d * g


def horizontal_normal_components(surface: SurfacePatch, s, phi):
    """(nu_X, nu_Y) components of N^h at sigma(s, phi), vectorized."""
    values = surface.profile.eval(s)
    f, d = values[0], surface.scale
    dps = d * d * _image(values)[1]  # dp* of the dilated profile
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
    if np.any(np.real(ps) == 0):
        raise ZeroDivisionError("flow integrand blows up: Re p* = 0 inside span")
    return phase_rate(ps, dps)


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


def mean_curvature(surface: SurfacePatch, s):
    """Horizontal mean curvature H^h(s); independent of phi.

    With dp* = a + ib and d^2p* = c + id (derivatives in s),
    H^h = (-b / (|dp*| f) + 2 f (ad - bc) / |dp*|^3) / scale, defined wherever
    dp* != 0 and f != 0. ``s`` is a number or an array; where H^h is undefined
    an array holds ``nan`` and a number raises CurvatureError.
    """
    values = surface.profile.eval(np.atleast_1d(np.asarray(s, dtype=float)))
    f, fd, fdd, _, _, gdd = values
    dps = _image(values)[1]
    a, b = np.real(dps), np.imag(dps)
    c, d = -2.0 * (fd * fd + f * fdd), gdd
    m = np.abs(dps)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (-b / (m * f) + 2.0 * f * (a * d - b * c) / m ** 3) / surface.scale
    out = np.where(np.isfinite(out), out, np.nan)
    if np.ndim(s) > 0:
        return out
    if np.isnan(out[0]):
        raise CurvatureError(f"mean curvature undefined at s={s}")
    return float(out[0])


# -- mesh export -----------------------------------------------------------------


def write_rows(fh, fmt: str, rows):
    """Write ``fmt % row`` for each row of a 2-D array, from Python numbers, which
    format faster than numpy scalars; 1024 rows at a time bound how many exist."""
    for i in range(0, len(rows), 1024):
        fh.write("".join(fmt % tuple(r) for r in rows[i:i + 1024].tolist()))


def export_mesh(surface: SurfacePatch, obj_path: str, csv_path: str | None = None,
                n_s: int = 128, n_phi: int = 64) -> tuple[str, str]:
    """Write a triangulated (s, phi) grid as Wavefront OBJ plus a sidecar CSV.

    Vertices are `v x y t`; the mesh wraps in phi and leaves pole holes. The
    CSV carries per-vertex horizontal-normal norm and mean curvature (``nan``
    where it is undefined: dp* = 0 or f = 0).
    """
    lo, hi = surface.profile.domain
    s_vals = lo + (hi - lo) * (np.arange(1, n_s + 1)) / (n_s + 1)
    phi_vals = 2.0 * math.pi * np.arange(n_phi) / n_phi

    ss, pp = (a.ravel() for a in np.meshgrid(s_vals, phi_vals, indexing="ij"))
    z, t = patch_xyz(surface, s_vals[:, None], phi_vals)  # the profile is evaluated per s
    z, t = z.ravel(), np.repeat(t, n_phi)
    nh = np.hypot(*horizontal_normal_components(surface, s_vals[:, None], phi_vals)).ravel()
    hh = mean_curvature(surface, s_vals)

    # a, b: 1-based indices of vertices (i, j), (i, j + 1); quad (a, b, b + n_phi, a + n_phi)
    j = np.arange(n_phi)
    a = np.arange(n_s - 1)[:, None] * n_phi + j + 1
    b = a - j + (j + 1) % n_phi
    faces = np.stack([a, b, b + n_phi, a, b + n_phi, a + n_phi], axis=-1).reshape(-1, 3)
    with open(obj_path, "w") as fh:
        fh.write(f"# heisring revolution surface mesh {n_s}x{n_phi}\n")
        write_rows(fh, "v %.17g %.17g %.17g\n", np.column_stack((z.real, z.imag, t)))
        write_rows(fh, "f %d %d %d\n", faces)

    if csv_path is None:
        csv_path = obj_path.rsplit(".", 1)[0] + "_vertices.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("s,phi,x,y,t,Nh_norm,Hh\r\n")
        write_rows(fh, ",".join(["%.17g"] * 7) + "\r\n",
                   np.column_stack((ss, pp, z.real, z.imag, t, nh, np.repeat(hh, n_phi))))
    return obj_path, csv_path
