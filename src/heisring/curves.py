"""Horizontal curves as first-class sampled values.

A curve is stored as dense arrays of ambient samples (z, t) with derivatives
and, when generated in revolution coordinates, the tilde samples
(xi, beta, phi) with their derivatives. Every constructor attaches a
horizontality residual certificate. A CurveFamily holds many curves as one
batch of (count, n+1) arrays on a shared grid. The two generators build the
tilde paths of their families and hand them to one lift, which forms Phi, its
tangent and the residual. The generators, given arrays of parameters, and the
line integral, given a family, work on whole chunks of curves, CHUNK_POINTS
samples per call; a single curve is a family of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy

from . import revcoords
from .profiles import BAND_MARGIN, BETA_HI, BETA_LO
from .surface import write_rows

DEFAULT_RESOLUTION = 1024
FAMILY_RESOLUTION = 256  # samples per curve of random_family and quasiradial_family
CHUNK_POINTS = 2 ** 14  # samples per p* or density call; chunks hold whole curves
N_MODES = 4  # Fourier modes of a random curve's xi warp and beta path
REFINE = 4  # a random curve's phase is integrated on a REFINE x finer grid


class NotHorizontalError(ValueError):
    """Residual certificate exceeds the allowed tolerance."""


def contact_residual(z, dz, dt):
    """max |omega(gamma')| / max(1, max |gamma'_h|) over the samples (last axis)."""
    omega = dt + 2.0 * np.imag(np.conj(z) * dz)
    return np.max(np.abs(omega), axis=-1) / np.maximum(1.0, np.max(np.abs(dz), axis=-1))


@dataclass(frozen=True)
class _Samples:
    tau: np.ndarray
    z: np.ndarray
    t: np.ndarray
    dz: np.ndarray
    dt: np.ndarray
    residual: "float | np.ndarray"  # a float per curve, a vector per family
    xi: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    phi: Optional[np.ndarray] = None
    dxi: Optional[np.ndarray] = None
    dbeta: Optional[np.ndarray] = None
    dphi: Optional[np.ndarray] = None


TILDE = ("xi", "beta", "phi", "dxi", "dbeta", "dphi")


@dataclass(frozen=True)
class HorizontalCurve(_Samples):
    """One curve: samples on the grid ``tau`` and a float residual."""

    @classmethod
    def from_samples(cls, tau, z, t, dz, dt, **tilde):
        """The curve of the given samples and their residual; ``tau`` must be a
        uniform grid, since line_integral uses its step."""
        tau = np.asarray(tau, dtype=float)
        if tau.size and np.any(np.abs(tau - np.linspace(tau[0], tau[-1], tau.size))
                               > 1e-12 * abs(tau[-1] - tau[0])):
            raise ValueError("curve samples need a uniform parameter grid")
        res = float(contact_residual(np.asarray(z), np.asarray(dz), np.asarray(dt)))
        return cls(tau, np.asarray(z, dtype=complex),
                   np.asarray(t, dtype=float), np.asarray(dz, dtype=complex),
                   np.asarray(dt, dtype=float), res, **tilde)

    def export_csv(self, path: str) -> str:
        nan = np.full(self.tau.shape, math.nan)
        tilde = [nan if v is None else v for v in (self.xi, self.beta, self.phi)]
        with open(path, "w", newline="") as fh:
            fh.write("tau,x,y,t,xi,beta,phi,residual\r\n")
            write_rows(fh, ",".join(["%.17g"] * 7) + f",{self.residual:.3e}\r\n",
                       np.column_stack((self.tau, self.z.real, self.z.imag, self.t, *tilde)))
        return path


@dataclass(frozen=True)
class CurveFamily(_Samples):
    """``count`` curves on one shared grid ``tau``: (count, n+1) sample arrays,
    the six tilde ones included, and a residual vector. Row ``i`` is
    ``family[i]``, a HorizontalCurve of views into the arrays."""

    def __len__(self):
        return len(self.residual)

    def __getitem__(self, i) -> HorizontalCurve:
        # positional arguments in field order: the cheapest construction per row
        return HorizontalCurve(self.tau, self.z[i], self.t[i], self.dz[i], self.dt[i],
                               float(self.residual[i]), self.xi[i], self.beta[i], self.phi[i],
                               self.dxi[i], self.dbeta[i], self.dphi[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _row_chunks(rows: int, width: int):
    """Slices of whole rows, each at most CHUNK_POINTS samples (one row at least)."""
    step = max(1, CHUNK_POINTS // width)
    return (slice(i, i + step) for i in range(0, rows, step))


def line_integral(rho, curve, with_error: bool = False):
    """Horizontal line integral of a density along a curve or a family.

    ``rho`` is a vectorized callable rho(z, t) >= 0, called once per chunk of
    whole curves. Composite Simpson with the step of the shared uniform grid;
    the error estimate compares with half resolution. A HorizontalCurve gives
    a float, a CurveFamily an array of one value per row; ``with_error``
    returns the pair (values, error estimates).
    """
    if np.max(curve.residual) > 1e-6:
        raise NotHorizontalError(
            f"curve residual {np.max(curve.residual):.3e} too large for line integral"
        )
    z, t, dz = (np.atleast_2d(a) for a in (curve.z, curve.t, curve.dz))
    vals = np.empty(z.shape)
    for k in _row_chunks(*z.shape):
        vals[k] = np.reshape(rho(z[k].ravel(), t[k].ravel()), vals[k].shape)
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError("density is non-finite at a curve sample")
    integrand, tau = vals * np.abs(dz), curve.tau

    def simpson(step):
        if tau[0] == tau[-1]:
            return np.zeros(len(z))
        h = (tau[-1] - tau[0]) / (tau.size - 1)  # every curve grid is uniform
        return scipy.integrate.simpson(integrand[:, ::step], dx=step * h, axis=-1)

    full = simpson(1)
    out = (full, np.abs(full - simpson(2)) / 15.0) if with_error else (full,)
    if isinstance(curve, HorizontalCurve):
        out = tuple(float(v[0]) for v in out)
    return out if with_error else out[0]


# -- generators -------------------------------------------------------------------


def _lift(xi, beta, phi, dxi, dbeta, dphi, ps, dps):
    """The CurveFamily fields after ``tau`` of the curves with the given tilde
    samples, from the p* pair at beta: Phi and its tangent, their residual,
    then the tilde samples themselves."""
    z, t, dz, dt = revcoords.phi_map_tangent(xi, phi, dxi, dbeta, dphi, ps, dps)
    return z, t, dz, dt, contact_residual(z, dz, dt), xi, beta, phi, dxi, dbeta, dphi


def quasiradial(ring, beta, phi0, n: int = DEFAULT_RESOLUTION):
    """The horizontal curve xi -> Phi(xi, beta, phi0 + tan(beta) xi) across the ring.

    Arrays ``beta`` and ``phi0``, broadcast together, give the CurveFamily of
    one curve per pair, in their flattened order; p* is evaluated once per
    distinct beta.
    """
    betas, phis = (np.ravel(v) for v in np.broadcast_arrays(np.asarray(beta, dtype=float),
                                                            np.asarray(phi0, dtype=float)))
    if not np.all((BETA_LO < betas) & (betas < BETA_HI)):
        raise ValueError(f"beta {beta} outside the open band")
    distinct, row = np.unique(betas, return_inverse=True)
    xi = np.linspace(math.log(ring.a), math.log(ring.b), n + 1)
    ps, dps = (v[row, None] for v in revcoords.pstar_pair(ring.profile, distinct))
    tb = np.array([math.tan(b) for b in distinct])[row, None]
    full = functools.partial(np.broadcast_to, shape=(betas.size, n + 1))
    fam = CurveFamily(xi, *_lift(full(xi), full(betas[:, None]), phis[:, None] + tb * xi,
                                 full(1.0), full(0.0), full(tb), ps, dps))
    return fam if np.ndim(beta) or np.ndim(phi0) else fam[0]


def quasiradial_family(ring, n_beta: int = 64, n_phi: int = 64,
                       n: int = FAMILY_RESOLUTION) -> CurveFamily:
    """Quasiradials on a regular interior (beta, phi) grid, beta-major."""
    betas = BETA_LO + (BETA_HI - BETA_LO) * (np.arange(1, n_beta + 1)) / (n_beta + 1)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return quasiradial(ring, *(v.ravel() for v in np.meshgrid(betas, phis, indexing="ij")), n)


def _random_draws(seeds):
    """(c, d, phase, center, phi0) of the random curves of ``seeds``: (count,
    N_MODES) arrays and two vectors. Each curve takes its uniform deviates from
    its own Philox stream in one call, scaled as Generator.uniform scales them."""
    u = np.array([np.random.Generator(np.random.Philox(key=s)).random(3 * N_MODES + 4)
                  for s in seeds])
    used = 0

    def uniform(low, high, size=1):  # the next ``size`` deviates of every curve
        nonlocal used
        used += size
        return low + (high - low) * u[:, used - size:used]

    j = np.arange(1, N_MODES + 1)
    # strictly increasing xi warp: m(0)=0, m(1)=1, m' >= 1 - amp > 0
    c_raw = uniform(-1.0, 1.0, N_MODES)
    amp = 0.8 * uniform(0.2, 1.0)
    c = amp * c_raw / np.sum(np.abs(c_raw) * math.pi * j, axis=1, keepdims=True)
    # beta path inside [pi/2 + margin, 3pi/2 - margin]
    center = math.pi + uniform(-0.3, 0.3)
    d_raw = uniform(-1.0, 1.0, N_MODES)
    phase = uniform(0.0, 2.0 * math.pi, N_MODES)
    b_max = (math.pi / 2 - BAND_MARGIN) - np.abs(center - math.pi) - 0.05
    d = b_max * uniform(0.3, 1.0) * d_raw / np.sum(np.abs(d_raw), axis=1, keepdims=True)
    return c, d, phase, center[:, 0], uniform(0.0, 2.0 * math.pi)[:, 0]


def random_horizontal_curve(ring, seed, n: int = DEFAULT_RESOLUTION):
    """Seeded random horizontal curve connecting the ring boundaries.

    xi(tau) is a smooth strictly increasing warp from log a to log b; beta(tau)
    is a low-order random Fourier path kept inside the safe band; phi comes
    from integrating the horizontality condition. The curve is a pure function
    of its seed (its own counter-based Philox stream). A 1-D array of seeds
    gives the CurveFamily whose row i is the curve of seed[i], built in chunks
    of whole curves with one p* call each.
    """
    seeds = np.atleast_1d(seed)
    if seeds.ndim != 1 or not seeds.size:
        raise ValueError(f"need one seed or a 1-D array of seeds, got {seed!r}")
    c, d, phase, center, phi0 = _random_draws(seeds.tolist())
    la = math.log(ring.a)
    span = math.log(ring.b) - la
    j = np.arange(1, N_MODES + 1)[:, None]
    # phase by cumulative Simpson on a REFINE x finer grid; the integrand is
    # smooth, so the composite error is far below the residual tolerance
    tau = np.linspace(0.0, 1.0, REFINE * n + 1)
    jt = math.pi * np.outer(j, tau)
    sin_jt, cos_jt = np.sin(jt), np.cos(jt)
    # d sin(jt + phase) = (d cos phase) sin jt + (d sin phase) cos jt
    d_cos, d_sin = d * np.cos(phase), d * np.sin(phase)
    sel = (slice(None), slice(None, None, REFINE))
    cols = None  # the family's fields after tau, allocated whole at the first chunk
    for k in _row_chunks(seeds.size, tau.size):
        ck, dc, ds = c[k, :, None], d_cos[k, :, None], d_sin[k, :, None]
        # xi is needed on the kept samples only; the rest on the fine grid
        xi = la + span * (tau[::REFINE] + np.sum(ck * sin_jt[:, ::REFINE], axis=1))
        dxi = span * (1.0 + np.sum(ck * math.pi * j * cos_jt, axis=1))
        beta = center[k, None] + np.sum(dc * sin_jt + ds * cos_jt, axis=1)
        dbeta = np.sum(dc * math.pi * j * cos_jt - ds * math.pi * j * sin_jt, axis=1)
        ps, dps = revcoords.pstar_pair(ring.profile, beta)
        dphi = revcoords.horizontality_rhs(ring.profile, beta, dxi, dbeta, pstar=(ps, dps))
        phi = phi0[k, None] + scipy.integrate.cumulative_simpson(
            dphi, dx=1.0 / (REFINE * n), initial=0.0)
        rows = _lift(xi, beta[sel], phi[sel], dxi[sel], dbeta[sel], dphi[sel], ps[sel], dps[sel])
        cols = cols or [np.empty((seeds.size, *v.shape[1:]), v.dtype) for v in rows]
        for col, v in zip(cols, rows):
            col[k] = v
    fam = CurveFamily(tau[::REFINE], *cols)
    return fam if np.ndim(seed) else fam[0]


def random_family(ring, count: int, seed0: int = 0, n: int = FAMILY_RESOLUTION) -> CurveFamily:
    """The ``count`` random curves of seeds seed0, seed0 + 1, ... as one family."""
    return random_horizontal_curve(ring, np.arange(seed0, seed0 + count), n)


def cc_lift(k: float, R: float, phi: float = 0.0,
            n: int = DEFAULT_RESOLUTION) -> HorizontalCurve:
    """Horizontal lift of the planar circle of curvature k, rotated by phi.

    For k = 0 the circle degenerates to a straight segment with t = 0.
    The curve runs over arclength s in [0, R] and is unit speed.
    """
    if not math.isfinite(k):
        raise ValueError("curvature parameter must be finite")
    s = np.linspace(0.0, R, n + 1)
    rot = complex(math.cos(phi), math.sin(phi))
    if k == 0.0:
        z = rot * (-1j) * s
        t = np.zeros_like(s)
        dz = np.full(s.shape, rot * (-1j))
        dt = np.zeros_like(s)
    else:
        z = rot * (1.0 - np.exp(1j * k * s)) / k
        t = (2.0 / k) * (np.sin(k * s) / k - s)
        dz = rot * (-1j) * np.exp(1j * k * s)
        dt = (2.0 / k) * (np.cos(k * s) - 1.0)
    return HorizontalCurve.from_samples(s, z, t, dz, dt)
