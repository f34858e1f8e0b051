"""Horizontal curves as first-class sampled values.

A curve is stored as dense arrays of ambient samples (z, t) with derivatives
and, when generated in revolution coordinates, the tilde samples
(xi, beta, phi) with their derivatives. Every constructor attaches a
horizontality residual certificate. A CurveFamily holds many curves as one
batch of (count, n+1) arrays on a shared grid. The generators, given arrays of
parameters, and the line integral, given a family, work on whole chunks of
curves, CHUNK_POINTS samples per call; a single curve is a family of one.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from . import revcoords
from .profiles import BETA_HI, BETA_LO

DEFAULT_RESOLUTION = 1024
FAMILY_RESOLUTION = 256  # samples per curve of random_family
CHUNK_POINTS = 2 ** 14  # samples per p* or density call; chunks hold whole curves
N_MODES = 4  # Fourier modes of a random curve's xi warp and beta path
REFINE = 4  # a random curve's phase is integrated on a REFINE x finer grid
BAND_MARGIN = 1e-3  # a random beta path stays this far inside the band


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
        res = float(contact_residual(np.asarray(z), np.asarray(dz), np.asarray(dt)))
        return cls(np.asarray(tau, dtype=float), np.asarray(z, dtype=complex),
                   np.asarray(t, dtype=float), np.asarray(dz, dtype=complex),
                   np.asarray(dt, dtype=float), res, **tilde)

    @property
    def endpoints(self):
        from .heis import HPoint
        return (HPoint(complex(self.z[0]), float(self.t[0])),
                HPoint(complex(self.z[-1]), float(self.t[-1])))

    def export_csv(self, path: str) -> str:
        nan = np.full(self.tau.shape, math.nan)
        xi = self.xi if self.xi is not None else nan
        beta = self.beta if self.beta is not None else nan
        phi = self.phi if self.phi is not None else nan
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tau", "x", "y", "t", "xi", "beta", "phi", "residual"])
            for i in range(self.tau.size):
                writer.writerow([
                    f"{self.tau[i]:.17g}", f"{self.z[i].real:.17g}",
                    f"{self.z[i].imag:.17g}", f"{self.t[i]:.17g}",
                    f"{xi[i]:.17g}", f"{beta[i]:.17g}", f"{phi[i]:.17g}",
                    f"{self.residual:.3e}",
                ])
        return path


@dataclass(frozen=True)
class CurveFamily(_Samples):
    """``count`` curves on one shared grid ``tau``: (count, n+1) sample arrays
    and a residual vector. Row ``i`` is ``family[i]``, a HorizontalCurve of
    views into the arrays."""

    def __len__(self):
        return len(self.residual)

    def __getitem__(self, i) -> HorizontalCurve:
        tilde = {k: getattr(self, k)[i] for k in TILDE if getattr(self, k) is not None}
        return HorizontalCurve(self.tau, self.z[i], self.t[i], self.dz[i], self.dt[i],
                               float(self.residual[i]), **tilde)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _row_chunks(rows: int, width: int):
    """Slices of whole rows, each at most CHUNK_POINTS samples (one row at least)."""
    step = max(1, CHUNK_POINTS // width)
    return (slice(i, i + step) for i in range(0, rows, step))


def horizontal_length(curve: HorizontalCurve) -> float:
    """Composite quadrature of the horizontal speed over the sample grid."""
    if curve.residual > 1e-6:
        raise NotHorizontalError(
            f"curve residual {curve.residual:.3e} too large for length computation"
        )
    if curve.tau[0] == curve.tau[-1]:
        return 0.0
    return float(integrate.simpson(np.abs(curve.dz), x=curve.tau))


def line_integral(rho, curve, with_error: bool = False):
    """Horizontal line integral of a density along a curve or a family.

    ``rho`` is a vectorized callable rho(z, t) >= 0, called once per chunk of
    whole curves. Composite Simpson on the shared sample grid; the error
    estimate compares with half resolution. A HorizontalCurve gives a float,
    a CurveFamily an array of one value per row; ``with_error`` returns the
    pair (values, error estimates).
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
        return integrate.simpson(integrand[:, ::step], x=tau[::step], axis=-1)

    full = simpson(1)
    out = (full, np.abs(full - simpson(2)) / 15.0) if with_error else (full,)
    if isinstance(curve, HorizontalCurve):
        out = tuple(float(v[0]) for v in out)
    return out if with_error else out[0]


# -- generators -------------------------------------------------------------------


def _ambient(xi, phi, dxi, dbeta, dphi, ps, dps):
    """(z, t, dz, dt) of Phi(xi, beta, phi) with analytic derivatives, from
    tilde samples and the p* pair at beta."""
    re = np.real(-ps)
    z = np.exp(xi + 1j * phi) * np.sqrt(re)
    t = np.exp(2.0 * xi) * np.imag(ps)
    # a named factor: numpy reuses a large temporary right operand in place as
    # the left one, and that swap changes the rounding of a complex product
    dlog_term = dxi + 1j * dphi + 0.5 * (np.real(-dps) * dbeta / re)
    dz = z * dlog_term
    dt = 2.0 * dxi * t + np.exp(2.0 * xi) * np.imag(dps) * dbeta
    return z, t, dz, dt


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
    xis, phi, dxi, dbeta = full(xi), phis[:, None] + tb * xi, full(1.0), full(0.0)
    z, t, dz, dt = _ambient(xis, phi, dxi, dbeta, full(tb), ps, dps)
    fam = CurveFamily(xi, z, t, dz, dt, contact_residual(z, dz, dt), xi=xis,
                      beta=full(betas[:, None]), phi=phi, dxi=dxi, dbeta=dbeta, dphi=full(tb))
    return fam if np.ndim(beta) or np.ndim(phi0) else fam[0]


def quasiradial_family(ring, n_beta: int = 64, n_phi: int = 64,
                       n: int = 256) -> CurveFamily:
    """Quasiradials on a regular interior (beta, phi) grid, beta-major."""
    betas = BETA_LO + (BETA_HI - BETA_LO) * (np.arange(1, n_beta + 1)) / (n_beta + 1)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return quasiradial(ring, *(v.ravel() for v in np.meshgrid(betas, phis, indexing="ij")), n)


def _random_draws(seed: int):
    """(c, d, phase, center, phi0) of one random curve, from its own Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    j = np.arange(1, N_MODES + 1)
    # strictly increasing xi warp: m(0)=0, m(1)=1, m' >= 1 - amp > 0
    c_raw = rng.uniform(-1.0, 1.0, N_MODES)
    amp = 0.8 * rng.uniform(0.2, 1.0)
    c = amp * c_raw / np.sum(np.abs(c_raw) * math.pi * j)
    # beta path inside [pi/2 + margin, 3pi/2 - margin]
    center = math.pi + rng.uniform(-0.3, 0.3)
    d_raw = rng.uniform(-1.0, 1.0, N_MODES)
    phase = rng.uniform(0.0, 2.0 * math.pi, N_MODES)
    b_max = (math.pi / 2 - BAND_MARGIN) - abs(center - math.pi) - 0.05
    d = b_max * rng.uniform(0.3, 1.0) * d_raw / np.sum(np.abs(d_raw))
    return c, d, phase, center, rng.uniform(0.0, 2.0 * math.pi)


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
    c, d, phase, center, phi0 = map(np.array, zip(*map(_random_draws, seeds.tolist())))
    la = math.log(ring.a)
    span = math.log(ring.b) - la
    j = np.arange(1, N_MODES + 1)[:, None]
    # phase by cumulative Simpson on a REFINE x finer grid; the integrand is
    # smooth, so the composite error is far below the residual tolerance
    tau = np.linspace(0.0, 1.0, REFINE * n + 1)
    jt = math.pi * np.outer(j, tau)
    sin_jt, cos_jt = np.sin(jt), np.cos(jt)
    kinds = dict(z=complex, t=float, dz=complex, dt=float, **dict.fromkeys(TILDE, float))
    cols = {name: np.empty((seeds.size, n + 1), dtype=kind) for name, kind in kinds.items()}
    for k in _row_chunks(seeds.size, tau.size):
        ck, dk, arg = c[k, :, None], d[k, :, None], jt + phase[k, :, None]
        xi = la + span * (tau + np.sum(ck * sin_jt, axis=1))
        dxi = span * (1.0 + np.sum(ck * math.pi * j * cos_jt, axis=1))
        beta = center[k, None] + np.sum(dk * np.sin(arg), axis=1)
        dbeta = np.sum(dk * math.pi * j * np.cos(arg), axis=1)
        ps, dps = revcoords.pstar_pair(ring.profile, beta)
        dphi = revcoords.horizontality_rhs(ring.profile, beta, dxi, dbeta, pstar=(ps, dps))
        phi = phi0[k, None] + integrate.cumulative_simpson(dphi, x=tau, initial=0.0)
        sel = (slice(None), slice(None, None, REFINE))
        part = dict(xi=xi[sel], beta=beta[sel], phi=phi[sel], dxi=dxi[sel], dbeta=dbeta[sel],
                    dphi=dphi[sel])
        part.update(zip(("z", "t", "dz", "dt"), _ambient(
            part["xi"], part["phi"], part["dxi"], part["dbeta"], part["dphi"], ps[sel], dps[sel])))
        for name, v in part.items():
            cols[name][k] = v
    fam = CurveFamily(tau[::REFINE], residual=contact_residual(cols["z"], cols["dz"], cols["dt"]),
                      **cols)
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
