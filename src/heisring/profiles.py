"""Profile curves (f(s), 0, g(s)), their Koranyi images and validators.

A profile curve generates a surface of revolution around the vertical axis.
Its Koranyi image p*(s) = -f(s)^2 + i g(s) drives all the horizontal geometry,
so evaluators return f, g together with first and second derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import exprparse

BETA_LO = math.pi / 2
BETA_HI = 3 * math.pi / 2


class DomainError(ValueError):
    """Parameter outside the open domain of a profile curve."""


class EvaluationError(ArithmeticError):
    """Profile evaluator produced a non-finite value."""


class ValidationError(ValueError):
    """Profile fails one of the admissibility conditions."""


@dataclass(frozen=True)
class ProfileCurve:
    """A C^2 curve s -> (f(s), 0, g(s)) on an open interval.

    ``evaluator`` maps an ndarray of parameters to the six arrays
    (f, fd, fdd, g, gd, gdd). ``by_argument`` marks curves whose parameter is
    the Koranyi argument beta itself.
    """

    name: str
    domain: tuple[float, float]
    evaluator: Callable = field(repr=False)
    params: dict = field(default_factory=dict)
    by_argument: bool = False
    source: Optional["ProfileCurve"] = None

    def eval(self, s):
        s_arr = np.asarray(s, dtype=float)
        lo, hi = self.domain
        if np.any(s_arr <= lo) or np.any(s_arr >= hi):
            raise DomainError(
                f"parameter outside open domain ({lo}, {hi}) of profile {self.name!r}"
            )
        out = self.evaluator(s_arr)
        if not all(np.all(np.isfinite(a)) for a in out):
            raise EvaluationError(f"non-finite value evaluating profile {self.name!r}")
        if np.ndim(s) == 0:
            return tuple(float(a) for a in out)
        return out


def _image(values):
    """(p*, dp*) from the evaluator's six values (f, fd, fdd, g, gd, gdd)."""
    f, fd, _, g, gd, _ = values
    return -f * f + 1j * g, -2.0 * f * fd + 1j * gd


def koranyi_image(curve: ProfileCurve, s):
    """The Koranyi image p*(s) = -f^2 + i g of a profile and its derivative dp*/ds."""
    return _image(curve.eval(s))


def arg_rate(ps, dps):
    """d arg p* / ds = Im(conj(p*) dp*) / |p*|^2."""
    return np.imag(np.conj(ps) * dps) / np.abs(ps) ** 2


# Band-edge offsets, one per reason:
BAND_CLIP = 1e-15  # p* is evaluated this far inside the open band
EDGE_OFFSET = 1e-9  # quadrature and sampling grids keep this distance from the band edges
REPARAM_CLAMP = 1e-12  # the inversion's s stays this fraction of the domain inside it
BAND_MARGIN = 1e-3  # a random beta path stays this far inside the band


def arg_band(w):
    """arg into (pi/2, 3pi/2]; valid for Re w <= 0."""
    ang = np.angle(w)
    return np.where(ang > 0, ang, ang + 2.0 * math.pi)


def clip_to_band(beta):
    """beta clipped BAND_CLIP inside the open band, where p* is defined."""
    return np.clip(beta, BETA_LO + BAND_CLIP, BETA_HI - BAND_CLIP)


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: Optional[float] = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    a1: CheckResult
    a2: CheckResult
    beta_monotone: CheckResult
    min_f: float
    min_neg_gdot: float
    min_beta_dot: float
    grid_n: int

    @property
    def passed(self) -> bool:
        return self.a1.passed and self.a2.passed and self.beta_monotone.passed


def _one_sided_limit(curve: ProfileCurve, endpoint: float, sign: int, index: int):
    """Extrapolated endpoint limit of component ``index`` of the evaluator.

    Linear-in-offset extrapolation through the two smallest offsets; the
    conditions are stated as limits, not values.
    """
    lo, hi = curve.domain
    span = hi - lo
    offsets = np.array([1e-3, 1e-4, 1e-5]) * span
    svals = endpoint + sign * offsets
    vals = np.array([curve.eval(s)[index] for s in svals])
    h2, h3 = offsets[1], offsets[2]
    v2, v3 = vals[1], vals[2]
    return v3 + (v3 - v2) * h3 / (h2 - h3)


def endpoint_limit(curve: ProfileCurve, side: str, index: int) -> float:
    """Extrapolated one-sided limit of evaluator component ``index``.

    ``side`` is "lo" or "hi"; components are ordered (f, fd, fdd, g, gd, gdd).
    """
    lo, hi = curve.domain
    if side == "lo":
        return float(_one_sided_limit(curve, lo, +1, index))
    if side == "hi":
        return float(_one_sided_limit(curve, hi, -1, index))
    raise ValueError(f"side must be 'lo' or 'hi', got {side!r}")


def _refined_interior_touch(curve: ProfileCurve, grid, f, tol: float):
    """Parameter of a refined strict local minimum of f with value <= tol."""
    inner = np.flatnonzero((f[1:-1] < f[:-2]) & (f[1:-1] <= f[2:])) + 1
    for i in inner:
        from scipy import optimize  # loaded only when a local minimum exists

        res = optimize.minimize_scalar(
            lambda s: curve.eval(float(s))[0],
            bounds=(float(grid[i - 1]), float(grid[i + 1])), method="bounded",
            options={"xatol": 1e-12})
        if res.fun <= tol:
            return float(res.x)
    return None


def validate(curve: ProfileCurve, grid_n: int = 4096) -> ValidationReport:
    """Check positivity of f, downward heading of g and monotonicity of beta.

    Sampled certificate only: conditions are checked on ``grid_n`` interior
    points plus extrapolated one-sided endpoint limits. Failures are reported
    with a witness parameter, not raised.
    """
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    lo, hi = curve.domain
    grid = np.linspace(lo, hi, grid_n + 2)[1:-1]
    values = curve.eval(grid)
    f, _, _, _, gd, _ = values
    bdot = arg_rate(*_image(values))

    scale_f = max(1.0, float(np.max(np.abs(f))))

    # (A1): f > 0 inside, f -> 0 at both endpoints. A tangency of f with zero
    # can slip between grid points, so strict interior local minima of the
    # sampled f are refined before judging.
    a1 = CheckResult(True)
    bad = np.flatnonzero(f <= 0.0)
    touch = _refined_interior_touch(curve, grid, f, 1e-9 * scale_f)
    if bad.size:
        a1 = CheckResult(False, float(grid[bad[0]]), "f <= 0 in the interior")
    elif touch is not None:
        a1 = CheckResult(False, touch, "f touches zero in the interior")
    else:
        fa = _one_sided_limit(curve, lo, +1, 0)
        fb = _one_sided_limit(curve, hi, -1, 0)
        if abs(fa) > 1e-2 * scale_f or abs(fb) > 1e-2 * scale_f:
            a1 = CheckResult(False, lo if abs(fa) > abs(fb) else hi,
                             "f does not vanish at an endpoint")

    # (A2): g strictly decreasing, g(lo+) > 0 > g(hi-).
    a2 = CheckResult(True)
    bad = np.flatnonzero(gd >= 0.0)
    if bad.size:
        a2 = CheckResult(False, float(grid[bad[0]]), "g is not decreasing")
    else:
        ga = _one_sided_limit(curve, lo, +1, 3)
        gb = _one_sided_limit(curve, hi, -1, 3)
        if not (ga > 0.0 and gb < 0.0):
            a2 = CheckResult(False, lo if ga <= 0 else hi,
                             "endpoint limits of g have the wrong signs")

    # beta strictly increasing.
    beta_mono = CheckResult(True)
    bad = np.flatnonzero(bdot <= 0.0)
    if bad.size:
        beta_mono = CheckResult(False, float(grid[bad[0]]),
                                "arg p* is not strictly increasing")

    return ValidationReport(
        a1=a1,
        a2=a2,
        beta_monotone=beta_mono,
        min_f=float(np.min(f)),
        min_neg_gdot=float(np.min(-gd)),
        min_beta_dot=float(np.min(bdot)),
        grid_n=grid_n,
    )


# -- reparametrization by argument ---------------------------------------------


class ReparamError(RuntimeError):
    """Numeric inversion of s -> beta(s) failed."""


REPARAM_TOL = 1e-12  # arg residual at which the inversion's Newton iteration stops
POLISH_TOL = 2e-15  # arg residual above which a converged point takes a polishing step
SEED_N = 8192  # cells of the monotone beta(s) sample that seeds the inversion


def _arg_residual(values, beta):
    """(arg p* - beta, d arg p*/ds) from the evaluator's six values."""
    ps, dps = _image(values)
    return arg_band(ps) - beta, arg_rate(ps, dps)


def reparam_by_argument(curve: ProfileCurve) -> ProfileCurve:
    """Reparametrize a validated profile by its Koranyi argument beta.

    The inverse s(beta) is found by Newton iterations seeded from a cubic
    Hermite fit of s(beta) on SEED_N = 8192 cells of a monotone sample of
    beta(s), with slopes ds/dbeta = 1 / arg_rate from the same sample. Each
    seed is clipped into its own cell, so monotonicity still brackets the
    root; a cell with a non-finite slope is seeded linearly. The first step
    evaluates every seed, and most points stop there: 1.1-1.3 native
    evaluations per point on the catalog profiles. Each later step evaluates
    the source curve once, at the points whose arg residual is still above
    REPARAM_TOL or that are still polishing. Targets are clipped to the
    sampled range of beta(s), which the clamped s can reach. Derivatives come
    from the inverse-function rule at each point's last evaluation, so every
    output is a pure function of its own beta: a batch, its pieces and scalar
    calls agree bit for bit.
    """
    if curve.by_argument:
        return curve
    lo, hi = curve.domain
    eps = REPARAM_CLAMP * (hi - lo)
    s_grid = np.linspace(lo + eps, hi - eps, SEED_N + 1)
    ps, dps = koranyi_image(curve, s_grid)
    beta_grid = arg_band(ps)
    h = np.diff(beta_grid)
    if np.any(h <= 0):
        raise ReparamError(f"beta(s) is not strictly increasing for {curve.name!r}")
    # s(beta_i + x) ~ s_i + x (c1 + x (c2 + x c3)) on cell i
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = 1.0 / arg_rate(ps, dps)
        m0, m1 = m[:-1], m[1:]
        c1 = np.diff(s_grid) / h
        c2 = (3.0 * c1 - 2.0 * m0 - m1) / h
        c3 = (m0 + m1 - 2.0 * c1) / (h * h)
    cubic = np.isfinite(c2) & np.isfinite(c3)
    c1 = np.where(cubic, m0, c1)
    c2 = np.where(cubic, c2, 0.0)
    c3 = np.where(cubic, c3, 0.0)

    def evaluator(beta):
        b = np.clip(np.ravel(beta), beta_grid[0], beta_grid[-1])
        i = np.searchsorted(beta_grid[1:-1], b, side="right")
        x = b - beta_grid[i]
        s = np.clip(s_grid[i] + x * (c1[i] + x * (c2[i] + x * c3[i])),
                    s_grid[i], s_grid[i + 1])
        last = np.array(curve.eval(s))  # f ... gdd at each point's last step
        resid, bdot = _arg_residual(last, b)

        # Below REPARAM_TOL, a point above POLISH_TOL takes polishing steps
        # while each cuts its residual fourfold: one step in general, a few
        # near a band edge, where beta(s) is flat.
        r = np.abs(resid)
        idx = np.flatnonzero(r > POLISH_TOL)
        prev = np.where(r[idx] > REPARAM_TOL, np.inf, r[idx])  # residual; inf above tol
        for _ in range(79):  # 80 evaluations with the first
            if not idx.size:
                break
            s[idx] = np.clip(s[idx] - resid[idx] / bdot[idx], lo + eps, hi - eps)
            last[:, idx] = out = curve.eval(s[idx])
            resid[idx], bdot[idx] = _arg_residual(out, b[idx])
            r = np.abs(resid[idx])
            keep = (r > REPARAM_TOL) | ((r > POLISH_TOL) & (4.0 * r < prev))
            idx, prev = idx[keep], np.where(r > REPARAM_TOL, np.inf, r)[keep]
        if idx.size:
            raise ReparamError(f"inversion of beta(s) did not converge for {curve.name!r}")

        f, fd, fdd, g, gd, gdd = last
        ps, dps = _image(last)
        cdps = np.conj(ps) * dps
        cddps = np.conj(ps) * (-2.0 * (fd * fd + f * fdd) + 1j * gdd)
        bddot = (np.imag(cddps) - 2.0 * bdot * np.real(cdps)) / np.abs(ps) ** 2
        sp = 1.0 / bdot
        spp = -bddot / bdot ** 3
        return tuple(np.reshape(v, np.shape(beta)) for v in (
            f, fd * sp, fdd * sp * sp + fd * spp,
            g, gd * sp, gdd * sp * sp + gd * spp,
        ))

    return ProfileCurve(
        name=f"{curve.name} (by argument)",
        domain=(BETA_LO, BETA_HI),
        evaluator=evaluator,
        params=dict(curve.params),
        by_argument=True,
        source=curve,
    )


# -- catalog -------------------------------------------------------------------


def _koranyi_sphere(R: float) -> ProfileCurve:
    def evaluator(beta):
        c = -np.cos(beta)
        sb = np.sin(beta)
        rc = np.sqrt(c)
        f = R * rc
        fd = R * sb / (2.0 * rc)
        fdd = R * (np.cos(beta) / (2.0 * rc) - sb * sb / (4.0 * c * rc))
        g = R * R * sb
        gd = R * R * np.cos(beta)
        gdd = -R * R * sb
        return f, fd, fdd, g, gd, gdd

    return ProfileCurve("koranyi_sphere", (BETA_LO, BETA_HI), evaluator,
                        params={"R": R}, by_argument=True)


def _bubble_set(R: float) -> ProfileCurve:
    def evaluator(s):
        f = 2.0 * R * np.sin(s / (2.0 * R))
        fd = np.cos(s / (2.0 * R))
        fdd = -np.sin(s / (2.0 * R)) / (2.0 * R)
        g = 2.0 * R * R * np.sin(s / R) - 2.0 * R * s + 2.0 * math.pi * R * R
        gd = 2.0 * R * np.cos(s / R) - 2.0 * R
        gdd = -2.0 * np.sin(s / R)
        return f, fd, fdd, g, gd, gdd

    return ProfileCurve("bubble_set", (0.0, 2.0 * math.pi * R), evaluator,
                        params={"R": R})


def _sinc_family(x):
    """S = sin(x)/x with S', S''; series near 0 to keep full precision."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.1
    xs = np.where(small, 1.0, x)  # avoid 0/0 in the closed forms
    x2 = x * x
    s_series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    s1_series = x * (-1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0 + x2 * x2 * x2 / 45360.0)
    s2_series = -1.0 / 3.0 + x2 / 10.0 - x2 * x2 / 168.0 + x2 * x2 * x2 / 6480.0
    sn, cn = np.sin(xs), np.cos(xs)
    s_closed = sn / xs
    s1_closed = cn / xs - sn / (xs * xs)
    s2_closed = -sn / xs - 2.0 * cn / (xs * xs) + 2.0 * sn / (xs * xs * xs)
    return (
        np.where(small, s_series, s_closed),
        np.where(small, s1_series, s1_closed),
        np.where(small, s2_series, s2_closed),
    )


def _gsin_family(y):
    """G = (sin(y) - y)/y^2 with G', G''; series near 0."""
    y = np.asarray(y, dtype=float)
    small = np.abs(y) < 0.1
    ys = np.where(small, 1.0, y)
    y2 = y * y
    g_series = y * (-1.0 / 6.0 + y2 / 120.0 - y2 * y2 / 5040.0 + y2 * y2 * y2 / 362880.0)
    g1_series = -1.0 / 6.0 + y2 / 40.0 - y2 * y2 / 1008.0 + y2 * y2 * y2 / 51840.0
    g2_series = y * (1.0 / 20.0 - y2 / 252.0 + y2 * y2 / 8640.0 - y2 * y2 * y2 / 554400.0)
    sn, cn = np.sin(ys), np.cos(ys)
    g_closed = (sn - ys) / (ys * ys)
    g1_closed = (cn - 1.0) / (ys * ys) - 2.0 * (sn - ys) / (ys ** 3)
    g2_closed = -sn / (ys * ys) - 4.0 * (cn - 1.0) / (ys ** 3) + 6.0 * (sn - ys) / (ys ** 4)
    return (
        np.where(small, g_series, g_closed),
        np.where(small, g1_series, g1_closed),
        np.where(small, g2_series, g2_closed),
    )


def _cc_sphere(R: float) -> ProfileCurve:
    def evaluator(k):
        s, s1, s2 = _sinc_family(k * R / 2.0)
        f = R * s
        fd = (R * R / 2.0) * s1
        fdd = (R ** 3 / 4.0) * s2
        g_, g1, g2 = _gsin_family(k * R)
        g = 2.0 * R * R * g_
        gd = 2.0 * R ** 3 * g1
        gdd = 2.0 * R ** 4 * g2
        return f, fd, fdd, g, gd, gdd

    return ProfileCurve("cc_sphere", (-2.0 * math.pi / R, 2.0 * math.pi / R),
                        evaluator, params={"R": R})


_CATALOG = {
    "koranyi_sphere": _koranyi_sphere,
    "bubble_set": _bubble_set,
    "cc_sphere": _cc_sphere,
}

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str, R: float = 1.0) -> ProfileCurve:
    """Built-in profiles: Koranyi sphere, bubble set, CC sphere."""
    if name not in _CATALOG:
        raise ValueError(f"unknown catalog profile {name!r}; choose from {CATALOG_NAMES}")
    if not R > 0.0:
        raise ValueError(f"radius must be positive, got {R}")
    return _CATALOG[name](R)


# -- parsed profiles -----------------------------------------------------------


def parse_profile(text: str, name: str = "user profile") -> ProfileCurve:
    """Build a ProfileCurve from the plain-text profile language.

    Derivatives come from second-order dual numbers threaded through the
    parsed expressions.
    """
    f_ast, g_ast, domain, params = exprparse.parse_profile_source(text)

    def evaluator(s):
        env = dict(params)
        env["s"] = ad.Dual2.seed(s)
        z = np.zeros_like(np.asarray(s, dtype=float))
        zero = ad.Dual2(z, z, z)  # adding it broadcasts a constant f or g, too
        fv = zero + exprparse.evaluate(f_ast, env)
        gv = zero + exprparse.evaluate(g_ast, env)
        return fv.val, fv.d1, fv.d2, gv.val, gv.d1, gv.d2

    return ProfileCurve(name, domain, evaluator,
                        params={k: v for k, v in params.items() if k != "pi"})
