"""Profile curves (f(s), 0, g(s)), their Koranyi images and validators.

A profile curve generates a surface of revolution around the vertical axis.
Its Koranyi image p*(s) = -f(s)^2 + i g(s) drives all the horizontal geometry,
so evaluators return f, g together with first and second derivatives.
"""

from __future__ import annotations

import functools
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
    by_argument: bool = False
    source: Optional["ProfileCurve"] = None

    def eval(self, s):
        s_arr = np.asarray(s, dtype=float)
        lo, hi = self.domain
        if ((s_arr <= lo) | (s_arr >= hi)).any():  # nan passes, and fails as non-finite
            raise DomainError(
                f"parameter outside open domain ({lo}, {hi}) of profile {self.name!r}"
            )
        out = self.evaluator(s_arr)
        if not functools.reduce(np.logical_and, map(np.isfinite, out)).all():
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


def band_atan2(y, x):
    """arctan2(y, x), the argument of x + iy, into (pi/2, 3pi/2]; valid for x <= 0."""
    ang = np.arctan2(y, x)
    return np.where(ang > 0, ang, ang + 2.0 * math.pi)


def arg_band(w):
    """arg into (pi/2, 3pi/2]; valid for Re w <= 0."""
    w = np.asarray(w)
    return band_atan2(w.imag, w.real)


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
    g_signs: bool  # g(lo+) > 0 > g(hi-), whether or not g is monotone inside

    @property
    def passed(self) -> bool:
        return self.a1.passed and self.a2.passed and self.beta_monotone.passed


def _endpoint_limits(curve: ProfileCurve):
    """Extrapolated one-sided limits of the six evaluator components
    (f, fd, fdd, g, gd, gdd), shape (6, 2): column 0 at lo, column 1 at hi.

    Linear-in-offset extrapolation through the offsets 1e-4 and 1e-5 of the
    domain width, all four points in one evaluation; the conditions are
    stated as limits, not values.
    """
    lo, hi = curve.domain
    h2, h3 = np.array([1e-4, 1e-5]) * (hi - lo)
    v = np.array(curve.eval(np.array([lo + h2, hi - h2, lo + h3, hi - h3])))
    v2, v3 = v[:, :2], v[:, 2:]
    return v3 + (v3 - v2) * h3 / (h2 - h3)


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


GRID_MIN = 16  # fewest interior sample points validate accepts


def validate(curve: ProfileCurve, grid_n: int = 4096) -> ValidationReport:
    """Check positivity of f, downward heading of g and monotonicity of beta.

    Sampled certificate only: conditions are checked on ``grid_n`` interior
    points plus extrapolated one-sided endpoint limits. Failures are reported
    with a witness parameter, not raised.
    """
    if grid_n < GRID_MIN:
        raise ValueError(f"grid_n must be at least {GRID_MIN}")
    lo, hi = curve.domain
    grid = np.linspace(lo, hi, grid_n + 2)[1:-1]
    values = curve.eval(grid)
    f, _, _, _, gd, _ = values
    bdot = arg_rate(*_image(values))
    (fa, fb), _, _, (ga, gb), _, _ = _endpoint_limits(curve)

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
    elif abs(fa) > 1e-2 * scale_f or abs(fb) > 1e-2 * scale_f:
        a1 = CheckResult(False, lo if abs(fa) > abs(fb) else hi,
                         "f does not vanish at an endpoint")

    # (A2): g strictly decreasing, g(lo+) > 0 > g(hi-).
    a2 = CheckResult(True)
    g_signs = bool(ga > 0.0 and gb < 0.0)
    bad = np.flatnonzero(gd >= 0.0)
    if bad.size:
        a2 = CheckResult(False, float(grid[bad[0]]), "g is not decreasing")
    elif not g_signs:
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
        g_signs=g_signs,
    )


# -- reparametrization by argument ---------------------------------------------


class ReparamError(RuntimeError):
    """Numeric inversion of s -> beta(s) failed."""


REPARAM_TOL = 1e-12  # arg residual at which the inversion's Newton iteration stops
POLISH_TOL = 2e-15  # arg residual above which a converged point takes a polishing step
SEED_N = 8192  # cells of the monotone beta(s) sample that seeds the inversion


def _seed_sample(curve: ProfileCurve):
    """(s, beta(s), ds/dbeta) on the SEED_N + 1 nodes of the inversion's seed,
    which run from REPARAM_CLAMP of the domain inside one end to as far inside
    the other. Raises ReparamError unless beta(s) strictly increases there."""
    lo, hi = curve.domain
    eps = REPARAM_CLAMP * (hi - lo)
    s = np.linspace(lo + eps, hi - eps, SEED_N + 1)
    ps, dps = koranyi_image(curve, s)
    beta = arg_band(ps)
    if np.any(np.diff(beta) <= 0):
        raise ReparamError(f"beta(s) is not strictly increasing for {curve.name!r}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return s, beta, 1.0 / arg_rate(ps, dps)


def _cell_index(nodes):
    """The map b -> np.searchsorted(nodes[1:-1], b, side="right"), for b in
    [nodes[0], nodes[-1]] or nan, at O(1) work per point.

    4 (nodes.size - 1) uniform buckets span the nodes. The bucket map is
    monotone, so every inner node of a lower bucket lies below b and every
    one of a higher bucket above it. With i the count of inner nodes in lower
    buckets, a bucket holding at most one inner node settles b with one
    compare against nodes[i + 1], the first inner node from that bucket on.
    Points of a bucket holding more (where beta(s) is flat, next to a band
    edge) take searchsorted, and so do those of the last bucket, where
    np.fmin sends nan.
    """
    n_buckets = 4 * (nodes.size - 1)
    scale = n_buckets / (nodes[-1] - nodes[0])

    def bucket(b):
        return np.fmin((b - nodes[0]) * scale, n_buckets - 1).astype(np.intp)

    held = np.bincount(bucket(nodes[1:-1]), minlength=n_buckets)
    below = (np.cumsum(held) - held).astype(np.int32)  # int32: half the memory of intp
    crowded = held > 1
    crowded[-1] = True

    def index(b):
        k = bucket(b)
        i = below[k]
        i += b >= nodes[i + 1]
        fix = np.flatnonzero(crowded[k])
        i[fix] = np.searchsorted(nodes[1:-1], b[fix], side="right")
        return i

    return index


def _arg_terms(values, beta):
    """(arg p* - beta, d arg p*/ds, f^2, Re dp*, |p*|^2) from the
    evaluator's six values, in real arithmetic on p* = -f^2 + i g and
    dp* = -2 f f' + i g'."""
    f, fd, _, g, gd, _ = values
    f2 = f * f
    dre = -2.0 * f * fd
    q = f2 * f2 + g * g
    return band_atan2(g, -f2) - beta, (-f2 * gd - g * dre) / q, f2, dre, q


def reparam_by_argument(curve: ProfileCurve) -> ProfileCurve:
    """Reparametrize a validated profile by its Koranyi argument beta.

    The inverse s(beta) is found by Newton iterations seeded from a cubic
    Hermite fit of s(beta) on SEED_N = 8192 cells of a monotone sample of
    beta(s), with slopes ds/dbeta = 1 / arg_rate from the same sample. A
    point finds its cell through uniform buckets in beta (``_cell_index``,
    searchsorted's index at O(1) work per point) and takes the cell's six
    seed numbers in one gather. Each seed is clipped into its own cell, so
    monotonicity still brackets the root; a cell with a non-finite slope is
    seeded linearly. The first step evaluates every seed, and most points
    stop there: 1.1-1.3 native evaluations per point on the catalog profiles.
    Each later step evaluates the source curve once, at the points whose arg
    residual is still above REPARAM_TOL or that are still polishing. Targets
    are clipped to the sampled range of beta(s), which the clamped s can
    reach. The residual, the rate d arg p*/ds and the parts of p* and dp*
    they need are formed once per evaluation in real arithmetic and kept per
    point, and the derivatives come from the inverse-function rule at each
    point's last evaluation, so every output is a pure function of its own
    beta: a batch, its pieces and scalar calls agree bit for bit.
    """
    if curve.by_argument:
        return curve
    lo, hi = curve.domain
    eps = REPARAM_CLAMP * (hi - lo)
    s_grid, beta_grid, m = _seed_sample(curve)
    h = np.diff(beta_grid)
    # s(beta_i + x) ~ s_i + x (c1 + x (c2 + x c3)) on cell i
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m0, m1 = m[:-1], m[1:]
        c1 = np.diff(s_grid) / h
        c2 = (3.0 * c1 - 2.0 * m0 - m1) / h
        c3 = (m0 + m1 - 2.0 * c1) / (h * h)
    cubic = np.isfinite(c2) & np.isfinite(c3)
    seed = np.array((beta_grid[:-1], s_grid[:-1], s_grid[1:], np.where(cubic, m0, c1),
                     np.where(cubic, c2, 0.0), np.where(cubic, c3, 0.0)))  # a column per cell
    cell = _cell_index(beta_grid)

    def evaluator(beta):
        b = np.clip(np.ravel(beta), beta_grid[0], beta_grid[-1])
        b0, s0, s1, c1, c2, c3 = seed.take(cell(b), axis=1)
        x = b - b0
        s = np.clip(s0 + x * (c1 + x * (c2 + x * c3)), s0, s1)
        last = np.array(curve.eval(s))  # f ... gdd at each point's last step
        terms = _arg_terms(last, b)  # kept per point, like ``last``
        resid, bdot = terms[:2]

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
            for kept, v in zip(terms, _arg_terms(out, b[idx])):
                kept[idx] = v
            r = np.abs(resid[idx])
            keep = (r > REPARAM_TOL) | ((r > POLISH_TOL) & (4.0 * r < prev))
            idx, prev = idx[keep], np.where(r > REPARAM_TOL, np.inf, r)[keep]
        if idx.size:
            raise ReparamError(f"inversion of beta(s) did not converge for {curve.name!r}")

        f, fd, fdd, g, gd, gdd = last
        _, _, f2, dre, q = terms
        # beta'' = (Im(conj p* d2p*) - 2 beta' Re(conj p* dp*)) / |p*|^2
        bddot = (2.0 * g * (fd * fd + f * fdd) - f2 * gdd
                 - 2.0 * bdot * (g * gd - f2 * dre)) / q
        sp = 1.0 / bdot
        spp = -bddot * sp * sp * sp
        return tuple(v.reshape(np.shape(beta)) for v in (
            f, fd * sp, fdd * sp * sp + fd * spp,
            g, gd * sp, gdd * sp * sp + gd * spp,
        ))

    return ProfileCurve(
        name=f"{curve.name} (by argument)",
        domain=(BETA_LO, BETA_HI),
        evaluator=evaluator,
        by_argument=True,
        source=curve,
    )


# -- catalog -------------------------------------------------------------------


def _koranyi_sphere(R: float) -> ProfileCurve:
    def evaluator(beta):
        cb = np.cos(beta)
        c = -cb
        sb = np.sin(beta)
        rc = np.sqrt(c)
        f = R * rc
        fd = R * sb / (2.0 * rc)
        fdd = R * (cb / (2.0 * rc) - sb * sb / (4.0 * c * rc))
        g = R * R * sb
        gd = R * R * cb
        gdd = -R * R * sb
        return f, fd, fdd, g, gd, gdd

    return ProfileCurve("koranyi_sphere", (BETA_LO, BETA_HI), evaluator, by_argument=True)


def _bubble_set(R: float) -> ProfileCurve:
    def evaluator(s):
        f = 2.0 * R * np.sin(s / (2.0 * R))
        fd = np.cos(s / (2.0 * R))
        fdd = -np.sin(s / (2.0 * R)) / (2.0 * R)
        g = 2.0 * R * R * np.sin(s / R) - 2.0 * R * s + 2.0 * math.pi * R * R
        gd = 2.0 * R * np.cos(s / R) - 2.0 * R
        gdd = -2.0 * np.sin(s / R)
        return f, fd, fdd, g, gd, gdd

    return ProfileCurve("bubble_set", (0.0, 2.0 * math.pi * R), evaluator)


def _cc_series():
    """Horner table, highest power first, of the power series in y^2 of S(y/2),
    S'(y/2)/y, S''(y/2), G(y)/y, G'(y) and G''(y)/y, from the Taylor
    coefficients (-1)^k / (2k+1)! of sin, each a correctly rounded quotient of
    integers; ten terms reach rounding level for |y| < 1.5."""
    rows = []
    for j in range(10):
        d1, d2, d3 = ((-1) ** k * math.factorial(2 * k + 1) for k in (j, j + 1, j + 2))
        q = 4 ** j
        rows.append((1 / (d1 * q), (j + 1) / (d2 * q), (2 * j + 2) * (2 * j + 1) / (d2 * q),
                     1 / d2, (2 * j + 1) / d2, (2 * j + 3) * (2 * j + 2) / d3))
    return np.array(rows[::-1])


def _cc_family(y, series):
    """(S, S', S'') at y/2 and (G, G', G'') at y, for S(x) = sin(x)/x and
    G(y) = (sin(y) - y)/y^2, each of the shape of y.

    Closed forms, except where |y| < 1.5: the closed forms cancel there (G''
    errs by about 8e-15 / y^4, relative), and the power series ``series`` from
    _cc_series is assigned instead. Every output is within 1e-14 of the exact
    value: relative, or absolute on the scale of the function near its zeros.
    """
    shape = np.shape(y)
    y = np.ravel(y)
    small = np.abs(y) < 1.5
    ys = np.where(small, 1.0, y)  # keeps the closed forms finite where they are replaced
    x = 0.5 * ys
    sx, cx = np.sin(x), np.cos(x)
    sy, cy1 = 2.0 * sx * cx, -2.0 * sx * sx  # sin(y) and cos(y) - 1, without cancellation
    y2 = ys * ys
    s = sx / x
    s1 = (cx - s) / x
    g = (sy - ys) / y2
    out = np.array((s, s1, -s - 2.0 * s1 / x, g, cy1 / y2 - 2.0 * g / ys,
                    (6.0 * g - sy - 4.0 * cy1 / ys) / y2))
    if np.any(small):
        z = y[small]
        z2 = z * z
        acc = np.zeros((6, z.size))
        for c in series:
            acc *= z2
            acc += c[:, None]
        acc[1::2] *= z
        out[:, small] = acc
    return tuple(out.reshape((6, *shape)))


def _cc_sphere(R: float) -> ProfileCurve:
    series = _cc_series()

    def evaluator(k):
        s, s1, s2, g, g1, g2 = _cc_family(k * R, series)
        return (R * s, (R * R / 2.0) * s1, (R ** 3 / 4.0) * s2,
                2.0 * R * R * g, 2.0 * R ** 3 * g1, 2.0 * R ** 4 * g2)

    return ProfileCurve("cc_sphere", (-2.0 * math.pi / R, 2.0 * math.pi / R), evaluator)


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

    return ProfileCurve(name, domain, evaluator)
