"""Profile curves: catalog, Koranyi images, validators, reparametrization."""

import math

import numpy as np
import pytest

from heisring import profiles
from heisring.profiles import (BETA_HI, BETA_LO, DomainError, EvaluationError, ProfileCurve,
                               ReparamError, arg_band, arg_rate, catalog, koranyi_image,
                               parse_profile, reparam_by_argument, validate)


def fd_check(curve, s, h=1e-6):
    """Finite-difference check of both derivative orders at s.

    Second derivatives are compared against central differences of the
    reported first derivatives, which stays accurate at this step size.
    """
    _, fd, fdd, _, gd, gdd = curve.eval(s)
    _, fdm, _, _, gdm, _ = curve.eval(s - h)
    _, fdp, _, _, gdp, _ = curve.eval(s + h)
    fm, _, _, gm, _, _ = curve.eval(s - h)
    fp, _, _, gp, _, _ = curve.eval(s + h)
    assert fd == pytest.approx((fp - fm) / (2 * h), rel=1e-7, abs=1e-7)
    assert gd == pytest.approx((gp - gm) / (2 * h), rel=1e-7, abs=1e-7)
    assert fdd == pytest.approx((fdp - fdm) / (2 * h), rel=1e-6, abs=1e-6)
    assert gdd == pytest.approx((gdp - gdm) / (2 * h), rel=1e-6, abs=1e-6)


# -- catalog -------------------------------------------------------------------


def test_koranyi_sphere_point():
    c = catalog("koranyi_sphere", 2.0)
    f, _, _, g, _, _ = c.eval(math.pi)
    assert f == pytest.approx(2.0)
    assert g == pytest.approx(0.0, abs=1e-12)
    assert koranyi_image(c, math.pi)[0] == pytest.approx(-4.0 + 0j)


def test_koranyi_sphere_constant_gauge():
    c = catalog("koranyi_sphere", 1.5)
    for beta in np.linspace(BETA_LO + 0.01, BETA_HI - 0.01, 25):
        f, _, _, g, _, _ = c.eval(float(beta))
        assert (f ** 4 + g ** 2) ** 0.25 == pytest.approx(1.5, rel=1e-12)


def test_koranyi_sphere_beta_is_parameter():
    c = catalog("koranyi_sphere", 1.0)
    grid = np.linspace(BETA_LO + 0.01, BETA_HI - 0.01, 50)
    ps, dps = koranyi_image(c, grid)
    assert np.allclose(arg_band(ps), grid, atol=1e-12)
    assert np.allclose(arg_rate(ps, dps), 1.0, atol=1e-10)


@pytest.mark.parametrize("name", profiles.CATALOG_NAMES)
def test_koranyi_image_and_arg_rate_match_finite_differences(name):
    c = catalog(name, 1.0)
    lo, hi = c.domain
    s = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7)
    h = 1e-6
    ps, dps = koranyi_image(c, s)
    (pm, _), (pp, _) = koranyi_image(c, s - h), koranyi_image(c, s + h)
    assert np.allclose(dps, (pp - pm) / (2 * h), rtol=1e-7, atol=1e-7)
    assert np.allclose(arg_rate(ps, dps), (arg_band(pp) - arg_band(pm)) / (2 * h),
                       rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("name", profiles.CATALOG_NAMES)
def test_catalog_derivatives_match_finite_differences(name):
    c = catalog(name, 1.0)
    lo, hi = c.domain
    for s in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7):
        fd_check(c, float(s))


def test_bubble_pole_limits():
    # endpoint t-limits of the bubble profile by direct extrapolation
    for R in (1.0, 0.7):
        (fa, _), _, _, (ga, gb), _, _ = profiles._endpoint_limits(catalog("bubble_set", R))
        assert ga == pytest.approx(2 * math.pi * R * R, rel=1e-5)
        assert gb == pytest.approx(-2 * math.pi * R * R, rel=1e-5)
        assert fa == pytest.approx(0.0, abs=1e-6)


def test_bubble_midpoint_argument():
    c = catalog("bubble_set", 1.0)
    ps, _ = koranyi_image(c, math.pi)
    assert float(arg_band(ps)) == pytest.approx(math.pi, rel=1e-12)
    assert ps == pytest.approx(-4.0 + 0j, abs=1e-12)


def test_bubble_argument_formula():
    # tan(beta(s)) = (sin s - s + pi) / (cos s - 1) for R = 1
    c = catalog("bubble_set", 1.0)
    for s in np.linspace(0.4, 2 * math.pi - 0.4, 17):
        expected = (math.sin(s) - s + math.pi) / (math.cos(s) - 1.0)
        beta = float(arg_band(koranyi_image(c, s)[0]))
        assert math.tan(beta) == pytest.approx(expected, rel=1e-9)


def test_cc_profile_small_k_limit():
    c = catalog("cc_sphere", 1.0)
    f, _, _, g, _, _ = c.eval(1e-9)
    assert f == pytest.approx(1.0, rel=1e-9)
    assert g == pytest.approx(0.0, abs=1e-9)


def test_cc_profile_matches_closed_form_outside_series_window():
    c = catalog("cc_sphere", 1.0)
    for k in (0.5, 1.0, 3.0, -2.0):
        f, _, _, g, _, _ = c.eval(k)
        assert f == pytest.approx(abs(1 - np.exp(1j * k)) / abs(k), rel=1e-12)
        assert g == pytest.approx((2 / k) * (math.sin(k) / k - 1.0), rel=1e-12)


def test_cc_series_window_matches_closed_form():
    # inside the series window the series must agree with the (cancellation
    # prone but still ~1e-12 accurate here) closed forms at the same k
    c = catalog("cc_sphere", 1.0)
    k = 0.09
    f, fd, _, g, gd, _ = c.eval(k)
    x = k / 2.0
    assert f == pytest.approx(math.sin(x) / x, rel=1e-11)
    assert fd == pytest.approx(0.5 * (math.cos(x) / x - math.sin(x) / x ** 2),
                               rel=1e-9)
    assert g == pytest.approx(2 * (math.sin(k) - k) / k ** 2, rel=1e-10)
    assert gd == pytest.approx(
        2 * ((math.cos(k) - 1) / k ** 2 - 2 * (math.sin(k) - k) / k ** 3),
        rel=1e-8)


# k, then f, fd, fdd, g, gd, gdd of cc_sphere at R = 1, from mpmath at 50
# digits: f = S(k/2), fd = S'(k/2)/2, fdd = S''(k/2)/4, g = 2 G(k), gd = 2 G'(k),
# gdd = 2 G''(k), for S(x) = sin(x)/x and G(y) = (sin(y) - y)/y^2. The points
# lie on both sides of |k| = 0.1 and 1.5 (the closed forms miss the bound at
# 0.5 and 1.05), near the zero of G' at pi and near the zero of S'' at -4.16.
CC_REFERENCE = [
    (0.001, 0.9999999583333339, -8.333333125000001e-05, -0.08333332708333342,
     -0.00033333331666666707, -0.33333328333333534, 9.99999920634923e-05),
    (-0.1, 0.9995833854135666, 0.008331250186003294, -0.08327084263332578,
     0.03331667063436954, -0.332833531707456, -0.009992065806517592),
    (0.5, 0.9896158370180917, -0.04140683061489387, -0.08177663679494745,
     -0.16459569116637598, -0.32095674021151427, 0.04901514218949822),
    (-0.8, 0.9735458557716262, 0.06560607721092644, -0.07937127091559047,
     0.2582622159389914, -0.30213599344262965, -0.07601160796148758),
    (1.05, 0.9546914374739006, -0.08511190081043751, -0.07655495306287992,
     -0.33120503293602377, -0.28056901138403273, 0.09610291382943426),
    (1.4999999999999998, 0.9088516800311123, -0.11810854077152755, -0.06973486564574131,
     -0.4466711230186182, -0.2304498789372175, 0.12491179842330336),
    (1.5, 0.9088516800311123, -0.11810854077152756, -0.06973486564574131,
     -0.4466711230186183, -0.23044987893721747, 0.12491179842330337),
    (3.1405926535897932, 0.6368223996556651, -0.20261220408484448, -0.030177593780581834,
     -0.6366197078572242, -0.00012902800075716917, 0.12904985620121331),
    (3.142592653589793, 0.6364171149306925, -0.20267250169451861, -0.030120013805428926,
     -0.6366197078718046, 0.0001289842595528699, 0.128962373797798),
    (-4.16, 0.41977547091707523, 0.21809076280082562, -9.253945964110487e-05,
     0.5791504947456978, 0.10222629187485632, -0.06701890108201597),
    (-6.2, 0.013413116913964674, 0.16331423664310388, 0.049328732591864925,
     0.3269037150269249, 0.10527289959366033, 0.0465864119207579),
]


def test_cc_evaluator_matches_reference_values():
    c = catalog("cc_sphere", 1.0)
    k, *ref = np.array(CC_REFERENCE).T
    got = c.eval(k)
    # relative error, or absolute on a tenth of the largest value near a zero
    scale = np.maximum(np.abs(ref), 0.1 * np.max(np.abs(ref), axis=1, keepdims=True))
    assert np.max(np.abs(np.array(got) - ref) / scale) <= 1e-14
    for i, one in enumerate(k):  # a 0-d parameter gives floats, equal to the batch's
        values = c.eval(one)
        assert all(type(v) is float for v in values)
        assert values == tuple(v[i] for v in got)


def test_catalog_rejects_bad_input():
    with pytest.raises(ValueError):
        catalog("torus", 1.0)
    with pytest.raises(ValueError):
        catalog("koranyi_sphere", -1.0)


def test_eval_outside_domain():
    c = catalog("bubble_set", 1.0)
    with pytest.raises(DomainError):
        c.eval(-0.1)
    with pytest.raises(DomainError):
        c.eval(2 * math.pi)


def _passthrough(bad=None, value=math.nan):
    """A profile on (0, 1) whose six outputs are s itself, with ``value`` in
    output ``bad``: a nan parameter gives nan outputs, as real evaluators do."""
    def evaluator(s):
        out = [s * 1.0 for _ in range(6)]
        if bad is not None:
            out[bad] = np.full_like(s, value)
        return tuple(out)
    return ProfileCurve("passthrough", (0.0, 1.0), evaluator)


@pytest.mark.parametrize("batch", [False, True])
def test_eval_exception_contract(batch):
    def param(s, inside):  # a batch puts s between two points inside the domain
        return np.array([inside, s, inside]) if batch else s

    curves = [_passthrough()] + [catalog(name, 1.0) for name in profiles.CATALOG_NAMES]
    for c in curves:
        lo, hi = c.domain
        inside = 0.5 * (lo + hi) + 0.1
        for s in (lo, hi, lo - 0.5, hi + 0.5, -math.inf, math.inf):  # at and beyond the ends
            with pytest.raises(DomainError):
                c.eval(param(s, inside))
        with pytest.raises(EvaluationError):  # nan is not outside the domain
            c.eval(param(math.nan, inside))
        assert np.all(np.isfinite(c.eval(param(inside, inside))))
    for bad in range(6):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(EvaluationError):
                _passthrough(bad, value).eval(param(0.75, 0.5))


# -- validators ----------------------------------------------------------------


def test_koranyi_and_bubble_pass_all_checks():
    for name in ("koranyi_sphere", "bubble_set"):
        report = validate(catalog(name, 1.0))
        assert report.passed, name
        assert report.min_beta_dot > 0.0


def test_cc_sphere_validation_split():
    # f-positivity and argument monotonicity hold; interior monotonicity of g
    # fails near the poles where the profile overshoots and comes back
    report = validate(catalog("cc_sphere", 1.0))
    assert report.a1.passed
    assert report.beta_monotone.passed
    assert not report.a2.passed
    assert abs(report.a2.witness) > math.pi  # witness in the overshoot band


def _curve(fg, domain, name):
    return parse_profile(fg, name=name)


def test_counterexample_f_touches_zero():
    bad = parse_profile(
        "f = sin(s)*sin(s); g = pi/2 - s; domain = (0, pi*2)", name="pinched")
    report = validate(bad)
    assert not report.a1.passed
    assert report.a1.witness == pytest.approx(math.pi, abs=0.05)
    assert report.a2.passed


def test_counterexample_g_increasing():
    bad = parse_profile("f = sin(s); g = s - pi/2; domain = (0, pi)", name="rising")
    report = validate(bad)
    assert not report.a2.passed
    assert report.a2.witness is not None
    assert report.a1.passed


def test_counterexample_beta_not_monotone():
    # f dips sharply mid-domain, so arg p* backtracks while g still decreases
    bad = parse_profile(
        "f = sin(s) * (1 - 0.9*exp(-10*(s - 1.5)^2)); g = cos(s);"
        " domain = (0, pi)", name="wobble")
    report = validate(bad)
    assert not report.beta_monotone.passed
    assert report.beta_monotone.witness is not None
    assert report.a1.passed and report.a2.passed


# -- reparametrization ---------------------------------------------------------


@pytest.mark.parametrize("name", ["bubble_set", "cc_sphere"])
def test_reparam_roundtrip(name):
    c = catalog(name, 1.0)
    rc = reparam_by_argument(c)
    assert rc.by_argument and rc.domain == (BETA_LO, BETA_HI)
    grid = np.linspace(BETA_LO + 1e-3, BETA_HI - 1e-3, 200)
    assert np.max(np.abs(arg_band(koranyi_image(rc, grid)[0]) - grid)) < 1e-10


def test_reparam_derivatives_by_finite_differences():
    rc = reparam_by_argument(catalog("bubble_set", 1.0))
    # wider step: each evaluation carries the 1e-12 Newton-inversion noise
    for beta in np.linspace(BETA_LO + 0.2, BETA_HI - 0.2, 9):
        fd_check(rc, float(beta), h=1e-5)


BUBBLE_SOURCE = """\
param R = 1
f = 2*R*sin(s/(2*R))
g = 2*R^2*sin(s/R) - 2*R*s + 2*pi*R^2
domain = (0, 2*pi*R)
"""

BYARG_SOURCES = {
    "bubble_set": lambda: catalog("bubble_set", 1.0),
    "cc_sphere": lambda: catalog("cc_sphere", 1.0),
    "parsed bubble": lambda: parse_profile(BUBBLE_SOURCE, name="bubble"),
}


def band_samples(n, seed):
    """n betas uniform in the band, 1% of them within 1e-9 of each edge."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    beta = rng.uniform(BETA_LO, BETA_HI, n)
    k = n // 100
    beta[:k] = BETA_LO + 1e-9 * (1.0 - rng.random(k))
    beta[k:2 * k] = BETA_HI - 1e-9 * (1.0 - rng.random(k))
    return beta


# arg p* = s and s + pi/2: beta' = 1 up to the band edges, where targets are
# clipped to the sampled range (the by-argument profiles of test_modulus.py)
BOUNDED_RATE_SOURCES = {
    "cos_sin": "f = sqrt(-cos(s)); g = sin(s); domain = (pi/2, 3*pi/2)",
    "sin_cos": "f = sin(s)^0.5; g = cos(s); domain = (0, pi)",
}


def _byarg_source(name):
    if name in BOUNDED_RATE_SOURCES:
        return parse_profile(BOUNDED_RATE_SOURCES[name], name=name)
    return BYARG_SOURCES[name]()


@pytest.mark.parametrize("name", sorted(BYARG_SOURCES) + sorted(BOUNDED_RATE_SOURCES))
def test_reparam_batch_pieces_and_scalars_agree_bitwise(name):
    # each output is a pure function of its own beta, whatever the batch
    rc = reparam_by_argument(_byarg_source(name))
    beta = band_samples(2 * 10 ** 5, seed=11)
    batch = np.array(rc.eval(beta))
    pieces = np.concatenate([np.array(rc.eval(beta[i:i + 4099]))
                             for i in range(0, beta.size, 4099)], axis=1)
    assert np.array_equal(batch, pieces)
    scalars = np.array([rc.eval(float(b)) for b in beta[:50]]).T
    assert np.array_equal(batch[:, :50], scalars)


@pytest.mark.parametrize("name", ["bubble_set", "cc_sphere"])
def test_reparam_arg_residual_at_rounding_level(name):
    rc = reparam_by_argument(catalog(name, 1.0))
    beta = band_samples(10 ** 5, seed=12)
    f, _, _, g, _, _ = rc.eval(beta)
    assert np.max(np.abs(arg_band(-f * f + 1j * g) - beta)) <= 4e-15


@pytest.mark.parametrize("name", sorted(BYARG_SOURCES))
def test_reparam_native_points_per_point(name):
    # the Hermite seed converges at its first source evaluation for most
    # points; converged points leave the batch
    src = BYARG_SOURCES[name]()
    count = [0]

    def counting(s):
        count[0] += np.size(s)
        return src.evaluator(s)

    rc = reparam_by_argument(ProfileCurve(src.name, src.domain, counting))
    count[0] = 0
    beta = band_samples(10 ** 5, seed=13)
    rc.eval(beta)
    assert count[0] <= 1.4 * beta.size


def test_reparam_seed_builds_where_ds_dbeta_is_infinite():
    # beta = pi + s^3 is stationary at s = 0, an exact node of the seed
    # sample, so ds/dbeta is infinite there and the two cells beside it, each
    # about 2.3e-11 wide in beta, are seeded linearly; building the seed
    # raises nothing, warnings included
    rc = reparam_by_argument(parse_profile(
        "f = sqrt(cos(s^3)); g = -sin(s^3); domain = (-(pi/2)^(1/3), (pi/2)^(1/3))",
        name="flat middle"))
    beta = math.pi + np.array([-2e-11, -1e-12, 1e-12, 2e-11, 0.4])
    f, _, _, g, _, _ = rc.eval(beta)
    assert np.max(np.abs(arg_band(-f * f + 1j * g) - beta)) <= 4e-15


def test_reparam_rejects_non_monotone_argument():
    wobble = parse_profile(
        "f = sin(s) * (1 - 0.9*exp(-10*(s - 1.5)^2)); g = cos(s);"
        " domain = (0, pi)", name="wobble")
    with pytest.raises(ReparamError, match="not strictly increasing"):
        reparam_by_argument(wobble)


def test_reparam_identity_for_by_argument_curve():
    c = catalog("koranyi_sphere", 1.0)
    assert reparam_by_argument(c) is c


def test_parse_profile_matches_catalog():
    c = parse_profile(
        "f = sqrt(-cos(s)); g = sin(s); domain = (pi/2, 3*pi/2)", name="unit")
    ref = catalog("koranyi_sphere", 1.0)
    for s in np.linspace(BETA_LO + 0.1, BETA_HI - 0.1, 11):
        got = c.eval(float(s))
        want = ref.eval(float(s))
        for u, v in zip(got, want):
            assert u == pytest.approx(v, rel=1e-10, abs=1e-10)
