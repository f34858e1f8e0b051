"""Profile curves: catalog, Koranyi images, validators, reparametrization."""

import math

import numpy as np
import pytest

from heisring import profiles
from heisring.profiles import (BETA_HI, BETA_LO, DomainError, EvaluationError, ProfileCurve,
                               ReparamError, arg_rate, band_atan2, catalog, koranyi_image,
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
    assert np.allclose(band_atan2(ps.imag, ps.real), grid, atol=1e-12)
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
    diff = band_atan2(pp.imag, pp.real) - band_atan2(pm.imag, pm.real)
    assert np.allclose(arg_rate(ps, dps), diff / (2 * h), rtol=1e-6, atol=1e-7)


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
    assert float(band_atan2(ps.imag, ps.real)) == pytest.approx(math.pi, rel=1e-12)
    assert ps == pytest.approx(-4.0 + 0j, abs=1e-12)


def test_bubble_argument_formula():
    # tan(beta(s)) = (sin s - s + pi) / (cos s - 1) for R = 1
    c = catalog("bubble_set", 1.0)
    for s in np.linspace(0.4, 2 * math.pi - 0.4, 17):
        expected = (math.sin(s) - s + math.pi) / (math.cos(s) - 1.0)
        ps, _ = koranyi_image(c, s)
        beta = float(band_atan2(ps.imag, ps.real))
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
    # by-argument profiles: nan reaches the source through the seed-cell lookup
    curves += [reparam_by_argument(BYARG_SOURCES[name]()) for name in sorted(BYARG_SOURCES)]
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
    ps, _ = koranyi_image(rc, grid)
    assert np.max(np.abs(band_atan2(ps.imag, ps.real) - grid)) < 1e-10


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

# float.hex of (s, (f, f', f'', g, g', g'')) of the parsed bubble at ten interior s
PARSED_BUBBLE_PINS = [
    ("0x1.247426bd47de3p-1",
     ("0x1.207e7fd768dbfp-1", "0x1.eb42a9bcd5057p-1", "-0x1.207e7fd768dbfp-3",
      "0x1.8e366377de3a2p+2", "-0x1.451cde26c3d18p-2", "-0x1.14cedf8bb580bp+0")),
    ("0x1.247426bd47de3p+0",
     ("0x1.14cedf8bb580bp+0", "0x1.aeb8c8764f0bap-1", "-0x1.14cedf8bb580bp-2",
      "0x1.745474215792bp+2", "-0x1.2b4eb931c76a5p+0", "-0x1.d1bb48eee2c13p+0")),
    ("0x1.b6ae3a1bebcd4p+0",
     ("0x1.82f19bb3a28a1p+0", "0x1.4f49e7f775887p-1", "-0x1.82f19bb3a28a1p-2",
      "0x1.357b10472df6ap+2", "-0x1.246ebec81e89bp+1", "-0x1.fac9e043842f0p+0")),
    ("0x1.247426bd47de3p+1",
     ("0x1.d1bb48eee2c13p+0", "0x1.a9628d9c712b6p-2", "-0x1.d1bb48eee2c13p-2",
      "0x1.9ccfeae7c72bap+1", "-0x1.a7a4f3fbbac43p+1", "-0x1.82f19bb3a28a1p+0")),
    ("0x1.6d91306c99d5cp+1",
     ("0x1.fac9e043842efp+0", "0x1.2375f640f44dap-3", "-0x1.fac9e043842efp-2",
      "0x1.2279534a585d0p+0", "-0x1.f5a154de6a82cp+1", "-0x1.207e7fd768dbfp-1")),
    ("0x1.b6ae3a1bebcd4p+1",
     ("0x1.fac9e043842f0p+0", "-0x1.2375f640f44d6p-3", "-0x1.fac9e043842f0p-2",
      "-0x1.2279534a585ccp+0", "-0x1.f5a154de6a82cp+1", "0x1.207e7fd768dbap-1")),
    ("0x1.ffcb43cb3dc4dp+1",
     ("0x1.d1bb48eee2c14p+0", "-0x1.a9628d9c712b4p-2", "-0x1.d1bb48eee2c14p-2",
      "-0x1.9ccfeae7c72b8p+1", "-0x1.a7a4f3fbbac44p+1", "0x1.82f19bb3a28a0p+0")),
    ("0x1.247426bd47de3p+2",
     ("0x1.82f19bb3a28a1p+0", "-0x1.4f49e7f775886p-1", "-0x1.82f19bb3a28a1p-2",
      "-0x1.357b10472df6ap+2", "-0x1.246ebec81e89cp+1", "0x1.fac9e043842efp+0")),
    ("0x1.4902ab94f0d9fp+2",
     ("0x1.14cedf8bb580dp+0", "-0x1.aeb8c8764f0b9p-1", "-0x1.14cedf8bb580dp-2",
      "-0x1.745474215792cp+2", "-0x1.2b4eb931c76a8p+0", "0x1.d1bb48eee2c15p+0")),
    ("0x1.6d91306c99d5cp+2",
     ("0x1.207e7fd768dbfp-1", "-0x1.eb42a9bcd5057p-1", "-0x1.207e7fd768dbfp-3",
      "-0x1.8e366377de3a2p+2", "-0x1.451cde26c3d18p-2", "0x1.14cedf8bb580ap+0")),
]


def test_parsed_profile_values_are_pinned():
    prof = parse_profile(BUBBLE_SOURCE, name="bubble")
    s = np.array([float.fromhex(x) for x, _ in PARSED_BUBBLE_PINS])
    got = [tuple(float(v).hex() for v in col) for col in zip(*prof.eval(s))]
    assert got == [want for _, want in PARSED_BUBBLE_PINS]


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
    assert np.max(np.abs(band_atan2(g, -f * f) - beta)) <= 4e-15


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
    assert np.max(np.abs(band_atan2(g, -f * f) - beta)) <= 4e-15


@pytest.mark.parametrize("name", sorted(BYARG_SOURCES) + sorted(BOUNDED_RATE_SOURCES))
def test_cell_index_matches_searchsorted(name):
    _, nodes, _ = profiles._seed_sample(_byarg_source(name))
    inner = nodes[1:-1]
    cell = profiles._cell_index(nodes)

    def check(b):
        assert np.array_equal(cell(b), np.searchsorted(inner, b, side="right"))

    for b in (inner, np.nextafter(inner, -math.inf), np.nextafter(inner, math.inf)):
        check(b)
    lo, hi = nodes[0], nodes[-1]
    check(np.array([lo, np.nextafter(lo, math.inf), np.nextafter(hi, -math.inf), hi,
                    math.nan]))
    rng = np.random.Generator(np.random.Philox(key=14))
    check(rng.uniform(lo, hi, 10 ** 5))
    if name in BYARG_SOURCES:  # beta(s) is flat at the band edges: a crowded first bucket
        first = inner[inner < lo + (hi - lo) / (4 * profiles.SEED_N)]
        assert first.size > 1
        check(np.linspace(lo, first[-1], 10 ** 4))


def test_cell_index_sends_nan_past_a_lone_node_in_the_last_bucket():
    # np.fmin sends nan to the last bucket; here one inner node sits there
    nodes = np.append(np.linspace(0.0, 0.7, 8), [0.999, 1.0])
    b = np.array([0.0, 0.98, np.nextafter(0.999, 0.0), 0.999, np.nextafter(0.999, 2.0), 1.0,
                  math.nan])
    assert np.array_equal(profiles._cell_index(nodes)(b),
                          np.searchsorted(nodes[1:-1], b, side="right"))


# f and g (float.hex) then f', f'', g', g'' of the by-argument profiles at
# PIN_BETAS, from the evaluator's earlier complex-arithmetic form with a
# searchsorted lookup; the real-arithmetic form keeps f and g to the bit and
# moves the derivatives at rounding level
PIN_BETAS = np.linspace(1.6, 4.7, 20)
BYARG_PINS = {
    "bubble_set": [
        ("0x1.b5c79bb8c0a35p-2", "0x1.906ef7e89e48ap+2",
         7.277260952401569, -127.44055859806502, -1.361555344223827, -23.618907915621193),
        ("0x1.10fbac5c29e19p+0", "0x1.75a30d6ffbb78p+2",
         2.5306504694565084, -8.886136174256599, -3.401333802678061, -7.406743924629641),
        ("0x1.63f53c65e455bp+0", "0x1.4d415b44ab7d2p+2",
         1.5676071054389689, -4.045872514557212, -4.216523173414936, -3.0721415157205163),
        ("0x1.99d622de63f2ap+0", "0x1.1f5d205042918p+2",
         1.0550103919607008, -2.447901236415576, -4.511210395634699, -0.7807244861315432),
        ("0x1.be9e84042f8f6p+0", "0x1.dff6c396739b0p+1",
         0.7282144006977305, -1.6344206845920461, -4.532897564332827, 0.3679325896589245),
        ("0x1.d8151859ea384p+0", "0x1.82426b760443cp+1",
         0.5041189013610524, -1.1513021876131315, -4.428541380848374, 0.8241777100782857),
        ("0x1.e99937118c04ep+0", "0x1.27406636366f2p+1",
         0.34277757044851304, -0.8497224039904103, -4.285457201335445, 0.8814286548941226),
        ("0x1.f542802f72564p+0", "0x1.9e5fcecb1c1acp+0",
         0.220677333021612, -0.662432814560987, -4.152467418437688, 0.7237665773025422),
        ("0x1.fc5cc56738e58p+0", "0x1.e63c6fdf02040p-1",
         0.12236120641508583, -0.5538837296962185, -4.055039995691079, 0.45864991655062454),
        ("0x1.ffa821bb9ab33p+0", "0x1.2bd830b0080e0p-2",
         0.036708429395842276, -0.505033247072405, -4.005346888895533, 0.14594915970493513),
        ("0x1.ff7afe65d9e2bp+0", "-0x1.70d50fed758c0p-2",
         -0.0452214232438916, -0.507623013857505, -4.008081044545849, -0.179237515596272),
        ("0x1.fbd0c6d1dc161p+0", "-0x1.049715b0c5660p+0",
         -0.13174266752479566, -0.5620863184766536, -4.063007275753998, -0.48892237260665516),
        ("0x1.f449234c1b718p+0", "-0x1.b0467802f0a44p+0",
         -0.23194272600715535, -0.6776529573420285, -4.16482867354494, -0.7463350365507517),
        ("0x1.e8178965132a0p+0", "-0x1.307db5fb2e29cp+1",
         -0.3572737954825266, -0.874713077833253, -4.300335472383437, -0.8878643958473749),
        ("0x1.d5dec8d6342ecp+0", "-0x1.8bce418f8992cp+1",
         -0.5238097228159436, -1.1911145401445222, -4.442198944386817, -0.7995904809926961),
        ("0x1.bb6cb51b04b09p+0", "-0x1.e9b9e697b7a2cp+1",
         -0.7562359191851165, -1.6991310877945858, -4.538420178991661, -0.2877098791543373),
        ("0x1.9534856f28a3dp+0", "-0x1.2435fcf9eb8f0p+2",
         -1.0971258099083456, -2.562752009369368, -4.496638984674322, 0.9544821711108495),
        ("0x1.5d0f855dfc029p+0", "-0x1.51c39c2af95c4p+2",
         -1.6377770964795073, -4.304983697480577, -4.162139892516742, 3.399853880589049),
        ("0x1.05c158ce92e9fp+0", "-0x1.793a70b419f7cp+2",
         -2.6892339486987824, -10.0179985146182, -3.2713361281078726, 8.065989480516528),
        ("0x1.1d8a501075117p-2", "-0x1.91a898c80888cp+2",
         -11.23542139688409, -456.38525286442064, -0.8822403743974686, 35.96288001960678),
    ],
    "cc_sphere": [
        ("0x1.b466eca49c7fdp-4", "0x1.8deaca1e5d795p-2",
         2.0105623995345105, -27.644528986777317, 1.352254233896252, -18.331672856026643),
        ("0x1.47ded1d406cf2p-2", "0x1.0d7f07c8199d9p-1",
         1.0370443181679223, -1.6549109928400085, 0.6046447788471907, -1.9346788284165535),
        ("0x1.e411061085368p-2", "0x1.3425f46f673b2p-1",
         0.8537790359067404, -0.8297287243072067, 0.3295887348121881, -1.5760480125961995),
        ("0x1.34341e3d4bd8dp-1", "0x1.450649fac24b8p-1",
         0.7346134846144242, -0.6706926259186112, 0.07492400559611548, -1.55508997386333),
        ("0x1.6d178ccddeaebp-1", "0x1.40baa938d6723p-1",
         0.6279761712421028, -0.6475657558300588, -0.17687164260615618, -1.5214451767987585),
        ("0x1.9d1c8b914c660p-1", "0x1.27c94be048f4ep-1",
         0.5212106795320106, -0.6645605116095349, -0.4173013601374533, -1.4110657903696329),
        ("0x1.c40fd77c50765p-1", "0x1.f76db40077ff7p-2",
         0.4105617123312787, -0.6923011601877411, -0.632400057206374, -1.2107229034808753),
        ("0x1.e193f96cd0995p-1", "0x1.7e78ff7426bf0p-2",
         0.29537444216870445, -0.718893062956959, -0.8077973903314506, -0.9264903509018966),
        ("0x1.f54dc1aea8016p-1", "0x1.d8d3b4b10b384p-3",
         0.1763496713419898, -0.7386935596150029, -0.9310891352222161, -0.5755806239962273),
        ("0x1.fef8e6902e3aep-1", "0x1.2b0af2852706dp-4",
         0.05485179485541165, -0.7488976420007882, -0.9933157515688311, -0.18247238588774042),
        ("0x1.fe72233ac2f0ep-1", "-0x1.6f57781bf25fap-4",
         -0.06743970359807368, -0.748334283625683, -0.9898971894951915, 0.22411687411522016),
        ("0x1.f3bb6a6ecea60p-1", "-0x1.f8b854b7825e6p-3",
         -0.18875702207847578, -0.7370642878811475, -0.9210859615019629, 0.6141550090250356),
        ("0x1.defbaed00ca2ep-1", "-0x1.8c3eec67f602cp-2",
         -0.3074415469731555, -0.7163997006954279, -0.7919424996281357, 0.9592262931245196),
        ("0x1.c07a2e38e2ea9p-1", "-0x1.01120851f4f75p-1",
         -0.42217785010931835, -0.6893618724000361, -0.6118329100335556, 1.2354562836800647),
        ("0x1.98938856ecd66p-1", "-0x1.2b46c224c9bdep-1",
         -0.5323635288904517, -0.662017896679189, -0.39344299023013535, 1.4265727630720058),
        ("0x1.67a388cf42ab9p-1", "-0x1.42243de9bc922p-1",
         -0.6388620394688586, -0.6473063947975104, -0.15123294687930658, 1.5279742467623396),
        ("0x1.2dd49b861c589p-1", "-0x1.44445770458e4p-1",
         -0.7459497393158848, -0.6779021403551848, 0.1010791577051233, 1.5558615988854103),
        ("0x1.d53e83bd47a5cp-2", "-0x1.31324f6946113p-1",
         -0.8680155020561082, -0.8645356142591398, 0.35615846907147486, 1.5846884150268474),
        ("0x1.35c3c685e2fb1p-2", "-0x1.0825e610631fap-1",
         -1.0666489267438348, -1.8753773588949276, 0.6381319198036126, 2.0540559152884486),
        ("0x1.12576de6b8ac6p-4", "-0x1.72c549e1ca4f5p-2",
         -2.880916235984091, -101.22787582316596, 1.9192846943942254, 65.2835932850102),
    ],
    "parsed bubble": [
        ("0x1.b5c79bb8c0a35p-2", "0x1.906ef7e89e48ap+2",
         7.277260952401569, -127.44055859806502, -1.361555344223827, -23.618907915621193),
        ("0x1.10fbac5c29e19p+0", "0x1.75a30d6ffbb78p+2",
         2.5306504694565084, -8.886136174256599, -3.401333802678061, -7.406743924629641),
        ("0x1.63f53c65e455bp+0", "0x1.4d415b44ab7d2p+2",
         1.5676071054389689, -4.045872514557212, -4.216523173414936, -3.0721415157205163),
        ("0x1.99d622de63f2ap+0", "0x1.1f5d205042918p+2",
         1.0550103919607008, -2.447901236415576, -4.511210395634699, -0.7807244861315432),
        ("0x1.be9e84042f8f6p+0", "0x1.dff6c396739b0p+1",
         0.7282144006977305, -1.6344206845920461, -4.532897564332827, 0.3679325896589245),
        ("0x1.d8151859ea384p+0", "0x1.82426b760443cp+1",
         0.5041189013610524, -1.1513021876131315, -4.428541380848374, 0.8241777100782857),
        ("0x1.e99937118c04ep+0", "0x1.27406636366f2p+1",
         0.34277757044851304, -0.8497224039904103, -4.285457201335445, 0.8814286548941226),
        ("0x1.f542802f72564p+0", "0x1.9e5fcecb1c1acp+0",
         0.220677333021612, -0.662432814560987, -4.152467418437688, 0.7237665773025422),
        ("0x1.fc5cc56738e58p+0", "0x1.e63c6fdf02040p-1",
         0.12236120641508583, -0.5538837296962185, -4.055039995691079, 0.45864991655062454),
        ("0x1.ffa821bb9ab33p+0", "0x1.2bd830b0080e0p-2",
         0.036708429395842276, -0.505033247072405, -4.005346888895533, 0.14594915970493513),
        ("0x1.ff7afe65d9e2bp+0", "-0x1.70d50fed758c0p-2",
         -0.0452214232438916, -0.507623013857505, -4.008081044545849, -0.179237515596272),
        ("0x1.fbd0c6d1dc161p+0", "-0x1.049715b0c5660p+0",
         -0.13174266752479566, -0.5620863184766536, -4.063007275753998, -0.48892237260665516),
        ("0x1.f449234c1b718p+0", "-0x1.b0467802f0a44p+0",
         -0.23194272600715535, -0.6776529573420285, -4.16482867354494, -0.7463350365507517),
        ("0x1.e8178965132a0p+0", "-0x1.307db5fb2e29cp+1",
         -0.3572737954825266, -0.874713077833253, -4.300335472383437, -0.8878643958473749),
        ("0x1.d5dec8d6342ecp+0", "-0x1.8bce418f8992cp+1",
         -0.5238097228159436, -1.1911145401445222, -4.442198944386817, -0.7995904809926961),
        ("0x1.bb6cb51b04b09p+0", "-0x1.e9b9e697b7a2cp+1",
         -0.7562359191851165, -1.6991310877945858, -4.538420178991661, -0.2877098791543373),
        ("0x1.9534856f28a3dp+0", "-0x1.2435fcf9eb8f0p+2",
         -1.0971258099083456, -2.562752009369368, -4.496638984674322, 0.9544821711108495),
        ("0x1.5d0f855dfc029p+0", "-0x1.51c39c2af95c4p+2",
         -1.6377770964795073, -4.304983697480577, -4.162139892516742, 3.399853880589049),
        ("0x1.05c158ce92e9fp+0", "-0x1.793a70b419f7cp+2",
         -2.6892339486987824, -10.0179985146182, -3.2713361281078726, 8.065989480516528),
        ("0x1.1d8a501075117p-2", "-0x1.91a898c80888cp+2",
         -11.23542139688409, -456.38525286442064, -0.8822403743974686, 35.96288001960678),
    ],
}


@pytest.mark.parametrize("name", sorted(BYARG_PINS))
def test_byarg_values_are_pinned(name):
    f, fd, fdd, g, gd, gdd = reparam_by_argument(BYARG_SOURCES[name]()).eval(PIN_BETAS)
    f_hex, g_hex, *ref = zip(*BYARG_PINS[name])
    assert [v.hex() for v in f] == list(f_hex)
    assert [v.hex() for v in g] == list(g_hex)
    ref = np.array(ref)
    # relative error, or absolute on a tenth of the largest value near a zero
    scale = np.maximum(np.abs(ref), 0.1 * np.max(np.abs(ref), axis=1, keepdims=True))
    assert np.max(np.abs(np.array((fd, fdd, gd, gdd)) - ref) / scale) <= 1e-14


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
