"""Ring membership, extremal density, modulus routes, oracle, angle."""

import math

import numpy as np
import pytest

from heisring import curves as cv
from heisring import heis
from heisring import modulus as md
from heisring import revcoords as rc
from heisring.heis import HPoint
from heisring.profiles import (BETA_HI, BETA_LO, EvaluationError, ProfileCurve,
                               ValidationError, catalog, clip_to_band, parse_profile,
                               reparam_by_argument, validate)

RING = md.make_ring(catalog("koranyi_sphere", 1.0), 1.0, 2.0)
RING_B = md.make_ring(catalog("bubble_set", 1.0), 1.0, 2.0)
RING_CC = md.make_ring(catalog("cc_sphere", 1.0), 1.0, 2.0)


def test_make_ring_rejects_bad_bounds():
    with pytest.raises(ValueError):
        md.make_ring(catalog("koranyi_sphere", 1.0), 2.0, 1.0)


def test_make_ring_rejects_invalid_profile():
    rising = parse_profile("f = sin(s); g = s - pi/2; domain = (0, pi)",
                           name="rising")
    with pytest.raises(ValidationError):
        md.make_ring(rising, 1.0, 2.0)


@pytest.mark.parametrize("name, source, failed", [
    ("pinched", "f = sin(s)*sin(s); g = pi/2 - s; domain = (0, 2*pi)", "A1, beta monotone"),
    ("rising", "f = sin(s); g = s - pi/2; domain = (0, pi)", "beta monotone, g endpoint signs"),
    ("wobble", "f = sin(s) * (1 - 0.9*exp(-10*(s - 1.5)^2)); g = cos(s); domain = (0, pi)",
     "beta monotone"),
    ("lifted", "f = sin(s); g = cos(s) + 2; domain = (0, pi)", "beta monotone, g endpoint signs"),
])
def test_make_ring_names_the_failed_conditions(name, source, failed):
    with pytest.raises(ValidationError) as err:
        md.make_ring(parse_profile(source, name=name), 1.0, 2.0)
    assert str(err.value) == f"profile {name!r} failed validation: {failed}"


def test_make_ring_accepts_cc_with_non_monotone_g():
    # cc fails A2 in the interior, and the report still records the endpoint
    # signs the ring needs
    report = validate(catalog("cc_sphere", 1.0))
    assert not report.a2.passed and report.g_signs
    assert RING_CC.profile.source.name == "cc_sphere"


@pytest.mark.parametrize("name, calls", [("koranyi_sphere", 2), ("bubble_set", 3),
                                         ("cc_sphere", 3)])
def test_make_ring_evaluates_the_endpoints_once(name, calls):
    # the interior grid, the four endpoint points and, unless the profile is
    # by argument already, the seed of the inversion
    src = catalog(name, 1.0)
    sizes = []

    def counting(s):
        sizes.append(np.size(s))
        return src.evaluator(s)

    md.make_ring(ProfileCurve(src.name, src.domain, counting, by_argument=src.by_argument),
                 1.0, 2.0)
    assert len(sizes) == calls and sizes.count(4) == 1


def test_membership_koranyi():
    # for the unit Koranyi sphere the ring is just 1 < gauge < 2
    z = np.array([1.5, 3.0, 0.5j, 2.0, 0j])
    t = np.array([0.0, 0.0, 0.1, 0.0, 1.0])
    ratio = md.boundary_ratio(RING, z, t)
    assert ratio == pytest.approx([1.5, 3.0, 0.0725 ** 0.25, 2.0, 1.0], rel=1e-12)
    # the closed ring holds its outer shell, the open one does not
    assert (md.rho0_values(RING, z[:4], t[:4]) > 0).tolist() == [True, False, False, True]
    assert (md.rho0_values(RING, z[:4], t[:4], closed=False) > 0).tolist() == [
        True, False, False, False]


def test_rho0_koranyi_values():
    L = math.log(2.0)
    p = HPoint(1.5 + 0j, 0.0)
    assert md.rho0_values(RING, p.z, p.t) == pytest.approx(1.0 / (L * 1.5))
    assert md.rho0_values(RING, 5 + 0j, 0.0) == 0.0
    # vanishes on the vertical axis inside the ring
    assert md.rho0_values(RING, 0j, 2.0) == 0.0


def test_rho0_rejects_origin():
    with pytest.raises(ValueError):
        md.rho0_values(RING, 0j, 0.0)


def test_rho0_names_an_underflow_off_the_origin():
    # |z|^4 + t^2 underflows to 0 at |z| = 1e-200, t = 0, which is not the origin
    with pytest.raises(ValueError, match="underflows to 0, at a point off the group origin"):
        md.rho0_values(RING, np.array([1e-200 + 0j, 1.0 + 0j]), np.array([0.0, 0.5]))
    with pytest.raises(ValueError, match="undefined at the group origin"):
        md.rho0_values(RING, np.array([0j, 1e-200 + 0j]), np.array([0.0, 1.0]))


def test_rho0_dilation_covariance():
    # rho0 is (-1)-homogeneous under dilations inside the ring
    p = HPoint(1.2 + 0.3j, 0.4)
    big = md.make_ring(catalog("koranyi_sphere", 1.0), 1.0, 4.0)
    q = HPoint(2.0 * p.z, 4.0 * p.t)
    a = md.rho0_values(big, p.z, p.t) * math.log(4.0)
    b = md.rho0_values(big, q.z, q.t) * math.log(4.0) * 2.0
    assert a == pytest.approx(b, rel=1e-12)


def test_analytic_modulus_values():
    assert md.analytic_modulus(1.0, 2.0) == pytest.approx(29.636257682862013)
    assert md.analytic_modulus(1.0, math.e) == pytest.approx(math.pi ** 2)
    assert md.analytic_modulus(0.5, 3.0) == pytest.approx(1.715776125142135)
    with pytest.raises(ValueError):
        md.analytic_modulus(2.0, 1.0)


@pytest.mark.parametrize("ring", [RING, RING_B, RING_CC],
                         ids=["koranyi", "bubble", "cc"])
def test_numeric_modulus_matches_analytic(ring):
    want = md.analytic_modulus(ring.a, ring.b)
    got = md.numeric_modulus(ring)
    assert got == pytest.approx(want, rel=1e-9)


# numeric_modulus at (1, 2) as float hex; scipy.integrate.cubature's GK21 loop
# gives the same bits
QUAD_1_2 = {"koranyi": "0x1.da2e1c893b899p+4", "bubble": "0x1.da2e1c893b8a1p+4",
            "cc": "0x1.da2e1c893b89bp+4"}


@pytest.mark.parametrize("name", sorted(QUAD_1_2))
def test_numeric_modulus_is_pinned(name):
    value, err, subdivisions = md.numeric_modulus(RINGS[name], with_error=True)
    assert value.hex() == QUAD_1_2[name]
    assert subdivisions == 0 and 0.0 <= err <= 1e-9 * value
    assert md.numeric_modulus(RINGS[name]) == value


@pytest.mark.parametrize("tol", [math.nan, 0.0])
def test_numeric_modulus_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        md.numeric_modulus(RING, tol=tol)


@pytest.mark.parametrize("n", [0, 1])
def test_mc_modulus_needs_two_samples(n):
    with pytest.raises(ValueError, match="n >= 2"):
        md.mc_modulus(RING, n=n)


# the overflow and underflow warnings numpy gives on the way are not under test
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("a, b, result", [(1.0, 1e80, "nan"), (1e-80, 1.0, "inf")])
def test_numeric_modulus_rejects_a_non_finite_result(a, b, result):
    ring = md.make_ring(catalog("koranyi_sphere", 1.0), a, b)
    with pytest.raises(rc.IntegrationError, match=f"non-finite result {result}"):
        md.numeric_modulus(ring)


def test_numeric_modulus_names_the_underflow_on_a_tiny_ring():
    ring = md.make_ring(catalog("cc_sphere", 1.0), 1e-200, 1.0)
    with pytest.raises(ValueError, match="underflows to 0, at a point off the group origin"):
        md.numeric_modulus(ring)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mc_modulus_rejects_a_non_finite_result():
    ring = md.make_ring(catalog("koranyi_sphere", 1.0), 1.0, 1e80)
    with pytest.raises(ArithmeticError, match="non-finite value nan"):
        md.mc_modulus(ring, n=1000)


def test_mc_modulus_within_stderr():
    value, stderr = md.mc_modulus(RING_B, n=200_000, seed=1)
    want = md.analytic_modulus(1.0, 2.0)
    assert abs(value - want) <= 3.0 * stderr
    assert stderr < 0.5


def test_mc_modulus_reproducible():
    a = md.mc_modulus(RING, n=10_000, seed=5)
    b = md.mc_modulus(RING, n=10_000, seed=5)
    assert a == b


@pytest.mark.parametrize("ring", [RING_B, RING_CC], ids=["bubble", "cc"])
def test_mc_modulus_chunking_is_exact(monkeypatch, ring):
    chunked = md.mc_modulus(ring, n=10 ** 6, seed=0)
    monkeypatch.setattr(md, "MC_CHUNK", 2 * 10 ** 6)
    assert md.mc_modulus(ring, n=10 ** 6, seed=0) == chunked


# mc_modulus(ring (1, 2), n=10**6, seed) as (value, stderr) float hex, taken
# before the shell bracket culled p*; seed 105 keeps the cc miss at -3.35 sigma.
# The cc figures come from the inversion's cubic Hermite seed, which moves p*
# in the bounding grid by rounding; the ('cc', 0) value is one ulp above the
# np.power one since rho0^4 is formed by two squarings.
MC_1E6 = {
    ("koranyi", 0): ("0x1.da0138cfe266fp+4", "0x1.d584493c140e5p-5"),
    ("koranyi", 105): ("0x1.d7976820f56adp+4", "0x1.d3a917fe1ae15p-5"),
    ("bubble", 0): ("0x1.da10cab117d1ap+4", "0x1.24661b95631e8p-4"),
    ("bubble", 105): ("0x1.d6f71c1ea080dp+4", "0x1.2321aac09a6bcp-4"),
    ("cc", 0): ("0x1.da4045c4d65abp+4", "0x1.777b918d8909cp-5"),
    ("cc", 105): ("0x1.d7bd695e95352p+4", "0x1.7549a87982547p-5"),
}
RINGS = {"koranyi": RING, "bubble": RING_B, "cc": RING_CC}


@pytest.mark.parametrize("name, seed", sorted(MC_1E6))
def test_mc_modulus_is_pinned(name, seed):
    value, stderr = md.mc_modulus(RINGS[name], n=10 ** 6, seed=seed)
    assert (value.hex(), stderr.hex()) == MC_1E6[name, seed]


def _exact_rho0(ring, z, t, closed, tol, ratio=None):
    """rho0 with the indicator taken from the exact boundary ratio everywhere."""
    if ratio is None:
        ratio = md.boundary_ratio(ring, z, t)
    pad = tol if closed else -tol
    az = np.abs(z)
    vals = az / np.sqrt(az ** 4 + t * t) / ring.log_ratio
    return np.where((ratio > ring.a - pad) & (ratio < ring.b + pad), vals, 0.0)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_rho0_values_near_shells_match_exact_indicator(name):
    # points within 1e-12 to 1e-3 (relative) of either shell, on both sides
    ring = RINGS[name]
    rng = np.random.Generator(np.random.Philox(key=11))
    n = 2 * 10 ** 5
    beta = rng.uniform(BETA_LO, BETA_HI, n)
    offset = np.exp(rng.uniform(math.log(1e-12), math.log(1e-3), n))
    radius = np.where(rng.random(n) < 0.5, ring.a, ring.b)
    radius *= 1.0 + np.where(rng.random(n) < 0.5, offset, -offset)
    z, t = rc.phi_map_arrays(ring.profile, np.log(radius), beta,
                             rng.uniform(0.0, 2.0 * math.pi, n))
    ratio = md.boundary_ratio(ring, z, t)
    for closed in (True, False):
        for tol in (0.0, 1e-9, 1e-6):
            got = md.rho0_values(ring, z, t, closed=closed, tol=tol)
            assert np.array_equal(got, _exact_rho0(ring, z, t, closed, tol, ratio))


def test_rho0_values_keeps_scalar_and_broadcast_shapes():
    # one point on each shell (exact test), one inside and one outside (culled)
    z = np.array([2.0, 1.0j, 1.5, 3.0])[:, None] * np.exp(1j * np.array([0.0, 1.0]))
    t = np.array([0.0, 0.0])
    got = md.rho0_values(RING_CC, z, t)
    assert got.shape == (4, 2)
    for i, j in np.ndindex(got.shape):
        one = md.rho0_values(RING_CC, z[i, j], t[j])
        assert one.shape == () and one == got[i, j]
    assert np.array_equal(got, _exact_rho0(RING_CC, z, t, True, 1e-9))
    with pytest.raises(ValueError):
        md.rho0_values(RING_CC, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    with pytest.raises(EvaluationError):  # a nan point takes the exact test
        md.rho0_values(RING_CC, np.array([1.5, 1.0]), np.array([0.0, np.nan]))


PARSED = {
    "bubble": """param R = {R}
f = 2*R*sin(s/(2*R))
g = 2*R^2*sin(s/R) - 2*R*s + 2*pi*R^2
domain = (0, 2*pi*R)""",
    # not symmetric about beta = pi: the minimum of |p*| lies 0.92 of the way
    # through its cell, where only the step widening covers it
    "tilted": "param R = {R}; f = R*sin(s); g = R^2*(2*cos(s) + 0.6*sin(s)^2); "
              "domain = (0, pi)",
}


@pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("name", ["koranyi_sphere", "bubble_set", "cc_sphere",
                                  "bubble", "tilted"])
def test_shell_bracket_holds_on_dense_betas(name, R):
    curve = (parse_profile(PARSED[name].format(R=R), name=name) if name in PARSED
             else catalog(name, R))
    ring = md.RevolutionRing(reparam_by_argument(curve), 1.0, 2.0)
    lo, hi = ring.shell_bracket
    assert lo.shape == hi.shape == (md.BRACKET_CELLS,)
    assert np.count_nonzero(np.isinf(hi)) <= 8  # culling reaches almost every cell
    beta = BETA_LO + math.pi * (np.arange(2 ** 20) + 0.5) / 2 ** 20
    cell = (np.arange(2 ** 20) * md.BRACKET_CELLS) >> 20
    room = 1.0 + md.BRACKET_MARGIN / 2  # bounds keep room for rounding
    for k in range(0, 2 ** 20, 2 ** 16):
        ps, _ = rc.pstar_pair(ring.profile, clip_to_band(beta[k:k + 2 ** 16]))
        s = np.sqrt(np.abs(ps))
        c = cell[k:k + 2 ** 16]
        assert np.all(lo[c] * room <= s) and np.all(s * room <= hi[c])


# beta'(s) stays bounded at both ends of these two profiles of the unit Koranyi
# sphere, so the clamped s of the inversion reaches no beta within about 3e-12
# of an edge; such targets are clipped to the reachable range
BY_ARGUMENT = {
    "cos_sin": "f = sqrt(-cos(s)); g = sin(s); domain = (pi/2, 3*pi/2)",
    "sin_cos": "f = sin(s)^0.5; g = cos(s); domain = (0, pi)",
}


@pytest.fixture(scope="module", params=sorted(BY_ARGUMENT))
def argument_ring(request):
    return md.make_ring(parse_profile(BY_ARGUMENT[request.param], name=request.param),
                        1.0, 2.0)


def test_argument_profiles_give_the_analytic_modulus(argument_ring):
    want = md.analytic_modulus(1.0, 2.0)
    assert md.numeric_modulus(argument_ring) == pytest.approx(want, rel=1e-12)
    value, stderr = md.mc_modulus(argument_ring, n=10 ** 6, seed=0)
    assert abs(value - want) <= 3.0 * stderr


def test_argument_profiles_rho0_at_the_band_edges(argument_ring):
    # points of gauge 1.5 (inside) and 3 (outside) one to three ulps from an edge
    beta = np.array([BETA_LO + 2.3e-16, BETA_LO + 6.7e-16, BETA_HI - 9e-16])
    assert np.all(np.minimum(beta - BETA_LO, BETA_HI - beta) < 1e-15)
    alpha = np.repeat([2.25, 9.0], 3) * np.exp(1j * np.tile(beta, 2))
    z, t = np.sqrt(-alpha.real), alpha.imag
    got = md.rho0_values(argument_ring, z, t)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got > 0, np.repeat([True, False], 3))
    assert got == pytest.approx(md.rho0_values(RING, z, t), rel=1e-12)


def test_inversion_maps_koranyi_ring_onto_reciprocal_ring():
    # |inv(p)|_H = 1 / |p|_H, so inversion maps the ring (a, b) onto (1/b, 1/a)
    sphere = catalog("koranyi_sphere", 1.0)
    ring, image = md.make_ring(sphere, 0.5, 3.0), md.make_ring(sphere, 1.0 / 3.0, 2.0)
    rng = np.random.Generator(np.random.Philox(key=21))
    z = rng.uniform(-4.0, 4.0, 4000) + 1j * rng.uniform(-4.0, 4.0, 4000)
    t = rng.uniform(-16.0, 16.0, 4000)
    gauge = (np.abs(z) ** 4 + t * t) ** 0.25
    keep = (np.abs(gauge / ring.a - 1.0) > 1e-9) & (np.abs(gauge / ring.b - 1.0) > 1e-9)
    inverted = [heis.inversion()(HPoint(complex(w), float(s))) for w, s in zip(z[keep], t[keep])]
    zi, ti = np.array([p.z for p in inverted]), np.array([p.t for p in inverted])
    before = md.rho0_values(ring, z[keep], t[keep], tol=0.0) > 0
    after = md.rho0_values(image, zi, ti, tol=0.0) > 0
    assert 0 < np.count_nonzero(before) < before.size
    assert np.array_equal(before, after)
    assert md.numeric_modulus(image) == pytest.approx(md.numeric_modulus(ring), rel=1e-12)


# -- admissibility -------------------------------------------------------------


def test_quasiradial_admissibility_exact():
    fam = cv.quasiradial_family(RING, n_beta=8, n_phi=4, n=128)
    rep = md.admissibility_report(RING, fam)
    assert rep.n == 32
    assert rep.min == pytest.approx(1.0, abs=1e-9)
    assert rep.mean == pytest.approx(1.0, abs=1e-9)
    assert rep.min >= 1.0 - md.ADMISSIBILITY_SLACK


def test_random_admissibility_above_one():
    fam = cv.random_family(RING_B, 40, seed0=0, n=256)
    rep = md.admissibility_report(RING_B, fam)
    assert rep.min >= 0.999
    assert rep.mean >= rep.min
    assert sum(rep.histogram) == 40


def test_admissibility_report_certifies_its_line_integrals():
    fam = cv.random_family(RING_CC, 40, seed0=0, n=256)
    rep = md.admissibility_report(RING_CC, fam)
    vals, errors = cv.line_integral(md.rho0_density(RING_CC), fam, with_error=True)
    assert (rep.min, rep.max_error) == (float(np.min(vals)), float(np.max(errors)))
    assert 0.0 < rep.max_error <= md.ADMISSIBILITY_SLACK


# -- restricted oracle ---------------------------------------------------------


@pytest.mark.parametrize("n_bins", [2, 64])
def test_restricted_oracle_uniform_minimizer(n_bins):
    value, h = md.restricted_oracle(RING, n_bins, seed=3)
    want = md.analytic_modulus(1.0, 2.0)
    assert value == pytest.approx(want, rel=1e-9)
    uniform = 1.0 / RING.log_ratio
    assert np.max(np.abs(h - uniform)) / uniform < 1e-8


def test_restricted_oracle_independent_of_seed():
    v1, _ = md.restricted_oracle(RING_B, 16, seed=0)
    v2, _ = md.restricted_oracle(RING_B, 16, seed=99)
    assert v1 == pytest.approx(v2, rel=1e-10)


def test_simplex_projection():
    h = md._project_scaled_simplex(np.array([0.5, -0.2, 0.9]), 1.0)
    assert h.min() >= 0.0
    assert h.sum() == pytest.approx(1.0)
    # already-feasible points project to themselves
    v = np.array([0.25, 0.25, 0.5])
    assert np.allclose(md._project_scaled_simplex(v, 1.0), v)


# -- angle ---------------------------------------------------------------------


def test_angle_zero_on_koranyi():
    rng = np.random.Generator(np.random.Philox(key=2))
    for _ in range(20):
        q = (float(rng.uniform(-1, 1)), float(rng.uniform(BETA_LO + 0.05, BETA_HI - 0.05)),
             float(rng.uniform(0, 2 * math.pi)))
        theta = md.quasiradial_angle(RING, *q)
        assert min(abs(theta), abs(abs(theta) - math.pi)) < 1e-10


@pytest.mark.parametrize("ring", [RING_B, RING_CC], ids=["bubble", "cc"])
def test_angle_closed_form_agreement(ring):
    # the dual-route agreement check inside quasiradial_angle is the assertion
    from heisring import revcoords
    for beta in np.linspace(BETA_LO + 0.1, BETA_HI - 0.1, 15):
        theta = md.quasiradial_angle(ring, 0.2, float(beta), 1.0)
        _, dps = revcoords.pstar_pair(ring.profile, float(beta))
        want = math.sin(math.atan2(dps.imag, dps.real) - float(beta))
        assert abs(math.cos(theta)) == pytest.approx(abs(want), abs=1e-9)


def test_report_schema():
    report = md.modulus_report(RING, "koranyi", curve_count=5, seed=0,
                               oracle_bins=8)
    assert list(report) == ["surface", "a", "b", "analytic", "numeric",
                            "rel_err", "quad_error", "quad_subdivisions",
                            "admissibility", "oracle"]
    assert list(report["admissibility"]) == ["n", "min", "mean", "max_error"]
    assert list(report["oracle"]) == ["value", "max_dev_from_uniform"]
