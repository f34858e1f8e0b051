"""Surface patches: normals, area, foliation, mean curvature, mesh export."""

import math

import numpy as np
import pytest

from heisring import surface as sf
from heisring.cli import main
from heisring.heis import HPoint, TangentVector, contact_eval
from heisring.profiles import BETA_HI, BETA_LO, catalog, koranyi_image, parse_profile

KORANYI = catalog("koranyi_sphere", 1.0)
BUBBLE = catalog("bubble_set", 1.0)
CC = catalog("cc_sphere", 1.0)

AREA_KORANYI_R1 = 15.05627423766275  # 2 pi * quad of sqrt(sin u) on (0, pi)


def interior_grid(profile, n=64, margin=0.05):
    lo, hi = profile.domain
    return np.linspace(lo + margin * (hi - lo), hi - margin * (hi - lo), n)


def test_patch_eval_koranyi():
    z, t = sf.patch_xyz(KORANYI, math.pi, 0.0)
    assert complex(z) == pytest.approx(1.0 + 0j)
    assert float(t) == pytest.approx(0.0, abs=1e-12)


def test_scale_acts_as_dilation():
    # the bubble of radius 2 at s is the unit bubble at s/2, dilated by 2
    s, phi = np.array([0.4, 1.0, 5.5]), np.array([0.7, 0.7, 3.0])
    small_z, small_t = sf.patch_xyz(BUBBLE, s / 2.0, phi)
    scaled_z, scaled_t = sf.patch_xyz(catalog("bubble_set", 2.0), s, phi)
    assert scaled_z == pytest.approx(2.0 * small_z)
    assert scaled_t == pytest.approx(4.0 * small_t)


def test_characteristic_locus_empty():
    for profile in (KORANYI, BUBBLE, CC):
        ss = interior_grid(profile, 256, margin=0.01)
        pp = 2 * math.pi * np.arange(64) / 64
        s2, p2 = np.meshgrid(ss, pp, indexing="ij")
        n1, n2 = sf.horizontal_normal_components(profile, s2.ravel(), p2.ravel())
        assert float(np.min(np.hypot(n1, n2))) > 0.0


def test_horizontal_normal_orthogonal_to_foliation():
    # the Legendrian flow direction is horizontal and tangent to the surface,
    # so N^h annihilates it
    for profile in (KORANYI, BUBBLE, CC):
        lo, hi = profile.domain
        s0 = lo + 0.37 * (hi - lo)
        span = (s0 - 0.01 * (hi - lo), s0 + 0.01 * (hi - lo))
        curve = sf.flow_curve(profile, float(s0), 0.4, span, n=16)
        i = curve.tau.size // 2
        phi = float(np.angle(curve.z[i]))
        n1, n2 = sf.horizontal_normal_components(profile, float(curve.tau[i]), phi)
        dz = curve.dz[i]
        inner = float(n1) * dz.real + float(n2) * dz.imag
        scale = float(np.hypot(n1, n2)) * abs(dz)
        assert abs(inner) / scale < 1e-10


def test_induced_form_matches_contact_eval():
    # omega restricted to the surface: Im(dp*) ds - 2 Re(p*) dphi... evaluated
    # as contact_eval on pushed-forward basis vectors
    profile = CC
    h = 1e-7
    for s in interior_grid(profile, 9):
        ps, dps = koranyi_image(profile, float(s))
        for phi in (0.0, 1.1):
            # the point, then steps +-h in s and in phi
            z, t = sf.patch_xyz(profile, s + np.array([0.0, h, -h, 0.0, 0.0]),
                                phi + np.array([0.0, 0.0, 0.0, h, -h]))
            dz, dt = (z[1::2] - z[2::2]) / (2 * h), (t[1::2] - t[2::2]) / (2 * h)
            base = HPoint(complex(z[0]), float(t[0]))
            v_s = TangentVector(base, dz[0].real, dz[0].imag, dt[0])
            v_phi = TangentVector(base, dz[1].real, dz[1].imag, dt[1])
            assert contact_eval(v_s) == pytest.approx(float(np.imag(dps)),
                                                      rel=1e-6, abs=1e-6)
            assert contact_eval(v_phi) == pytest.approx(-2.0 * float(np.real(ps)),
                                                        rel=1e-6, abs=1e-6)


# -- area ---------------------------------------------------------------------


def test_koranyi_area_oracle():
    assert sf.horizontal_area(KORANYI) == pytest.approx(AREA_KORANYI_R1, rel=1e-9)


def test_bubble_area_closed_form():
    # 2 pi int_0^{2pi} 2 sin(s/2) * |4 sin(s/2)| ds-type integral collapses
    # to 16 pi^2 for R = 1
    assert sf.horizontal_area(BUBBLE) == pytest.approx(16.0 * math.pi ** 2, rel=1e-9)


@pytest.mark.parametrize("R", [0.5, 2.0])
def test_area_scales_as_R_cubed(R):
    base = sf.horizontal_area(KORANYI)
    scaled = sf.horizontal_area(catalog("koranyi_sphere", R))
    assert scaled == pytest.approx(R ** 3 * base, rel=1e-10)


# -- foliation ----------------------------------------------------------------


def test_flow_curves_are_horizontal():
    for profile in (KORANYI, BUBBLE, CC):
        lo, hi = profile.domain
        s0 = 0.5 * (lo + hi)
        span = (lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        curve = sf.flow_curve(profile, s0, 0.25, span, n=512)
        assert curve.residual < 1e-10


def test_flow_curve_stays_on_surface():
    profile = BUBBLE
    curve = sf.flow_curve(profile, 3.0, 0.0, (0.5, 5.5), n=256)
    f, _, _, g, _, _ = profile.eval(curve.tau)
    assert np.max(np.abs(np.abs(curve.z) - f)) < 1e-12
    assert np.max(np.abs(curve.t - g)) < 1e-12


def _cli_span(profile):
    lo, hi = profile.domain
    return lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo)


def _phase_error(curve, phase):
    """Largest |angle(z e^(-i phase))|: how far the curve's phase is from ``phase``."""
    return float(np.max(np.abs(np.angle(curve.z * np.exp(-1j * phase)))))


@pytest.mark.parametrize("name, rate", [("koranyi_sphere", lambda R: 0.5),
                                        ("bubble_set", lambda R: 0.5 / R)])
@pytest.mark.parametrize("R", [1.0, 0.7])
@pytest.mark.parametrize("n", [16, 1024])
def test_flow_phase_is_linear_on_koranyi_and_bubble(name, rate, R, n):
    # the contact residual cannot see phi; here Im dp* / (2 Re p*) is constant
    profile = catalog(name, R)
    span = _cli_span(profile)
    s0, phi0 = 0.4 * span[0] + 0.6 * span[1], 0.25
    curve = sf.flow_curve(profile, s0, phi0, span, n=n)
    assert _phase_error(curve, phi0 + rate(R) * (curve.tau - s0)) <= 1e-9


def test_flow_phase_matches_quadrature_on_cc():
    from scipy import integrate as si

    span = _cli_span(CC)
    s0, phi0 = 0.3, 0.25
    curve = sf.flow_curve(CC, s0, phi0, span, n=64)
    rate = lambda s: float(sf.flow_phase_rate(CC, s))
    ref = phi0 + np.array([si.quad(rate, s0, s, epsabs=1e-13, epsrel=1e-13)[0]
                           for s in curve.tau])
    assert _phase_error(curve, ref) <= 1e-9


def test_flow_span_must_contain_anchor():
    with pytest.raises(ValueError):
        sf.flow_curve(BUBBLE, 0.2, 0.0, (1.0, 5.0))


# -- mean curvature -----------------------------------------------------------


def test_bubble_mean_curvature_constant():
    for R in (1.0, 2.0):
        profile = catalog("bubble_set", R)
        for s in interior_grid(profile, 17):
            assert sf.mean_curvature(profile, float(s)) == pytest.approx(1.0 / R,
                                                                       rel=1e-9)


def test_koranyi_mean_curvature_closed_form():
    # 3 sqrt(-cos beta) / R, the equator beta = pi (where fd = 0) included
    for R in (1.0, 1.5):
        profile = catalog("koranyi_sphere", R)
        for beta in np.linspace(BETA_LO + 0.2, BETA_HI - 0.2, 13):
            want = 3.0 * math.sqrt(-math.cos(beta)) / R
            assert sf.mean_curvature(profile, float(beta)) == pytest.approx(
                want, rel=1e-8)


def test_koranyi_equator_is_finite_where_fd_vanishes():
    # fd(pi) = 0, but dp* != 0 and f != 0 there, so H^h is defined
    assert sf.mean_curvature(KORANYI, math.pi) == pytest.approx(3.0, rel=1e-12)


def test_mean_curvature_matches_projected_curvature_oracle():
    # signed curvature of the planar projection of the flow curve, computed
    # by finite differences of an independently integrated flow
    for profile in (KORANYI, BUBBLE):
        lo, hi = profile.domain
        for frac in (0.3, 0.62):
            s0 = lo + frac * (hi - lo)
            span = (s0 - 0.01 * (hi - lo), s0 + 0.01 * (hi - lo))
            curve = sf.flow_curve(profile, float(s0), 0.0, span, n=64)
            i = curve.tau.size // 2
            dz = curve.dz[i]
            h = curve.tau[1] - curve.tau[0]
            ddz = (curve.dz[i + 1] - curve.dz[i - 1]) / (2 * h)
            kappa = float(np.imag(np.conj(dz) * ddz) / np.abs(dz) ** 3)
            assert sf.mean_curvature(profile, float(s0)) == pytest.approx(
                kappa, rel=1e-4)


def _scalar_or_nan(profile, s):
    try:
        return sf.mean_curvature(profile, float(s))
    except sf.CurvatureError:
        return math.nan


def test_mean_curvature_array_matches_scalar_bit_for_bit():
    for profile in (KORANYI, BUBBLE, CC):
        s = interior_grid(profile, 257, margin=0.001)
        got = sf.mean_curvature(profile, s)
        assert got.shape == s.shape
        want = np.array([_scalar_or_nan(profile, v) for v in s])
        assert np.array_equal(got, want)
        assert np.all(np.isfinite(got))


def test_mean_curvature_array_recovers_koranyi_equator_without_warnings():
    # fd(pi) = 0 inside an array, and the call raises no RuntimeWarning (the
    # suite turns those into errors)
    beta = np.array([BETA_LO + 0.3, math.pi, BETA_HI - 0.3])
    got = sf.mean_curvature(KORANYI, beta)
    assert got[1] == pytest.approx(3.0, rel=1e-12)
    assert got[1] == sf.mean_curvature(KORANYI, math.pi)
    assert got[0] == pytest.approx(3.0 * math.sqrt(-math.cos(beta[0])), rel=1e-8)


def test_mean_curvature_nan_in_array_where_scalar_raises():
    # fd and gd both vanish at s = 1, so dp* = 0 and H^h is undefined there:
    # it jumps from +1/sqrt(8) to -1/sqrt(8)
    profile = parse_profile("f = 1 + (s - 1)^2/2\ng = (s - 1)^2\ndomain = (0, 2)\n")
    near = sf.mean_curvature(profile, np.array([1.0 - 1e-3, 1.0 + 1e-3]))
    assert near == pytest.approx([8 ** -0.5, -(8 ** -0.5)], rel=1e-4)
    s = np.array([0.5, 1.0, 1.5])
    got = sf.mean_curvature(profile, s)
    assert np.isnan(got[1]) and np.all(np.isfinite(got[[0, 2]]))
    with pytest.raises(sf.CurvatureError):
        sf.mean_curvature(profile, 1.0)
    assert got[0] == sf.mean_curvature(profile, 0.5)
    assert got[2] == sf.mean_curvature(profile, 1.5)


def test_mean_curvature_continuous_at_double_zero_of_fd():
    # fd = 3 (s - 1)^2 has a double zero at s = 1, but dp* = -i and f = 2
    # there, so H^h is defined and continuous: 0.5 at s = 1
    profile = parse_profile("f = 2 + (s - 1)^3\ng = -s\ndomain = (0, 2)\n")
    got = sf.mean_curvature(profile, np.array([1.0 - 1e-4, 1.0, 1.0 + 1e-4]))
    assert got == pytest.approx([0.5096, 0.5, 0.4904], rel=1e-9)
    assert sf.mean_curvature(profile, 1.0) == got[1]


def test_geometry_row_at_koranyi_equator(tmp_path):
    # 1025 samples put the middle one at beta = pi, where fd = 0
    path = tmp_path / "k.csv"
    assert main(["geometry", "--surface", "koranyi", "--resolution", "1025",
                 "--csv", str(path)]) == 0
    rows = path.read_text().splitlines()[1:]
    s, _, _, _, hh = rows[512].split(",")
    assert float(s) == pytest.approx(math.pi, abs=1e-15)
    assert float(hh) == pytest.approx(3.0, rel=1e-12)


# -- mesh export --------------------------------------------------------------


def test_export_mesh(tmp_path):
    obj = tmp_path / "bubble.obj"
    obj_path, csv_path = sf.export_mesh(BUBBLE, str(obj), n_s=16, n_phi=8)
    lines = obj.read_text().splitlines()
    verts = [ln for ln in lines if ln.startswith("v ")]
    faces = [ln for ln in lines if ln.startswith("f ")]
    assert len(verts) == 16 * 8
    assert len(faces) == 2 * 15 * 8
    header = (tmp_path / "bubble_vertices.csv").read_text().splitlines()[0]
    assert header == "s,phi,x,y,t,Nh_norm,Hh"


def test_mesh_vertices_satisfy_surface_identity(tmp_path):
    # gauge / |p*(arg alpha)|^(1/2) = R at every vertex
    from heisring import modulus as M
    from heisring.profiles import reparam_by_argument

    obj = tmp_path / "scaled.obj"
    sf.export_mesh(catalog("bubble_set", 2.0), str(obj), n_s=12, n_phi=6)
    prof = reparam_by_argument(catalog("bubble_set", 1.0))
    ring = M.RevolutionRing(prof, 1.0, 3.0)
    for line in obj.read_text().splitlines():
        if not line.startswith("v "):
            continue
        _, x, y, t = line.split()
        ratio = float(M.boundary_ratio(ring, complex(float(x), float(y)),
                                       float(t)))
        assert ratio == pytest.approx(2.0, abs=1e-9)
