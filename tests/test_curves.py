"""Horizontal curves: certificates, lengths, line integrals, generators."""

import dataclasses
import math
import re

import numpy as np
import pytest

from heisring import curves as cv
from heisring import heis
from heisring import modulus as md
from heisring import surface as sf
from heisring.heis import dist, gauge
from heisring.profiles import BETA_HI, BETA_LO, catalog

RING = md.make_ring(catalog("koranyi_sphere", 1.0), 1.0, 2.0)
RING_B = md.make_ring(catalog("bubble_set", 1.0), 1.0, 2.0)


def length(curve):
    """Horizontal length: the line integral of the density 1."""
    return cv.line_integral(lambda z, t: np.ones_like(t), curve)


def test_cc_lift_unit_speed_and_length():
    for k in (-2.0, -0.5, 0.0, 1.0, 3.0):
        curve = cv.cc_lift(k, 1.0)
        assert curve.residual < 1e-12
        assert np.max(np.abs(np.abs(curve.dz) - 1.0)) < 1e-12
        assert length(curve) == pytest.approx(1.0, rel=1e-9)


def test_cc_lift_endpoint_on_cc_sphere_profile():
    prof = catalog("cc_sphere", 1.0)
    for k in (0.3, 1.5, -2.5):
        curve = cv.cc_lift(k, 1.0)
        z_end, t_end = curve.z[-1], curve.t[-1]
        f, _, _, g, _, _ = prof.eval(k)
        assert abs(z_end) == pytest.approx(f, rel=1e-10)
        assert t_end == pytest.approx(g, rel=1e-10, abs=1e-12)


def test_cc_lift_endpoint_at_cc_distance():
    # lifted arcs are geodesics up to a full turn, so the endpoint gauge
    # distance is bounded by the arc length
    from heisring.heis import HPoint
    for k in (0.5, 2.0):
        curve = cv.cc_lift(k, 1.0)
        p = HPoint(complex(curve.z[-1]), float(curve.t[-1]))
        assert gauge(p) <= 1.0 + 1e-12


def test_straight_lift_is_flat():
    curve = cv.cc_lift(0.0, 2.0, phi=0.7)
    assert np.max(np.abs(curve.t)) == 0.0
    assert length(curve) == pytest.approx(2.0)


# -- quasiradials --------------------------------------------------------------


def test_quasiradial_residual_and_endpoints():
    q = cv.quasiradial(RING, beta=2.2, phi0=0.4)
    assert q.residual < 1e-12
    inner, outer = q.endpoints
    assert float(md.boundary_ratio(RING, inner.z, inner.t)) == pytest.approx(1.0, abs=1e-9)
    assert float(md.boundary_ratio(RING, outer.z, outer.t)) == pytest.approx(2.0, abs=1e-9)
    assert gauge(inner) == pytest.approx(1.0, rel=1e-12)  # koranyi: |p*| = 1
    assert gauge(outer) == pytest.approx(2.0, rel=1e-12)


def test_quasiradial_unit_line_integral():
    rho = md.rho0_density(RING)
    for beta in np.linspace(BETA_LO + 0.1, BETA_HI - 0.1, 9):
        q = cv.quasiradial(RING, float(beta), 0.0)
        val, err = cv.line_integral(rho, q, with_error=True)
        assert val == pytest.approx(1.0, abs=1e-10)
        assert err < 1e-10


def test_quasiradial_rejects_band_edge():
    with pytest.raises(ValueError):
        cv.quasiradial(RING, BETA_LO, 0.0)


def test_quasiradial_family_shape():
    fam = cv.quasiradial_family(RING, n_beta=3, n_phi=4, n=32)
    assert len(fam) == 12
    assert all(c.residual < 1e-12 for c in fam)


# -- random curves -------------------------------------------------------------


def test_random_curve_reproducible():
    a = cv.random_horizontal_curve(RING_B, seed=42, n=128)
    b = cv.random_horizontal_curve(RING_B, seed=42, n=128)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.t, b.t)
    c = cv.random_horizontal_curve(RING_B, seed=43, n=128)
    assert not np.allclose(a.z, c.z)


def test_random_curves_connect_boundaries():
    for seed in range(8):
        curve = cv.random_horizontal_curve(RING_B, seed=seed, n=128)
        assert curve.residual < 1e-10
        inner, outer = curve.endpoints
        r0 = float(md.boundary_ratio(RING_B, inner.z, inner.t))
        r1 = float(md.boundary_ratio(RING_B, outer.z, outer.t))
        assert r0 == pytest.approx(1.0, abs=1e-9)
        assert r1 == pytest.approx(2.0, abs=1e-9)
        # interior samples stay inside the closed ring
        mid = md.boundary_ratio(RING_B, curve.z[1:-1], curve.t[1:-1])
        assert np.all(mid > 1.0 - 1e-9) and np.all(mid < 2.0 + 1e-9)


def test_random_family_is_seed_indexed():
    fam = cv.random_family(RING, 3, seed0=7, n=64)
    solo = cv.random_horizontal_curve(RING, seed=8, n=64)
    assert np.array_equal(fam[1].z, solo.z)
    assert np.shares_memory(fam[1].z, fam.z)  # rows are views, not copies


# -- measurements --------------------------------------------------------------


def test_length_of_ambient_circle_lift_matches_speed():
    curve = cv.cc_lift(1.0, 3.0)
    assert length(curve) == pytest.approx(3.0, rel=1e-9)


def test_line_integral_rejects_sloppy_curve():
    bad = cv.HorizontalCurve(
        tau=np.linspace(0, 1, 9), z=np.linspace(0, 1, 9) + 0j,
        t=np.linspace(0, 1, 9), dz=np.ones(9) + 0j, dt=np.ones(9),
        residual=1.0)
    with pytest.raises(cv.NotHorizontalError):
        cv.line_integral(lambda z, t: np.ones_like(t), bad)


def test_line_integral_of_one_is_length():
    # a Koranyi quasiradial has speed e^xi / sqrt(-cos beta), so length (b - a) / sqrt(-cos beta)
    curve = cv.quasiradial(RING, 2.0, 0.0, n=512)
    assert length(curve) == pytest.approx(1.0 / math.sqrt(-math.cos(2.0)), rel=1e-12)


def test_export_csv(tmp_path):
    quasi = cv.quasiradial(RING, 2.0, 0.0, n=16)
    flow = sf.flow_curve(sf.SurfacePatch(catalog("koranyi_sphere", 1.0)), 3.0, 0.0,
                         (2.9, 3.1), n=16)
    assert quasi.xi is not None and flow.xi is None
    for curve in (quasi, flow):
        path = curve.export_csv(str(tmp_path / "c.csv"))
        lines = open(path, newline="").read().split("\r\n")
        assert lines[0] == "tau,x,y,t,xi,beta,phi,residual"
        assert len(lines) == 19 and lines[-1] == ""  # every line ends in \r\n
        tilde = [getattr(curve, k) for k in ("xi", "beta", "phi")]
        for i, line in enumerate(lines[1:-1]):
            row = line.split(",")
            want = [curve.tau[i], curve.z[i].real, curve.z[i].imag, curve.t[i]]
            want += [math.nan if v is None else v[i] for v in tilde]
            # %.17g round-trips exactly; absent tilde arrays read nan
            assert np.array_equal([float(v) for v in row[:7]], want, equal_nan=True)
            assert re.fullmatch(r"\d\.\d{3}e[+-]\d\d", row[7])
            assert float(row[7]) == pytest.approx(curve.residual, rel=1e-3)
            assert float(row[7]) <= 1e-8
    # the last file written is the flow curve's
    assert all(line.split(",")[4:7] == ["nan"] * 3 for line in lines[1:-1])


# -- array families against single curves ------------------------------------

SURFACES = {"koranyi": "koranyi_sphere", "bubble": "bubble_set", "cc": "cc_sphere"}
FIELDS = ("z", "t", "dz", "dt", "residual")


@pytest.fixture(scope="module", params=sorted(SURFACES))
def surface_ring(request):
    return request.param, md.make_ring(catalog(SURFACES[request.param], 1.0), 1.0, 2.0)


def _same(a, b):
    """Bit-for-bit equality of float or complex arrays."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_random_family_rows_equal_single_curves(surface_ring):
    _, ring = surface_ring
    fam = cv.random_family(ring, 70, seed0=5, n=256)  # 70 curves span several chunks
    assert 70 * 1025 > cv.CHUNK_POINTS
    for i, row in enumerate(fam):
        solo = cv.random_horizontal_curve(ring, 5 + i, n=256)
        for name in FIELDS:
            assert _same(getattr(row, name), getattr(solo, name)), (i, name)


def test_random_family_chunking_is_exact(monkeypatch, surface_ring):
    _, ring = surface_ring
    chunked = cv.random_family(ring, 70, seed0=5, n=256)
    monkeypatch.setattr(cv, "CHUNK_POINTS", 70 * 1025 + 1)
    whole = cv.random_family(ring, 70, seed0=5, n=256)
    for name in FIELDS + cv.TILDE:
        assert _same(getattr(chunked, name), getattr(whole, name)), name
    rho = md.rho0_density(ring)
    lis = cv.line_integral(rho, chunked)
    monkeypatch.setattr(cv, "CHUNK_POINTS", 2 ** 14)
    assert _same(cv.line_integral(rho, chunked), lis)


def test_family_line_integral_equals_single_curves(surface_ring):
    _, ring = surface_ring
    rho = md.rho0_density(ring)
    fam = cv.random_family(ring, 70, seed0=5, n=256)
    batch, err = cv.line_integral(rho, fam, with_error=True)
    singles = [cv.line_integral(rho, c, with_error=True) for c in fam]
    assert isinstance(singles[0][0], float) and isinstance(singles[0][1], float)
    assert _same(batch, np.array([v for v, _ in singles]))
    assert _same(err, np.array([e for _, e in singles]))


def test_quasiradial_family_rows_equal_single_curves(surface_ring):
    _, ring = surface_ring
    fam = cv.quasiradial_family(ring, n_beta=5, n_phi=3, n=64)
    betas = BETA_LO + (BETA_HI - BETA_LO) * np.arange(1, 6) / 6
    phis = 2.0 * math.pi * np.arange(3) / 3
    for i, row in enumerate(fam):
        solo = cv.quasiradial(ring, float(betas[i // 3]), float(phis[i % 3]), n=64)
        for name in FIELDS + cv.TILDE:
            assert _same(getattr(row, name), getattr(solo, name)), (i, name)


# min and mean of 300 random curves (seed0=0, n=256), before the families
# became arrays; any change in the generators or the line integral shows here
ADMISSIBILITY_300 = {
    "koranyi": ("0x1.22020a40d2baep+0", "0x1.1adb6accff9b1p+1"),
    "bubble": ("0x1.2864151506c06p+0", "0x1.1e45d78c95ba3p+1"),
    "cc": ("0x1.1becba807f0d6p+0", "0x1.1f8b3c0916cb5p+1"),
}


def test_admissibility_report_is_pinned(surface_ring):
    name, ring = surface_ring
    rep = md.admissibility_report(ring, cv.random_family(ring, 300, seed0=0, n=256))
    assert (rep.min.hex(), rep.mean.hex()) == ADMISSIBILITY_300[name]


def test_random_family_phase_matches_refined_integration(monkeypatch, surface_ring):
    # the residual dt + 2|z|^2 dphi does not involve phi itself, so it cannot
    # see the error of the cumulative-Simpson phase; a 4x finer grid does
    _, ring = surface_ring
    fam = cv.random_family(ring, 300, seed0=0, n=256)
    monkeypatch.setattr(cv, "REFINE", 16)
    ref = cv.random_family(ring, 300, seed0=0, n=256)
    assert np.max(np.abs(fam.phi - ref.phi)) < 2e-8


def test_random_family_needs_a_curve():
    with pytest.raises(ValueError):
        cv.random_family(RING, 0)
    with pytest.raises(ValueError):
        cv.random_horizontal_curve(RING, [[1, 2]])


def test_array_parameters_give_families():
    seeds = np.array([3, 9, 4])
    fam = cv.random_horizontal_curve(RING_B, seeds, n=64)
    assert isinstance(fam, cv.CurveFamily) and fam.z.shape == (3, 65)
    for i, seed in enumerate(seeds):
        assert _same(fam.z[i], cv.random_horizontal_curve(RING_B, int(seed), n=64).z)
    # beta and phi0 broadcast; repeated betas share one p* evaluation
    grid = cv.quasiradial(RING_B, [2.0, 2.5, 2.0], 0.7, n=32)
    assert isinstance(grid, cv.CurveFamily) and grid.z.shape == (3, 33)
    assert _same(grid.z[0], grid.z[2])
    assert _same(grid.z[1], cv.quasiradial(RING_B, 2.5, 0.7, n=32).z)


# -- metamorphic: symmetries of the ring and of the group ----------------------


@pytest.mark.parametrize("theta", [0.3, 2.0, -4.1])
def test_rotation_about_t_axis_preserves_family(surface_ring, theta):
    _, ring = surface_ring
    rho = md.rho0_density(ring)
    fam = cv.random_family(ring, 20, seed0=11, n=256)
    rot = complex(math.cos(theta), math.sin(theta))
    z, dz = rot * fam.z, rot * fam.dz
    turned = dataclasses.replace(fam, z=z, dz=dz,
                                 residual=cv.contact_residual(z, dz, fam.dt))
    assert np.max(np.abs(turned.residual - fam.residual)) <= 1e-13
    before, after = cv.line_integral(rho, fam), cv.line_integral(rho, turned)
    assert np.max(np.abs(after - before) / before) <= 1e-13


def _push(sim, curve):
    """The image of a curve under an affine similarity, with its tangents."""
    pts = [sim(heis.HPoint(complex(z), float(t))) for z, t in zip(curve.z, curve.t)]
    base = sim(heis.ORIGIN)
    vel = [sim(heis.HPoint(complex(dz), float(dt))) for dz, dt in zip(curve.dz, curve.dt)]
    return cv.HorizontalCurve.from_samples(
        curve.tau, [p.z for p in pts], [p.t for p in pts],
        [v.z - base.z for v in vel], [v.t - base.t for v in vel])


@pytest.mark.parametrize("sim", [heis.rotation(0.7), heis.rotation(-2.5),
                                 heis.left_translation(heis.HPoint(0.8 - 1.3j, 0.4)),
                                 heis.left_translation(heis.HPoint(-2.0 + 0.5j, -3.0))])
def test_similarities_preserve_residual_and_length(sim):
    for k in (-2.0, 0.0, 1.5):
        curve = cv.cc_lift(k, 1.3, phi=0.2, n=256)
        image = _push(sim, curve)
        assert abs(image.residual - curve.residual) <= 1e-13
        assert length(image) == pytest.approx(length(curve), rel=1e-13)
