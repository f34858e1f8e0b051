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
    ends = md.boundary_ratio(RING, q.z[[0, -1]], q.t[[0, -1]])
    assert ends == pytest.approx([1.0, 2.0], abs=1e-9)
    inner, outer = (heis.HPoint(complex(q.z[i]), float(q.t[i])) for i in (0, -1))
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
        r0, r1 = md.boundary_ratio(RING_B, curve.z[[0, -1]], curve.t[[0, -1]])
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
    flow = sf.flow_curve(catalog("koranyi_sphere", 1.0), 3.0, 0.0,
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


# min and mean of 300 random curves (seed0=0, n=256); any change in the
# generators or the line integral shows here (the cc mean moved one ulp when
# the by-argument derivatives moved to real arithmetic)
ADMISSIBILITY_300 = {
    "koranyi": ("0x1.22020a40d2baep+0", "0x1.1adb6accff9b1p+1"),
    "bubble": ("0x1.2864151506c05p+0", "0x1.1e45d78c95ba3p+1"),
    "cc": ("0x1.1becba807f0d5p+0", "0x1.1f8b3c0916cb4p+1"),
}


def test_admissibility_report_is_pinned(surface_ring):
    name, ring = surface_ring
    rep = md.admissibility_report(ring, cv.random_family(ring, 300, seed0=0, n=256))
    assert (rep.min.hex(), rep.mean.hex()) == ADMISSIBILITY_300[name]


# float.hex of (Re z, Im z, t, Re dz, Im dz, dt) at rows (0, last) x samples
# (0, 32, 64) of random_family(ring, 20, seed0=0, n=64) and
# quasiradial_family(ring, 3, 3, n=64) on the (1, 2) ring
FAMILY_PINS = {
    ("bubble", "random"): (
        ("0x1.0513a2d59654ap-3", "-0x1.f61103bfec1e6p+0", "0x1.797625398e338p+0",
         "0x1.a2cdfd9336decp+1", "-0x1.4c0383ed17b8ap+0", "-0x1.90191a1fde2edp+3"),
        ("-0x1.077cadc697052p+0", "-0x1.1084d6ebf84c8p+1", "0x1.056068a2063c9p+3",
         "-0x1.70aec0081e20ap+1", "-0x1.34aebeb45e457p+0", "0x1.390b84a340a45p+3"),
        ("0x1.58feb5a0de6c5p-1", "-0x1.f6693b5d1188ep+1", "-0x1.7e215778e23c8p+1",
         "0x1.fccb74d45e532p+0", "-0x1.94b7240f2e5e2p+1", "-0x1.6ae9dcf01d63cp+3"),
        ("-0x1.9f1b81cd02feep-1", "-0x1.d2dd2995c291dp+0", "-0x1.0991c872e5c80p-1",
         "-0x1.92c6048667e98p+1", "-0x1.3522788c3268ap-3", "0x1.676f24eac3f66p+3"),
        ("-0x1.2ddbae0085eeap+0", "-0x1.47216e21cd5abp+1", "-0x1.489d48e77c06ap-3",
         "-0x1.61de5580d1b1ap+2", "0x1.bdacc8598e5e0p-1", "0x1.e5095eb1a45d3p+4"),
        ("-0x1.00e6a85a634ebp+1", "-0x1.baa7abd681abcp+1", "0x1.c7420333d6640p-1",
         "-0x1.1eeb16620c066p+2", "-0x1.5dcacc880f8bdp-2", "0x1.da2d712c0df60p+4"),
    ),
    ("bubble", "quasiradial"): (
        ("0x1.cfd8a279130e1p+0", "0x0.0p+0", "0x1.a438a982432d6p+1",
         "0x1.cfd8a279130e1p+0", "-0x1.cfd8a279130e3p+0", "0x1.a438a982432d6p+2"),
        ("0x1.347cbf00e4c3bp+1", "-0x1.bda42501fbd48p-1", "0x1.a438a982432d6p+2",
         "0x1.8a276b80cb9d1p+0", "-0x1.a3e5c84163b8ep+1", "0x1.a438a982432d6p+3"),
        ("0x1.64cefe07f1283p+1", "-0x1.2861392b59951p+1", "0x1.a438a982432d6p+3",
         "0x1.e36e26e4bc988p-2", "-0x1.46981b99a55ebp+2", "0x1.a438a982432d6p+4"),
        ("-0x1.cfd8a279130e7p-1", "-0x1.91b3dec406a2ap+0", "-0x1.a438a982432dcp+1",
         "0x1.538f1b0efa369p-1", "-0x1.3cd018004814ep+1", "-0x1.a438a982432dcp+2"),
        ("-0x1.ce13732041e2ep-2", "-0x1.42dcec22c96b0p+1", "-0x1.a438a982432dcp+2",
         "0x1.091a7dbec12e8p+1", "-0x1.7c9f5a86d1a75p+1", "-0x1.a438a982432dcp+3"),
        ("0x1.3912922178d08p-1", "-0x1.c931f6a50b301p+1", "-0x1.a438a982432dcp+3",
         "0x1.0bbb4d96b4b20p+2", "-0x1.7aed521cacfbfp+1", "-0x1.a438a982432dcp+4"),
    ),
    ("cc", "random"): (
        ("0x1.f906476457c66p-5", "-0x1.e598b5a6171c8p-1", "0x1.611a5c93c3b05p-2",
         "0x1.65fabff5b3a83p+0", "-0x1.38e9e464f48e1p+0", "-0x1.403a63c630c32p+1"),
        ("-0x1.ea217b343905ep-3", "-0x1.cb924713c9586p-1", "0x1.42ac8716e5a81p+0",
         "-0x1.4f62787af9f7fp+0", "-0x1.8f99b1be87813p-1", "0x1.fa7323209121ap+0"),
        ("0x1.433c6e3573af3p-2", "-0x1.f2dc950fbdd27p+0", "-0x1.7791522294806p-1",
         "0x1.e49a061ebddd3p-1", "-0x1.82aa013acee4ap+0", "-0x1.5e1ca5c16f854p+1"),
        ("-0x1.9d5ec65658fc3p-2", "-0x1.d0e8fae1ea05bp-1", "-0x1.0759eddfe9e0dp-3",
         "-0x1.9f14160da048cp+0", "-0x1.094ad83698d4ep-2", "0x1.5e21151cfeccap+1"),
        ("-0x1.2d97242bc4642p-1", "-0x1.4726d20202f3ep+0", "-0x1.488c08fafd700p-5",
         "-0x1.64a9120c18630p+1", "0x1.8926c48951648p-2", "0x1.e4bcb6e39ff68p+2"),
        ("-0x1.00878a535d91dp+0", "-0x1.ba69fe75d013dp+0", "0x1.c68e4249dc4b1p-3",
         "-0x1.17bf3139648b7p+1", "-0x1.6c5ac37b128e7p-4", "0x1.d80b1116fad8fp+2"),
    ),
    ("cc", "quasiradial"): (
        ("0x1.8c9b40bca4d8dp-1", "0x0.0p+0", "0x1.333857378966ap-1",
         "0x1.8c9b40bca4d8dp-1", "-0x1.8c9b40bca4d8fp-1", "0x1.333857378966ap+0"),
        ("0x1.07c4c02f9eaebp+0", "-0x1.7d0a5a8b30f0dp-2", "0x1.333857378966ap+0",
         "0x1.51045319a4e4fp-1", "-0x1.670756d26aeafp+0", "0x1.333857378966ap+1"),
        ("0x1.3115ca175223bp+0", "-0x1.fad513edf8befp-1", "0x1.333857378966ap+1",
         "0x1.9d5a0102ae214p-3", "-0x1.17402a072741ap+1", "0x1.333857378966ap+2"),
        ("-0x1.8c9b40bca4d94p-2", "-0x1.5778a4eeeec62p-1", "-0x1.3338573789669p-1",
         "0x1.2256092138b2cp-2", "-0x1.0ee322a6a0995p+0", "-0x1.3338573789669p+0"),
        ("-0x1.8b17c3216977dp-3", "-0x1.140f7197e9d3ep+0", "-0x1.3338573789669p+0",
         "0x1.c558f26779499p-1", "-0x1.457269fc1702dp+0", "-0x1.3338573789669p+1"),
        ("0x1.0bb06a8e590f9p-2", "-0x1.86eb6736ca6a0p+0", "-0x1.3338573789669p+1",
         "0x1.c9d781da60adcp+0", "-0x1.43ff4c9334262p+0", "-0x1.3338573789669p+2"),
    ),
}


@pytest.mark.parametrize("name, kind", sorted(FAMILY_PINS))
def test_family_samples_are_pinned(name, kind):
    ring = md.make_ring(catalog(SURFACES[name], 1.0), 1.0, 2.0)
    fam = (cv.random_family(ring, 20, seed0=0, n=64) if kind == "random"
           else cv.quasiradial_family(ring, 3, 3, n=64))
    got = tuple(tuple(float(v).hex() for v in (fam.z[i, j].real, fam.z[i, j].imag, fam.t[i, j],
                                               fam.dz[i, j].real, fam.dz[i, j].imag, fam.dt[i, j]))
                for i in (0, len(fam) - 1) for j in (0, 32, 64))
    assert got == FAMILY_PINS[name, kind]


def test_random_family_phase_matches_refined_integration(monkeypatch, surface_ring):
    # the residual dt + 2|z|^2 dphi does not involve phi itself, so it cannot
    # see the error of the cumulative-Simpson phase; a 4x finer grid does
    _, ring = surface_ring
    fam = cv.random_family(ring, 300, seed0=0, n=256)
    monkeypatch.setattr(cv, "REFINE", 16)
    ref = cv.random_family(ring, 300, seed0=0, n=256)
    assert np.max(np.abs(fam.phi - ref.phi)) < 2e-8


# float.hex of (c, d, phase, center, phi0), recorded when each curve drew its
# parameters with its own sequence of Generator.uniform calls
DRAWS = {
    0: (["-0x1.f90b6ef1442abp-6", "-0x1.0b3acb8162553p-6", "-0x1.91c5df7e34286p-6",
         "0x1.0a6912755cd64p-8"],
        ["0x1.82e33eed5d2b7p-2", "0x1.a52130c1c41d2p-2", "-0x1.aa93ecec112a7p-3",
         "-0x1.0835979db1eccp-2"],
        ["0x1.1e320e95dab6ep+2", "0x1.a646f89ada959p-1", "0x1.cc653ed8acd96p+1",
         "0x1.9a2b1e46dc6e0p+0"],
        "0x1.810b417c086d8p+1", "0x1.31bf40f461772p+2"),
    1: (["-0x1.8cd1660b7c5fep-7", "0x1.6037e77aef52bp-6", "-0x1.5b537b46a34c4p-6",
         "-0x1.d99ce0d184b04p-6"],
        ["0x1.4c56ed8f3c21fp-3", "-0x1.5810535549ad5p-3", "-0x1.f196b0a7c780ep-5",
         "-0x1.c0e559c4bfc9cp-3"],
        ["0x1.a5197dc924f21p+0", "0x1.49a536a73cc19p+2", "0x1.284e2dc57c76dp+2",
         "0x1.e3bff2a69757fp+1"],
        "0x1.6fb8fafc29aa1p+1", "0x1.2740ae207a441p+1"),
    2703: (["-0x1.0bf2f03a7a928p-8", "0x1.1d7967386cd13p-7", "-0x1.e414afe74d001p-8",
            "-0x1.6050277616685p-7"],
           ["-0x1.7a7e6dfb45c74p-1", "-0x1.941057a4dab4ep-3", "0x1.96d9b528cf897p-3",
            "0x1.bd2e48a18ec7ep-8"],
           ["0x1.5203dbd200f60p+2", "0x1.02c9fc7d91420p+1", "0x1.cb8516f23e1e0p-3",
            "0x1.f76fd411f10b8p+1"],
           "0x1.7065788b0c060p+1", "0x1.1fee1e5564bcbp-1"),
    10 ** 6: (["0x1.0be0b23eb5f75p-7", "0x1.44c74b0478364p-7", "0x1.e041705c2f6bep-8",
               "-0x1.3a67c7937ec12p-8"],
              ["0x1.5865c0354f1b8p-2", "0x1.6338ecac29e99p-2", "-0x1.1dfbd0ed9b8cep-2",
               "-0x1.4ebda67a026dfp-4"],
              ["0x1.2a56bbda59e9bp+2", "0x1.64d36ba86940fp+2", "0x1.591d6baec8dfep+1",
               "0x1.8492d4d9c69b0p+0"],
              "0x1.768ffa36058ccp+1", "0x1.b76ea49981672p-3"),
}


def test_random_draws_are_pinned():
    c, d, phase, center, phi0 = cv._random_draws(list(DRAWS))
    for i, want in enumerate(DRAWS.values()):
        got = tuple([v.hex() for v in a[i]] for a in (c, d, phase))
        assert got + (center[i].hex(), phi0[i].hex()) == want


def test_from_samples_needs_a_uniform_grid():
    curve = cv.cc_lift(1.5, 1.3, n=16)
    samples = (curve.z, curve.t, curve.dz, curve.dt)
    for tau in (curve.tau + 1e-9 * np.arange(17) ** 2, np.geomspace(0.1, 1.3, 17)):
        with pytest.raises(ValueError, match="uniform"):
            cv.HorizontalCurve.from_samples(tau, *samples)
    rounded = curve.tau * (1.0 + 1e-15 * (-1.0) ** np.arange(17))  # rounding-level deviations
    assert cv.HorizontalCurve.from_samples(rounded, *samples).residual == curve.residual


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
