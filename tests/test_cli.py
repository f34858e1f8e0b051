"""Command line front end: exit codes, output formats, file artifacts."""

import json
import math

import pytest

from heisring import curves, modulus
from heisring.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_catalog_passes(capsys):
    code, out, _ = run(capsys, "validate", "--surface", "koranyi")
    assert code == 0
    assert "pass" in out
    assert out.startswith("#")  # reproducibility header


def test_validate_cc_reports_failure(capsys):
    code, out, _ = run(capsys, "validate", "--surface", "cc")
    assert code == 1
    assert "FAIL" in out and "g is not decreasing" in out


def test_validate_bad_profile_file(tmp_path, capsys):
    prof = tmp_path / "bad.prof"
    prof.write_text("f = sin(s); g = s - pi/2; domain = (0, pi)\n")
    code, out, _ = run(capsys, "validate", "--profile", str(prof))
    assert code == 1
    assert "FAIL" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "--profile", "/nonexistent.prof")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("source, message", [
    ("f = 2*sin(s/2)\ng = 2*sin(s) - 2*s + 2*pi\ndomain = (0, 2*pi)\nh = 2",
     "unknown statement 'h'"),
    ("param a = 10^400\nf = a*sin(s); g = 2*sin(s) - 2*s + 2*pi; domain = (0, 2*pi)",
     "'10^400' in statement 'param a = 10^400' is not a finite real number"),
    ("f = 2*sin(s/2) + 1/0; g = 2*sin(s) - 2*s + 2*pi; domain = (0, 2*pi)",
     "'1/0' in statement 'f = 2*sin(s/2) + 1/0' is not a finite real number"),
], ids=["unknown-statement", "overflow", "division-by-zero"])
def test_malformed_profile_file_is_a_usage_error(tmp_path, capsys, source, message):
    prof = tmp_path / "bad.prof"
    prof.write_text(source)
    for cmd in (["validate"], ["modulus", "--a", "1", "--b", "2"]):
        code, out, err = run(capsys, *cmd, "--profile", str(prof))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot parse profile file {prof}: ") and message in err


SUBCOMMANDS = [["validate"], ["modulus", "--a", "1", "--b", "2"], ["geometry"],
               ["export-mesh"]]


@pytest.mark.parametrize("cmd", SUBCOMMANDS, ids=lambda c: c[0])
def test_radius_with_profile_file_is_a_usage_error(tmp_path, capsys, cmd):
    prof = tmp_path / "bubble.prof"
    prof.write_text("f = 2*sin(s/2); g = 2*sin(s) - 2*s + 2*pi; domain = (0, 2*pi)")
    code, out, err = run(capsys, *cmd, "--profile", str(prof), "--R", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: --R sets the radius of a catalog surface")


@pytest.mark.parametrize("R", ["0", "-1", "nan"])
@pytest.mark.parametrize("cmd", SUBCOMMANDS, ids=lambda c: c[0])
def test_radius_must_be_positive(capsys, cmd, R):
    code, out, err = run(capsys, *cmd, "--surface", "bubble", "--R", R)
    assert (code, out) == (2, "")
    assert err == f"error: --R must be positive, got {float(R):g}\n"


@pytest.mark.parametrize("cmd", SUBCOMMANDS[:2], ids=lambda c: c[0])
def test_grid_below_16_is_a_usage_error(capsys, cmd):
    code, out, err = run(capsys, *cmd, "--surface", "bubble", "--grid", "15")
    assert (code, out) == (2, "")
    assert err == "error: --grid must be at least 16, got 15\n"


def test_validate_profile_and_surface_conflict(capsys):
    code, _, err = run(capsys, "validate", "--surface", "koranyi",
                       "--profile", "x.prof")
    assert code == 2


def test_modulus_json_schema(capsys):
    code, out, _ = run(capsys, "modulus", "--surface", "koranyi",
                       "--a", "1", "--b", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["surface", "a", "b", "analytic", "numeric",
                             "rel_err", "quad_error", "quad_subdivisions"]
    assert payload["analytic"] == pytest.approx(29.636257682862013)
    assert payload["rel_err"] <= 1e-8
    assert 0.0 <= payload["quad_error"] <= 1e-9 * payload["numeric"]
    assert payload["quad_subdivisions"] == 0


@pytest.mark.parametrize("extra, ran", [((), 0), (("--curves", "3"), 3)])
def test_modulus_header_reports_curves_run(capsys, extra, ran):
    code, out, _ = run(capsys, "modulus", "--surface", "koranyi",
                       "--a", "1", "--b", "2", *extra)
    assert code == 0
    seed = " seed=0" if ran else ""  # the seed shows only when a random check ran
    assert out.splitlines()[0] == (  # random_family's 256 samples per curve ran
        f"# tol=1e-08{seed} curves={ran} resolution={256 if ran else 0}")


@pytest.mark.parametrize("extra", [(), ("--json",), ("--seed", "5")])
def test_modulus_header_resolution_is_what_ran(monkeypatch, capsys, extra):
    original, built = curves.random_family, []

    def recording_family(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(curves, "random_family", recording_family)
    code, out, err = run(capsys, "modulus", "--surface", "bubble", "--a", "1",
                         "--b", "2", "--curves", "2", *extra)
    assert code == 0 and len(built) == 1
    header = (err if "--json" in extra else out).splitlines()[0]
    assert header.endswith(f" curves=2 resolution={built[0].tau.size - 1}")
    assert built[0].z.shape == (2, 257)


@pytest.mark.parametrize("argv", [
    ("modulus", "--surface", "koranyi", "--a", "1", "--b", "2", "--scale", "5"),
    ("modulus", "--surface", "koranyi", "--a", "1", "--b", "2", "--resolution", "7"),
    ("modulus", "--surface", "koranyi", "--a", "1", "--b", "2", "--csv", "x.csv"),
    ("validate", "--surface", "koranyi", "--tol", "1e-3"),
    ("geometry", "--surface", "koranyi", "--seed", "3"),
    ("export-mesh", "--surface", "koranyi", "--grid", "64"),
    ("geometry", "--surface", "koranyi", "--scale", "2"),
    ("export-mesh", "--surface", "koranyi", "--scale", "2"),
])
def test_flags_a_subcommand_ignores_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_header_lists_only_settings_that_ran(tmp_path, capsys):
    _, out, _ = run(capsys, "validate", "--surface", "koranyi")
    assert out.splitlines()[0] == "# grid=4096"
    _, out, _ = run(capsys, "modulus", "--surface", "koranyi", "--a", "1",
                    "--b", "2", "--oracle")
    assert out.splitlines()[0] == "# tol=1e-08 seed=0 curves=0 resolution=0"
    _, out, _ = run(capsys, "geometry", "--surface", "koranyi", "--resolution", "8",
                    "--csv", str(tmp_path / "g.csv"))
    assert out.splitlines()[0] == "# resolution=8"
    _, out, _ = run(capsys, "export-mesh", "--surface", "koranyi", "--ns", "4",
                    "--nphi", "4", "--R", "2", "--out", str(tmp_path / "m.obj"))
    assert out.splitlines()[0] == "# ns=4 nphi=4"


def test_modulus_with_curves_and_oracle(capsys):
    code, out, _ = run(capsys, "modulus", "--surface", "bubble",
                       "--a", "1", "--b", "2", "--curves", "10",
                       "--seed", "7", "--oracle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["admissibility"]["n"] == 10
    assert payload["admissibility"]["min"] >= 0.999
    assert payload["oracle"]["max_dev_from_uniform"] <= 1e-6


@pytest.mark.parametrize("check, part", [
    ("admissibility", {"admissibility": {"n": 10, "min": 0.99, "mean": 1.2}}),
    ("oracle", {"oracle": {"value": 29.6, "max_dev_from_uniform": 1e-3}}),
])
def test_modulus_exit_code_reflects_every_check(monkeypatch, capsys, check, part):
    # rel_err passes; the exit code must still report the failing check
    def fake_report(ring, name, **kwargs):
        return {"surface": name, "a": ring.a, "b": ring.b, "analytic": 1.0,
                "numeric": 1.0, "rel_err": 0.0, **part}
    monkeypatch.setattr(modulus, "modulus_report", fake_report)
    for extra in ((), ("--json",)):
        code, _, err = run(capsys, "modulus", "--surface", "koranyi", "--a", "1",
                           "--b", "2", "--curves", "10", "--oracle", *extra)
        assert code == 1
        assert f"check failed: {check}" in err


@pytest.mark.parametrize("source", [
    "f = sqrt(-cos(s))\ng = sin(s)\ndomain = (pi/2, 3*pi/2)\n",
    "f = sin(s)^0.5\ng = cos(s)\ndomain = (0, pi)\n",
], ids=["cos_sin", "sin_cos"])
def test_modulus_accepts_profiles_parametrized_by_argument(tmp_path, capsys, source):
    # beta'(s) stays bounded at both ends, unlike the catalog profiles
    path = tmp_path / "profile.txt"
    path.write_text(source)
    code, out, err = run(capsys, "modulus", "--profile", str(path), "--a", "1", "--b", "2",
                         "--curves", "50", "--json")
    assert code == 0, err
    assert json.loads(out.splitlines()[-1])["rel_err"] <= 1e-12


def test_modulus_reversed_bounds_usage_error(capsys):
    code, _, err = run(capsys, "modulus", "--surface", "koranyi",
                       "--a", "2", "--b", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("extra, message", [
    (["--tol", "0"], "--tol must be positive and finite, got 0"),
    (["--tol", "-1"], "--tol must be positive and finite, got -1"),
    (["--tol", "nan"], "--tol must be positive and finite, got nan"),
    (["--tol", "inf"], "--tol must be positive and finite, got inf"),
    (["--seed", "-1", "--curves", "2"], "--seed must be in [0, 2**128 - N] with --curves N"),
    (["--seed", str(2 ** 128 - 1), "--curves", "2"], "--seed must be in [0, 2**128 - N]"),
    (["--seed", str(2 ** 128)], "--seed must be in [0, 2**128 - N]"),
    (["--curves", "0"], "--curves must be at least 1, got 0"),
    (["--curves", "-5"], "--curves must be at least 1, got -5"),
    (["--b", "inf"], "--a and --b need 0 < a < b < inf, got a=1.0, b=inf"),
    (["--a", "nan"], "--a and --b need 0 < a < b < inf, got a=nan, b=2.0"),
    (["--seed", "5"], "--seed seeds only --curves and --oracle"),
])
def test_modulus_flags_that_cannot_run_are_usage_errors(monkeypatch, capsys, extra, message):
    # each is rejected before any computation starts
    monkeypatch.setattr(modulus, "make_ring", None)
    code, out, err = run(capsys, "modulus", "--surface", "koranyi", "--a", "1", "--b", "2",
                         *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_modulus_takes_the_last_seed_philox_accepts(capsys):
    code, out, err = run(capsys, "modulus", "--surface", "koranyi", "--a", "1", "--b", "2",
                         "--seed", str(2 ** 128 - 2), "--curves", "2")
    assert code == 0, err
    assert "admissibility n     2" in out


def test_modulus_deterministic(capsys):
    _, out1, _ = run(capsys, "modulus", "--surface", "koranyi",
                     "--a", "1", "--b", "2", "--curves", "3", "--json")
    _, out2, _ = run(capsys, "modulus", "--surface", "koranyi",
                     "--a", "1", "--b", "2", "--curves", "3", "--json")
    assert out1 == out2


def test_geometry_writes_csv_and_area(tmp_path, capsys):
    csv_path = tmp_path / "geom.csv"
    code, out, _ = run(capsys, "geometry", "--surface", "koranyi",
                       "--csv", str(csv_path), "--resolution", "32")
    assert code == 0
    assert "15.0562742" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "s,f,g,Nh_norm,Hh"
    assert len(lines) == 33


def test_geometry_flow_curve_csv(tmp_path, capsys):
    csv_path = tmp_path / "cc.csv"
    code, out, _ = run(capsys, "geometry", "--surface", "cc",
                       "--csv", str(csv_path), "--flow", "0.5,0",
                       "--resolution", "64")
    assert code == 0
    flow_lines = (tmp_path / "cc_flow.csv").read_text().splitlines()
    assert flow_lines[0].endswith("residual")
    assert all(float(ln.rsplit(",", 1)[1]) <= 1e-8 for ln in flow_lines[1:])


def test_geometry_area_homogeneity(tmp_path, capsys):
    _, out1, _ = run(capsys, "geometry", "--surface", "koranyi",
                     "--csv", str(tmp_path / "a.csv"), "--resolution", "8")
    _, out2, _ = run(capsys, "geometry", "--surface", "koranyi", "--R", "2",
                     "--csv", str(tmp_path / "b.csv"), "--resolution", "8")

    def area(text):
        for line in text.splitlines():
            if line.startswith("horizontal area"):
                return float(line.split()[-1])
        raise AssertionError("area line missing")

    assert area(out2) == pytest.approx(8.0 * area(out1), rel=1e-9)


def test_geometry_csv_columns_describe_one_dilated_surface(tmp_path, capsys):
    # the Koranyi sphere of radius 2: f^4 + g^2 = 2^4 and H^h = 3 sqrt(-cos s) / 2
    path = tmp_path / "k2.csv"
    code, _, err = run(capsys, "geometry", "--surface", "koranyi", "--R", "2",
                       "--resolution", "16", "--csv", str(path))
    assert code == 0, err
    rows = [[float(v) for v in ln.split(",")] for ln in path.read_text().splitlines()[1:]]
    assert len(rows) == 16
    for s, f, g, _, hh in rows:
        assert f ** 4 + g ** 2 == pytest.approx(16.0, rel=1e-12)
        assert hh == pytest.approx(1.5 * math.sqrt(-math.cos(s)), rel=1e-9)


@pytest.mark.parametrize("argv", [
    ("geometry", "--surface", "koranyi", "--resolution", "0"),
    ("geometry", "--surface", "koranyi", "--resolution", "-3"),
    ("geometry", "--surface", "koranyi", "--flow", "1.0,0.0"),
    ("geometry", "--surface", "koranyi", "--flow", "3.0,nan"),
    ("geometry", "--surface", "koranyi", "--flow", "3.0,inf"),
    ("export-mesh", "--surface", "koranyi", "--ns", "0"),
    ("export-mesh", "--surface", "koranyi", "--nphi", "0"),
    ("export-mesh", "--surface", "koranyi", "--ns", "-2"),
])
def test_bad_geometry_and_mesh_flags_are_usage_errors(tmp_path, capsys, argv):
    # rejected before any file is written; koranyi's flow span excludes s0 = 1
    out = tmp_path / ("g.csv" if argv[0] == "geometry" else "m.obj")
    code, stdout, err = run(capsys, *argv, "--csv" if argv[0] == "geometry" else "--out",
                            str(out))
    assert code == 2
    assert err.startswith("error:") and stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_export_mesh_default_grid(tmp_path, capsys):
    out_path = tmp_path / "mesh.obj"
    code, out, _ = run(capsys, "export-mesh", "--surface", "bubble",
                       "--out", str(out_path))
    assert code == 0
    verts = [ln for ln in out_path.read_text().splitlines()
             if ln.startswith("v ")]
    assert len(verts) == 128 * 64


def test_export_mesh_scale_extents(tmp_path, capsys):
    paths = []
    for R in ("1", "2"):
        p = tmp_path / f"m{R}.obj"
        run(capsys, "export-mesh", "--surface", "koranyi", "--out", str(p),
            "--ns", "16", "--nphi", "8", "--R", R)
        paths.append(p)

    def extents(path):
        xs, ts = [], []
        for ln in path.read_text().splitlines():
            if ln.startswith("v "):
                _, x, y, t = ln.split()
                xs.append(math.hypot(float(x), float(y)))
                ts.append(abs(float(t)))
        return max(xs), max(ts)

    x1, t1 = extents(paths[0])
    x2, t2 = extents(paths[1])
    assert x2 == pytest.approx(2.0 * x1, rel=1e-12)
    assert t2 == pytest.approx(4.0 * t1, rel=1e-12)
