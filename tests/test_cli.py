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
                             "rel_err"]
    assert payload["analytic"] == pytest.approx(29.636257682862013)
    assert payload["rel_err"] <= 1e-8


@pytest.mark.parametrize("extra, ran", [((), 0), (("--curves", "3"), 3)])
def test_modulus_header_reports_curves_run(capsys, extra, ran):
    code, out, _ = run(capsys, "modulus", "--surface", "koranyi",
                       "--a", "1", "--b", "2", *extra)
    assert code == 0
    assert out.splitlines()[0] == (  # random_family's 256 samples per curve ran
        f"# tol=1e-08 seed=0 curves={ran} resolution={256 if ran else 0}")


@pytest.mark.parametrize("extra", [(), ("--json",), ("--resolution", "7")])
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


def test_modulus_reversed_bounds_usage_error(capsys):
    code, _, err = run(capsys, "modulus", "--surface", "koranyi",
                       "--a", "2", "--b", "1")
    assert code == 2
    assert "error" in err


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
    for scale in ("1", "2"):
        p = tmp_path / f"m{scale}.obj"
        run(capsys, "export-mesh", "--surface", "koranyi", "--out", str(p),
            "--ns", "16", "--nphi", "8", "--scale", scale)
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
