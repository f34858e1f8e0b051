"""The experiment scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

from heisring.profiles import CATALOG_NAMES

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_admissibility_histogram_writes_one_csv_per_surface(tmp_path):
    run_script("admissibility_histogram.py", "--count", "20", "--out", str(tmp_path))
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(f"admissibility_{name}.csv" for name in CATALOG_NAMES)
    assert len(written) == 3
    for path in tmp_path.glob("*.csv"):
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 20


def test_modulus_sweep_prints_one_row_per_surface(tmp_path):
    out = run_script("modulus_sweep.py", "--ratios", "2", "--mc-samples", "20000", cwd=tmp_path)
    rows = out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == list(CATALOG_NAMES)
    assert all(float(row.split()[1]) == 2.0 for row in rows)
    assert not list(tmp_path.iterdir())


def test_curvature_profile_writes_one_csv_per_surface(tmp_path):
    out = run_script("curvature_profile.py", "--n", "16", cwd=tmp_path)
    assert len(out.splitlines()) == 3
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(f"curvature_{name}.csv" for name in CATALOG_NAMES)
    for path in tmp_path.glob("*.csv"):
        lines = path.read_text().splitlines()
        assert lines[0] == "s,f,g,Hh"
        assert len(lines) == 17
