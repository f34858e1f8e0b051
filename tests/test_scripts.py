"""The experiment scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

from heisring.profiles import CATALOG_NAMES

ROOT = Path(__file__).resolve().parent.parent


def test_admissibility_histogram_writes_one_csv_per_surface(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "admissibility_histogram.py"),
         "--count", "20", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(f"admissibility_{name}.csv" for name in CATALOG_NAMES)
    assert len(written) == 3
    for path in tmp_path.glob("*.csv"):
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 20
