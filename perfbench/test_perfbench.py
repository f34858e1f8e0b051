"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The repeat tests make two traced runs per workload, a few minutes in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

COUNTS = ("calls", "points", "profiles.native_per_byarg", "revcoords.integrand_calls")
ACCURACY = ("revcoords.roundtrip_err", "modulus.quad_rel_err", "modulus.mc_sigma",
            "modulus.adm_min", "modulus.oracle_dev", "curves.quasi_err",
            "curves.residual_max")


def run(workload, trace, seed=7, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_count(name):
    return name.rsplit(".", 1)[-1] in COUNTS or name in COUNTS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_accuracy_repeat(workload):
    first, second = (result(run(workload, trace=1)) for _ in range(2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
        # top-level spans cover the traced pass, so the layer times account for it
        assert res["metrics"]["trace.span_cover_frac"]["value"] >= 0.95
    names = [n for n in first["metrics"] if is_count(n) or n in ACCURACY]
    assert len(names) == 27
    for name in names:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run("cli-user-profile", trace=0)
    res = result(proc)
    assert res["correct"] and res["failed"] == 0
    spec = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == spec
    for name, unit in spec.items():
        assert res["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in proc.stdout.splitlines())
    assert any(line.startswith("fail_frac 0 ") for line in proc.stdout.splitlines())
    assert "seed=7" in proc.stdout


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("quadrature", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_counts_misses_and_exceptions_without_aborting():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    checks = workloads.Checks()
    assert checks.gate("pass", lambda: True)
    assert not checks.gate("miss", lambda: False)
    assert not checks.gate("raise", lambda: 1 / 0)
    assert (checks.attempted, checks.failed) == (3, 2)
    checks.record("modulus.adm_min", 1.2)
    checks.record("modulus.adm_min", 1.1)
    checks.record("modulus.quad_rel_err", 1e-9)
    checks.record("modulus.quad_rel_err", 1e-12)
    assert checks.accuracy == {"modulus.adm_min": 1.1, "modulus.quad_rel_err": 1e-9}
