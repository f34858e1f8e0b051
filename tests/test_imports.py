"""Every public name resolves, and SciPy submodules load on first use.

Monte Carlo, the coordinate maps and `heisring validate` never need
scipy.integrate, scipy.optimize or scipy.special, so a fresh interpreter that
runs only them must not pay for importing those modules. The check runs in a
subprocess because the test session itself has long since loaded them.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, sys

import numpy as np

import heisring
from heisring import cli, revcoords
from heisring.modulus import make_ring, mc_modulus, numeric_modulus
from heisring.profiles import CATALOG_NAMES, catalog

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.special")

rings = [make_ring(catalog(name), 1.0, 2.0) for name in CATALOG_NAMES]
for ring in rings:
    value, err = mc_modulus(ring, n=4096, seed=0)
    assert np.isfinite(value) and err > 0.0
    xi, beta, phi = np.array([0.2, 0.5]), np.array([3.0, 3.5]), np.array([0.1, 2.0])
    z, t = revcoords.phi_map_arrays(ring.profile, xi, beta, phi)
    back = revcoords.phi_inv_arrays(ring.profile, z, t)
    assert np.allclose(np.stack(back), np.stack([xi, beta, phi]), atol=1e-9)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["validate", "--surface", "bubble"]) == 0

loaded = [name for name in HEAVY if name in sys.modules]
assert not loaded, f"loaded before first use: {loaded}"

numeric_modulus(rings[0])
assert "scipy.integrate" in sys.modules, "numeric_modulus ran without scipy.integrate"
"""


def test_public_names_resolve():
    import heisring
    missing = [name for name in heisring.__all__ if not hasattr(heisring, name)]
    assert not missing, f"heisring.__all__ names missing: {missing}"
    namespace: dict = {}
    exec("from heisring import *", namespace)
    assert set(heisring.__all__) <= namespace.keys()


def test_scipy_submodules_load_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
