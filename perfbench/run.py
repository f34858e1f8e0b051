"""heisring benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload quadrature --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout (``src/heisring`` must exist); nothing
is installed or built. Every measurement runs in a fresh interpreter with BLAS
pinned to one thread:

* ``--trace 0``: two set-up-only interpreters, then one worker that sets up,
  makes an untimed warm-up pass and then timed passes for about ``--seconds``
  seconds. Prints ``setup_s`` (median of the three set-ups), ``pass_s``
  (median warm pass) and ``peak_rss_mb`` (the worker's high-water RSS).
* ``--trace 1``: one worker that alternates untraced and traced passes and
  prints every per-layer metric.

Human-readable lines come first, each metric by name with its unit; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_ONLY_RUNS = 2
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same string hashing, hence dict layout, in every run
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp-root", str(ROOT / ".perfbench_tmp")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "heisring" / "__init__.py").is_file():
        print(f"error: no heisring sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else [
            _worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
        res = _worker(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = dict(res["env"], nproc=len(os.sched_getaffinity(0)), blas_threads=1,
               seed=args.seed, commit=_commit())
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    plain = res["pass_s"]
    print(f"# workload {args.workload}: closed loop, one caller, no threads; "
          f"cold first pass {res['cold_s']:.4f} s, warm passes {len(plain)}: "
          + " ".join(f"{p:.4f}" for p in plain))

    if args.trace:
        metrics = res["layer"]
        spec = {m["name"]: m for m in bench["per_layer"]}
        for layer, by_surface in res["surface_table"].items():
            print(f"# per-surface {layer}: " + ", ".join(
                f"{s} {calls} calls {incl:.4f} s" for s, (calls, incl) in by_surface.items()))
    else:
        metrics = {
            "setup_s": statistics.median(setups + [res["setup_s"]]),
            "pass_s": statistics.median(plain),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        spec = {m["name"]: m for m in bench["end_to_end"]}
        print("# setup_s samples: " + " ".join(f"{s:.4f}" for s in setups + [res["setup_s"]]))
        print(f"# pass_s: median {statistics.median(plain):.4f} s, max {max(plain):.4f} s, "
              f"n={len(plain)}")
    if set(metrics) != set(spec):
        print(f"error: metrics {sorted(set(metrics) ^ set(spec))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    for name in spec:
        print(f"{name} {metrics[name]:.6g} {spec[name]['unit']}")
    print(f"fail_frac {failed / attempted:.6g} 1 ({failed} failed of {attempted} checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec[name]["unit"]} for name in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
