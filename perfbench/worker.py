"""One fresh interpreter running one workload; started by ``run.py``.

With ``--setup-only`` it imports heisring, builds the workload's profiles and
rings, and reports how long that took. Otherwise it also makes one untimed
warm-up pass and then timed passes for about ``--seconds`` seconds. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the setup plus the first traced pass. The result is one
JSON object on the last line of standard output.
"""

from time import perf_counter

T_START = perf_counter()  # set-up is timed from here, before heisring is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402


MIN_PASSES = 2  # timed passes without tracing; a traced run needs one round


def _timed(fn, *args):
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp-root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import heisring.cli  # noqa: F401  (imports heisring too)
    import numpy
    import scipy

    import tracing
    import workloads

    setup, run_pass = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()  # set-up spans (make_ring) are part of the layer figures
    os.makedirs(args.tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.tmp_root) as tmpdir:
        state = setup(args.seed, tmpdir)
        setup_s = perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer.uninstall()

        checks = workloads.Checks()
        cold_s = _timed(run_pass, state, checks, tracer)
        plain, traced, layer, table = [], [], None, None
        min_passes = 1 if args.trace else MIN_PASSES
        start = perf_counter()
        while True:
            plain.append(_timed(run_pass, state, checks, tracer))
            if args.trace:
                tracer.install()
                if layer is None:
                    top0 = tracer.top_s
                    dur = _timed(run_pass, state, checks, tracer)
                    layer = tracing.layer_metrics(tracer, checks.accuracy)
                    layer["trace.span_cover_frac"] = (tracer.top_s - top0) / dur
                    table = tracing.surface_table(tracer)
                else:
                    tracer.reset()
                    dur = _timed(run_pass, state, checks, tracer)
                tracer.uninstall()
                traced.append(dur)
            per_round = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
            if perf_counter() - start + per_round > args.seconds and len(plain) >= min_passes:
                break

    if layer is not None:
        layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    result = {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "pass_s": plain,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer": layer,
        "surface_table": table,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
