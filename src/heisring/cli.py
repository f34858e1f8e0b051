"""Command line front end.

Subcommands: validate, modulus, geometry, export-mesh. Exit codes: 0 success,
1 mathematical failure (validation, or any check a command ran), 2 usage or
I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import modulus as modulus_mod
from . import surface as surface_mod
from .curves import DEFAULT_RESOLUTION, FAMILY_RESOLUTION
from .exprparse import ParseError
from .profiles import GRID_MIN, ValidationError, catalog, parse_profile, validate

SURFACE_ALIASES = {
    "koranyi": "koranyi_sphere",
    "bubble": "bubble_set",
    "cc": "cc_sphere",
}

DEFAULT_TOL = 1e-8
DEFAULT_SEED = 0
ORACLE_DEV_TOL = 1e-6  # largest relative deviation of the oracle from uniform


class UsageError(Exception):
    pass


def _resolve_profile(args):
    """(ProfileCurve, display name) from --surface/--R or --profile."""
    if args.profile is not None:
        if args.surface is not None:
            raise UsageError("--surface and --profile are mutually exclusive")
        if args.R is not None:
            raise UsageError("--R sets the radius of a catalog surface, not of --profile")
        try:
            with open(args.profile) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read profile file: {exc}")
        try:
            return parse_profile(text, name=args.profile), args.profile
        except ParseError as exc:
            raise UsageError(f"cannot parse profile file {args.profile}: {exc}")
    name = args.surface or "koranyi"
    if name not in SURFACE_ALIASES:
        raise UsageError(f"unknown surface {name!r}; choose from "
                         f"{sorted(SURFACE_ALIASES)}")
    R = 1.0 if args.R is None else args.R
    if not R > 0:
        raise UsageError(f"--R must be positive, got {R:g}")
    return catalog(SURFACE_ALIASES[name], R=R), name


def _header(out=None, **settings):
    """Reproducibility line: the settings that ran, in the order given."""
    print("# " + " ".join(f"{k}={v}" for k, v in settings.items()), file=out)


def _print_table(rows):
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")


def _require_grid(args):
    if args.grid < GRID_MIN:
        raise UsageError(f"--grid must be at least {GRID_MIN}, got {args.grid}")


def cmd_validate(args) -> int:
    _require_grid(args)
    curve, name = _resolve_profile(args)
    report = validate(curve, grid_n=args.grid)
    rows = [("surface", name)]
    for label, chk in (("A1 (f > 0, f -> 0 at ends)", report.a1),
                       ("A2 (g decreasing, sign change)", report.a2),
                       ("beta strictly increasing", report.beta_monotone)):
        status = "pass" if chk.passed else f"FAIL at s={chk.witness:.6g} ({chk.detail})"
        rows.append((label, status))
    rows += [("min f", f"{report.min_f:.6g}"),
             ("min -g'", f"{report.min_neg_gdot:.6g}"),
             ("min beta'", f"{report.min_beta_dot:.6g}")]
    if args.json:
        _header(out=sys.stderr, grid=args.grid)
        payload = {
            "surface": name,
            "passed": report.passed,
            "a1": report.a1.passed,
            "a2": report.a2.passed,
            "beta_monotone": report.beta_monotone.passed,
            "min_f": report.min_f,
            "min_neg_gdot": report.min_neg_gdot,
            "min_beta_dot": report.min_beta_dot,
        }
        print(json.dumps(payload))
    else:
        _header(grid=args.grid)
        _print_table(rows)
    return 0 if report.passed else 1


def cmd_modulus(args) -> int:
    if not 0 < args.a < args.b < math.inf:
        raise UsageError(f"--a and --b need 0 < a < b < inf, got a={args.a}, b={args.b}")
    if not 0 < args.tol < math.inf:
        raise UsageError(f"--tol must be positive and finite, got {args.tol:g}")
    if args.curves is not None and args.curves < 1:
        raise UsageError(f"--curves must be at least 1, got {args.curves}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if not 0 <= seed <= 2 ** 128 - (args.curves or 1):  # the N seeds are Philox keys
        raise UsageError(f"--seed must be in [0, 2**128 - N] with --curves N, got {seed}")
    if args.seed is not None and args.curves is None and not args.oracle:
        raise UsageError("--seed seeds only --curves and --oracle; pass one of them")
    _require_grid(args)
    curve, name = _resolve_profile(args)
    ring = modulus_mod.make_ring(curve, args.a, args.b, grid_n=args.grid)
    report = modulus_mod.modulus_report(
        ring, name,
        curve_count=args.curves if args.curves is not None else 0,
        seed=seed,
        oracle_bins=64 if args.oracle else 0,
        tol=min(args.tol, 1e-9),
    )
    adm, oracle = report.get("admissibility"), report.get("oracle")
    settings = {"tol": f"{args.tol:g}"}
    if adm is not None or oracle is not None:  # only the curves and the oracle use the seed
        settings["seed"] = seed
    settings["curves"] = adm["n"] if adm is not None else 0
    settings["resolution"] = FAMILY_RESOLUTION if adm is not None else 0  # samples per curve
    if args.json:
        _header(out=sys.stderr, **settings)
        print(json.dumps(report))
    else:
        _header(**settings)
        rows = [("surface", name), ("a", f"{args.a:g}"), ("b", f"{args.b:g}"),
                ("analytic", f"{report['analytic']:.12g}"),
                ("numeric", f"{report['numeric']:.12g}"),
                ("rel_err", f"{report['rel_err']:.3e}")]
        if adm is not None:
            rows += [("admissibility n", str(adm["n"])),
                     ("admissibility min", f"{adm['min']:.9f}"),
                     ("admissibility mean", f"{adm['mean']:.9f}")]
        if oracle is not None:
            rows += [("oracle value", f"{oracle['value']:.12g}"),
                     ("oracle max dev from uniform", f"{oracle['max_dev_from_uniform']:.3e}")]
        _print_table(rows)
    slack = modulus_mod.ADMISSIBILITY_SLACK
    failed = [name for name, ok in (
        ("rel_err", report["rel_err"] <= max(args.tol, 1e-8)),
        ("admissibility", adm is None or (adm["min"] >= 1.0 - slack and adm["max_error"] <= slack)),
        ("oracle", oracle is None or oracle["max_dev_from_uniform"] <= ORACLE_DEV_TOL),
    ) if not ok]
    if failed:
        print(f"check failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def _require_positive(args, *flags):
    for flag in flags:
        if not getattr(args, flag) > 0:
            raise UsageError(f"--{flag} must be positive, got {getattr(args, flag):g}")


def cmd_geometry(args) -> int:
    _require_positive(args, "resolution")
    curve, name = _resolve_profile(args)
    lo, hi = curve.domain
    span = (lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo))
    if args.flow is not None:
        try:
            s0_str, phi0_str = args.flow.split(",")
            s0, phi0 = float(s0_str), float(phi0_str)
        except ValueError:
            raise UsageError(f"--flow expects 's0,phi0', got {args.flow!r}")
        if not math.isfinite(phi0):
            raise UsageError(f"--flow phase {phi0_str!r} is not finite")
        if not span[0] <= s0 <= span[1]:
            raise UsageError(f"--flow anchor {s0:g} outside the flow span {span}")
    area = surface_mod.horizontal_area(curve)
    n = args.resolution
    s_vals = lo + (hi - lo) * np.arange(1, n + 1) / (n + 1)
    f, _, _, g, _, _ = curve.eval(s_vals)
    nh = np.hypot(*surface_mod.horizontal_normal_components(curve, s_vals, 0.0))
    hh = surface_mod.mean_curvature(curve, s_vals)
    csv_path = args.csv or f"{name.replace('/', '_')}_geometry.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("s,f,g,Nh_norm,Hh\r\n")
        surface_mod.write_rows(fh, ",".join(["%.17g"] * 5) + "\r\n",
                               np.column_stack((s_vals, f, g, nh, hh)))
    _header(resolution=n)
    rows = [("surface", name), ("horizontal area", f"{area:.12g}"),
            ("geometry csv", csv_path)]
    if args.flow is not None:
        flow = surface_mod.flow_curve(curve, s0, phi0, span, n=n)
        flow_path = csv_path.rsplit(".", 1)[0] + "_flow.csv"
        flow.export_csv(flow_path)
        rows += [("flow csv", flow_path), ("flow residual", f"{flow.residual:.3e}")]
    _print_table(rows)
    return 0


def cmd_export_mesh(args) -> int:
    _require_positive(args, "ns", "nphi")
    curve, name = _resolve_profile(args)
    out = args.out or f"{name.replace('/', '_')}.obj"
    obj_path, csv_path = surface_mod.export_mesh(curve, out, args.csv,
                                                 n_s=args.ns, n_phi=args.nphi)
    _header(ns=args.ns, nphi=args.nphi)
    _print_table([("surface", name), ("obj", obj_path), ("csv", csv_path),
                  ("vertices", str(args.ns * args.nphi))])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisring",
        description="Horizontal geometry of revolution surfaces in the "
                    "Heisenberg group",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand accepts only the flags its cmd_* reads
    def add_profile(p):
        p.add_argument("--surface", choices=sorted(SURFACE_ALIASES))
        p.add_argument("--R", type=float, help="radius of a catalog surface (default 1)")
        p.add_argument("--profile", metavar="PATH")

    def add_patch(p):
        add_profile(p)
        p.add_argument("--csv", metavar="PATH")

    p = sub.add_parser("validate", help="check profile admissibility conditions")
    add_profile(p)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("modulus", help="analytic vs numeric ring modulus")
    add_profile(p)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--json", action="store_true")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--curves", type=int, metavar="N",
                   help="run the random-family admissibility check on N curves")
    p.add_argument("--oracle", action="store_true",
                   help="also run the restricted optimization oracle")
    p.set_defaults(func=cmd_modulus)

    p = sub.add_parser("geometry", help="area, normals, curvature, flow curves")
    add_patch(p)
    p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    p.add_argument("--flow", metavar="S0,PHI0")
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("export-mesh", help="write a Wavefront OBJ mesh")
    add_patch(p)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--ns", type=int, default=128)
    p.add_argument("--nphi", type=int, default=64)
    p.set_defaults(func=cmd_export_mesh)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
