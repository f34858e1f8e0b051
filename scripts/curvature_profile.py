#!/usr/bin/env python3
"""Sample the horizontal mean curvature along each catalog profile.

Writes a CSV with s, f, g, H^h per surface and prints the extremes. The
bubble set shows the constant value 1/R; the gauge sphere follows
3 sqrt(-cos beta)/R; the lifted-circle sphere is even in its parameter.

Usage: python3 scripts/curvature_profile.py [--n 512] [--R 1.0]
"""

import argparse

import numpy as np

from heisring import surface as sf
from heisring.profiles import CATALOG_NAMES, catalog


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--R", type=float, default=1.0)
    args = ap.parse_args()

    for name in CATALOG_NAMES:
        profile = catalog(name, args.R)
        lo, hi = profile.domain
        svals = lo + (hi - lo) * np.arange(1, args.n + 1) / (args.n + 1)
        f, _, _, g, _, _ = profile.eval(svals)
        hh = sf.mean_curvature(profile, svals)
        path = f"curvature_{name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write("s,f,g,Hh\r\n")
            sf.write_rows(fh, "%r,%r,%r,%r\r\n", np.column_stack((svals, f, g, hh)))
        finite = hh[np.isfinite(hh)]
        print(f"{name}: H^h in [{finite.min():.6f}, {finite.max():.6f}] -> {path}")


if __name__ == "__main__":
    main()
