#!/usr/bin/env python3
"""Histogram of extremal-density line integrals over random horizontal curves.

Writes one CSV per surface with the binned distribution of line integrals of
the extremal density over seeded random boundary-connecting curves. For this
family, whose beta paths are centred within pi +- 0.3, the minimum stays above
1; a family whose centres range over the whole band falls below 1 on the
bubble and cc surfaces.

Usage: python3 scripts/admissibility_histogram.py [--count 1000] [--out DIR]
"""

import argparse
import pathlib

import numpy as np

from heisring import curves as cv
from heisring import modulus as md
from heisring.profiles import CATALOG_NAMES, catalog
from heisring.surface import write_rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--b", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=".")
    args = ap.parse_args()

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in CATALOG_NAMES:
        ring = md.make_ring(catalog(name, 1.0), args.a, args.b)
        family = cv.random_family(ring, args.count, seed0=args.seed)
        rep = md.admissibility_report(ring, family)
        path = outdir / f"admissibility_{name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write("bin_lo,bin_hi,count\r\n")
            write_rows(fh, "%r,%r,%d\r\n", np.column_stack(
                (rep.bin_edges[:-1], rep.bin_edges[1:], rep.histogram)))
        print(f"{name}: n={rep.n} min={rep.min:.6f} mean={rep.mean:.6f} "
              f"-> {path}")


if __name__ == "__main__":
    main()
