#!/usr/bin/env python3
"""Profile of the monotonicity threshold surface B(x, y).

B(x, y) = (u/x^2) (x psi(u) - lnGamma(u) + lnGamma(y+1)), u = x+y+1, is the
alpha value at which (ln h)' changes sign at x; alpha >= sup_x B is necessary
and sufficient for decrease everywhere.  Its two proof limits are

    B -> 1/(y+1)  as x -> -(y+1)+        B -> 1  as x -> +infinity.

This script samples B on each y's certificate grid (grid_points: log-spaced
in u from endpoint_rel*(y+1) out to x_max, |x| < 1e-3 dropped) with one
alpha_necessary_bound call per y, writes a CSV (y, x, bound), and prints each
profile's observed endpoints against the two limits.
"""

from __future__ import annotations

import argparse
import sys

from gammacert import GridSpec, alpha_necessary_bound, grid_points

DEFAULT_YS = (-0.5, 0.0, 1.0, 5.0)


def run(args: argparse.Namespace) -> int:
    rows = ["y,x,bound"]
    print(f"{'y':>8}  {'B at left end':>14}  {'limit 1/(y+1)':>14}  "
          f"{'B at x_max':>12}  {'limit':>6}")
    for y in args.ys or DEFAULT_YS:
        xs = grid_points(GridSpec(args.endpoint_rel * (y + 1.0), args.x_max,
                                  args.points), y)
        bounds = alpha_necessary_bound(xs, y)
        rows.extend(f"{y:.17g},{x:.17g},{b:.17g}"
                    for x, b in zip(xs.tolist(), bounds.tolist()))
        print(f"{y:>8.3f}  {bounds[0]:>14.9f}  {1.0 / (y + 1.0):>14.9f}  "
              f"{bounds[-1]:>12.9f}  {1.0:>6.1f}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--y", type=float, action="append", dest="ys",
                        help="y value to profile (repeatable; y > -1; "
                             f"default {' '.join(map(str, DEFAULT_YS))})")
    parser.add_argument("--points", type=int, default=400)
    parser.add_argument("--x-max", type=float, default=1e6)
    parser.add_argument("--endpoint-rel", type=float, default=1e-6,
                        help="left-end clearance as a fraction of (y+1)")
    parser.add_argument("--out", default="threshold_profile.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
