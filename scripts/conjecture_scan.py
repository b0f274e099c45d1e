#!/usr/bin/env python3
"""Fine scan of the undecided parameter zone, tabulating grid evidence.

For y > -1/2 and min{1, 1/(2(y+1))} < alpha <= 1, reciprocal complete
monotonicity is conjectured to fail but unproven, so the scanner never
classifies those cells.  This script sweeps the zone at a finer resolution
than the CLI scan, reads the RECIPROCAL certificate of every cell (the
certifiers of every y from one lcm_certifier call, so one derivative
table), and tabulates where the grid finds a conclusive sign violation
(evidence for the conjecture) versus where it finds none.

Writes a CSV (alpha, y, zone_width_position, reciprocal_violation,
witness_k, witness_x) and prints an aggregate table by y.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from gammacert import Direction, default_grid, lcm_certifier
from gammacert.certify import in_conjecture_zone
from gammacert.checks import DEFAULT_K_MAX, DEFAULT_POINTS, DEFAULT_X_MAX
from gammacert.hfamily import reciprocal_threshold


def zone_alphas(y: float, count: int) -> np.ndarray:
    """alpha samples strictly inside the zone (lower bound exclusive)."""
    # open at the threshold, closed at 1: shift the first sample off the boundary
    return np.linspace(reciprocal_threshold(y), 1.0, count + 1)[1:]


def run(args: argparse.Namespace) -> int:
    rows: list[str] = ["alpha,y,zone_position,reciprocal_violation,witness_k,witness_x"]
    tally: list[tuple[float, int, int]] = []
    ys = np.linspace(args.y_min, args.y_max, args.y_count).tolist()
    certifiers = lcm_certifier(ys, args.kmax, [
        default_grid(y, points=args.grid_points, x_max=args.x_max) for y in ys])
    for y, certify in zip(ys, certifiers):
        alphas = zone_alphas(y, args.alpha_count)
        assert in_conjecture_zone(alphas, y).all(), y
        violations = 0
        for pos, alpha in enumerate(alphas.tolist(), start=1):
            witness = certify(alpha, Direction.RECIPROCAL).witness
            violated = witness is not None
            violations += violated
            rows.append(
                f"{alpha:.17g},{y:.17g},{pos}/{args.alpha_count},"
                f"{str(violated).lower()},"
                f"{witness.k if violated else ''},"
                f"{format(witness.x, '.17g') if violated else ''}")
        tally.append((y, violations, len(alphas)))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} zone cells to {args.out}")
    print(f"{'y':>10}  {'violations':>10}  {'cells':>6}")
    for y, hit, total in tally:
        print(f"{y:>10.4f}  {hit:>10d}  {total:>6d}")
    total_hit = sum(h for _, h, _ in tally)
    total_cells = sum(t for _, _, t in tally)
    print(f"grid evidence: {total_hit}/{total_cells} cells show a conclusive "
          f"reciprocal-direction violation")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--y-min", type=float, default=-0.45,
                        help="smallest y (> -1/2) of the sweep")
    parser.add_argument("--y-max", type=float, default=4.0)
    parser.add_argument("--y-count", type=int, default=12)
    parser.add_argument("--alpha-count", type=int, default=24,
                        help="alpha samples per y inside the zone")
    parser.add_argument("--kmax", type=int, default=DEFAULT_K_MAX)
    parser.add_argument("--grid-points", type=int, default=DEFAULT_POINTS)
    parser.add_argument("--x-max", type=float, default=DEFAULT_X_MAX)
    parser.add_argument("--out", default="conjecture_scan.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.y_min > -0.5:
        parser.error(f"--y-min must exceed -1/2, got {args.y_min}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
