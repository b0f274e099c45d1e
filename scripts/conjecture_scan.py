#!/usr/bin/env python3
"""Fine scan of the undecided parameter zone, tabulating grid evidence.

For y > -1/2 and min{1, 1/(2(y+1))} < alpha <= 1, reciprocal complete
monotonicity is conjectured to fail but unproven, so the scanner never
classifies those cells.  This script sweeps the zone at a finer resolution
than the CLI scan, runs the RECIPROCAL certificate in every cell, and
tabulates where the grid finds a conclusive sign violation (evidence for
the conjecture) versus where it finds none.

Writes a CSV (alpha, y, zone_width_position, reciprocal_violation,
witness_k, witness_x) and prints an aggregate table by y.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from gammacert import Direction, Verdict, default_grid, lcm_certifier
from gammacert.certify import in_conjecture_zone
from gammacert.hfamily import reciprocal_threshold


@dataclass(frozen=True)
class ScanConfig:
    y_min: float = -0.45
    y_max: float = 4.0
    y_count: int = 12
    alpha_count: int = 24
    k_max: int = 8
    grid_points: int = 200
    x_max: float = 1e3
    out: str = "conjecture_scan.csv"


def zone_alphas(y: float, count: int) -> np.ndarray:
    """alpha samples strictly inside the zone (lower bound exclusive)."""
    # open at the threshold, closed at 1: shift the first sample off the boundary
    return np.linspace(reciprocal_threshold(y), 1.0, count + 1)[1:]


def run(config: ScanConfig) -> int:
    rows: list[str] = ["alpha,y,zone_position,reciprocal_violation,witness_k,witness_x"]
    tally: list[tuple[float, int, int]] = []
    for y in np.linspace(config.y_min, config.y_max, config.y_count):
        y = float(y)
        grid = default_grid(y, points=config.grid_points, x_max=config.x_max)
        certify = lcm_certifier(y, config.k_max, grid)
        alphas = zone_alphas(y, config.alpha_count)
        violations = 0
        for pos, alpha in enumerate(alphas, start=1):
            alpha = float(alpha)
            assert in_conjecture_zone(alpha, y), (alpha, y)
            cert = certify(alpha, Direction.RECIPROCAL)
            violated = cert.verdict is Verdict.FAIL
            violations += violated
            w = cert.witness
            rows.append(
                f"{alpha:.17g},{y:.17g},{pos}/{config.alpha_count},"
                f"{str(violated).lower()},"
                f"{'' if w is None else w.k},"
                f"{'' if w is None else format(w.x, '.17g')}")
        tally.append((y, violations, len(alphas)))
    with open(config.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} zone cells to {config.out}")
    print(f"{'y':>10}  {'violations':>10}  {'cells':>6}")
    for y, hit, total in tally:
        print(f"{y:>10.4f}  {hit:>10d}  {total:>6d}")
    total_hit = sum(h for _, h, _ in tally)
    total_cells = sum(t for _, _, t in tally)
    print(f"grid evidence: {total_hit}/{total_cells} cells show a conclusive "
          f"reciprocal-direction violation")
    return 0


def build_parser() -> argparse.ArgumentParser:
    defaults = ScanConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--y-min", type=float, default=defaults.y_min,
                        help="smallest y (> -1/2) of the sweep")
    parser.add_argument("--y-max", type=float, default=defaults.y_max)
    parser.add_argument("--y-count", type=int, default=defaults.y_count)
    parser.add_argument("--alpha-count", type=int, default=defaults.alpha_count,
                        help="alpha samples per y inside the zone")
    parser.add_argument("--kmax", type=int, default=defaults.k_max)
    parser.add_argument("--grid-points", type=int, default=defaults.grid_points)
    parser.add_argument("--x-max", type=float, default=defaults.x_max)
    parser.add_argument("--out", default=defaults.out)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.y_min > -0.5:
        build_parser().error(f"--y-min must exceed -1/2, got {args.y_min}")
    config = ScanConfig(y_min=args.y_min, y_max=args.y_max,
                        y_count=args.y_count, alpha_count=args.alpha_count,
                        k_max=args.kmax, grid_points=args.grid_points,
                        x_max=args.x_max, out=args.out)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
