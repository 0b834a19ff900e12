#!/usr/bin/env python3
"""Render the showcase artifacts into out/: a staircase diagram, an
oscillator plot with its envelope curves, and an inverse-kinematics sweep.

Usage: python3 scripts/render_showcase.py [outdir]

Stops at the first step that fails and exits with its code.
"""

import math
import sys
from pathlib import Path

from groebnerkit.cli import run


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    outdir.mkdir(parents=True, exist_ok=True)

    # quarter-circle sweep of reachable targets for a 2-link arm
    waypoints = outdir / "waypoints.csv"
    rows = ["x,y"]
    for i in range(9):
        angle = math.pi / 2 * i / 8
        rows.append(f"{1.5 * math.cos(angle):.4f},{1.5 * math.sin(angle):.4f}")
    waypoints.write_text("\n".join(rows) + "\n")

    oscillator = [
        "oscillator", "--m", "1", "--k", "5", "--b", "0.4",
        "--y0", "1", "--y1", "0", "--t-end", "15", "--n", "600",
    ]
    steps = {
        "staircase.svg": [
            "staircase", "--vars", "x,y", "--order", "grlex",
            "x^3 - 2*x*y", "x^2*y - 2*y^2 + x",
        ],
        "oscillator.svg": oscillator + ["--format", "svg"],
        "oscillator.csv": oscillator,
        "ik_sweep.csv": [
            "ik", "--l1", "1", "--l2", "1", "--trajectory", str(waypoints),
            "--format", "csv",
        ],
    }
    for name, argv in steps.items():
        code = run(argv + ["--output", str(outdir / name)])
        if code:
            return code
        print(f"wrote {outdir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
