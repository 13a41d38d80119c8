"""When do cheap pair measurements beat the full projector witness?

Tilt every measurement axis by an angle theta and track how much white
noise each witness still tolerates. The projector witness starts ahead
but decays faster; past the crossover (~0.26 rad when all axes tilt,
~0.29 rad when only Y drifts) the pair witness is the more robust choice.

Writes one CSV per mode next to this script.

Run:  python3 demos/misalignment_sweep.py
"""

import csv
import pathlib

from edlkit import robustness, states
from edlkit.witness import load_paper_witness, projector_witness

HERE = pathlib.Path(__file__).parent


def main():
    rho = states.density(states.make_state("D4"))
    pair_witness = load_paper_witness("D4", 5)
    projector = projector_witness(states.make_state("D4"), label="D4 projector")
    grid = robustness.default_grid()

    for mode in robustness.MODES:
        curve_a = robustness.tolerance_curve(pair_witness, rho, grid, mode)
        curve_b = robustness.tolerance_curve(projector, rho, grid, mode)
        theta = robustness.crossover(pair_witness, projector, rho, mode)
        out = HERE / f"tolerance_{mode}.csv"
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)  # floats at full precision, '' where a witness is blind
            writer.writerow(["theta", "tolerance_a", "tolerance_b"])
            writer.writerows(zip(grid, curve_a.tolerances, curve_b.tolerances))
        print(f"{mode:9s}: crossover at theta = {theta:.4f} rad -> {out.name}")

        # a snapshot on either side of the crossing
        for t in (0.0, round(theta, 2), 0.35):
            idx = min(range(len(grid)), key=lambda i: abs(grid[i] - t))
            ta, tb = curve_a.tolerances[idx], curve_b.tolerances[idx]
            fmt = lambda x: f"{x:.4f}" if x is not None else "  -  "
            print(f"    theta={grid[idx]:.3f}  pairs={fmt(ta)}  projector={fmt(tb)}")


if __name__ == "__main__":
    main()
