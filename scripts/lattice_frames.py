"""Corner-to-corner transfer on a 2d grid, saved as population frames.

The separable row/column coupling profile moves an excitation from
(1,1) to the opposite corner in one period; intermediate frames show
the spread-and-refocus pattern.
"""

import argparse
import os

import numpy as np

from pstsim import protocols, serialize, svg
from pstsim.models import lattice


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=9)
    ap.add_argument("--ny", type=int, default=7)
    ap.add_argument("--tau", type=float, default=1e-6)
    ap.add_argument("--fractions", default="0,0.1,0.25,0.5,0.75,0.9,1")
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    fractions = [float(tok) for tok in args.fractions.split(",")]
    spec = lattice.LatticeSpec(nx=args.nx, ny=args.ny, tau=args.tau)
    times = np.array(fractions) * args.tau
    traj = protocols.lattice_pst(spec, (1, 1), times)

    path = os.path.join(args.out_dir, "lattice_frames.csv")
    # the cells of each frame in x-major order: fraction, x, y and population
    frame, cell = np.divmod(np.arange(traj.populations.size), spec.nx * spec.ny)
    x, y = np.divmod(cell, spec.ny)
    table = np.column_stack([np.array(fractions)[frame], x + 1, y + 1,
                             traj.populations.ravel()])
    serialize.write_csv(path, ["fraction", "x", "y", "population"],
                        "%g,%d,%d,%.12e\n", table.ravel())
    for k, frac in enumerate(fractions):
        grid = traj.populations[k].reshape(spec.nx, spec.ny)
        svg.heatmap(grid.T,
                    os.path.join(args.out_dir, f"lattice_frame_{k}.svg"),
                    title=f"t = {frac:g} tau", x_label="x", y_label="y",
                    vmin=0.0, vmax=1.0)
    final = traj.populations[-1].reshape(spec.nx, spec.ny)
    print(f"population at ({args.nx},{args.ny}) after one period: "
          f"{final[-1, -1]:.12f}")
    print("wrote", path, f"and {len(fractions)} frame SVGs")


if __name__ == "__main__":
    main()
