"""Population contours for the six-site transfer chain.

Evolves the chain from site 1 and from site 3 over two transfer
periods and writes the trajectories as CSV plus contour-style SVG
heatmaps (time on x, site index on y).
"""

import argparse
import os

import numpy as np

from pstsim import protocols, serialize, svg
from pstsim.models import chains


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--tau", type=float, default=640e-9)
    ap.add_argument("--points", type=int, default=241)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    spec = chains.ChainSpec.pst(args.n, args.tau)
    times = np.linspace(0.0, 2 * args.tau, args.points)
    for start in (1, 3):
        traj = protocols.run_pst(spec, start, times)
        stem = os.path.join(args.out_dir, f"transfer_n{args.n}_site{start}")
        serialize.write_trajectory_csv(stem + ".csv", traj)
        ticks = [(k / 2.0, f"{k}") for k in range(3)]
        n = traj.populations.shape[1]
        svg.heatmap(traj.populations.T, stem + ".svg",
                    title=f"populations, start at site {start}",
                    x_label="t / tau", y_label="site", vmin=0.0, vmax=1.0,
                    x_ticks=ticks,
                    y_ticks=[((i + 0.5) / n, str(i + 1)) for i in range(n)])
        peak = traj.populations[args.points // 2]
        print(f"start site {start}: populations at tau =",
              np.array2string(peak, precision=6))
        print("wrote", stem + ".csv", "and", stem + ".svg")


if __name__ == "__main__":
    main()
