"""Transfer phase versus inner occupation on the six-site chain.

Runs the full 16-bitstring phase table in the ideal model, then again
with nearest-neighbour ZZ of -100 kHz, and fits the phase deviation
against the number of excited inner sites (the occupation-dependent
error line).
"""

import argparse
import math
import os

from pstsim import protocols, serialize, svg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--tau", type=float, default=640e-9)
    ap.add_argument("--zeta-khz", type=float, default=-100.0)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    zeta = (2 * math.pi * args.zeta_khz * 1e3,) * (args.n - 1)

    ideal = protocols.parity_phase_table(args.n, ("+x",), tau=args.tau)
    worst = max(abs(r.deviation) for r in ideal)
    print(f"ideal: {len(ideal)} inner states, max |deviation| = {worst:.3e}")

    zz = protocols.parity_phase_table(args.n, ("+x",), zeta=zeta, tau=args.tau)
    path = os.path.join(args.out_dir, "parity_phases.csv")
    serialize.write_csv(
        path, ["inner", "parity", "phase_ideal_rad", "phase_zz_rad", "deviation_zz_rad"],
        "%s,%d,%.12e,%.12e,%.12e\n",
        [v for a, b in zip(ideal, zz) for v in (a.inner, a.parity, a.phase, b.phase, b.deviation)])
    fit = protocols.parity_deviation_fit(zz)
    counts, means = fit["counts"], fit["mean_deviation_rad"]
    print("zz deviation means by inner excitation count:")
    for k, m in zip(counts, means):
        print(f"  {k}: {m:.6f} rad")
    print(f"slope = {fit['slope_rad']:.6f} rad/excitation, "
          f"r^2 = {fit['r_squared']:.8f}")

    svg.bar_chart([r.inner for r in zz], [r.phase for r in zz],
                  os.path.join(args.out_dir, "parity_phases.svg"),
                  title=f"transfer phase by inner state (zz = {args.zeta_khz} kHz)",
                  y_label="phase (rad)")
    svg.line_chart(counts, {"mean |deviation|": means},
                   os.path.join(args.out_dir, "parity_deviation_fit.svg"),
                   title="phase error vs inner excitation count",
                   x_label="excited inner sites", y_label="|deviation| (rad)")
    print("wrote", path)


if __name__ == "__main__":
    main()
