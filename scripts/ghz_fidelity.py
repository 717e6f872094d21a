"""GHZ preparation: ideal circuit check and the noisy three-qubit run.

Runs the noiseless transfer-based GHZ sequence (Hadamards, one
transfer, the rotation layer) over chain lengths and compares each
final statevector with the GHZ target (fidelity should be exactly 1),
then reruns the published three-qubit scenario with relaxation and
residual ZZ, with optional sampled tomography of the final state.
"""

import argparse
import os

import numpy as np

from pstsim import protocols, serialize, tomography


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=7)
    ap.add_argument("--shots", type=int, default=10**4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    for n in range(2, args.max_n + 1):
        state = protocols.run_ghz(protocols.GHZScenario(n=n)).state
        fid = abs(np.vdot(protocols.ghz_state(n), state)) ** 2
        rows.append((n, fid))
        print(f"n={n}: ideal circuit fidelity = {fid:.12f}")

    scenario = protocols.paper_ghz_scenario()
    report = protocols.run_ghz(scenario)
    print(f"noisy n={scenario.n}: F = {report.fidelity:.4f}, "
          f"F_opt = {report.fidelity_opt:.4f} at phi* = {report.phi_opt:.4f} rad")

    payload = {"schema_version": serialize.SCHEMA_VERSION,
               "ideal": [{"n": n, "fidelity": f} for n, f in rows],
               "noisy": report.as_dict()}
    if args.shots:
        settings = tomography.TomographySettings(
            scenario.n, shots=args.shots, seed=args.seed)
        rho = tomography.reconstruct(report.state, settings)
        fid = tomography.fidelity_opt_z(rho, protocols.ghz_state(scenario.n))
        payload["tomography"] = dict(fid.as_dict(), shots=args.shots,
                                     seed=args.seed)
        print(f"tomography ({args.shots} shots): F = {fid.fidelity:.4f}, "
              f"F_opt = {fid.fidelity_opt:.4f}")
    path = os.path.join(args.out_dir, "ghz_fidelity.json")
    serialize.write_json(path, payload)
    print("wrote", path)


if __name__ == "__main__":
    main()
