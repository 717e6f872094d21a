"""Record the RK4 reference the device backend's CF4 steps are checked against.

``test_calibration.test_device_backend_matches_reference_run_path`` runs
the device backend on the cases of ``test_calibration.device_cases`` and
compares the populations with those the RK4 integrator gives.  That
integrator, which fourth-order commutator-free steps replaced in
``DeviceSubsetModel.evolve_columns``, is kept here verbatim and run only
by this script: it writes the RK4 populations of every case to
``data/device_rk4_reference.json`` with a fingerprint of the model and
inputs each case hands to ``evolve_columns``.  A test run whose
fingerprint differs fails with "re-record" instead of comparing against
stale data.

    PYTHONPATH=src python tests/record_device_reference.py          # (re)write the file
    PYTHONPATH=src python tests/record_device_reference.py --check  # fail if it differs

``--check`` integrates every case again with RK4 and fails if the
recorded fingerprints differ or a population moved by more than
CHECK_ATOL, so the file stays reproducible from the reference alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import pi

import numpy as np

from pstsim.models import device as device_models
from test_calibration import RK4_REFERENCE, run_device_cases

CHECK_ATOL = 1e-10          # a rerun against the file; the test compares CF4 at 1e-6

# The RK4 integrator and step rule that fourth-order commutator-free steps
# replaced in DeviceSubsetModel.evolve_columns, kept verbatim (module names
# qualified, the step constant local) as the reference those steps must
# reproduce.

_REFERENCE_STEPS_PER_PERIOD = 50.0    # RK4 steps per period of the fastest frequency in H


def _rk4_step(f, t, y, dt):
    k1 = f(t, y)
    k2 = f(t + dt / 2, y + dt / 2 * k1)
    k3 = f(t + dt / 2, y + dt / 2 * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _reference_evolve_columns(self, psi0: np.ndarray, times: np.ndarray, columns) -> np.ndarray:
    """RK4-propagate one initial state under each column's drives.

    ``columns`` holds one sequence of DriveConfigs per output column;
    a coupler with no drive in a column sits at its bias.  Each step
    reuses the fixed part and adjusts every coupler's diagonal per
    column.  The step is dt = 2 pi / (_STEPS_PER_PERIOD max|H|) with H
    at the bias point.  Returns |amplitudes|^2 with shape
    (len(times), dim, len(columns)).
    """
    ncol = len(columns)
    amps = np.zeros((len(self.couplers), ncol))
    w_ang = np.zeros((len(self.couplers), ncol))
    for col, drives in enumerate(columns):
        if len({d.coupler for d in drives}) < len(drives):
            raise ValueError(f"two drives on one coupler in column {col}")
        for d in drives:
            if d.coupler not in self.couplers:
                raise ValueError(f"drive on coupler {d.coupler} outside the subset")
            if d.amplitude < 0:
                raise ValueError("drive amplitude must be >= 0")
            k = self.couplers.index(d.coupler)
            amps[k, col] = d.amplitude
            w_ang[k, col] = 2 * pi * d.frequency_hz

    # coupler_frequency's constants (w_max + E_C, d^2, E_C) as (couplers, 1)
    # columns, once per call: calling it in every RK4 stage costs 15-20 %
    specs = [self.device.couplers[cj - 1] for cj in self.couplers]
    ec = np.array([[-c.anharmonicity_hz] for c in specs])
    top = np.array([[c.omega_max_hz] for c in specs]) + ec
    d = np.array([[device_models.flux_asymmetry(c)] for c in specs])
    d2 = d * d
    phi_dc = np.array([[c.phi_dc] for c in specs])

    def f(t, psi):              # -i H(t) psi, column by column
        c2 = np.cos(pi * (phi_dc + amps * np.cos(w_ang * t))) ** 2
        w = top * (d2 + (1 - d2) * c2) ** 0.25 - ec
        return -1j * (self.H_fixed @ psi + (self._coupler_occ @ (2 * pi * w)) * psi)

    times = np.asarray(times, dtype=float)
    hmax = np.max(np.abs(self.hamiltonian()))
    dt = 1.0 / (_REFERENCE_STEPS_PER_PERIOD * hmax / (2 * pi))
    psi = np.tile(np.asarray(psi0, dtype=complex)[:, None], (1, ncol))
    out = np.zeros((len(times), self.dim, ncol))
    t_now = 0.0
    for i, t_out in enumerate(times):
        while t_now < t_out - 1e-18:
            step = min(dt, t_out - t_now)
            psi = _rk4_step(f, t_now, psi, step)
            t_now += step
        out[i] = np.abs(psi) ** 2
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="integrate again and fail if the recorded file differs")
    args = parser.parse_args(argv)
    rk4 = run_device_cases(_reference_evolve_columns)
    if not args.check:
        RK4_REFERENCE.parent.mkdir(exist_ok=True)
        RK4_REFERENCE.write_text(json.dumps(rk4, indent=1) + "\n")
        print(f"wrote {RK4_REFERENCE}")
        return 0
    stored = json.loads(RK4_REFERENCE.read_text())
    problems = [] if stored.keys() == rk4.keys() else [f"cases {list(stored)} != {list(rk4)}"]
    for name in stored.keys() & rk4.keys():
        if stored[name]["fingerprint"] != rk4[name]["fingerprint"]:
            problems.append(f"{name}: fingerprint differs")
        want, got = np.array(stored[name]["populations"]), np.array(rk4[name]["populations"])
        if want.shape != got.shape or not np.max(np.abs(want - got)) <= CHECK_ATOL:
            problems.append(f"{name}: populations differ from the RK4 integration")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{RK4_REFERENCE}: {'differs' if problems else f'{len(rk4)} cases match'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
