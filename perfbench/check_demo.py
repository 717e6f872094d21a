"""Show that every output check passes on real output and fails on a perturbed one.

Run from the root of a checkout::

    python3 perfbench/check_demo.py

For one job of each kind it runs the program, checks the real output
(must pass), then applies each perturbation below to a copy of the
parsed output and checks again (must fail with the named problem).
Exits non-zero if any check misses its perturbation.
"""

from __future__ import annotations

import copy
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import setup  # noqa: E402


def bump(arr, index, delta):
    arr = np.array(arr, dtype=float)
    arr[index] += delta
    return arr


def edit(out, key, fn):
    out = copy.deepcopy(out)
    out[key] = fn(out[key])
    return out


def set_first_number(out, scale):
    """Scale the first number of the first JSON file of the first command."""
    out = copy.deepcopy(out)
    first = out[sorted(out)[0]]
    fname = next(f for f in sorted(first["numbers"]) if f.endswith(".json"))
    field = sorted(first["numbers"][fname])[0]
    vals = first["numbers"][fname][field]
    vals[0] = vals[0] * scale if vals[0] else 1e-6
    return out


def row_shift(rows, delta, all_rows=False):
    rows = copy.deepcopy(rows)
    for r in rows if all_rows else rows[:1]:
        r["phase_rad"] += delta
    return rows


PERTURB = {
    "device_scan": [
        ("populations + 2e-4", lambda o: o + 2e-4, "deviation from reference"),
        ("one population at -1e-6", lambda o: bump(o, (0, 0, 0), -o[0, 0, 0] - 1e-6),
         "outside [0, 1]"),
    ],
    "device_chain": [
        ("populations - 2e-4", lambda o: o - 2e-4, "deviation from reference"),
        ("one population at 1 + 1e-6",
         lambda o: bump(o, (0, 0), 1.0 + 1e-6 - o[0, 0]), "outside [0, 1]"),
    ],
    "chevron_fit": [
        ("coupling x 1.03", lambda c: c * 1.03, ">= 0.02"),
    ],
    "calibrate": [
        ("499 evaluations", lambda o: dict(o, evaluations=499), "evaluations"),
        ("running_min rises once",
         lambda o: edit(o, "running_min", lambda r: bump(r, -1, 1e-3)), "increases"),
        ("best objective x (1 + 2e-6)",
         lambda o: dict(o, best_objective=o["best_objective"] * (1 + 2e-6)),
         "!= reference"),
        ("best objective 0.021 on a run that converged",
         lambda o: dict(o, best_objective=0.021 if o["best_objective"] < 0.02 else 0.019),
         "convergence below 0.02"),
    ],
    "full_space_traj": [
        ("site 9 at tau - 2e-9",
         lambda o: edit(o, "pops", lambda p: bump(p, (1, 8), -2e-9)), "at tau"),
        ("site 2 at 2 tau - 2e-9",
         lambda o: edit(o, "pops", lambda p: bump(p, (2, 1), -2e-9)), "at 2 tau"),
        ("norm + 2e-9", lambda o: edit(o, "norm", lambda n: bump(n, 1, 2e-9)), "norm"),
    ],
    "krylov_traj": [
        ("site 11 at tau - 2e-8",
         lambda o: edit(o, "pops", lambda p: bump(p, (20, 10), -2e-8)), "at tau"),
        ("site 1 at 2 tau - 2e-8",
         lambda o: edit(o, "pops", lambda p: bump(p, (40, 0), -2e-8)), "at 2 tau"),
        ("norm - 2e-8", lambda o: edit(o, "norm", lambda n: bump(n, 3, -2e-8)), "norm"),
    ],
    "parity_table": [
        ("one phase + 2e-9", lambda o: edit(o, "rows", lambda r: row_shift(r, 2e-9)),
         "varies"),
        ("every phase + 1e-3",
         lambda o: edit(o, "rows", lambda r: row_shift(r, 1e-3, True)), "is not pi"),
        ("one row missing", lambda o: edit(o, "rows", lambda r: r[1:]), "rows"),
    ],
    "cli_small": [
        ("exit code 1", lambda o: {k: dict(v, code=1) if k == "lattice" else v
                                   for k, v in o.items()}, "exit code"),
        ("one number x (1 + 2e-9)", lambda o: set_first_number(o, 1 + 2e-9),
         "relative error"),
        ("one file missing",
         lambda o: {k: dict(v, files=v["files"][1:]) if k == "pst6" else v
                    for k, v in o.items()}, "files"),
    ],
    "ghz_tomo": [
        ("fidelity + 2e-9", lambda o: dict(o, fidelity=o["fidelity"] + 2e-9),
         "fidelity "),
        ("fidelity_opt - 2e-9",
         lambda o: dict(o, fidelity_opt=o["fidelity_opt"] - 2e-9), "fidelity_opt"),
    ],
    "ghz_small": [
        ("report fidelity 0.93", lambda o: dict(o, report_fidelity=0.93), "outside"),
        ("fidelity + 2e-9", lambda o: dict(o, fidelity=o["fidelity"] + 2e-9),
         "fidelity "),
    ],
}


def main() -> int:
    misses = 0
    for workload in ("calibration", "chain_transfer", "ghz_tomography"):
        _, fx, _ = setup(workload)
        import workloads

        try:
            jobs = workloads.JOBS[workload](fx, 0, workloads.load_refs())
            seen = set()
            for job in jobs:
                if job.kind in seen or job.kind not in PERTURB:
                    continue
                seen.add(job.kind)
                out = job.parse(job.run())
                problems = job.verify(out)
                print(f"{job.kind}: real output -> "
                      f"{'PASS' if not problems else 'FAIL ' + '; '.join(problems)}")
                misses += bool(problems)
                for what, perturb, expect in PERTURB[job.kind]:
                    problems = job.verify(perturb(out))
                    hit = any(expect in p for p in problems)
                    misses += not hit
                    print(f"  {what}: {'caught' if hit else 'MISSED'}"
                          f" ({'; '.join(problems)[:150] or 'no problem reported'})")
        finally:
            fx["out"].close()
    print("all checks fail on their perturbations" if not misses
          else f"{misses} check(s) did not behave")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
