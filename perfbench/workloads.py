"""The benchmark's workloads: jobs, their seeded inputs and their checks.

A workload is a list of jobs run as one round in a fresh process.  Each
job has a kind, a timed ``run`` that calls pstsim through its public
API or through ``cli.main`` in-process, and an untimed ``parse`` and
``verify`` that read what the program produced and return a list of
problems (empty when the output is correct).

Inputs depend only on the benchmark seed, so every round of one run
repeats the same inputs.  Seeded inputs (effective-backend noise seeds,
``calibrate`` seeds, tomography seeds) are drawn from fixed pools of
``POOL`` values; ``refs/`` holds the program's outputs for every pool
value, recorded by ``record_refs.py``, so any benchmark seed can be
checked.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
REFS = os.path.join(HERE, "refs")
TWO_PI = 2.0 * math.pi
POOL = 128
TAU = 640e-9

# Slot metric names, in the order of each workload's ``KINDS``.
SLOTS = ("job1_s", "job2_s", "job3_s", "job4_s")

KINDS = {
    "calibration": ("device_scan", "device_chain", "chevron_fit", "calibrate"),
    "chain_transfer": ("full_space_traj", "parity_table", "krylov_traj", "cli_small"),
    "ghz_tomography": ("ghz_tomo", "ghz_n5", "ghz_n4", "ghz_small"),
}

# Jobs of each kind in one round.
COUNTS = {
    "calibration": {"device_scan": 3, "device_chain": 3, "chevron_fit": 40,
                    "calibrate": 10},
    "chain_transfer": {"full_space_traj": 2, "parity_table": 2, "krylov_traj": 2,
                       "cli_small": 4},
    "ghz_tomography": {"ghz_tomo": 2, "ghz_n5": 2, "ghz_n4": 4, "ghz_small": 10},
}

GHZ_N = {"ghz_tomo": 6, "ghz_n5": 5, "ghz_n4": 4}


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], object]
    parse: Callable[[object], object]
    verify: Callable[[object], list]


def seeded_picks(seed: int) -> dict:
    """Pool values for every seeded job kind, a pure function of ``seed``."""
    rng = np.random.default_rng(abs(int(seed)))
    picks = {}
    for workload in ("calibration", "ghz_tomography"):
        for kind, count in COUNTS[workload].items():
            if kind in ("chevron_fit", "calibrate", *GHZ_N, "ghz_small"):
                picks[kind] = [int(v) for v in rng.choice(POOL, count, replace=False)]
    return picks


def load_refs() -> dict:
    refs = {}
    for name in ("device", "calibrate", "ghz", "cli_small"):
        with open(os.path.join(REFS, f"{name}.json")) as fh:
            refs[name] = json.load(fh)
    return refs


# -- shared helpers -----------------------------------------------------------

class OutDirs:
    """Fresh output directories for CLI jobs, under one scratch root."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def new(self) -> str:
        self.count += 1
        path = os.path.join(self.root, f"job{self.count:04d}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def run_cli(argv) -> int:
    """``pstsim <argv>`` in-process; the printed file list is discarded."""
    from pstsim import cli

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:      # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2


def read_csv(path: str) -> dict:
    """Columns of a numeric CSV as float arrays; non-numeric cells as str."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    out = {}
    for j, name in enumerate(rows[0]):
        cells = [r[j] for r in rows[1:]]
        try:
            out[name] = np.array([float(c) for c in cells])
        except ValueError:
            out[name] = cells
    return out


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def json_numbers(value, path: str = "", out=None) -> dict:
    """Numbers of a JSON tree grouped by key path (list indices dropped)."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for k in sorted(value):
            json_numbers(value[k], f"{path}/{k}", out)
    elif isinstance(value, list):
        for v in value:
            json_numbers(v, f"{path}[]", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out.setdefault(path, []).append(float(value))
    return out


def file_numbers(path: str) -> dict:
    """Field -> numbers for a CSV or JSON output file."""
    if path.endswith(".json"):
        return json_numbers(read_json(path))
    return {k: v.tolist() for k, v in read_csv(path).items()
            if isinstance(v, np.ndarray)}


def compare_fields(got: dict, ref: dict, rtol: float, where: str) -> list:
    """Each number within rtol of the reference, relative to its field's scale."""
    problems = []
    if sorted(got) != sorted(ref):
        return [f"{where}: fields {sorted(got)} != reference {sorted(ref)}"]
    for field, ref_vals in ref.items():
        a, b = np.asarray(got[field], float), np.asarray(ref_vals, float)
        if a.shape != b.shape:
            problems.append(f"{where}{field}: {a.size} values, reference {b.size}")
            continue
        scale = max(float(np.max(np.abs(b))) if b.size else 0.0, 1e-300)
        err = np.abs(a - b) / np.maximum(np.abs(b), scale)
        if not np.all(err <= rtol):
            problems.append(f"{where}{field}: relative error {np.max(err):.3g} > {rtol}")
    return problems


def wrap(x):
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


# -- calibration ------------------------------------------------------------------

def device_scan_inputs(backend):
    dev = backend.device
    bare = abs(dev.qubits[0].frequency_hz - dev.qubits[1].frequency_hz)
    freqs = TWO_PI * (bare + np.arange(2e6, 15e6, 2e6))
    return (1, 2), [0.01], freqs, np.linspace(0.0, 8e-9, 5)


def device_chain_inputs(backend):
    from pstsim import calibration

    f = [q.frequency_hz for q in backend.device.qubits]
    drives = calibration.DriveSettings(
        (0.01, 0.01), (TWO_PI * abs(f[0] - f[1]), TWO_PI * abs(f[1] - f[2])))
    return drives, 1, np.linspace(0.0, 2e-9, 5)


def chevron_inputs(config):
    pair, amp = (2, 3), 0.012
    injected = config.coupling_slopes[1] * amp
    res = config.resonances([0.0, amp, 0.0, 0.0, 0.0])[1]
    freqs = res + TWO_PI * np.linspace(-1.2e6, 1.2e6, 21)
    return pair, amp, injected, freqs, np.linspace(0.0, 1.2e-6, 41)


def verify_populations(pops, ref, tol: float = 1e-4) -> list:
    pops = np.asarray(pops, float)
    ref = np.asarray(ref, float)
    problems = []
    if pops.shape != ref.shape:
        return [f"shape {pops.shape} != reference {ref.shape}"]
    if pops.min() < 0.0 or pops.max() > 1.0:
        problems.append(f"populations outside [0, 1]: [{pops.min()}, {pops.max()}]")
    err = float(np.max(np.abs(pops - ref)))
    if err > tol:
        problems.append(f"max deviation from reference {err:.3g} > {tol}")
    return problems


def parse_calibrate(out_dir: str) -> dict:
    data = read_json(os.path.join(out_dir, "calibration.json"))
    conv = read_csv(os.path.join(out_dir, "convergence.csv"))
    return {"evaluations": data["evaluations"], "history": len(data["history"]),
            "best_objective": data["best_objective"],
            "running_min": conv["running_min"], "rows": len(conv["evaluation"])}


def verify_calibrate(out: dict, ref_best: float, budget: int = 500,
                     rtol: float = 1e-6) -> list:
    problems = []
    if not out["evaluations"] == out["history"] == out["rows"] == budget:
        problems.append(f"evaluations {out['evaluations']}/{out['history']}/"
                        f"{out['rows']} != {budget}")
    if np.any(np.diff(out["running_min"]) > 0):
        problems.append("running_min increases")
    best = out["best_objective"]
    if abs(best - ref_best) > rtol * abs(ref_best):
        problems.append(f"best objective {best!r} != reference {ref_best!r}")
    if (best < 0.02) != (ref_best < 0.02):
        problems.append("convergence below 0.02 differs from the reference")
    return problems


def calibration_jobs(fx, seed: int, refs: dict) -> list:
    from pstsim import calibration

    picks = seeded_picks(seed)
    backend = fx["device_backend"]
    jobs = []

    scan_args = device_scan_inputs(backend)
    for _ in range(COUNTS["calibration"]["device_scan"]):
        jobs.append(Job(
            "device_scan", "device chevron scan, pair (1,2)",
            lambda: calibration.chevron_scan(backend, *scan_args).populations,
            lambda pops: pops,
            lambda pops: verify_populations(pops, refs["device"]["scan"])))

    chain_args = device_chain_inputs(backend)
    for _ in range(COUNTS["calibration"]["device_chain"]):
        jobs.append(Job(
            "device_chain", "device two-drive chain run",
            lambda: backend.run_chain(*chain_args),
            lambda pops: pops,
            lambda pops: verify_populations(pops, refs["device"]["chain"])))

    pair, amp, injected, freqs, times = chevron_inputs(fx["effective_config"])
    for s in picks["chevron_fit"]:
        def run(s=s):
            eff = calibration.EffectiveBackend(fx["effective_config"], seed=s)
            data = calibration.chevron_scan(eff, pair, [amp], freqs, times)
            return calibration.fit_chevron(data).coupling

        def verify(coupling):
            err = abs(coupling - injected) / injected
            return [] if err < 0.02 else [f"|J_fit - J|/J = {err:.4f} >= 0.02"]

        jobs.append(Job("chevron_fit", f"effective chevron fit, seed {s}",
                        run, lambda c: c, verify))

    for s in picks["calibrate"]:
        def run(s=s):
            d = fx["out"].new()
            code = run_cli(["calibrate", "--budget", "500", "--seed", str(s),
                            "--out-dir", d])
            return code, d

        jobs.append(Job(
            "calibrate", f"pstsim calibrate --budget 500 --seed {s}", run,
            lambda r: dict(parse_calibrate(r[1]), code=r[0]),
            lambda out, s=s: ([f"exit code {out['code']}"] if out["code"] else [])
            + verify_calibrate(out, refs["calibrate"][str(s)])))
    return jobs


# -- chain_transfer ------------------------------------------------------------

PARITY_ROWS = 4 * 2 ** (8 - 2)     # four inputs x every inner bitstring at n = 8
PST10_ARGV = ["pst", "--n", "10", "--tau", "640ns", "--initial", "1100000000",
              "--times", "0:2tau:3"]


def verify_mirror(times, pops, norm, tau, tol) -> list:
    """Outer pair arrives mirrored at tau and back at 2 tau; norm stays 1."""
    times, pops, norm = np.asarray(times), np.asarray(pops), np.asarray(norm)
    n = pops.shape[1]
    problems = []
    i1 = int(np.argmin(np.abs(times - tau)))
    i2 = int(np.argmin(np.abs(times - 2 * tau)))
    if abs(times[i1] - tau) > 1e-6 * tau or abs(times[i2] - 2 * tau) > 1e-6 * tau:
        return ["time grid misses tau or 2 tau"]
    low = float(min(pops[i1, n - 2], pops[i1, n - 1]))
    if low < 1 - tol:
        problems.append(f"sites {n - 1}-{n} at tau: population {low!r} < 1 - {tol}")
    low = float(min(pops[i2, 0], pops[i2, 1]))
    if low < 1 - tol:
        problems.append(f"sites 1-2 at 2 tau: population {low!r} < 1 - {tol}")
    err = float(np.max(np.abs(norm - 1.0)))
    if err > tol:
        problems.append(f"norm deviates from 1 by {err:.3g} > {tol}")
    return problems


def parse_trajectory_csv(path: str) -> dict:
    cols = read_csv(path)
    sites = sorted((k for k in cols if k.startswith("pop_site_")),
                   key=lambda k: int(k.rsplit("_", 1)[1]))
    return {"times": cols["time_s"], "norm": cols["norm"],
            "pops": np.column_stack([cols[k] for k in sites])}


def verify_parity(rows, expected_offset: float = math.pi, tol: float = 1e-9) -> list:
    """phase - parity pi/2 is one constant over all rows, and that constant is pi."""
    if not rows:
        return ["no parity rows"]
    offset = np.array([r["phase_rad"] - r["parity"] * math.pi / 2 for r in rows])
    spread = float(np.max(np.abs(wrap(offset - offset[0]))))
    problems = []
    if spread > tol:
        problems.append(f"phase - parity*pi/2 varies by {spread:.3g} > {tol}")
    miss = float(abs(wrap(offset[0] - expected_offset)))
    if miss > tol:
        problems.append(f"common offset {offset[0]:.12f} is not pi (off by {miss:.3g})")
    return problems


def cli_small_commands() -> dict:
    return {
        "couplings": ["couplings", "--n", "6", "--tau", "640ns"],
        "pst6": ["pst", "--n", "6", "--tau", "640ns", "--svg"],
        "fst3": ["fst", "--n", "3", "--tau", "640ns", "--theta", "0.6pi"],
        "evolve": ["evolve", "--config", os.path.join(INPUTS, "chain_n6.json"),
                   "--noise", os.path.join(INPUTS, "noise_t1.json")],
        "parity_zz": ["parity", "--config",
                      os.path.join(INPUTS, "scenario_parity_zz.json")],
        "lattice": ["lattice", "--nx", "9", "--ny", "7", "--svg"],
    }


def parse_cli_small(result) -> dict:
    """Exit code, file names and per-file numbers of each batch command."""
    out = {}
    for name, (code, d) in result.items():
        files = sorted(os.listdir(d))
        out[name] = {"code": code, "files": files,
                     "numbers": {f: file_numbers(os.path.join(d, f)) for f in files
                                 if f.endswith((".csv", ".json"))}}
    return out


def verify_cli_small(out: dict, ref: dict, rtol: float = 1e-9) -> list:
    problems = []
    if sorted(out) != sorted(ref):
        return [f"commands {sorted(out)} != reference {sorted(ref)}"]
    for name, got in out.items():
        want = ref[name]
        if got["code"] != 0:
            problems.append(f"{name}: exit code {got['code']}")
            continue
        if got["files"] != want["files"]:
            problems.append(f"{name}: files {got['files']} != {want['files']}")
            continue
        for f, fields in want["numbers"].items():
            problems += compare_fields(got["numbers"][f], fields, rtol, f"{name}/{f}:")
    return problems


def run_cli_small(out_dirs) -> dict:
    return {name: (run_cli([*argv, "--out-dir", d]), d)
            for name, argv in cli_small_commands().items()
            for d in [out_dirs.new()]}


def krylov_run():
    from pstsim import evolution, statespace
    from pstsim.models import chains

    spec = chains.ChainSpec.pst(12, TAU)
    psi0 = np.zeros(2**12, dtype=complex)
    psi0[int("110000000000", 2)] = 1.0
    return evolution.evolve(chains.chain_hamiltonian(spec), psi0,
                            np.linspace(0.0, 2 * TAU, 41),
                            evolution.EvolutionOptions(method="krylov"),
                            occupations=statespace.occupation_matrix(12))


def chain_transfer_jobs(fx, seed: int, refs: dict) -> list:
    jobs = []

    def pst_run():
        d = fx["out"].new()
        return run_cli([*PST10_ARGV, "--out-dir", d]), d

    def pst_parse(r):
        return dict(parse_trajectory_csv(os.path.join(r[1], "pst_trajectory.csv")),
                    code=r[0])

    for _ in range(COUNTS["chain_transfer"]["full_space_traj"]):
        jobs.append(Job(
            "full_space_traj", "pstsim " + " ".join(PST10_ARGV), pst_run, pst_parse,
            lambda o: ([f"exit code {o['code']}"] if o["code"] else [])
            + verify_mirror(o["times"], o["pops"], o["norm"], TAU, 1e-9)))

    def parity_run():
        d = fx["out"].new()
        return run_cli(["parity", "--n", "8", "--out-dir", d]), d

    for _ in range(COUNTS["chain_transfer"]["parity_table"]):
        jobs.append(Job(
            "parity_table", "pstsim parity --n 8", parity_run,
            lambda r: {"code": r[0],
                       "rows": read_json(os.path.join(r[1], "parity.json"))["rows"]},
            lambda o: ([f"exit code {o['code']}"] if o["code"] else [])
            + ([] if len(o["rows"]) == PARITY_ROWS
               else [f"{len(o['rows'])} rows, not {PARITY_ROWS}"])
            + verify_parity(o["rows"])))

    for _ in range(COUNTS["chain_transfer"]["krylov_traj"]):
        jobs.append(Job(
            "krylov_traj", "evolve(chain n=12, krylov, 41 points)", krylov_run,
            lambda t: {"times": t.times, "pops": t.populations, "norm": t.norm},
            lambda o: verify_mirror(o["times"], o["pops"], o["norm"], TAU, 1e-8)))

    for k in range(COUNTS["chain_transfer"]["cli_small"]):
        jobs.append(Job(
            "cli_small", f"small-command batch #{k + 1}",
            lambda: run_cli_small(fx["out"]), parse_cli_small,
            lambda o: verify_cli_small(o, refs["cli_small"])))
    return jobs


# -- ghz_tomography --------------------------------------------------------------

def ghz_argv(kind: str, s: int) -> list:
    if kind == "ghz_small":
        return ["ghz", "--noise", "paper", "--shots", "10000", "--seed", str(s)]
    return ["ghz", "--n", str(GHZ_N[kind]), "--shots", "1000", "--seed", str(s)]


def parse_ghz(r) -> dict:
    data = read_json(os.path.join(r[1], "ghz.json"))
    return {"code": r[0], "fidelity": data["state_fidelity"]["fidelity"],
            "fidelity_opt": data["state_fidelity"]["fidelity_opt"],
            "report_fidelity": data.get("report", {}).get("fidelity")}


def verify_ghz(out: dict, ref, tol: float = 1e-9) -> list:
    problems = [f"exit code {out['code']}"] if out["code"] else []
    for key, want in zip(("fidelity", "fidelity_opt"), ref):
        if abs(out[key] - want) > tol:
            problems.append(f"{key} {out[key]!r} != reference {want!r}")
    return problems


def verify_ghz_paper(out: dict, ref) -> list:
    problems = verify_ghz(out, ref)
    f = out["report_fidelity"]
    if f is None or not 0.80 <= f <= 0.92:
        problems.append(f"paper-scenario report fidelity {f!r} outside [0.80, 0.92]")
    return problems


def ghz_tomography_jobs(fx, seed: int, refs: dict) -> list:
    picks = seeded_picks(seed)
    jobs = []
    for kind in KINDS["ghz_tomography"]:
        verify = verify_ghz_paper if kind == "ghz_small" else verify_ghz
        for s in picks[kind]:
            def run(kind=kind, s=s):
                d = fx["out"].new()
                return run_cli([*ghz_argv(kind, s), "--out-dir", d]), d

            jobs.append(Job(kind, "pstsim " + " ".join(ghz_argv(kind, s)), run,
                            parse_ghz,
                            lambda o, kind=kind, s=s, verify=verify:
                            verify(o, refs["ghz"][kind][str(s)])))
    return jobs


# -- fixtures: what a round needs before its first job ----------------------------

def fixtures(workload: str, out_root: str) -> dict:
    """Program-side set-up of one round: device spec, configs, out-dir."""
    from pstsim import calibration, serialize

    fx = {"out": OutDirs(out_root)}
    if workload == "calibration":
        fx["device_backend"] = calibration.DeviceBackend()
        fx["effective_config"] = calibration.default_effective_config(noise=0.01)
    elif workload == "chain_transfer":
        # parsed here so a broken input fails before any job is timed
        serialize.load_chain(os.path.join(INPUTS, "chain_n6.json"))
        serialize.load_noise(os.path.join(INPUTS, "noise_t1.json"))
        serialize.load_scenario(os.path.join(INPUTS, "scenario_parity_zz.json"))
    return fx


JOBS = {
    "calibration": calibration_jobs,
    "chain_transfer": chain_transfer_jobs,
    "ghz_tomography": ghz_tomography_jobs,
}


def round_jobs(workload: str, fx, seed: int, refs: dict) -> list:
    """The round's jobs, each kind spread evenly over the round.

    The machine's speed drifts over seconds, so a kind whose jobs ran
    back to back would sample one short stretch of it; spreading them
    makes each kind's median cover the whole round.
    """
    jobs = JOBS[workload](fx, seed, refs)
    kinds = KINDS[workload]
    seen = {k: 0 for k in kinds}
    keyed = []
    for job in jobs:
        k, i = kinds.index(job.kind), seen[job.kind]
        seen[job.kind] += 1
        phase = (k + 1) / (len(kinds) + 1)
        keyed.append(((i + phase) / COUNTS[workload][job.kind], k, job))
    return [job for _, _, job in sorted(keyed, key=lambda t: t[:2])]
