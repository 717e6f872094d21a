"""Command-line surface: run the experiments, emit deterministic files.

Every command writes its outputs plus a ``<command>_manifest.json`` into
the output directory (``--out-dir``, default from ``PSTSIM_OUT`` or the
current directory).  All files are byte-identical across reruns with the
same flags and seed; no wall-clock time is measured or written.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import __version__, calibration, evolution, protocols, serialize, svg, tomography
from .models import chains, lattice

ENV_OUT_DIR = "PSTSIM_OUT"


class UsageError(Exception):
    """Bad flag combination; reported through the argparse usage path."""

_TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_time(text: str) -> float:
    """Seconds from a number with an optional ns/us/ms/s suffix."""
    m = re.fullmatch(r"\s*([+-]?[0-9.]+(?:[eE][+-]?[0-9]+)?)\s*(ns|us|ms|s)?\s*",
                     text)
    if not m:
        raise ValueError(f"cannot parse time {text!r}")
    return float(m.group(1)) * _TIME_UNITS[m.group(2) or "s"]


def parse_angle(text: str) -> float:
    """Radians, with '0.6pi'-style multiples accepted."""
    t = text.strip().lower()
    if t.endswith("pi"):
        head = t[:-2]
        return (float(head) if head else 1.0) * math.pi
    return float(t)


def _time_token(token: str, tau: float) -> float:
    t = token.strip().lower()
    if t.endswith("tau"):
        head = t[:-3]
        return (float(head) if head else 1.0) * tau
    return parse_time(t)


def parse_times(text: str, tau: float) -> np.ndarray:
    """'start:stop:num' grid; endpoints take unit or 'tau' suffixes."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("--times must look like start:stop:num")
    try:
        start = _time_token(parts[0], tau)
        stop = _time_token(parts[1], tau)
        num = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--times {text!r}: {exc}") from None
    for t in (start, stop):
        if not math.isfinite(t):
            raise UsageError(f"--times endpoint {t} is not finite")
    if num < 2:
        raise UsageError("--times needs at least two points")
    if num > evolution.OUTPUT_GUARD:
        raise UsageError(f"--times asks for {num} points, above the output guard of "
                         f"{evolution.OUTPUT_GUARD}")
    if stop <= start:
        raise UsageError("--times stop must exceed start")
    return np.linspace(start, stop, num)


def initial_state(text: str):
    """'site<k>' -> the site index k; any other text is an occupation string.

    :func:`protocols.run_pst` takes either, checks it against the chain
    and checks the guards on the block it touches.
    """
    m = re.fullmatch(r"site(\d+)", text.strip())
    return int(m.group(1)) if m else text.strip()


class _Outputs:
    """Collects written files and finishes with the manifest."""

    def __init__(self, args, command: str):
        self.dir = args.out_dir or os.environ.get(ENV_OUT_DIR) or "."
        os.makedirs(self.dir, exist_ok=True)
        self.command = command
        self.names = []

    def path(self, name: str) -> str:
        self.names.append(name)
        return os.path.join(self.dir, name)

    def finish(self, config: dict, seed: int = 0) -> None:
        manifest = serialize.RunManifest(
            command=self.command, config=config, seed=seed,
            version=__version__, outputs=tuple(self.names))
        manifest.write(os.path.join(self.dir, f"{self.command}_manifest.json"))
        for name in (*self.names, f"{self.command}_manifest.json"):
            print(os.path.join(self.dir, name))


def _trajectory_svg(traj, tau: float, path: str, title: str) -> None:
    pops = traj.populations.T  # rows = sites, row 0 (site 1) on top
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    span = (t1 - t0) or 1.0
    ticks = []
    k0 = math.ceil(t0 / tau - 1e-9)
    while k0 * tau <= t1 + 1e-12:
        ticks.append((((k0 * tau) - t0) / span, f"{k0}"))
        k0 += 1
    n = pops.shape[0]
    y_ticks = [((i + 0.5) / n, str(i + 1)) for i in range(n)]
    svg.heatmap(pops, path, title=title, x_label="t / tau", y_label="site",
                x_ticks=ticks, y_ticks=y_ticks, vmin=0.0, vmax=1.0)


def _run_trajectory(args, command: str, spec: chains.ChainSpec,
                    config: dict) -> int:
    times = parse_times(args.times, spec.tau)
    out = _Outputs(args, command)
    initial = initial_state(args.initial)
    noise = serialize.load_noise(args.noise) if args.noise else None
    if noise is not None and len(noise.t1) != spec.n_sites:
        raise ValueError(f"noise table has {len(noise.t1)} entries for "
                         f"{spec.n_sites} sites")
    traj = protocols.run_pst(spec, initial, times, noise=noise)
    csv_name = args.out or f"{command}_trajectory.csv"
    serialize.write_trajectory_csv(out.path(csv_name), traj)
    if args.svg:
        stem = csv_name.rsplit(".", 1)[0]
        _trajectory_svg(traj, spec.tau, out.path(f"{stem}.svg"),
                        f"{command} n={spec.n_sites}")
    config = dict(config, initial=args.initial, times=args.times,
                  model=protocols.noise_label(spec.zz, noise),
                  noise=os.path.basename(args.noise or ""))
    out.finish(config)
    return 0


def _parse_tau(text: str) -> float:
    try:
        return parse_time(text)
    except ValueError as exc:
        raise UsageError(f"--tau: {exc}") from None


def _chain_spec(n: int, tau_text: str, theta_text: str | None = None):
    """Checked (spec, theta) of a chain command: FST when theta is given, else PST."""
    if n < 2:
        raise UsageError("--n must be at least 2")
    tau = _parse_tau(tau_text)
    if not 0 < tau < math.inf:
        raise UsageError("--tau must be positive and finite")
    try:
        theta = parse_angle(theta_text) if theta_text is not None else None
    except ValueError as exc:
        raise UsageError(f"--theta: {exc}") from None
    if theta is not None and not 0.0 <= theta <= math.pi:
        raise UsageError("--theta must lie in [0, pi]")
    try:
        spec = chains.ChainSpec.pst(n, tau) if theta is None else chains.ChainSpec.fst(n, tau, theta)
    except ValueError as exc:               # a tau so short that the couplings overflow
        raise UsageError(f"--tau: {exc}") from None
    return spec, theta


def cmd_couplings(args) -> int:
    spec, theta = _chain_spec(args.n, args.tau, args.theta)
    out = _Outputs(args, "couplings")
    payload = {
        "schema_version": serialize.SCHEMA_VERSION,
        "n": args.n,
        "tau_s": spec.tau,
        "units": {"couplings_hz": "Hz", "detunings_hz": "Hz", "tau_s": "s"},
        "couplings_hz": [j / math.tau for j in spec.couplings],
    }
    if theta is not None:
        payload["theta_rad"] = theta
        payload["transfer_fraction"] = math.sin(theta / 2.0) ** 2
        payload["detunings_hz"] = [d / math.tau for d in spec.detunings]
    if args.format == "json":
        serialize.write_json(out.path("couplings.json"), payload)
    else:
        rows = [("coupling", spec.couplings)] + [("detuning", spec.detunings)] * (theta is not None)
        cells = [x for kind, values in rows
                 for k, v in enumerate(values, start=1) for x in (kind, k, v / math.tau)]
        serialize.write_csv(out.path("couplings.csv"), ["kind", "index", "value_hz"],
                            "%s,%d,%.12e\n", cells)
    out.finish({"n": args.n, "tau": args.tau, "theta": args.theta or "",
                "format": args.format})
    return 0


def cmd_evolve(args) -> int:
    spec = serialize.load_chain(args.config)
    return _run_trajectory(args, "evolve", spec,
                           {"config": os.path.basename(args.config)})


def cmd_pst(args) -> int:
    spec, _ = _chain_spec(args.n, args.tau)
    return _run_trajectory(args, "pst", spec, {"n": args.n, "tau": args.tau})


def cmd_fst(args) -> int:
    spec, _ = _chain_spec(args.n, args.tau, args.theta)
    return _run_trajectory(args, "fst", spec,
                           {"n": args.n, "tau": args.tau, "theta": args.theta})


def cmd_parity(args) -> int:
    n, tau, zeta, noise, label = args.n, None, (), None, ""
    if args.config:
        parsed = serialize.load_scenario(args.config)
        if parsed["kind"] != "parity":
            raise ValueError(f"scenario kind {parsed['kind']!r} is not 'parity'")
        if args.n is not None and args.n != parsed["n"]:
            raise UsageError(f"--n {args.n} conflicts with scenario n={parsed['n']}")
        n = parsed["n"]
        tau = parsed["tau"]
        zeta = parsed["zeta"]
        noise = parsed["noise"]
        label = parsed["label"]
    if n is None:
        raise UsageError("--n is required without a scenario config")
    if n < 3:
        raise UsageError("--n must be at least 3")
    model = protocols.noise_label(zeta, noise)
    inputs = tuple(args.inputs.split(","))
    for inp in inputs:
        if inp not in protocols.INPUT_PHASES:
            raise UsageError(f"unknown input state {inp!r}")
    out = _Outputs(args, "parity")
    if args.inner == "all":
        table = protocols.parity_phase_table(n, inputs, zeta=zeta, noise=noise, tau=tau)
    else:
        if not re.fullmatch(r"[01]+", args.inner) or len(args.inner) != n - 2:
            raise UsageError(f"--inner must be 'all' or an {n - 2}-bit string")
        table = protocols.parity_phase_experiment(n, args.inner, inputs, zeta=zeta,
                                                  noise=noise, tau=tau)
    keys = ["inner", "input_state", "parity", "phase_rad", "deviation_rad"]
    rows = np.rec.fromarrays([table.inner, table.input_state, table.parity, table.phase,
                              table.deviation], names=keys)
    payload = {"schema_version": serialize.SCHEMA_VERSION, "n": n,
               "model": model, "tau_s": tau,
               "zeta_hz": [z / math.tau for z in zeta], "label": label,
               "rows": rows}
    first = table[::len(inputs)]        # the first input's rows; the table is inner-major
    if "zz" in model and args.inner == "all":
        payload["fit"] = protocols.parity_deviation_fit(first)
    serialize.write_json(out.path("parity.json"), payload)
    serialize.write_csv(out.path("parity.csv"), keys, "%s,%s,%s,%.12e,%.12e\n",
                        [x for row in rows.tolist() for x in row])
    if args.svg:
        svg.bar_chart(first.inner.tolist(), first.phase.tolist(), out.path("parity.svg"),
                      title=f"transfer phase by inner state (n={n}, {model})",
                      y_label="phase (rad)")
    out.finish({"n": n, "inner": args.inner, "model": model,
                "inputs": args.inputs,
                "config": os.path.basename(args.config) if args.config else ""})
    return 0


def _rho_corner_svg(rho: np.ndarray, path: str, title: str) -> None:
    d = rho.shape[0]
    labels = ["rho[0,0]", "|rho[0,d]|", "|rho[d,0]|", "rho[d,d]"]
    values = [rho[0, 0].real, abs(rho[0, d - 1]), abs(rho[d - 1, 0]),
              rho[d - 1, d - 1].real]
    svg.bar_chart(labels, values, path, title=title, y_label="magnitude",
                  vmin=0.0, vmax=0.6)


def cmd_ghz(args) -> int:
    if args.shots < 0:
        raise UsageError("--shots must be >= 0")
    if args.shots > np.iinfo(np.int64).max:
        # the multinomial draws count shots in a 64-bit integer
        raise UsageError("--shots must be at most 2**63 - 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    noise_name = args.noise or "none"
    scenario = None
    if noise_name == "none":
        if args.n is None:
            raise UsageError("--n is required without --noise")
        n = args.n
    else:
        if noise_name == "paper":
            scenario = protocols.paper_ghz_scenario()
        else:
            parsed = serialize.load_scenario(noise_name)
            if parsed["kind"] != "ghz":
                raise ValueError(f"scenario kind {parsed['kind']!r} is not 'ghz'")
            scenario = parsed["scenario"]
        if args.n is not None and args.n != scenario.n:
            raise UsageError(f"--n {args.n} conflicts with scenario n={scenario.n}")
        n = scenario.n
    if n < 2:
        raise UsageError("--n must be at least 2")
    if n > 8:
        raise UsageError("ghz writes the 2^n x 2^n density matrix, so n is at most 8")
    if scenario is None:
        report, state, scenario_info = None, protocols.ghz_state(n), "none"
    else:
        report = protocols.run_ghz(scenario)
        state, scenario_info = report.state, scenario.label or noise_name
    out = _Outputs(args, "ghz")
    target = protocols.ghz_state(n)
    if args.shots > 0:
        settings = tomography.TomographySettings(n, shots=args.shots, seed=args.seed)
        rho = tomography.reconstruct(state, settings)
        rho_source = "tomography"
    else:
        psi = np.asarray(state, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        rho_source = "statevector"
    fid = tomography.fidelity_opt_z(rho, target)
    payload = {
        "schema_version": serialize.SCHEMA_VERSION, "n": n,
        "noise": scenario_info, "shots": args.shots, "seed": args.seed,
        "state_fidelity": {"fidelity": fid.fidelity,
                           "fidelity_opt": fid.fidelity_opt,
                           "phi_opt_rad": fid.phi_opt,
                           "rho_source": rho_source},
    }
    if report is not None:
        payload["report"] = report.as_dict()
    serialize.write_json(out.path("ghz.json"), payload)
    serialize.write_json(out.path("ghz_rho.json"), {
        "schema_version": serialize.SCHEMA_VERSION, "n": n,
        "rho_source": rho_source, "rho": rho})
    if args.svg:
        _rho_corner_svg(rho, out.path("ghz.svg"),
                        f"GHZ density-matrix corners (n={n}, {scenario_info})")
    out.finish({"n": n, "noise": noise_name if noise_name in ("none", "paper")
                else os.path.basename(noise_name), "shots": args.shots},
               seed=args.seed)
    return 0


def cmd_calibrate(args) -> int:
    if args.budget <= 0:
        raise UsageError("--budget must be positive")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    config = calibration.default_effective_config(noise=args.noise)
    backend = calibration.EffectiveBackend(config, seed=args.seed)
    guess = calibration.perturb_drives(calibration.ideal_drive_settings(config),
                                       seed=1000 + args.seed,
                                       amplitude_scale=args.perturb)
    opt = calibration.OptimizerConfig(budget=args.budget, seed=args.seed)
    result = calibration.optimize_simultaneous_drives(backend, guess, opt)
    out = _Outputs(args, "calibrate")
    payload = dict(result.as_dict(), schema_version=serialize.SCHEMA_VERSION,
                   backend="effective", measurement_noise=args.noise)
    serialize.write_json(out.path("calibration.json"), payload)
    calibration.write_convergence_csv(result, out.path("convergence.csv"))
    if args.svg:
        svg.line_chart(result.history.evaluation, {"objective": result.history.objective,
                                                   "running min": result.running_minimum()},
                       out.path("convergence.svg"), log_y=True,
                       title=f"drive optimization (seed {args.seed})",
                       x_label="evaluation", y_label="transfer error")
    out.finish({"backend": "effective", "budget": args.budget,
                "perturb": args.perturb, "noise": args.noise}, seed=args.seed)
    print(f"best objective {result.best_objective:.6g} after "
          f"{result.evaluations} evaluations")
    return 0


def cmd_lattice(args) -> int:
    tau = _parse_tau(args.tau)
    try:
        spec = lattice.LatticeSpec(nx=args.nx, ny=args.ny, tau=tau)
    except ValueError as exc:
        raise UsageError(str(exc))
    m = re.fullmatch(r"(\d+),(\d+)", args.start.strip())
    if not m:
        raise UsageError("--start must look like x,y")
    x0, y0 = int(m.group(1)), int(m.group(2))
    if not (1 <= x0 <= spec.nx and 1 <= y0 <= spec.ny):
        raise UsageError(f"start ({x0},{y0}) outside the {spec.nx}x{spec.ny} grid")
    try:
        fractions = sorted(float(tok) for tok in args.snapshots.split(","))
    except ValueError:
        raise UsageError("--snapshots must be a comma list of numbers")
    if not fractions or any(not 0 <= f < math.inf for f in fractions):
        raise UsageError("--snapshots must be finite non-negative fractions of tau")
    out = _Outputs(args, "lattice")
    times = np.array(fractions) * tau
    traj = protocols.lattice_pst(spec, (x0, y0), times)
    grids = traj.populations.reshape(len(fractions), spec.nx, spec.ny)
    frames = [{"fraction": frac, "t_s": t, "populations": grid}
              for frac, t, grid in zip(fractions, times.tolist(), grids)]
    serialize.write_json(out.path("lattice.json"), {
        "schema_version": serialize.SCHEMA_VERSION, "nx": spec.nx,
        "ny": spec.ny, "tau_s": tau, "start": [x0, y0], "frames": frames})
    # the cells of each frame in x-major order: fraction, time, x, y and population
    frame, cell = np.divmod(np.arange(traj.populations.size), spec.nx * spec.ny)
    x, y = np.divmod(cell, spec.ny)
    table = np.column_stack([np.array(fractions)[frame], times[frame], x + 1, y + 1,
                             traj.populations.ravel()])
    serialize.write_csv(out.path("lattice.csv"), ["fraction", "t_s", "x", "y", "population"],
                        "%g,%.12e,%d,%d,%.12e\n", table.ravel())
    if args.svg:
        for k, (frac, grid) in enumerate(zip(fractions, grids)):
            svg.heatmap(grid.T, out.path(f"lattice_frame_{k}.svg"),
                        title=f"t = {frac:g} tau", x_label="x", y_label="y",
                        vmin=0.0, vmax=1.0,
                        x_ticks=[((i + 0.5) / spec.nx, str(i + 1))
                                 for i in range(spec.nx)],
                        y_ticks=[((j + 0.5) / spec.ny, str(j + 1))
                                 for j in range(spec.ny)])
    out.finish({"nx": spec.nx, "ny": spec.ny, "tau": args.tau,
                "start": args.start, "snapshots": args.snapshots})
    return 0


def _add_out_flags(p, svg_flag: bool = True) -> None:
    p.add_argument("--out-dir", default=None,
                   help=f"output directory (default ${ENV_OUT_DIR} or '.')")
    if svg_flag:
        p.add_argument("--svg", action="store_true", help="also emit SVG plots")


def _add_trajectory_flags(p) -> None:
    p.add_argument("--initial", default="site1",
                   help="site<k> or an n-bit occupation string")
    p.add_argument("--times", default="0:2tau:241",
                   help="start:stop:num with ns/us/ms or tau suffixes")
    p.add_argument("--noise", default=None,
                   help="relaxation-time table (JSON with t1_s)")
    p.add_argument("--out", default=None, help="trajectory CSV filename")
    _add_out_flags(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pstsim`` parser, built on the first call and shared by later ones.

    ``parse_args`` leaves a parser unchanged, so one parser serves every
    ``main`` call of a process.  It holds the ``cmd_*`` functions as they
    were at that first call, which is made by ``main``, never at import.
    """
    parser = argparse.ArgumentParser(
        prog="pstsim",
        description="State transfer on coupled qubit chains: trajectories, "
                    "phase tables, GHZ fidelity, drive calibration.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("couplings", help="coupling/detuning profile for a chain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", required=True, help="transfer time, e.g. 640ns")
    p.add_argument("--theta", default=None,
                   help="fractional-transfer angle (radians or '0.6pi')")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out_flags(p, svg_flag=False)
    p.set_defaults(func=cmd_couplings)

    p = sub.add_parser("evolve", help="evolve a chain config file")
    p.add_argument("--config", required=True, help="chain JSON")
    _add_trajectory_flags(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("pst", help="full-transfer chain trajectory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", required=True)
    _add_trajectory_flags(p)
    p.set_defaults(func=cmd_pst)

    p = sub.add_parser("fst", help="fractional-transfer chain trajectory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--theta", required=True)
    _add_trajectory_flags(p)
    p.set_defaults(func=cmd_fst)

    p = sub.add_parser("parity", help="transfer-phase table over inner states")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--inner", default="all", help="'all' or an (n-2)-bit string")
    p.add_argument("--inputs", default="+x,+y,-x,-y",
                   help="comma list of input states")
    p.add_argument("--config", default=None, help="parity scenario JSON")
    _add_out_flags(p)
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("ghz", help="GHZ preparation fidelity, optional tomography")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--noise", default=None,
                   help="'paper' or a GHZ scenario JSON")
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    _add_out_flags(p)
    p.set_defaults(func=cmd_ghz)

    p = sub.add_parser("calibrate", help="closed-loop drive optimization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--noise", type=float, default=0.0,
                   help="measurement noise level of the backend")
    p.add_argument("--perturb", type=float, default=0.2,
                   help="relative amplitude miscalibration of the start point")
    _add_out_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("lattice", help="2d grid transfer snapshots")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--tau", default="1us")
    p.add_argument("--start", default="1,1")
    p.add_argument("--snapshots", default="0,0.1,0.25,0.5,0.75,0.9,1")
    _add_out_flags(p)
    p.set_defaults(func=cmd_lattice)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except serialize.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
