"""Metric names, units and directions, and the reduction of a trace to them.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
declares; ``run.py`` refuses to run when the two disagree.
"""

from __future__ import annotations

from workloads import KINDS, SLOTS

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    *[(slot, "s", "lower") for slot in SLOTS],
]

# The job kind each slot metric times, per workload.
SLOT_KINDS = {w: dict(zip(SLOTS, kinds)) for w, kinds in KINDS.items()}

# per-layer metric -> span name whose self time it sums
_SELF = {
    "device.evolve_columns.self_s": "device.DeviceSubsetModel.evolve_columns",
    "device.model_build.self_s": "device.DeviceSubsetModel._build",
    "calibration.fit_chevron.self_s": "calibration.fit_chevron",
    "calibration.transfer_error_objective.self_s":
        "calibration.transfer_error_objective",
    "evolution.evolve.self_s": "evolution.evolve",
    "chains.chain_hamiltonian.self_s": "chains.chain_hamiltonian",
    "chains.pst_state_map.self_s": "chains.pst_state_map",
    "chains.sector_hamiltonian.self_s": "chains.sector_hamiltonian",
    "protocols.parity_phase_experiment.self_s": "protocols.parity_phase_experiment",
    "protocols.run_ghz.self_s": "protocols.run_ghz",
    "tomography.simulate_tomography.self_s": "tomography.simulate_tomography",
    "tomography.reconstruct.self_s": "tomography.reconstruct",
    "tomography.fidelity_opt_z.self_s": "tomography.fidelity_opt_z",
    "kernel.expm.self_s": "kernel.expm",
    "kernel.eigh.self_s": "kernel.eigh",
    "kernel.least_squares.self_s": "kernel.least_squares",
}

# per-layer metric -> span name whose calls it counts
_CALLS = {
    "device.evolve_columns.calls": "device.DeviceSubsetModel.evolve_columns",
    "calibration.objective_evals": "calibration.transfer_error_objective",
    "evolution.evolve.calls": "evolution.evolve",
    "evolution.krylov_expmv.calls": "evolution.krylov_expmv",
    "chains.sector_hamiltonian.calls": "chains.sector_hamiltonian",
    "statespace.sector_states.calls": "statespace.sector_states",
    "statespace.apply_single_qubit.calls": "statespace.apply_single_qubit",
    "protocols.parity_phase_experiment.calls": "protocols.parity_phase_experiment",
    "tomography.pauli_operator.calls": "tomography.pauli_operator",
    "kernel.expm.calls": "kernel.expm",
    "kernel.eigh.calls": "kernel.eigh",
}

# per-layer metric -> counted leaf (no span)
_LEAVES = {
    "statespace.occupations.calls": "statespace.occupations",
    "statespace.excitation_number.calls": "statespace.excitation_number",
    "device.coupler_frequency.calls": "device.coupler_frequency",
    "device.flux.calls": "device.DeviceSubsetModel.flux",
}

_LAYERS = ("device", "calibration", "evolution", "chains", "statespace",
           "protocols", "tomography", "lattice", "serialize", "svg", "cli",
           "harness")

_OTHER = [
    ("device.norm_error_max", "1", "lower"),
    ("calibration.least_squares.nfev", "count", "lower"),
    ("calibration.fit_residual_max", "1", "lower"),
    ("calibration.eval_ms", "ms", "lower"),
    ("calibration.converged_frac", "1", "higher"),
    ("evolution.norm_error_max", "1", "lower"),
    ("serialize.bytes_written", "bytes", "lower"),
    ("cli.files_written", "count", "lower"),
    ("kernel.expm.n3_sum", "count", "lower"),
    ("kernel.expm.unique_ratio", "1", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.accounted_frac", "1", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

PER_LAYER = ([(f"{layer}.self_s", "s", "lower") for layer in _LAYERS]
             + [(name, "s", "lower") for name in _SELF]
             + [(name, "count", "lower") for name in (*_CALLS, *_LEAVES)]
             + _OTHER)


def layer_metrics(summary: dict, elapsed_s: float, files: int, nbytes: int,
                  converged: list) -> dict:
    """Per-layer values of one traced round (all but trace.overhead_s)."""
    by_name, counts = summary["by_name"], summary["counts"]
    out = {f"{layer}.self_s": summary["by_layer"].get(layer, 0.0)
           for layer in _LAYERS}
    out.update({m: by_name.get(n, (0.0, 0.0, 0))[0] for m, n in _SELF.items()})
    out.update({m: by_name.get(n, (0.0, 0.0, 0))[2] for m, n in _CALLS.items()})
    out.update({m: counts.get(n, 0) for m, n in _LEAVES.items()})
    _, obj_total, obj_calls = by_name.get("calibration.transfer_error_objective",
                                          (0.0, 0.0, 0))
    expm_calls = out["kernel.expm.calls"]
    out.update({
        "device.norm_error_max": summary["maxima"].get("device.norm_error_max", 0.0),
        "calibration.least_squares.nfev": counts.get("calibration.least_squares.nfev", 0),
        "calibration.fit_residual_max":
            summary["maxima"].get("calibration.fit_residual_max", 0.0),
        "calibration.eval_ms": 1e3 * obj_total / obj_calls if obj_calls else 0.0,
        "calibration.converged_frac":
            sum(converged) / len(converged) if converged else 0.0,
        "evolution.norm_error_max":
            summary["maxima"].get("evolution.norm_error_max", 0.0),
        "serialize.bytes_written": nbytes,
        "cli.files_written": files,
        "kernel.expm.n3_sum": counts.get("kernel.expm.n3_sum", 0),
        "kernel.expm.unique_ratio":
            summary["expm_unique"] / expm_calls if expm_calls else 0.0,
        "trace.wall_s": elapsed_s,
        "trace.accounted_frac": sum(summary["by_layer"].values()) / elapsed_s,
    })
    return out
