"""Acceptance suite: the binding end-to-end checks for this package.

Each test pins one deliverable behavior with explicit tolerances; several
also enforce wall-clock budgets.  Tolerances here are contractual — do not
loosen them to make a failure go away.
"""

import json
import time
from math import pi

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from pstsim import calibration, cli, evolution, protocols, statespace
from pstsim.models import chains
from pstsim.models import device as device_models
from pstsim.models import lattice

TAU = 640e-9
TWO_PI = 2.0 * pi


def _site_state_index(n, site):
    return statespace.basis_index([1 if k == site else 0 for k in range(1, n + 1)])


def _propagator(spec):
    h = chains.chain_hamiltonian(spec).toarray()
    w, v = eigh(h)
    return (v * np.exp(-1j * w * spec.tau)) @ v.conj().T


# Criterion 1's distance measure; its candidates, minimiser and wrap are
# part of the criterion.
def stroboscopic_compare(U_a: np.ndarray, U_b: np.ndarray):
    """Best global phase aligning two propagators and the residual 2-norm distance.

    Returns ``(phase, distance)`` with distance =
    min_phi || U_a - e^{i phi} U_b ||_2.  The starting guess for phi is
    the argument of the entry ratio at U_b's largest element, refined
    against the trace alignment.
    """
    U_a = np.asarray(U_a)
    U_b = np.asarray(U_b)
    if U_a.shape != U_b.shape:
        raise ValueError("shape mismatch")
    if not np.any(U_a) or not np.any(U_b):
        raise ValueError("zero matrix")
    flat = np.argmax(np.abs(U_b))
    phi0 = float(np.angle(U_a.flat[flat] / U_b.flat[flat]))
    overlap = np.trace(U_b.conj().T @ U_a)
    candidates = [phi0] + ([float(np.angle(overlap))] if overlap != 0 else [])

    def dist(phi):
        return np.linalg.norm(U_a - np.exp(1j * phi) * U_b, 2)

    from scipy.optimize import minimize_scalar

    best_phi, best_d = None, np.inf
    for c in candidates:
        r = minimize_scalar(dist, bracket=(c - 1e-3, c, c + 1e-3))
        if r.fun < best_d:
            best_phi, best_d = float(r.x), float(r.fun)
    # wrap into (-pi, pi]
    best_phi = (best_phi + pi) % (2 * pi) - pi
    if best_phi == -pi:
        best_phi = pi
    return best_phi, best_d


def test_stroboscopic_compare_phase_alignment():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    Q, _ = np.linalg.qr(A)
    phase, dist = stroboscopic_compare(np.exp(0.7j) * Q, Q)
    assert dist < 1e-9
    assert phase == pytest.approx(0.7, abs=1e-6)


def test_criterion_01_stroboscopic_equivalence():
    """exp(-iH tau) matches the ideal transfer unitary up to a global phase."""
    start = time.perf_counter()
    for n in range(2, 9):
        spec = chains.ChainSpec.pst(n, TAU)
        h = chains.chain_hamiltonian(spec).toarray()
        u = expm(-1j * h * spec.tau)
        _, distance = stroboscopic_compare(u, chains.pst_unitary(n))
        assert distance < 1e-9, f"n={n}: distance {distance}"
    assert time.perf_counter() - start < 10.0


def test_criterion_02_transfer_completeness():
    """Every start site reaches its mirror at tau and returns at 2 tau."""
    start = time.perf_counter()
    for n in range(3, 11):
        spec = chains.ChainSpec.pst(n, TAU)
        u = _propagator(spec)
        u2 = u @ u
        for site in range(1, n + 1):
            idx = _site_state_index(n, site)
            mirror = _site_state_index(n, n + 1 - site)
            assert abs(u[mirror, idx]) ** 2 >= 1.0 - 1e-9, (n, site)
            assert abs(u2[idx, idx]) ** 2 >= 1.0 - 1e-9, (n, site)
    assert time.perf_counter() - start < 5.0


def test_criterion_03_parity_phase_table():
    """n=6: transfer phase is parity * pi/2 for all inner states and inputs."""
    start = time.perf_counter()
    rows = protocols.parity_phase_table(
        6, input_states=("+x", "+y", "-x", "-y"))
    assert len(rows) == 64
    for row in rows:
        deviation = protocols.wrap_phase(row.phase - row.parity * pi / 2)
        assert abs(deviation) < 1e-9, (row.inner, row.input_state)
    assert time.perf_counter() - start < 10.0


def test_criterion_04_zz_deviation_trend():
    """ZZ coupling shifts phases linearly in the inner excitation count."""
    zeta = (-TWO_PI * 100e3,) * 5
    rows = protocols.parity_phase_table(6, zeta=zeta)
    by_count = {}
    for row in rows:
        deviation = abs(protocols.wrap_phase(row.phase - row.parity * pi / 2))
        by_count.setdefault(row.inner.count("1"), []).append(deviation)
    counts = sorted(by_count)
    means = [float(np.mean(by_count[k])) for k in counts]
    slope, intercept = np.polyfit(counts, means, 1)
    predicted = np.polyval([slope, intercept], counts)
    ss_res = float(np.sum((np.array(means) - predicted) ** 2))
    ss_tot = float(np.sum((np.array(means) - np.mean(means)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    assert slope > 0.0
    assert r_squared > 0.95


def test_criterion_05_fractional_transfer():
    """Detuned profile sends sin^2(theta/2) of the population to the mirror."""
    for theta in (0.0, 0.2 * pi, 0.5 * pi, 0.6 * pi, pi):
        for n in range(3, 7):
            spec = chains.ChainSpec.fst(n, TAU, theta)
            u = _propagator(spec)
            idx = _site_state_index(n, 1)
            mirror = _site_state_index(n, n)
            fraction = abs(u[mirror, idx]) ** 2
            assert fraction == pytest.approx(np.sin(theta / 2.0) ** 2, abs=1e-8)
    # the published 0.6545 / 0.3455 split at theta = 0.6 pi, n = 3
    u = _propagator(chains.ChainSpec.fst(3, TAU, 0.6 * pi))
    idx, mirror = _site_state_index(3, 1), _site_state_index(3, 3)
    assert abs(u[mirror, idx]) ** 2 == pytest.approx(0.6545084971874737, abs=1e-8)
    assert abs(u[idx, idx]) ** 2 == pytest.approx(0.3454915028125263, abs=1e-8)
    # two pi/2 legs: transfer completes unless the middle leg is excited
    assert protocols.double_fst_parity_experiment(False)[2] >= 1.0 - 1e-8
    assert protocols.double_fst_parity_experiment(True)[0] >= 1.0 - 1e-8


def test_criterion_06_ghz_ideal_and_graph_edges():
    """Ideal GHZ preparation is exact; transfer gates cover the complete graph."""
    for n in range(2, 8):
        report = protocols.run_ghz(protocols.GHZScenario(n=n))
        assert report.fidelity >= 1.0 - 1e-9, n
    for n in range(2, 11):
        edges = protocols.graph_state_edges(n)
        complete = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        assert edges.union() == complete, n


def test_criterion_07_ghz_noisy_band():
    """The published noise scenario lands in the documented fidelity band."""
    report = protocols.run_ghz(protocols.paper_ghz_scenario())
    assert 0.80 <= report.fidelity <= 0.92
    assert 0.01 <= report.fidelity_opt - report.fidelity <= 0.08


def test_criterion_08_decay_sanity():
    """An isolated qubit with T1 = 12.1 us decays to 1/e population at T1."""
    t1 = 12.1e-6
    noise = evolution.NoiseSpec(t1=(t1,))
    h = evolution.add_relaxation(
        np.zeros((2, 2)), noise, statespace.occupation_matrix(1))
    psi0 = np.array([0.0, 1.0], dtype=complex)
    traj = evolution.evolve(h, psi0, np.array([0.0, t1]),
                            occupations=statespace.occupation_matrix(1))
    assert traj.populations[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_criterion_09_calibration_benchmark(tmp_path):
    """Randomly miscalibrated drives recover to <0.02 error within budget."""
    start = time.perf_counter()
    config = calibration.default_effective_config()
    backend = calibration.EffectiveBackend(config)
    ideal = calibration.ideal_drive_settings(config)
    successes = 0
    first_result = None
    for k in range(10):
        guess = calibration.perturb_drives(ideal, seed=100 + k)
        result = calibration.optimize_simultaneous_drives(
            backend, guess, calibration.OptimizerConfig(budget=500, seed=k))
        assert result.evaluations <= 500
        if result.best_objective < 0.02:
            successes += 1
        if first_result is None:
            first_result = result
    assert successes >= 8, f"only {successes}/10 seeds converged"
    path = tmp_path / "convergence.csv"
    calibration.write_convergence_csv(first_result, path)
    lines = path.read_text().splitlines()
    running = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b <= a for a, b in zip(running, running[1:]))
    assert running[-1] < running[0]
    assert time.perf_counter() - start < 120.0


def test_criterion_10_chevron_round_trip():
    """Chevron fits recover injected couplings; the device scan shows a
    drive-induced (Stark) resonance shift away from the bare splitting."""
    config = calibration.default_effective_config(noise=0.01)
    pair, amp = (2, 3), 0.012
    injected = config.coupling_slopes[1] * amp
    res = config.resonances([0.0, amp, 0.0, 0.0, 0.0])[1]
    freqs = res + TWO_PI * np.linspace(-1.2e6, 1.2e6, 21)
    times = np.linspace(0.0, 1.2e-6, 41)
    for seed in range(20):
        backend = calibration.EffectiveBackend(config, seed=seed)
        data = calibration.chevron_scan(backend, pair, [amp], freqs, times)
        fit = calibration.fit_chevron(data)
        assert abs(fit.coupling - injected) / injected < 0.02, seed

    db = calibration.DeviceBackend()
    dev_pair = (1, 2)
    coupler = db.pair_coupler(dev_pair)
    bare = abs(db.device.qubits[0].frequency_hz - db.device.qubits[1].frequency_hz)
    scan_freqs = TWO_PI * (bare + np.arange(2e6, 15e6, 2e6))
    scan_times = np.linspace(0.0, 600e-9, 31)
    dataset = calibration.chevron_scan(db, dev_pair, [0.01], scan_freqs, scan_times)
    fit = calibration.fit_chevron(dataset, residual_threshold=0.15)
    shift = fit.resonance / TWO_PI - bare
    assert shift > 1e6, "resonance shift should be well above the grid spacing"
    assert shift == pytest.approx(7.907e6, rel=0.05)
    assert fit.coupling / TWO_PI == pytest.approx(1015.7e3, rel=0.05)
    estimate = device_models.effective_coupling_estimate(
        db.device, dev_pair,
        device_models.DriveConfig(coupler=coupler, amplitude=0.01,
                                  frequency_hz=fit.resonance / TWO_PI))
    assert abs(abs(estimate / fit.coupling) - 1.0) < 0.15


def test_criterion_11_lattice_transfer(tmp_path):
    """9x7 corner-to-corner transfer with the seven standard snapshots."""
    start = time.perf_counter()
    assert cli.main(["lattice", "--nx", "9", "--ny", "7", "--start", "1,1",
                     "--out-dir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "lattice.json").read_text())
    fractions = [frame["fraction"] for frame in data["frames"]]
    assert fractions == [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    final = np.array(data["frames"][-1]["populations"])
    assert final.shape == (9, 7)
    assert final[8, 6] > 1.0 - 1e-6
    spec = lattice.LatticeSpec(nx=9, ny=7, tau=1e-6)
    traj = protocols.lattice_pst(spec, (1, 1), [spec.tau])
    assert traj.populations[0].reshape(9, 7)[8, 6] > 1.0 - 1e-6
    assert time.perf_counter() - start < 5.0


def test_criterion_12_cli_determinism(tmp_path):
    """Identical flags and seed reproduce every data file byte for byte."""
    commands = [
        ["couplings", "--n", "6", "--tau", "640ns"],
        ["pst", "--n", "4", "--tau", "640ns", "--times", "0:2tau:25"],
        ["fst", "--n", "3", "--tau", "640ns", "--theta", "0.6pi",
         "--times", "0:1tau:9"],
        ["evolve", "--config", "configs/chain_n6.json", "--initial", "site1",
         "--times", "0:1tau:9", "--noise", "configs/noise_t1.json"],
        ["parity", "--n", "4", "--inputs", "+x"],
        ["ghz", "--noise", "paper", "--shots", "1000", "--seed", "11"],
        ["calibrate", "--seed", "5", "--budget", "40"],
        ["lattice", "--nx", "3", "--ny", "3", "--start", "2,2"],
    ]
    for k, argv in enumerate(commands):
        runs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{k}{attempt}"
            assert cli.main(argv + ["--out-dir", str(out)]) == 0
            runs.append(out)
        first, second = runs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert names, argv
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (
                argv, name)
