"""Tests for the effective/device backends, chevron fits, and the optimizer."""

import math
from dataclasses import dataclass
from math import pi

import numpy as np
import pytest

from pstsim import calibration, evolution
from pstsim.models import chains
from pstsim.models import device as device_models

TWO_PI = 2.0 * pi


def _backend(noise=0.0, seed=0):
    return calibration.EffectiveBackend(
        calibration.default_effective_config(noise=noise), seed=seed
    )


# -------------------------------------------------------------- config


def test_default_config_shape():
    cfg = calibration.default_effective_config()
    assert cfg.n_drives == 5
    assert cfg.n_sites == 6
    assert cfg.tau == pytest.approx(640e-9)
    assert len(cfg.stark) == 5


def test_config_validation():
    with pytest.raises(ValueError):
        calibration.EffectiveChainConfig(0.0, (1.0,), (1.0,))
    with pytest.raises(ValueError):
        calibration.EffectiveChainConfig(1e-6, (1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        calibration.EffectiveChainConfig(1e-6, (-1.0,), (1.0,))
    with pytest.raises(ValueError):
        calibration.EffectiveChainConfig(1e-6, (1.0,), (1.0,), stark=((1.0, 2.0),))
    with pytest.raises(ValueError):
        calibration.EffectiveChainConfig(1e-6, (1.0,), (1.0,), noise=-0.1)


# ------------------------------------------------------- pair physics


def test_resonant_pair_oscillation():
    cfg = calibration.default_effective_config()
    be = calibration.EffectiveBackend(cfg)
    pair, amp = (1, 2), 0.01
    b = be.pair_coupler(pair)
    j = cfg.coupling_slopes[b - 1] * amp
    res = cfg.resonances([amp, 0.0, 0.0, 0.0, 0.0])[b - 1]
    t = np.linspace(0.0, 2e-6, 11)
    pops = be.run_pair_scan(pair, amp, [res], t)
    assert pops.shape == (1, t.size)
    np.testing.assert_allclose(pops[0], np.sin(j * t) ** 2, atol=1e-12)


def test_detuned_contrast():
    cfg = calibration.default_effective_config()
    be = calibration.EffectiveBackend(cfg)
    pair, amp = (2, 3), 0.012
    b = be.pair_coupler(pair)
    j = cfg.coupling_slopes[b - 1] * amp
    res = cfg.resonances([0.0, amp, 0.0, 0.0, 0.0])[b - 1]
    delta = TWO_PI * 300e3
    rabi = np.sqrt(j * j + delta * delta / 4.0)
    t_star = pi / (2.0 * rabi)
    pops = be.run_pair_scan(pair, amp, [res + delta], [t_star])
    assert pops[0, 0] == pytest.approx(j * j / rabi**2, abs=1e-12)


def test_measurement_noise_reproducible():
    a = _backend(noise=0.02, seed=4)
    b = _backend(noise=0.02, seed=4)
    other = _backend(noise=0.02, seed=5)
    pair = (1, 2)
    t = np.linspace(0.0, 1e-6, 9)
    freqs = [TWO_PI * 440e6]
    pa = a.run_pair_scan(pair, 0.01, freqs, t)
    pb = b.run_pair_scan(pair, 0.01, freqs, t)
    pc = other.run_pair_scan(pair, 0.01, freqs, t)
    np.testing.assert_array_equal(pa, pb)
    assert not np.array_equal(pa, pc)
    assert pa.min() >= 0.0 and pa.max() <= 1.0


def test_run_pair_scan_rejects_non_adjacent_pair():
    for be in (_backend(), calibration.DeviceBackend(levels=2)):
        with pytest.raises(ValueError):
            be.run_pair_scan((1, 3), 0.01, [TWO_PI * 440e6], [0.0])


# ----------------------------------------------------------- objective


def test_transfer_objective_ideal_drives():
    be = _backend()
    ideal = calibration.ideal_drive_settings(be.config)
    assert calibration.transfer_error_objective(be, ideal) < 1e-10


def test_transfer_objective_penalizes_miscalibration():
    be = _backend()
    ideal = calibration.ideal_drive_settings(be.config)
    scaled = calibration.DriveSettings(
        tuple(a * 1.1 for a in ideal.amplitudes), ideal.frequencies
    )
    assert calibration.transfer_error_objective(be, scaled) > 0.1
    off = calibration.DriveSettings((0.0,) * 5, ideal.frequencies)
    assert calibration.transfer_error_objective(be, off) == pytest.approx(0.2, abs=1e-9)


# -------------------------------------------------------- chevron fits


def _chevron_window(cfg, pair, amp):
    b = pair[0] if pair[0] < pair[1] else pair[1]
    res = cfg.resonances([amp if i == b - 1 else 0.0 for i in range(5)])[b - 1]
    freqs = res + TWO_PI * np.linspace(-1.2e6, 1.2e6, 21)
    times = np.linspace(0.0, 1.2e-6, 41)
    return res, freqs, times


def test_fit_chevron_noiseless_recovery():
    cfg = calibration.default_effective_config()
    be = calibration.EffectiveBackend(cfg)
    pair, amp = (2, 3), 0.012
    j = cfg.coupling_slopes[1] * amp
    res, freqs, times = _chevron_window(cfg, pair, amp)
    # multi-antinode window: the rate guess must lock to the first peak
    data = calibration.chevron_scan(be, pair, [amp], freqs, times)
    fit = calibration.fit_chevron(data)
    assert fit.coupling == pytest.approx(j, rel=1e-9)
    assert fit.resonance == pytest.approx(res, abs=1.0)
    assert fit.contrast == pytest.approx(1.0, abs=1e-6)
    assert fit.residual < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_chevron_noisy_recovery(seed):
    cfg = calibration.default_effective_config(noise=0.01)
    be = calibration.EffectiveBackend(cfg, seed=seed)
    pair, amp = (2, 3), 0.012
    j = cfg.coupling_slopes[1] * amp
    _, freqs, times = _chevron_window(cfg, pair, amp)
    data = calibration.chevron_scan(be, pair, [amp], freqs, times)
    fit = calibration.fit_chevron(data)
    assert abs(fit.coupling - j) / j < 0.02


def test_fit_chevron_residual_threshold():
    be = _backend(noise=0.01, seed=0)
    cfg = be.config
    _, freqs, times = _chevron_window(cfg, (2, 3), 0.012)
    data = calibration.chevron_scan(be, (2, 3), [0.012], freqs, times)
    with pytest.raises(calibration.FitError):
        calibration.fit_chevron(data, residual_threshold=1e-6)


def test_fit_chevron_rejects_several_amplitudes():
    be = _backend()
    _, freqs, times = _chevron_window(be.config, (2, 3), 0.012)
    data = calibration.chevron_scan(be, (2, 3), [0.01, 0.012], freqs, times)
    with pytest.raises(ValueError, match="single amplitude"):
        calibration.fit_chevron(data)


# ------------------------------------------------------------- perturb


def test_perturb_drives_bounds_and_determinism():
    cfg = calibration.default_effective_config()
    ideal = calibration.ideal_drive_settings(cfg)
    assert calibration.perturb_drives(ideal, 7) == calibration.perturb_drives(ideal, 7)
    assert calibration.perturb_drives(ideal, 7) != calibration.perturb_drives(ideal, 8)
    for seed in range(5):
        p = calibration.perturb_drives(ideal, seed)
        rel = np.abs(np.array(p.amplitudes) / np.array(ideal.amplitudes) - 1.0)
        df = np.abs(np.array(p.frequencies) - np.array(ideal.frequencies))
        assert rel.max() <= 0.2
        assert df.max() <= TWO_PI * 200e3


# ----------------------------------------------------------- optimizer


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        calibration.OptimizerConfig(budget=0)


def test_optimizer_deterministic_and_consistent():
    be = _backend()
    guess = calibration.perturb_drives(calibration.ideal_drive_settings(be.config), 5)
    cfg = calibration.OptimizerConfig(budget=60, seed=9)
    a = calibration.optimize_simultaneous_drives(be, guess, cfg)
    b = calibration.optimize_simultaneous_drives(be, guess, cfg)
    assert a.amplitudes == b.amplitudes
    assert a.history == b.history
    assert a.best_objective == min(h["objective"] for h in a.history)
    assert a.evaluations == len(a.history) == 60
    assert a.budget_exhausted


@dataclass
class _ReplayChain:
    """A backend whose chain runs from site 1 replay fixed populations."""

    tau: float
    populations: np.ndarray

    @property
    def n_sites(self):
        return self.populations.shape[1]

    def run_chain(self, drives, initial, times):
        assert initial == 1 and len(times) == len(self.populations)
        return self.populations


def _mirror_one_hot(n):
    """Ideal site populations at tau, 2 tau, ..., 5 tau from site 1."""
    pops = np.zeros((5, n))
    pops[[0, 2, 4], n - 1] = 1.0
    pops[[1, 3], 0] = 1.0
    return pops


def test_optimizer_stops_at_target():
    guess = calibration.DriveSettings((0.01, 0.01, 0.01), (1e9, 2e9, 3e9))
    r = calibration.optimize_simultaneous_drives(
        _ReplayChain(1e-6, _mirror_one_hot(4)), guess,
        calibration.OptimizerConfig(budget=50, seed=0))
    assert r.evaluations == 1
    assert not r.budget_exhausted
    assert r.best_objective == 0.0
    assert r.amplitudes == guess.amplitudes


@pytest.mark.parametrize("n", range(2, 9))
def test_objective_ideal_is_mirror_chain_evolution(n):
    tau = 640e-9
    spec = chains.ChainSpec.pst(n, tau)
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    pops = evolution.evolve(chains.single_excitation_hamiltonian(spec), psi0,
                            np.arange(1, 6) * tau).populations
    np.testing.assert_allclose(pops, _mirror_one_hot(n), rtol=0, atol=1e-12)
    drives = calibration.DriveSettings((0.01,) * (n - 1), (1e9,) * (n - 1))
    assert calibration.transfer_error_objective(_ReplayChain(tau, pops), drives) < 1e-12


def test_optimizer_single_point_budget():
    be = _backend()
    guess = calibration.perturb_drives(calibration.ideal_drive_settings(be.config), 5)
    r = calibration.optimize_simultaneous_drives(
        be, guess, calibration.OptimizerConfig(budget=1, seed=3)
    )
    assert r.evaluations == 1
    assert r.budget_exhausted
    assert r.amplitudes == guess.amplitudes


@pytest.mark.parametrize("seed", [0, 1])
def test_optimizer_recovers_from_miscalibration(seed):
    be = _backend()
    ideal = calibration.ideal_drive_settings(be.config)
    guess = calibration.perturb_drives(ideal, 100 + seed)
    r = calibration.optimize_simultaneous_drives(
        be, guess, calibration.OptimizerConfig(budget=500, seed=seed)
    )
    assert r.best_objective < 0.02


def test_convergence_csv(tmp_path):
    be = _backend()
    guess = calibration.perturb_drives(calibration.ideal_drive_settings(be.config), 5)
    r = calibration.optimize_simultaneous_drives(
        be, guess, calibration.OptimizerConfig(budget=40, seed=2)
    )
    path = tmp_path / "conv.csv"
    calibration.write_convergence_csv(r, path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "evaluation,objective,running_min,"
        "amplitude_1,amplitude_2,amplitude_3,amplitude_4,amplitude_5,"
        "frequency_1,frequency_2,frequency_3,frequency_4,frequency_5"
    )
    assert len(lines) == 41
    running = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(b <= a for a, b in zip(running, running[1:]))
    assert running[-1] == pytest.approx(r.best_objective, rel=1e-9)
    # ASCII with \n line endings, as the README promises
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.count(b"\n") == 41
    raw.decode("ascii")


# ------------------------------------------------------------ strategy
# The search before its proposal step moved into the optimizer loop, kept
# verbatim (class, config and loop) as the reference the loop must
# reproduce evaluation for evaluation.

@dataclass
class _ReferenceShrinkingGaussianSearch:
    """Random search around the incumbent with decaying Gaussian steps.

    Proposals alternate full-vector moves with single-coordinate
    refinements; the step size decays geometrically to a floor so late
    evaluations polish the best point found.
    """

    dim: int
    sigma: float = 0.35
    floor: float = 0.02
    decay: float = 0.992
    coordinate_fraction: float = 0.4

    def __post_init__(self):
        self._best = np.zeros(self.dim)
        self._best_value = math.inf
        self._step = 0

    def propose(self, rng: np.random.Generator) -> np.ndarray:
        self._step += 1
        scale = max(self.floor, self.sigma * self.decay ** self._step)
        coords = self._best.copy()
        if rng.random() < self.coordinate_fraction:
            k = int(rng.integers(self.dim))
            coords[k] += scale * rng.standard_normal()
        else:
            coords += scale * rng.standard_normal(self.dim)
        return np.clip(coords, -1.0, 1.0)

    def update(self, coords: np.ndarray, value: float) -> None:
        if value < self._best_value:
            self._best_value = value
            self._best = np.asarray(coords, dtype=float).copy()


@dataclass(frozen=True)
class _ReferenceOptimizerConfig:
    """Search box, budget, and termination for the drive optimizer."""

    budget: int = 500
    seed: int = 0
    amplitude_halfwidth: float = 0.35
    frequency_halfwidth: float = math.tau * 600e3
    target: float = 0.0


def _reference_optimize(backend, guess, config):
    m = guess.n_drives
    dim = 2 * m
    rng = np.random.default_rng(config.seed)
    search = _ReferenceShrinkingGaussianSearch(dim=dim)
    amp0 = np.array(guess.amplitudes)
    freq0 = np.array(guess.frequencies)

    def decode(coords):
        amps = amp0 * (1.0 + coords[:m] * config.amplitude_halfwidth)
        freqs = freq0 + coords[m:] * config.frequency_halfwidth
        return calibration.DriveSettings(tuple(amps), tuple(freqs))

    history = []
    best_coords, best_value = None, math.inf

    def evaluate(coords):
        nonlocal best_coords, best_value
        drives = decode(coords)
        value = calibration.transfer_error_objective(backend, drives)
        history.append({
            "evaluation": len(history) + 1,
            "amplitudes": list(drives.amplitudes),
            "frequencies": list(drives.frequencies),
            "objective": value,
        })
        search.update(coords, value)
        if value < best_value:
            best_coords, best_value = coords.copy(), value
        return value

    evaluate(np.zeros(dim))
    while len(history) < config.budget and best_value > config.target:
        evaluate(search.propose(rng))

    best = decode(best_coords)
    return calibration.CalibrationResult(
        amplitudes=best.amplitudes,
        frequencies=best.frequencies,
        history=tuple(history),
        best_objective=best_value,
        evaluations=len(history),
        seed=config.seed,
        budget_exhausted=len(history) >= config.budget and best_value > config.target,
    )


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_optimizer_matches_reference_search(noise):
    for budget, seeds in ((1, (0, 3)), (60, (0, 3, 9)), (500, (2, 7))):
        for seed in seeds:
            be = _backend(noise=noise, seed=seed)
            guess = calibration.perturb_drives(
                calibration.ideal_drive_settings(be.config), 1000 + seed)
            got = calibration.optimize_simultaneous_drives(
                be, guess, calibration.OptimizerConfig(budget=budget, seed=seed))
            assert got == _reference_optimize(
                be, guess, _ReferenceOptimizerConfig(budget=budget, seed=seed))
            # every evaluated point lies inside the search box
            amps = np.array([h["amplitudes"] for h in got.history])
            freqs = np.array([h["frequencies"] for h in got.history])
            rel = amps / np.array(guess.amplitudes) - 1.0
            assert np.all(np.abs(rel) <= 0.35 * (1 + 1e-12))
            df = freqs - np.array(guess.frequencies)
            assert np.all(np.abs(df) <= TWO_PI * 600e3 * (1 + 1e-9))


# ------------------------------------------------------- device backend


def test_device_backend_pair_run_deterministic():
    db = calibration.DeviceBackend()
    pair = (1, 2)
    t = np.linspace(0.0, 5e-9, 4)
    a = db.run_pair_scan(pair, 0.01, [TWO_PI * 447e6], t)
    b = db.run_pair_scan(pair, 0.01, [TWO_PI * 447e6], t)
    assert np.all(np.isfinite(a))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1, 4)
    assert a[0, 0] == pytest.approx(0.0, abs=1e-9)


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


def test_device_backend_matches_reference_run_path(monkeypatch):
    # within 1e-6 of the RK4 reference: pair scans over 10 ns at 2 and 3
    # levels, the two-tone chain from sites 1-3 over 10 ns at 2 levels and
    # from site 1 over 4 ns at 3
    for levels, starts, chain_window in ((2, (1, 2, 3), 10e-9), (3, (1,), 4e-9)):
        db = calibration.DeviceBackend(levels=levels)
        f = [q.frequency_hz for q in db.device.qubits]
        freqs = TWO_PI * (abs(f[0] - f[1]) + np.array([-4e6, 0.0, 4e6]))
        drives = calibration.DriveSettings(
            (0.01, 0.012), (TWO_PI * abs(f[0] - f[1]), TWO_PI * abs(f[1] - f[2])))

        def runs():
            scan = db.run_pair_scan((1, 2), 0.01, freqs, np.linspace(0.0, 10e-9, 5))
            t = np.linspace(0.0, chain_window, 3)
            return [scan] + [db.run_chain(drives, s, t) for s in starts]

        cf4 = runs()
        with monkeypatch.context() as m:
            m.setattr(device_models.DeviceSubsetModel, "evolve_columns",
                      _reference_evolve_columns)
            rk4 = runs()
        for got, want in zip(cf4, rk4):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
