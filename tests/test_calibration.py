"""Tests for the effective/device backends, chevron fits, and the optimizer."""

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass
from math import pi
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares

from pstsim import calibration, evolution, protocols
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


@pytest.mark.parametrize("field", ["tau", "noise"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite(field, value):
    kwargs = {"tau": 1e-6, "noise": 0.0, field: value}
    with pytest.raises(ValueError, match=field):
        calibration.EffectiveChainConfig(coupling_slopes=(1.0,), bare_resonances=(1.0,),
                                         **kwargs)


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


def _random_drives(config, rows, seed):
    """(rows, n_drives) amplitudes and frequencies across the optimizer's search box."""
    ideal = calibration.ideal_drive_settings(config)
    rng = np.random.default_rng(seed)
    amps = np.array(ideal.amplitudes) * (1.0 + 0.35 * rng.uniform(-1, 1, (rows, 5)))
    freqs = np.array(ideal.frequencies) + TWO_PI * 600e3 * rng.uniform(-1, 1, (rows, 5))
    return amps, freqs


@pytest.mark.parametrize("noise", [0.0, 0.01])
@pytest.mark.parametrize("rows", [1, 3, 8])
def test_run_chains_equals_run_chain_row_by_row(noise, rows):
    be = _backend(noise=noise, seed=3)
    t = np.linspace(0.0, 5 * be.tau, 7)
    for seed in range(20):
        amps, freqs = _random_drives(be.config, rows, seed)
        got = be.run_chains(amps, freqs, 2, t)
        assert got.shape == (rows, 7, 6)
        for a, f, pops in zip(amps, freqs, got):
            np.testing.assert_array_equal(pops, be.run_chains([a], [f], 2, t)[0])


def test_run_chains_rows_equal_the_evolution_layer():
    # each row is the exchange Hamiltonian of its drives, evolved by
    # evolution.evolve from the initial site: the backend holds no
    # propagator of its own
    be = _backend()
    cfg = be.config
    t = np.linspace(0.0, 5 * be.tau, 7)
    amps, freqs = _random_drives(cfg, 6, 11)
    assert np.all(amps != 0)
    got = be.run_chains(amps, freqs, 2, t)
    up = np.arange(1, cfg.n_sites)
    for a, f, pops in zip(amps, freqs, got):
        h = np.zeros((cfg.n_sites, cfg.n_sites), dtype=complex)
        h[up, up] = np.cumsum(cfg.resonances(a) - f)
        h[up - 1, up] = h[up, up - 1] = np.array(cfg.coupling_slopes) * a
        want = evolution.evolve(h, np.eye(cfg.n_sites)[1], t).populations
        np.testing.assert_array_equal(pops, np.clip(want, 0.0, 1.0))


def test_run_chains_rejects_bad_rows():
    be = _backend()
    amps, freqs = _random_drives(be.config, 2, 0)
    for a, f in ((amps[:, :4], freqs[:, :4]), (amps, freqs[:1]), (amps[0], freqs[0])):
        with pytest.raises(ValueError):
            be.run_chains(a, f, 1, [0.0])


def test_transfer_objective_block_equals_single_settings():
    be = _backend(noise=0.01, seed=2)
    amps, freqs = _random_drives(be.config, 5, 7)
    block = [calibration.DriveSettings(a, f) for a, f in zip(amps, freqs)]
    values = calibration.transfer_error_objective(be, block)
    assert values == [calibration.transfer_error_objective(be, d) for d in block]
    assert all(type(v) is float for v in values)


def test_device_run_chains_equals_run_chain(monkeypatch):
    # rows of the same tones, each one column of a single evolve_columns
    # call, at two and three levels
    calls = []
    evolve_columns = device_models.DeviceSubsetModel.evolve_columns

    def counted(model, psi0, times, columns):
        calls.append(len(columns))
        return evolve_columns(model, psi0, times, columns)

    monkeypatch.setattr(device_models.DeviceSubsetModel, "evolve_columns", counted)
    for levels in (2, 3):
        db = calibration.DeviceBackend(levels=levels)
        f = [q.frequency_hz for q in db.device.qubits]
        amps = [(0.01, 0.012), (0.008, 0.01), (0.012, 0.006)]
        freqs = [(TWO_PI * abs(f[0] - f[1]), TWO_PI * abs(f[1] - f[2]))] * 3
        t = np.linspace(0.0, 1e-9, 3)
        calls.clear()
        got = db.run_chains(amps, freqs, 1, t)
        assert calls == [3]
        for a, fr, pops in zip(amps, freqs, got):
            np.testing.assert_array_equal(pops, db.run_chain(calibration.DriveSettings(a, fr), 1, t))


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


def test_chevron_dataset_rejects_non_finite_inputs():
    grid = dict(pair=(1, 2), amplitudes=[0.01], frequencies=[1.0, 2.0], times=[0.0, 1.0],
                populations=np.zeros((1, 2, 2)))
    for name in ("amplitudes", "frequencies", "times", "populations"):
        for bad in (np.nan, np.inf):
            values = np.array(grid[name], dtype=float)
            values.flat[-1] = bad
            with pytest.raises(ValueError, match=f"non-finite {name}"):
                calibration.ChevronDataset(**{**grid, name: values})


@pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0, -0.1])
def test_fit_chevron_rejects_bad_residual_threshold(threshold):
    be = _backend()
    _, freqs, times = _chevron_window(be.config, (2, 3), 0.012)
    data = calibration.chevron_scan(be, (2, 3), [0.012], freqs, times)
    with pytest.raises(ValueError, match="residual_threshold"):
        calibration.fit_chevron(data, residual_threshold=threshold)


# fit_chevron before the restarts became a fallback, kept verbatim (module
# names qualified) as the reference: three least_squares starts, the lowest
# cost wins.

def _reference_fit_chevron(dataset, residual_threshold: float = 0.1):
    """Fit the detuned-oscillation model to a one-amplitude dataset.

    The model is P(t) = C * J^2/(J^2 + d^2/4) * sin^2(sqrt(J^2 + d^2/4) t)
    with d the detuning from the resonance; the fit returns the coupling
    and the frequency of maximal contrast.  A root-mean-square residual
    above ``residual_threshold`` raises FitError with diagnostics.
    """
    if dataset.amplitudes.size != 1:
        raise ValueError("chevron fits take a dataset with a single amplitude")
    pops = dataset.populations[0]
    freqs = dataset.frequencies
    t = dataset.times
    span = t[-1] - t[0]
    if span <= 0:
        raise ValueError("need a nontrivial time window")

    contrast = pops.max(axis=1) - pops.min(axis=1)
    i0 = int(np.argmax(contrast))
    w0 = freqs[i0]
    # first antinode, not argmax: later antinodes alias the rate guess down
    near_top = np.flatnonzero(pops[i0] >= 0.95 * pops[i0].max())
    t_peak = t[int(near_top[0])] if near_top.size else t[-1]
    j0 = math.pi / (2.0 * t_peak) if t_peak > 0 else math.pi / (2.0 * span)
    c0 = min(max(pops[i0].max(), 0.1), 1.0)

    # dimensionless parameters: couplings in 1/span, frequencies near w0
    if freqs.size > 1:
        e_span = (freqs.max() - freqs.min() + 4.0 * j0) * span
    else:
        e_span = 1e-9

    def residuals(p):
        j, e, c = p
        coupling = j / span
        half = 0.5 * (freqs - (w0 + e / span))[:, None]
        rabi2 = coupling * coupling + half * half
        model = c * (coupling * coupling / rabi2) * np.sin(np.sqrt(rabi2) * t[None, :]) ** 2
        return (model - pops).ravel()

    best = None
    for j_start in (j0 * span, 2.0 * j0 * span, 0.5 * j0 * span):
        sol = least_squares(residuals, x0=(j_start, 0.0, c0),
                            bounds=((1e-9, -e_span, 0.0), (50.0 * j_start + 50.0, e_span, 1.2)))
        if best is None or sol.cost < best.cost:
            best = sol
    rms = math.sqrt(np.mean(best.fun ** 2))
    if rms > residual_threshold:
        raise calibration.FitError(
            f"chevron fit residual {rms:.4f} above threshold {residual_threshold}; "
            f"guess J={j0:.4g} rad/s at resonance {w0:.6g} rad/s, grid "
            f"{freqs.size} frequencies x {t.size} times")
    j_fit = best.x[0] / span
    return calibration.ChevronFit(j_fit, w0 + best.x[1] / span, best.x[2], rms)


def _criterion_10_dataset(seed):
    """The effective-backend scan of acceptance criterion 10 (and perfbench chevron_fit)."""
    cfg = calibration.default_effective_config(noise=0.01)
    _, freqs, times = _chevron_window(cfg, (2, 3), 0.012)
    return calibration.chevron_scan(calibration.EffectiveBackend(cfg, seed=seed), (2, 3),
                                    [0.012], freqs, times)


def _count_solver_starts(monkeypatch):
    calls = []
    solve = calibration._levenberg_marquardt

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(calibration, "_levenberg_marquardt", counted)
    return calls


def _assert_fits_agree(got, want):
    # the Levenberg-Marquardt fit against the least_squares reference: the
    # same minimum within 1e-8, and a residual at round-off within 1e-12
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)


def test_fit_chevron_matches_three_start_reference():
    # the 128 noise seeds of the benchmark's chevron_fit pool; criterion 10
    # takes the first 20
    for seed in range(128):
        data = _criterion_10_dataset(seed)
        _assert_fits_agree(calibration.fit_chevron(data), _reference_fit_chevron(data))


def test_chevron_jacobian_matches_central_differences():
    data = _criterion_10_dataset(3)
    freqs, t, pops = data.frequencies, data.times, data.populations[0]
    span, w0 = t[-1] - t[0], data.frequencies[8]
    for p in ([12.0, 0.0, 0.9], [8.0, 0.7, 1.1], [30.0, -2.5, 0.4]):
        p = np.array(p)
        _, jac = calibration._chevron_residuals(p, freqs, w0, t, pops, span)
        for k in range(3):
            # steps well above the rounding of w0 + e / span, about 5e-7 rad/s
            h = 1e-5 * (abs(p[k]) or 1.0)
            up, down = p.copy(), p.copy()
            up[k] += h
            down[k] -= h
            diff = (calibration._chevron_residuals(up, freqs, w0, t, pops, span)[0]
                    - calibration._chevron_residuals(down, freqs, w0, t, pops, span)[0]) / (2 * h)
            np.testing.assert_allclose(jac[:, k], diff, rtol=0,
                                       atol=1e-6 * np.abs(jac[:, k]).max())


def test_fit_chevron_device_scan_matches_three_start_reference():
    # criterion 10's device scan: the first and third starts land on the
    # same minimum, and the three-start loop keeps the third by a cost
    # difference of about 2e-17, so the one-start fit moves by about 1e-9
    db = calibration.DeviceBackend()
    f = [q.frequency_hz for q in db.device.qubits]
    freqs = TWO_PI * (abs(f[0] - f[1]) + np.arange(2e6, 15e6, 2e6))
    data = calibration.chevron_scan(db, (1, 2), [0.01], freqs, np.linspace(0.0, 600e-9, 31))
    got = calibration.fit_chevron(data, residual_threshold=0.15)
    want = _reference_fit_chevron(data, residual_threshold=0.15)
    _assert_fits_agree(got, want)


def test_fit_chevron_one_start_when_it_meets_the_threshold(monkeypatch):
    calls = _count_solver_starts(monkeypatch)
    calibration.fit_chevron(_criterion_10_dataset(0))
    assert len(calls) == 1


def test_fit_chevron_restarts_below_the_first_residual(monkeypatch):
    data = _criterion_10_dataset(0)
    threshold = calibration.fit_chevron(data).residual * (1 - 1e-12)
    calls = _count_solver_starts(monkeypatch)
    try:
        want = _reference_fit_chevron(data, residual_threshold=threshold)
    except calibration.FitError:
        with pytest.raises(calibration.FitError):
            calibration.fit_chevron(data, residual_threshold=threshold)
    else:
        _assert_fits_agree(calibration.fit_chevron(data, residual_threshold=threshold), want)
    assert len(calls) == 3


def test_fit_chevron_restart_rescues_aliased_grid(monkeypatch):
    # seven times over 1 us sample the 1.3 MHz oscillation of pair (1, 2)
    # too coarsely: the first antinode guess fits with RMS 0.38, the
    # restart from twice that rate fits to round-off
    cfg = calibration.default_effective_config()
    res, freqs, _ = _chevron_window(cfg, (1, 2), 0.012)
    data = calibration.chevron_scan(calibration.EffectiveBackend(cfg), (1, 2), [0.012], freqs,
                                    np.linspace(0.0, 1e-6, 7))
    calls = _count_solver_starts(monkeypatch)
    fit = calibration.fit_chevron(data)
    assert len(calls) == 3
    _assert_fits_agree(fit, _reference_fit_chevron(data))
    assert fit.coupling == pytest.approx(cfg.coupling_slopes[0] * 0.012, rel=1e-9)
    assert fit.resonance == pytest.approx(res, abs=1.0)
    assert fit.residual < 1e-9


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


@pytest.mark.parametrize("scale", [math.nan, -0.5, 2.0])
def test_perturb_drives_rejects_bad_scale(scale):
    # nan used to overflow, -0.5 to fail inside numpy, 2 to flip amplitude signs
    ideal = calibration.ideal_drive_settings(calibration.default_effective_config())
    with pytest.raises(ValueError, match="amplitude_scale"):
        calibration.perturb_drives(ideal, 7, amplitude_scale=scale)


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
    assert a.history.dtype.names == ("evaluation", "amplitudes", "frequencies", "objective")
    for name in a.history.dtype.names:
        assert a.history[name].tolist() == b.history[name].tolist()
    assert a.history.evaluation.tolist() == list(range(1, 61))
    assert a.best_objective == min(h["objective"] for h in a.history)
    assert a.evaluations == len(a.history) == 60
    assert a.budget_exhausted


@dataclass
class _ReplayChain:
    """A backend whose chain runs from site 1 replay fixed populations."""

    tau: float
    populations: np.ndarray

    def run_chains(self, amplitudes, frequencies, initial, times):
        assert initial == 1 and len(times) == len(self.populations)
        return np.broadcast_to(self.populations, (len(amplitudes), *self.populations.shape))


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


def test_optimizer_draws_proposals_lazily():
    # a zero objective stops after one evaluation, whatever the budget
    guess = calibration.DriveSettings((0.01, 0.01, 0.01), (1e9, 2e9, 3e9))
    start = time.perf_counter()
    r = calibration.optimize_simultaneous_drives(
        _ReplayChain(1e-6, _mirror_one_hot(4)), guess,
        calibration.OptimizerConfig(budget=10**12, seed=0))
    assert time.perf_counter() - start < 1.0
    assert r.evaluations == 1 and not r.budget_exhausted


@pytest.mark.parametrize("n", range(2, 9))
def test_objective_ideal_is_mirror_chain_evolution(n):
    tau = 640e-9
    spec = chains.ChainSpec.pst(n, tau)
    pops = protocols.run_pst(spec, 1, np.arange(1, 6) * tau).populations
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


def _reference_write_convergence_csv(result, path) -> None:
    """The per-row writer that one ``%`` over the history replaced, kept verbatim."""
    m = len(result.amplitudes)
    running = result.running_minimum()
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["evaluation", "objective", "running_min"]
                        + [f"amplitude_{b+1}" for b in range(m)]
                        + [f"frequency_{b+1}" for b in range(m)])
        for entry, run in zip(result.history, running):
            writer.writerow([entry["evaluation"],
                             f"{entry['objective']:.12g}", f"{run:.12g}"]
                            + [f"{a:.12g}" for a in entry["amplitudes"]]
                            + [f"{f:.12g}" for f in entry["frequencies"]])


@pytest.mark.parametrize("budget, noise", [(1, 0.0), (37, 0.01), (500, 0.0)])
def test_convergence_csv_bytes_equal_the_row_writer(tmp_path, budget, noise):
    be = _backend(noise=noise, seed=4)
    guess = calibration.perturb_drives(calibration.ideal_drive_settings(be.config), 5)
    r = calibration.optimize_simultaneous_drives(
        be, guess, calibration.OptimizerConfig(budget=budget, seed=4))
    calibration.write_convergence_csv(r, tmp_path / "bulk.csv")
    _reference_write_convergence_csv(r, tmp_path / "rows.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


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
    # 8 ends on a block edge, 9 just past one, 37 inside a block
    for budget, seeds in ((1, (0, 3)), (8, (0, 4)), (9, (1, 5)), (37, (2, 6)),
                          (60, (0, 3, 9)), (500, (2, 7))):
        for seed in seeds:
            be = _backend(noise=noise, seed=seed)
            guess = calibration.perturb_drives(
                calibration.ideal_drive_settings(be.config), 1000 + seed)
            got = calibration.optimize_simultaneous_drives(
                be, guess, calibration.OptimizerConfig(budget=budget, seed=seed))
            ref = _reference_optimize(
                be, guess, _ReferenceOptimizerConfig(budget=budget, seed=seed))
            for name in ("amplitudes", "frequencies", "best_objective", "evaluations", "seed",
                         "budget_exhausted"):
                assert getattr(got, name) == getattr(ref, name), name
            # the record history, field by field, bit for bit
            assert set(got.history.dtype.names) == set(ref.history[0])
            for name in got.history.dtype.names:
                assert got.history[name].tolist() == [h[name] for h in ref.history], name
            # every evaluated point lies inside the search box
            amps, freqs = got.history.amplitudes, got.history.frequencies
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


# The device backend against the RK4 integrator that fourth-order
# commutator-free steps replaced in DeviceSubsetModel.evolve_columns.  That
# integrator runs only in record_device_reference.py, which writes the RK4
# populations of these cases to RK4_REFERENCE with a fingerprint of what
# each case hands to evolve_columns.

RK4_REFERENCE = Path(__file__).resolve().parent / "data" / "device_rk4_reference.json"


def device_cases():
    """(name, run) of every backend run checked against RK4.

    Pair scans over 10 ns at 2 and 3 levels, the two-tone chain from
    sites 1-3 over 10 ns at 2 levels and from site 1 over 4 ns at 3.
    """
    out = []
    for levels, starts, chain_window in ((2, (1, 2, 3), 10e-9), (3, (1,), 4e-9)):
        db = calibration.DeviceBackend(levels=levels)
        f = [q.frequency_hz for q in db.device.qubits]
        freqs = TWO_PI * (abs(f[0] - f[1]) + np.array([-4e6, 0.0, 4e6]))
        drives = calibration.DriveSettings(
            (0.01, 0.012), (TWO_PI * abs(f[0] - f[1]), TWO_PI * abs(f[1] - f[2])))
        t = np.linspace(0.0, chain_window, 3)
        out.append((f"levels {levels}, pair scan",
                    lambda db=db, freqs=freqs: db.run_pair_scan(
                        (1, 2), 0.01, freqs, np.linspace(0.0, 10e-9, 5))))
        out.extend((f"levels {levels}, chain from site {s}",
                    lambda db=db, drives=drives, s=s, t=t: db.run_chain(drives, s, t))
                   for s in starts)
    return out


def _rounded(x) -> np.ndarray:
    """``x`` to 32 significant bits, so one-ulp differences between platforms hash alike."""
    mantissa, exponent = np.frexp(np.asarray(x, dtype=float))
    return np.ldexp(np.round(np.ldexp(mantissa, 32)), exponent - 32) + 0.0


def _model_inputs(model, psi0, times, columns) -> bytes:
    """What the RK4 reference reads: H_fixed, the couplers' dispersion and
    bias, the initial state, the times and every column's drives."""
    specs = [model.device.couplers[j - 1] for j in model.couplers]
    psi0 = np.asarray(psi0, dtype=complex)
    parts = [model.H_fixed, model._coupler_occ,
             [[c.omega_min_hz, c.omega_max_hz, c.anharmonicity_hz, c.phi_dc] for c in specs],
             psi0.real, psi0.imag, times]
    parts += [[[d.coupler, d.amplitude, d.frequency_hz] for d in col] for col in columns]
    return b"".join(repr(np.shape(p)).encode() + _rounded(p).astype("<f8").tobytes()
                    for p in parts)


def run_device_cases(evolve_columns) -> dict:
    """{name: {"fingerprint", "populations"}} of every case, stepped by ``evolve_columns``."""
    calls = []

    def recorded(model, psi0, times, columns):
        calls.append(_model_inputs(model, psi0, times, columns))
        return evolve_columns(model, psi0, times, columns)

    saved = device_models.DeviceSubsetModel.evolve_columns
    device_models.DeviceSubsetModel.evolve_columns = recorded
    try:
        out = {}
        for name, run in device_cases():
            calls.clear()
            pops = run()
            out[name] = {"fingerprint": hashlib.sha256(b"".join(calls)).hexdigest(),
                         "populations": pops.tolist()}
        return out
    finally:
        device_models.DeviceSubsetModel.evolve_columns = saved


def test_device_backend_matches_reference_run_path():
    # within 1e-6 of the recorded RK4 populations; a case whose model or
    # inputs changed since the recording fails on its fingerprint
    recorded = json.loads(RK4_REFERENCE.read_text())
    got = run_device_cases(device_models.DeviceSubsetModel.evolve_columns)
    assert list(got) == list(recorded)
    for name, case in got.items():
        assert case["fingerprint"] == recorded[name]["fingerprint"], (
            f"{name}: the model or inputs changed since the RK4 reference was recorded; "
            "re-record with tests/record_device_reference.py")
        np.testing.assert_allclose(case["populations"], recorded[name]["populations"],
                                   rtol=0, atol=1e-6, err_msg=name)
