"""Drive calibration against simulated experiment backends.

Chevron characterization of pairwise couplings and closed-loop
optimization of all simultaneous drives.  Frequencies and couplings are
angular (rad/s) throughout this module; the Hz conversion happens only
at the device-model and file boundaries.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol

import numpy as np

from . import evolution, serialize
from .models import chains
from .models import device as device_models


class FitError(RuntimeError):
    """Raised when a chevron dataset cannot be fitted acceptably."""


@dataclass(frozen=True)
class DriveSettings:
    """Amplitude and angular frequency for every coupler of a chain."""

    amplitudes: tuple
    frequencies: tuple

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", tuple(map(float, self.amplitudes)))
        object.__setattr__(self, "frequencies", tuple(map(float, self.frequencies)))
        if len(self.amplitudes) != len(self.frequencies):
            raise ValueError("amplitude and frequency lists differ in length")
        if not self.amplitudes:
            raise ValueError("empty drive settings")

    @property
    def n_drives(self) -> int:
        return len(self.amplitudes)


class ExperimentBackend(Protocol):
    """What chevron scans and the drive optimizer read from a backend.

    ``tau`` is the transfer time the objective samples at.  Both
    measurements are pure functions of their arguments and the backend's
    configuration, so repeated calls return bit-identical data and may
    run concurrently.  A pair scan drives one coupler alone; a chain run
    drives every coupler of the chain at once, for each row of drives.
    """

    tau: float

    def pair_coupler(self, pair) -> int:
        """Coupler bridging an adjacent pair; ValueError for any other pair."""

    def run_pair_scan(self, pair, amplitude: float, frequencies, times) -> np.ndarray:
        """Target-site population (len(frequencies), len(times)) of a driven pair."""

    def run_chains(self, amplitudes, frequencies, initial: int, times) -> np.ndarray:
        """All-site populations (B, len(times), n_sites) of (B, n_drives) drive rows."""


# ---------------------------------------------------------------------------
# effective backend: exchange chain with injected J(A) map and Stark shifts

@dataclass(frozen=True)
class EffectiveChainConfig:
    """Parameters of the effective exchange model.

    ``coupling_slopes[b]`` converts drive amplitude to J for coupler b;
    ``bare_resonances[b]`` is the drive frequency that is resonant at
    vanishing amplitude; ``stark[b][b']`` shifts resonance b by that
    coefficient times A_{b'}^2, emulating first-order drive-induced
    frequency shifts (own drive and neighbours).
    """

    tau: float
    coupling_slopes: tuple
    bare_resonances: tuple
    stark: tuple = ()
    noise: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coupling_slopes", tuple(float(c) for c in self.coupling_slopes))
        object.__setattr__(self, "bare_resonances", tuple(float(w) for w in self.bare_resonances))
        object.__setattr__(self, "stark", tuple(tuple(float(s) for s in row) for row in self.stark))
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")
        if len(self.coupling_slopes) != len(self.bare_resonances):
            raise ValueError("slope and resonance lists differ in length")
        if any(c <= 0 for c in self.coupling_slopes):
            raise ValueError("coupling slopes must be positive")
        if self.stark and (len(self.stark) != self.n_drives
                           or any(len(row) != self.n_drives for row in self.stark)):
            raise ValueError("stark matrix must be square over the drives")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError("noise must be finite and >= 0")

    @property
    def n_drives(self) -> int:
        return len(self.coupling_slopes)

    @property
    def n_sites(self) -> int:
        return self.n_drives + 1

    def resonances(self, amplitudes) -> np.ndarray:
        """Stark-shifted drive resonances of an amplitude vector or of each row of a stack."""
        amps = np.asarray(amplitudes, dtype=float)
        if amps.shape[-1:] != (self.n_drives,):
            raise ValueError(f"expected {self.n_drives} amplitudes")
        res = np.array(self.bare_resonances)
        if self.stark:
            # one matrix-vector product per row; a gemm such as
            # (a*a) @ stark.T rounds differently in the last bit
            res = res + (np.array(self.stark) @ (amps * amps)[..., None])[..., 0]
        return res


def default_effective_config(noise: float = 0.0) -> EffectiveChainConfig:
    """Six-site effective chain at superconducting-device scales, tau = 640 ns."""
    slopes = math.tau * np.array([88.0, 104.0, 119.0, 97.0, 91.0]) * 1e6
    bare = math.tau * np.array([440.0, 342.0, 52.0, 390.0, 620.0]) * 1e6
    stark = np.zeros((5, 5))
    for b in range(5):
        stark[b, b] = -math.tau * 6.0e9
        if b > 0:
            stark[b, b - 1] = -math.tau * 2.2e9
        if b < 4:
            stark[b, b + 1] = -math.tau * 2.2e9
    return EffectiveChainConfig(tau=640e-9, coupling_slopes=tuple(slopes),
                                bare_resonances=tuple(bare),
                                stark=tuple(map(tuple, stark)), noise=noise)


def _entropy(*parts) -> int:
    """Stable 64-bit hash of call arguments, for per-call noise streams."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(repr(p.shape).encode())
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        else:
            h.update(repr(p).encode())
    return int.from_bytes(h.digest(), "big")


@dataclass
class EffectiveBackend:
    """Single-excitation exchange chain with drive-dependent detunings.

    Pair b couples sites b and b+1 with J = slope_b * A_b; the drive
    detuning from the (Stark-shifted) resonance tilts the site energies,
    so simultaneous drives interact through the stark matrix exactly as
    the closed-loop optimizer must learn to compensate.
    """

    config: EffectiveChainConfig = field(default_factory=default_effective_config)
    seed: int = 0

    @property
    def tau(self) -> float:
        return self.config.tau

    def pair_coupler(self, pair) -> int:
        a, b = pair
        if b != a + 1 or not 1 <= a <= self.config.n_drives:
            raise ValueError(f"pair {pair} is not an adjacent pair of this chain")
        return a

    def _noise(self, shape, *key):
        if self.config.noise == 0.0:
            return 0.0
        rng = np.random.default_rng([self.seed, _entropy(*key)])
        return rng.normal(0.0, self.config.noise, shape)

    def run_pair_scan(self, pair, amplitude: float, frequencies, times) -> np.ndarray:
        """Target-site population (len(frequencies), len(times))."""
        b = self.pair_coupler(pair)
        amps = np.zeros(self.config.n_drives)
        amps[b - 1] = amplitude
        freqs = np.asarray(frequencies, dtype=float)
        t = np.asarray(times, dtype=float)
        res = self.config.resonances(amps)[b - 1]
        coupling = self.config.coupling_slopes[b - 1] * amplitude
        half = 0.5 * (freqs - res)[:, None]
        rabi2 = coupling * coupling + half * half
        safe = np.where(rabi2 == 0.0, 1.0, rabi2)
        pops = (coupling * coupling / safe) * np.sin(np.sqrt(safe) * t[None, :]) ** 2
        # the trailing () is part of the recorded noise key: without it
        # every noisy scan would draw a different stream
        pops = pops + self._noise(pops.shape, "pair_scan", pair, amplitude, freqs, t, ())
        return np.clip(pops, 0.0, 1.0)

    def run_chains(self, amplitudes, frequencies, initial: int, times) -> np.ndarray:
        """Populations (B, len(times), n_sites), all rows in one stacked eigen step.

        Row b of the (B, n_drives) ``amplitudes`` and ``frequencies`` is one
        drive setting; its populations equal those of a one-row block of that
        setting bit for bit, measurement noise included.
        """
        n, m = self.config.n_sites, self.config.n_drives
        if not 1 <= initial <= n:
            raise ValueError(f"initial site {initial} outside chain of {n}")
        amps = np.asarray(amplitudes, dtype=float)
        freqs = np.asarray(frequencies, dtype=float)
        if amps.ndim != 2 or amps.shape[1] != m or freqs.shape != amps.shape:
            raise ValueError(f"expected {m} drives per row")
        t = np.asarray(times, dtype=float)
        # each drive's detuning tilts everything downstream of its pair
        h = np.zeros((len(amps), n, n))
        up = np.arange(1, n)
        h[:, up, up] = np.cumsum(self.config.resonances(amps) - freqs, axis=1)
        h[:, up - 1, up] = h[:, up, up - 1] = np.array(self.config.coupling_slopes) * amps
        start = np.zeros((len(amps), n), dtype=complex)
        start[:, initial - 1] = 1.0
        pops = np.abs(evolution._block_states(h, start, t)) ** 2
        if self.config.noise:
            for b, (a, f) in enumerate(zip(amps.tolist(), freqs.tolist())):
                pops[b] += self._noise(pops[b].shape, "chain", tuple(a), tuple(f), initial, t)
        return np.clip(pops, 0.0, 1.0)


def ideal_drive_settings(config: EffectiveChainConfig) -> DriveSettings:
    """Drives that realize exact mirror transfer on the effective model."""
    spec = chains.ChainSpec.pst(config.n_sites, config.tau)
    amps = np.array(spec.couplings) / np.array(config.coupling_slopes)
    freqs = config.resonances(amps)
    return DriveSettings(tuple(amps), tuple(freqs))


def perturb_drives(settings: DriveSettings, seed: int,
                   amplitude_scale: float = 0.2) -> DriveSettings:
    """Random miscalibration: relative on amplitudes, up to 200 kHz on frequencies."""
    if not 0 <= amplitude_scale < 1:     # also rejects nan: amplitudes keep their sign
        raise ValueError(f"amplitude_scale must lie in [0, 1), got {amplitude_scale}")
    rng = np.random.default_rng(seed)
    m = settings.n_drives
    offset = math.tau * 200e3
    amps = np.array(settings.amplitudes) * (1.0 + rng.uniform(-amplitude_scale,
                                                              amplitude_scale, m))
    freqs = np.array(settings.frequencies) + rng.uniform(-offset, offset, m)
    return DriveSettings(tuple(amps), tuple(freqs))


# ---------------------------------------------------------------------------
# device backend: the circuit-level model, restricted to small subsets

def _bridging_coupler(device, pair) -> int:
    for j in range(1, len(device.couplers) + 1):
        if set(device.coupler_qubits(j)) == set(pair):
            return j
    raise ValueError(f"no coupler bridges qubits {pair}")


@dataclass
class DeviceBackend:
    """Runs pair scans and the chain (q1, q2, q3) on the default device.

    ``levels`` is the truncation of every transmon and coupler mode.
    """

    levels: int = 3

    tau = 640e-9                # read through the backend protocol
    chain_qubits = (1, 2, 3)

    def __post_init__(self):
        self.device = device_models.default_device()

    def pair_coupler(self, pair) -> int:
        return _bridging_coupler(self.device, pair)

    def _populations(self, qubits, couplers, columns, times, start, readout) -> np.ndarray:
        """Level-one populations (len(times), len(readout), len(columns)).

        One excitation starts on qubit ``start``; ``columns`` holds one
        sequence of DriveConfigs per output column.  The order of
        ``qubits`` and ``couplers`` fixes the model's mode order.
        """
        model = device_models.DeviceSubsetModel(self.device, qubits, couplers, self.levels)
        psi0 = np.zeros(model.dim, dtype=complex)
        psi0[model.bare_index({("q", start): 1})] = 1.0
        probs = model.evolve_columns(psi0, np.asarray(times, dtype=float), columns)
        occ = model.occupations
        return np.stack([probs[:, occ[:, qubits.index(q)] == 1, :].sum(axis=1)
                         for q in readout], axis=1)

    def run_pair_scan(self, pair, amplitude: float, frequencies, times) -> np.ndarray:
        j = self.pair_coupler(pair)
        columns = [[device_models.DriveConfig(j, amplitude, f)]
                   for f in np.asarray(frequencies, dtype=float) / math.tau]
        pops = self._populations(self.device.coupler_qubits(j), [j], columns, times,
                                 pair[0], [pair[1]])
        return pops[:, 0, :].T

    def run_chain(self, drives: DriveSettings, initial: int, times) -> np.ndarray:
        return self.run_chains([drives.amplitudes], [drives.frequencies], initial, times)[0]

    def run_chains(self, amplitudes, frequencies, initial: int, times) -> np.ndarray:
        """Populations (B, len(times), n_sites) from one ``evolve_columns`` call.

        Each drive row is one column, so the step follows the fastest drive of any row.
        """
        qubits = self.chain_qubits
        n = len(qubits)
        amps = np.asarray(amplitudes, dtype=float)
        freqs = np.asarray(frequencies, dtype=float)
        if amps.ndim != 2 or amps.shape[1] != n - 1 or freqs.shape != amps.shape:
            raise ValueError(f"expected {n - 1} drives for {n} qubits")
        if not 1 <= initial <= n:
            raise ValueError(f"initial site {initial} outside chain of {n}")
        couplers = [_bridging_coupler(self.device, (qubits[k], qubits[k + 1]))
                    for k in range(n - 1)]
        columns = [[device_models.DriveConfig(j, a, f / math.tau)
                    for j, a, f in zip(couplers, row_a, row_f)]
                   for row_a, row_f in zip(amps.tolist(), freqs.tolist())]
        pops = self._populations(qubits, couplers, columns, times, qubits[initial - 1], qubits)
        return np.moveaxis(pops, 2, 0)


# ---------------------------------------------------------------------------
# chevron characterization

@dataclass
class ChevronDataset:
    """Target-site populations over an (amplitude, frequency, time) grid."""

    pair: tuple
    amplitudes: np.ndarray
    frequencies: np.ndarray
    times: np.ndarray
    populations: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        self.populations = np.asarray(self.populations, dtype=float)
        expected = (self.amplitudes.size, self.frequencies.size, self.times.size)
        if self.populations.shape != expected:
            raise ValueError(f"population grid {self.populations.shape} != {expected}")
        for name in ("amplitudes", "frequencies", "times", "populations"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite {name}")
        if self.populations.min() < -1e-9 or self.populations.max() > 1 + 1e-9:
            raise ValueError("populations outside [0, 1]")


def chevron_scan(backend: ExperimentBackend, pair, amplitudes, frequencies,
                 times) -> ChevronDataset:
    """Measure the driven pair over the full (A, frequency, time) grid.

    Only the pair's own coupler is driven; the other couplers stay at
    their bias points.
    """
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if amps.size == 0 or freqs.size == 0 or t.size == 0:
        raise ValueError("empty scan grid")
    pops = np.empty((amps.size, freqs.size, t.size))
    for ia, amp in enumerate(amps):
        pops[ia] = backend.run_pair_scan(pair, amp, freqs, t)
    return ChevronDataset(tuple(pair), amps, freqs, t, np.clip(pops, 0.0, 1.0))


class ChevronFit(NamedTuple):
    """Fitted coupling and resonance with contrast/residual diagnostics."""

    coupling: float
    resonance: float
    contrast: float
    residual: float


def _chevron_residuals(p, freqs, w0, t, pops, span):
    """Model minus data of a chevron fit, raveled, and its Jacobian in p.

    ``p = (j, e, c)`` is dimensionless: the coupling K = j / span, the
    resonance w0 + e / span and the contrast c.  The model is
    c K^2 / R sin^2(sqrt(R) t), with R = K^2 + h^2 and h half of each
    frequency's detuning from the resonance.
    """
    j, e, c = p
    coupling = j / span
    half = 0.5 * (freqs - (w0 + e / span))[:, None]
    rabi2 = coupling * coupling + half * half
    root, t = np.sqrt(rabi2), t[None, :]
    sine = np.sin(root * t)
    model = c * (coupling * coupling / rabi2) * sine ** 2
    shape = sine * sine / rabi2                         # sin^2(sqrt(R) t) / R
    slope = (np.sin(2 * root * t) * t / (2 * root) - shape) / rabi2     # d shape / dR
    jac = np.stack([c * 2 * coupling * (shape + coupling * coupling * slope) / span,
                    -c * coupling * coupling * slope * half / span,
                    coupling * coupling * shape], axis=-1)
    return (model - pops).ravel(), jac.reshape(-1, 3)


class _Solution(NamedTuple):
    x: np.ndarray       # the parameters
    fun: np.ndarray     # the residuals there


def _levenberg_marquardt(fun, x0, lower, upper) -> _Solution:
    """Bounded Levenberg-Marquardt: a local minimum of |r(x)|^2 with x in
    [lower, upper], from ``fun(x) -> (r, J)``.

    Each step solves (J^T J + mu D) dx = -J^T r with D the diagonal of
    J^T J (Marquardt's scaling), clips x + dx to the bounds, and keeps it
    when the cost falls; mu follows the gain ratio (Nielsen 1999).  The
    search stops when a step would move x by at most 1e-12 relative,
    four decades below the tolerance of scipy's ``least_squares``, or
    after 300 steps.
    """
    xtol = 1e-12
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r, jac = fun(x)
    cost, mu, nu = r @ r, 1e-3, 2.0
    for _ in range(300):
        g, a = jac.T @ r, jac.T @ jac
        d = np.diag(a)
        x_new = np.clip(x + np.linalg.solve(a + mu * np.diag(np.where(d > 0, d, 1.0)), -g),
                        lower, upper)
        dx = x_new - x
        if np.linalg.norm(dx) <= xtol * (xtol + np.linalg.norm(x)):
            break
        r_new, jac_new = fun(x_new)
        cost_new = r_new @ r_new
        if cost_new < cost:
            gain = (cost - cost_new) / max(-(2 * g @ dx + dx @ a @ dx), np.finfo(float).tiny)
            x, r, jac, cost = x_new, r_new, jac_new, cost_new
            mu *= max(1 / 3, 1 - (2 * gain - 1) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return _Solution(x, r)


def fit_chevron(dataset: ChevronDataset, residual_threshold: float = 0.1) -> ChevronFit:
    """Fit the detuned-oscillation model to a one-amplitude dataset.

    The model is P(t) = C * J^2/(J^2 + d^2/4) * sin^2(sqrt(J^2 + d^2/4) t)
    with d the detuning from the resonance; the fit returns the coupling
    and the frequency of maximal contrast.  The parameters are
    dimensionless (:func:`_chevron_residuals`) and bounded, and a bounded
    Levenberg-Marquardt search (:func:`_levenberg_marquardt`) with the
    model's analytic Jacobian minimises the squared residuals.  It starts
    from the rate of the first antinode; only when that fit's
    root-mean-square residual is above ``residual_threshold`` does it
    restart from twice and half that rate and keep the lowest cost of the
    three.  A residual still above the threshold raises FitError with
    diagnostics.
    """
    if dataset.amplitudes.size != 1:
        raise ValueError("chevron fits take a dataset with a single amplitude")
    if not (math.isfinite(residual_threshold) and residual_threshold > 0):
        raise ValueError("residual_threshold must be finite and positive")
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
        return _chevron_residuals(p, freqs, w0, t, pops, span)

    def fit(j_start):
        return _levenberg_marquardt(residuals, (j_start, 0.0, c0), (1e-9, -e_span, 0.0),
                                    (50.0 * j_start + 50.0, e_span, 1.2))

    best = fit(j0 * span)
    if math.sqrt(np.mean(best.fun ** 2)) > residual_threshold:
        best = min((best, fit(2.0 * j0 * span), fit(0.5 * j0 * span)),
                   key=lambda sol: sol.fun @ sol.fun)
    rms = math.sqrt(np.mean(best.fun ** 2))
    if rms > residual_threshold:
        raise FitError(
            f"chevron fit residual {rms:.4f} above threshold {residual_threshold}; "
            f"guess J={j0:.4g} rad/s at resonance {w0:.6g} rad/s, grid "
            f"{freqs.size} frequencies x {t.size} times")
    j_fit = best.x[0] / span
    return ChevronFit(j_fit, w0 + best.x[1] / span, best.x[2], rms)


# ---------------------------------------------------------------------------
# closed-loop optimization of simultaneous drives

def transfer_error_objective(backend: ExperimentBackend, drives):
    """Mean |population - ideal| over sites and times, starting on site 1.

    The times are the first five multiples of the backend's transfer
    time, where the ideal trajectory alternates between the mirrored and
    the original configuration: all population on site n at odd
    multiples, on site 1 at even ones.  ``drives`` is one DriveSettings,
    which gives a float, or a sequence of them, which gives one value per
    setting from a single ``run_chains`` call.  Each value equals the
    one-setting value bit for bit on an ``EffectiveBackend``; on a
    ``DeviceBackend`` every setting of the call is stepped with the step
    of the fastest drive among them, so a value depends on the other
    settings of the call (see :func:`optimize_simultaneous_drives`).
    """
    one = isinstance(drives, DriveSettings)
    block = [drives] if one else drives
    pops = backend.run_chains([d.amplitudes for d in block], [d.frequencies for d in block],
                              1, np.arange(1, 6) * backend.tau)
    ideal = np.zeros(pops.shape[1:])
    ideal[0::2, -1] = 1.0
    ideal[1::2, 0] = 1.0
    values = np.abs(pops - ideal).mean(axis=(1, 2))
    return float(values[0]) if one else values.tolist()


# The search box about the guess (relative on amplitudes, rad/s on
# frequencies) and the proposal steps: _SIGMA box units, times _DECAY per
# evaluation, down to _FLOOR; a _COORDINATE_FRACTION of them move one
# coordinate, the rest the whole vector.
_AMPLITUDE_HALFWIDTH, _FREQUENCY_HALFWIDTH = 0.35, math.tau * 600e3
_SIGMA, _FLOOR, _DECAY, _COORDINATE_FRACTION = 0.35, 0.02, 0.992, 0.4
# Proposals per objective call.  A run improves its incumbent about once in
# seven evaluations (median 71 of 500 over 128 seeds) and the evaluations
# after an improvement are wasted: blocks of 4, 8 and 16 cost about the same,
# blocks of 32 half again as much.
_BLOCK = 8


@dataclass(frozen=True)
class OptimizerConfig:
    """Evaluation budget and random seed of the drive optimizer."""

    budget: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Best drives found, with the full evaluation history.

    ``history`` is a record array, one row per evaluation in order, with
    the fields ``evaluation`` (from 1), ``amplitudes`` and ``frequencies``
    (one per drive) and ``objective``.  Results compare by identity;
    compare their fields to compare runs.
    """

    amplitudes: tuple
    frequencies: tuple
    history: np.recarray
    best_objective: float
    evaluations: int
    seed: int
    budget_exhausted: bool

    def running_minimum(self) -> np.ndarray:
        return np.minimum.accumulate(self.history.objective)

    def as_dict(self) -> dict:
        return {
            "amplitudes": list(self.amplitudes),
            "frequencies": list(self.frequencies),
            "history": self.history,
            "best_objective": self.best_objective,
            "evaluations": self.evaluations,
            "seed": self.seed,
            "budget_exhausted": self.budget_exhausted,
        }


def optimize_simultaneous_drives(backend: ExperimentBackend, guess: DriveSettings,
                                 config: OptimizerConfig | None = None) -> CalibrationResult:
    """Shrinking Gaussian search on the transfer-error objective.

    The search box is centred on the guess: amplitudes vary by the
    relative halfwidth, frequencies by the absolute one.  Each proposal
    perturbs the best point so far and is clipped to the box.  The random
    steps depend only on the evaluation count, so up to ``_BLOCK`` of
    them are drawn ahead and one objective call evaluates that block of
    proposals from the incumbent.  The first improvement ends the block;
    its unused steps then move the new incumbent.  On an
    ``EffectiveBackend``, whose rows do not depend on each other, the
    history is bit for bit the one of evaluating proposals one at a time.
    On a ``DeviceBackend`` it is not: ``run_chains`` steps every row of a
    block with the step of the block's fastest drive, so a proposal's
    value can differ from its one-row value (a three-level row beside
    two-tone rows moved by about 2.5e-10 in its populations), and the
    search can take another path.  Deterministic given the config seed
    and the backend; stops when the objective is exactly zero or when the
    budget is exhausted (flagged on the result).
    """
    config = config or OptimizerConfig()
    m = guess.n_drives
    dim = 2 * m
    rng = np.random.default_rng(config.seed)
    amp0 = np.array(guess.amplitudes)
    freq0 = np.array(guess.frequencies)

    def decode(coords):
        """Amplitudes and frequencies of a point, or of each row of a stack."""
        return (amp0 * (1.0 + coords[..., :m] * _AMPLITUDE_HALFWIDTH),
                freq0 + coords[..., m:] * _FREQUENCY_HALFWIDTH)

    def step(k) -> np.ndarray:
        """The move from the incumbent proposed after evaluation k."""
        scale = max(_FLOOR, _SIGMA * _DECAY ** k)
        if rng.random() >= _COORDINATE_FRACTION:
            return scale * rng.standard_normal(dim)
        delta, i = np.zeros(dim), int(rng.integers(dim))   # the index is drawn first
        delta[i] = scale * rng.standard_normal()
        return delta

    points, objectives, steps = [], [], []
    best_coords, best_value = np.zeros(dim), math.inf
    block = best_coords[None]
    while True:
        amps, freqs = decode(block)
        drives = [DriveSettings(a, f) for a, f in zip(amps.tolist(), freqs.tolist())]
        values = transfer_error_objective(backend, drives)
        for used, value in enumerate(values, 1):
            if value < best_value:
                best_coords, best_value = block[used - 1], value
                break
        points.append(block[:used])
        objectives += values[:used]
        if len(objectives) >= config.budget or best_value == 0.0:
            break
        del steps[:used]
        steps += [step(len(objectives) + k)
                  for k in range(len(steps), min(_BLOCK, config.budget - len(objectives)))]
        block = np.clip(best_coords + np.array(steps), -1.0, 1.0)

    best = DriveSettings(*decode(best_coords))
    history = np.rec.fromarrays(
        [np.arange(1, len(objectives) + 1), *decode(np.concatenate(points)), objectives],
        dtype=[("evaluation", int), ("amplitudes", float, (m,)),
               ("frequencies", float, (m,)), ("objective", float)])
    return CalibrationResult(
        amplitudes=best.amplitudes,
        frequencies=best.frequencies,
        history=history,
        best_objective=best_value,
        evaluations=len(objectives),
        seed=config.seed,
        # the loop ends early only on a zero objective
        budget_exhausted=best_value > 0.0,
    )


def write_convergence_csv(result: CalibrationResult, path) -> None:
    """Per-evaluation CSV: objective, running minimum, and parameters."""
    m = len(result.amplitudes)
    header = (["evaluation", "objective", "running_min"]
              + [f"amplitude_{b+1}" for b in range(m)] + [f"frequency_{b+1}" for b in range(m)])
    h = result.history
    table = np.column_stack([h.evaluation, h.objective, result.running_minimum(),
                             h.amplitudes, h.frequencies])
    serialize.write_csv(path, header, "%d," + ",".join(["%.12g"] * (2 + 2 * m)) + "\n",
                        table.ravel())
