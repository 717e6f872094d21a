"""Tests for Pauli tomography, reconstruction, and fidelity reports."""

import itertools
import math
from math import pi

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from pstsim import protocols, statespace, tomography
from pstsim.statespace import wrap_phase


def _ghz3():
    return protocols.ghz_state(3)


def pauli_operator(label: str) -> np.ndarray:
    """Tensor product of single-site Paulis, site 1 leftmost."""
    op = np.array([[1.0]], dtype=complex)
    for c in label:
        op = np.kron(op, tomography.PAULI[c])
    return op


def pauli_expectation(state: np.ndarray, label: str) -> float:
    """Exact <P> for a state vector or density matrix."""
    op = pauli_operator(label)
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return float(np.real(arr.conj() @ op @ arr))
    return float(np.real(np.trace(arr @ op)))


# ------------------------------------------------------------------ settings


def test_full_settings_count():
    s = tomography.TomographySettings(3)
    assert s.settings == tuple("".join(p) for p in itertools.product("XYZ", repeat=3))
    assert len(s.settings) == 27
    assert s.n_sites == 3
    assert s.shots == 0


def test_settings_validation():
    with pytest.raises(ValueError):
        tomography.TomographySettings(2, shots=-1)
    with pytest.raises(ValueError):
        tomography.TomographySettings(2, seed=-2)
    with pytest.raises(ValueError):
        tomography.TomographySettings(0)


# ------------------------------------------------------------- exact tables


def test_exact_table_matches_pauli_expectation():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    table = tomography.simulate_tomography(psi, tomography.TomographySettings(2))
    assert table.shots == 0
    for label in ("".join(p) for p in itertools.product("IXYZ", repeat=2)):
        assert table.values[label] == pytest.approx(
            pauli_expectation(psi, label), abs=1e-12
        )
    assert table.values["II"] == pytest.approx(1.0, abs=1e-12)


def test_subnormalized_state_measured_as_conditional():
    psi = 0.5 * _ghz3()
    a = tomography.simulate_tomography(psi, tomography.TomographySettings(3))
    b = tomography.simulate_tomography(_ghz3(), tomography.TomographySettings(3))
    for label, value in a.values.items():
        assert value == pytest.approx(b.values[label], abs=1e-12)


def test_zero_state_rejected():
    with pytest.raises(ValueError):
        tomography.simulate_tomography(
            np.zeros(8), tomography.TomographySettings(3)
        )


# ------------------------------------------------------------- reconstruct


def test_reconstruct_exact_round_trip():
    psi = _ghz3()
    table = tomography.simulate_tomography(psi, tomography.TomographySettings(3))
    rho = tomography.reconstruct(table)
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)
    assert tomography.fidelity_opt_z(rho, psi).fidelity == pytest.approx(1.0, abs=1e-12)


def test_reconstruct_missing_label():
    table = tomography.simulate_tomography(
        _ghz3(), tomography.TomographySettings(3)
    )
    del table.values["XYZ"]
    with pytest.raises(ValueError, match="incomplete Pauli basis"):
        tomography.reconstruct(table)


def test_reconstruction_is_physical():
    table = tomography.simulate_tomography(
        _ghz3(), tomography.TomographySettings(3, shots=2000, seed=3)
    )
    rho = tomography.reconstruct(table)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


# ---------------------------------------------------------------- sampling


def _state2():
    return np.array([0.6, 0.0, 0.0, 0.8j])


def test_sampling_deterministic_per_seed():
    plan = tomography.TomographySettings(2, shots=500, seed=11)
    a = tomography.simulate_tomography(_state2(), plan)
    b = tomography.simulate_tomography(_state2(), plan)
    assert a.values == b.values
    other = tomography.simulate_tomography(
        _state2(), tomography.TomographySettings(2, shots=500, seed=12)
    )
    assert a.values != other.values


def test_sampled_ghz_fidelity_mean():
    # per-seed fidelity dips below 0.98 (PSD projection bias); the mean holds
    psi = _ghz3()
    fids = []
    for seed in range(20):
        table = tomography.simulate_tomography(
            psi, tomography.TomographySettings(3, shots=10000, seed=seed)
        )
        fids.append(tomography.fidelity_opt_z(tomography.reconstruct(table), psi).fidelity)
    assert np.mean(fids) >= 0.98
    assert min(fids) > 0.95


# ---------------------------------------------------------------- fidelity


def test_fidelity_maximally_mixed():
    assert tomography.fidelity_opt_z(np.eye(8) / 8.0, _ghz3()).fidelity == pytest.approx(
        0.125, abs=1e-12
    )


def test_fidelity_opt_z_ideal():
    psi = _ghz3()
    rep = tomography.fidelity_opt_z(np.outer(psi, psi.conj()), psi)
    assert rep.fidelity == pytest.approx(1.0, abs=1e-9)
    assert rep.fidelity_opt == pytest.approx(1.0, abs=1e-9)
    assert rep.phi_opt == pytest.approx(0.0, abs=1e-6)


def test_fidelity_opt_z_removes_collective_phase():
    psi = _ghz3()
    rotated = psi.copy()
    rotated[-1] *= np.exp(1j * 0.378)
    rep = tomography.fidelity_opt_z(np.outer(rotated, rotated.conj()), psi)
    assert rep.fidelity == pytest.approx(0.9647023093460616, abs=1e-9)
    assert rep.fidelity_opt == pytest.approx(1.0, abs=1e-9)
    assert rep.phi_opt == pytest.approx(-0.378, abs=1e-6)


def test_fidelity_opt_z_matches_unnormalized_report():
    # the report scores the raw (sub-normalized) no-jump state; the same
    # density matrix must reproduce its numbers exactly
    report = protocols.run_ghz(protocols.paper_ghz_scenario())
    rho = np.outer(report.state, report.state.conj())
    rep = tomography.fidelity_opt_z(rho, _ghz3())
    assert rep.fidelity == pytest.approx(report.fidelity, abs=1e-12)
    assert rep.fidelity_opt == pytest.approx(report.fidelity_opt, abs=1e-12)


# ------------------------------------------------ references: the loop versions
# The estimator, reconstruction and virtual-Z optimum as they were before the
# per-qubit transforms, kept verbatim (module names qualified) so the
# transforms can be pinned against them.  ``record`` collects each
# setting's outcome frequencies.


def _signs(n: int, label: str) -> np.ndarray:
    """Outcome signs (-1)^(parity of bits under the non-identity sites)."""
    outcomes = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for site, c in enumerate(label, start=1):
        if c != "I":
            parity += (outcomes >> (n - site)) & 1
    return 1.0 - 2.0 * (parity % 2)


def _loop_simulate_tomography(state, settings, record=None):
    psi = np.asarray(state, dtype=complex).ravel()
    n = settings.n_sites
    psi = psi / np.linalg.norm(psi)
    sums = {}
    hits = {}
    signs = {}                  # label -> _signs(n, label), built once per label
    for idx, s in enumerate(settings.settings):
        rotated = psi
        for site, axis in enumerate(s, start=1):
            if axis != "Z":
                rotated = statespace.apply_single_qubit(rotated, tomography._TO_Z[axis], site, n)
        probs = np.abs(rotated) ** 2
        if settings.shots:
            rng = np.random.default_rng([settings.seed, idx])
            freq = rng.multinomial(settings.shots, probs / probs.sum()) / settings.shots
        else:
            freq = probs
        if record is not None:
            record.append(freq)
        for r in range(n + 1):
            for drop in itertools.combinations(range(n), r):
                label = list(s)
                for k in drop:
                    label[k] = "I"
                label = "".join(label)
                if label not in signs:
                    signs[label] = _signs(n, label)
                sums[label] = sums.get(label, 0.0) + float(np.dot(signs[label], freq))
                hits[label] = hits.get(label, 0) + 1
    values = {label: sums[label] / hits[label] for label in sums}
    return tomography.ExpectationTable(n, settings.shots, values)


def _kron_reconstruct(values: dict) -> np.ndarray:
    n = len(next(iter(values)))
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    for p in itertools.product("IXYZ", repeat=n):
        label = "".join(p)
        if label not in values:
            raise ValueError(f"incomplete Pauli basis: missing {label}")
        rho += values[label] * pauli_operator(label)
    rho /= dim
    rho = 0.5 * (rho + rho.conj().T)
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    return (v * w) @ v.conj().T


def _sweep_fidelity_opt_z(rho, target, site=1, grid=1e-3):
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(target, dtype=complex).ravel()
    n = int(round(math.log2(psi.size)))
    bit = (np.arange(psi.size) >> (n - site)) & 1
    psi1 = np.where(bit == 1, psi, 0.0)
    psi0 = psi - psi1
    base = float(np.real(psi0.conj() @ rho @ psi0 + psi1.conj() @ rho @ psi1))
    z = complex(psi1.conj() @ rho @ psi0)

    def f(phi):
        return base + 2.0 * (math.cos(phi) * z.real - math.sin(phi) * z.imag)

    phis = np.arange(-math.pi + grid, math.pi + grid / 2, grid)
    sweep = base + 2.0 * (np.cos(phis) * z.real - np.sin(phis) * z.imag)
    best = int(np.argmax(sweep))
    res = minimize_scalar(lambda p: -f(p), bounds=(phis[best] - grid, phis[best] + grid),
                          method="bounded", options={"xatol": 1e-12})
    f_raw = f(0.0)
    f_opt = max(float(-res.fun), float(sweep[best]), f_raw)
    phi_opt = wrap_phase(float(res.x)) if f_opt > f_raw else 0.0
    return tomography.FidelityReport(f_raw, f_opt, phi_opt)


# ----------------------------------------------- transforms vs the references


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def _random_rho(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _assert_matches_loop(psi, plan):
    record = []
    ref = _loop_simulate_tomography(psi, plan, record)
    table = tomography.simulate_tomography(psi, plan)
    assert table.shots == plan.shots
    assert set(table.values) == set(ref.values)
    for label, value in ref.values.items():
        assert table.values[label] == pytest.approx(value, abs=1e-12), label
    freqs = tomography._frequencies(psi / np.linalg.norm(psi), plan)
    assert len(freqs) == len(record)
    for freq, want in zip(freqs, record):
        assert np.array_equal(freq, want)


@pytest.mark.parametrize("shots", [0, 300])
@pytest.mark.parametrize("kind", ["ghz", "random"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_estimator_matches_loop_reference(n, kind, shots):
    psi = protocols.ghz_state(n) if kind == "ghz" else 0.7 * _random_state(n, n)
    _assert_matches_loop(psi, tomography.TomographySettings(n, shots=shots, seed=7))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reconstruct_matches_kron_sum(n):
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
    physical = {label: pauli_expectation(_random_rho(n, n), label)
                for label in labels}
    # random values: a non-physical table, so the eigenvalue clipping acts
    rng = np.random.default_rng(n)
    noisy = dict(zip(labels, rng.uniform(-1.0, 1.0, size=len(labels))))
    noisy["I" * n] = 1.0
    for values in (physical, noisy):
        np.testing.assert_allclose(tomography.reconstruct(values),
                                   _kron_reconstruct(values), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fidelity_opt_z_matches_sweep(n):
    for seed in range(5):
        rho = _random_rho(n, 100 * n + seed)
        target = _random_state(n, seed) if seed % 2 else protocols.ghz_state(n)
        new = tomography.fidelity_opt_z(rho, target)
        ref = _sweep_fidelity_opt_z(rho, target)
        assert new.fidelity == ref.fidelity
        assert new.fidelity_opt == pytest.approx(ref.fidelity_opt, abs=1e-12)
        assert abs(wrap_phase(new.phi_opt - ref.phi_opt)) < 1e-6
        assert -pi < new.phi_opt <= pi


def test_fidelity_opt_z_without_coherence_keeps_zero_angle():
    # z = 0: no rotation beats the raw fidelity
    rep = tomography.fidelity_opt_z(np.diag([0.5, 0.0, 0.0, 0.5]), protocols.ghz_state(2))
    assert rep.fidelity == rep.fidelity_opt == pytest.approx(0.5, abs=1e-15)
    assert rep.phi_opt == 0.0
