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


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_operator(label: str) -> np.ndarray:
    """Tensor product of single-site Paulis, site 1 leftmost."""
    op = np.array([[1.0]], dtype=complex)
    for c in label:
        op = np.kron(op, PAULI[c])
    return op


def pauli_expectation(state: np.ndarray, label: str) -> float:
    """Exact <P> for a state vector or density matrix."""
    op = pauli_operator(label)
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return float(np.real(arr.conj() @ op @ arr))
    return float(np.real(np.trace(arr @ op)))


# ------------------------------------------------------------------ settings


def _settings(n):
    """Every setting of an n-site plan, in the product order of its rows."""
    return ["".join(p) for p in itertools.product("XYZ", repeat=n)]


def test_full_settings_count():
    s = tomography.TomographySettings(3)
    assert s.n_sites == 3
    assert s.shots == 0
    # |000>: a Z site reads 0, an X or Y site either outcome with equal odds
    freqs = tomography._frequencies(np.eye(8)[0].astype(complex), s)
    assert freqs.shape == (27, 8)
    for row, setting in zip(freqs, _settings(3)):
        want = np.ones(1)
        for axis in setting:
            want = np.kron(want, [1.0, 0.0] if axis == "Z" else [0.5, 0.5])
        np.testing.assert_allclose(row, want, atol=1e-15)


def test_settings_validation():
    with pytest.raises(ValueError):
        tomography.TomographySettings(2, shots=-1)
    with pytest.raises(ValueError):
        tomography.TomographySettings(2, seed=-2)
    with pytest.raises(ValueError):
        tomography.TomographySettings(0)


# ------------------------------------------------------- exact probabilities


def test_exact_table_matches_pauli_expectation():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = tomography.reconstruct(psi, tomography.TomographySettings(2))
    for label in ("".join(p) for p in itertools.product("IXYZ", repeat=2)):
        assert pauli_expectation(rho, label) == pytest.approx(
            pauli_expectation(psi, label), abs=1e-12
        )


def test_subnormalized_state_measured_as_conditional():
    a = tomography.reconstruct(0.5 * _ghz3(), tomography.TomographySettings(3))
    b = tomography.reconstruct(_ghz3(), tomography.TomographySettings(3))
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_zero_state_rejected():
    with pytest.raises(ValueError, match="zero state"):
        tomography.reconstruct(np.zeros(8), tomography.TomographySettings(3))
    with pytest.raises(ValueError, match="does not match"):
        tomography.reconstruct(np.ones(4), tomography.TomographySettings(3))


# ------------------------------------------------------------- reconstruct


def test_reconstruct_exact_round_trip():
    psi = _ghz3()
    rho = tomography.reconstruct(psi, tomography.TomographySettings(3))
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)
    assert tomography.fidelity_opt_z(rho, psi).fidelity == pytest.approx(1.0, abs=1e-12)


def test_reconstruction_is_physical():
    rho = tomography.reconstruct(
        _ghz3(), tomography.TomographySettings(3, shots=2000, seed=3)
    )
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


# ---------------------------------------------------------------- sampling


def _state2():
    return np.array([0.6, 0.0, 0.0, 0.8j])


def test_sampling_deterministic_per_seed():
    plan = tomography.TomographySettings(2, shots=500, seed=11)
    a = tomography.reconstruct(_state2(), plan)
    b = tomography.reconstruct(_state2(), plan)
    assert np.array_equal(a, b)
    other = tomography.reconstruct(
        _state2(), tomography.TomographySettings(2, shots=500, seed=12)
    )
    assert not np.array_equal(a, other)


def test_sampled_ghz_fidelity_mean():
    # per-seed fidelity dips below 0.98 (PSD projection bias); the mean holds
    psi = _ghz3()
    fids = []
    for seed in range(20):
        rho = tomography.reconstruct(
            psi, tomography.TomographySettings(3, shots=10000, seed=seed)
        )
        fids.append(tomography.fidelity_opt_z(rho, psi).fidelity)
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
# per-qubit transforms (module names qualified; the estimate is a plain dict
# of Pauli-string values) so the transforms can be pinned against them.  The
# estimator rotates and samples one setting at a time, as it did; its
# per-label sums are one sign matrix product per setting, accumulated in
# setting order.  ``record`` collects each setting's outcome frequencies.


def _subset_signs(n: int) -> np.ndarray:
    """(2^n kept-site masks, 2^n outcomes): (-1)^(parity of outcome bits a mask keeps)."""
    masks = np.arange(2**n)
    both = masks[:, None] & masks[None, :]
    parity = np.zeros_like(both)
    for b in range(n):
        parity ^= (both >> b) & 1
    return 1.0 - 2.0 * parity


def _loop_simulate_tomography(state, settings, record=None):
    psi = np.asarray(state, dtype=complex).ravel()
    n = settings.n_sites
    psi = psi / np.linalg.norm(psi)
    freqs = []
    for idx, s in enumerate(_settings(n)):
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
        freqs.append(freq)
    # a label keeps the setting's axis (X, Y, Z = 1, 2, 3) on the sites of a
    # mask and I = 0 elsewhere, site 1 the most significant base-4 digit;
    # its outcome signs depend only on the mask
    values = np.array(freqs) @ _subset_signs(n).T
    axes = np.array([["IXYZ".index(c) for c in s] for s in _settings(n)])
    keep = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    codes = (axes * 4 ** np.arange(n - 1, -1, -1)) @ keep.T
    sums = np.zeros(4**n)
    np.add.at(sums, codes.ravel(), values.ravel())
    hits = np.bincount(codes.ravel(), minlength=4**n)
    digits = (np.arange(4**n)[:, None] >> 2 * np.arange(n - 1, -1, -1)) & 3
    labels = ["".join(row) for row in np.array(list("IXYZ"))[digits]]
    return {label: total / hit for label, total, hit in zip(labels, sums, hits)}


def _pauli_sum(values: dict, n: int, prefix: str = "") -> np.ndarray:
    """Sum of values[label] pauli_operator(label[len(prefix):]) over labels from prefix.

    Built one site at a time, as sum_c kron(P_c, the same sum for prefix + c).
    """
    if len(prefix) == n:
        if prefix not in values:
            raise ValueError(f"incomplete Pauli basis: missing {prefix}")
        return values[prefix]
    return sum(np.kron(PAULI[c], _pauli_sum(values, n, prefix + c)) for c in "IXYZ")


def _kron_reconstruct(values: dict) -> np.ndarray:
    n = len(next(iter(values)))
    rho = _pauli_sum(values, n) / 2**n
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
    ref = _kron_reconstruct(_loop_simulate_tomography(psi, plan, record))
    np.testing.assert_allclose(tomography.reconstruct(psi, plan), ref, rtol=0, atol=1e-12)
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


@pytest.mark.parametrize("kind", ["ghz", "random"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_linear_inversion_is_the_state(n, kind, monkeypatch):
    # the estimate reconstruct hands to eigh, before its eigenvalues are
    # clipped and their sum renormalised: with exact probabilities it is
    # |psi><psi| itself, so the 3^-n of the inversion shows here, though the
    # renormalised result would hide a wrong scale
    psi = protocols.ghz_state(n) if kind == "ghz" else _random_state(n, n)
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a) or eigh(a))
    tomography.reconstruct(psi, tomography.TomographySettings(n))
    (rho,) = seen
    assert abs(np.trace(rho) - 1.0) < 1e-12
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reconstruct_matches_kron_sum(n):
    # exact probabilities of a random state, and a 5-shot sample of a GHZ
    # state whose linear-inversion estimate is not positive, so the
    # eigenvalue clipping acts
    exact = (_random_state(n, n), tomography.TomographySettings(n))
    sampled = (protocols.ghz_state(n), tomography.TomographySettings(n, shots=5, seed=n))
    for psi, plan in (exact, sampled):
        values = _loop_simulate_tomography(psi, plan)
        np.testing.assert_allclose(tomography.reconstruct(psi, plan),
                                   _kron_reconstruct(values), rtol=0, atol=1e-12)
    raw = sum(v * pauli_operator(label) for label, v in values.items()) / 2**n
    assert np.linalg.eigvalsh(raw).min() < -1e-3


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
