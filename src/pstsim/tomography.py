"""Pauli-basis state tomography by linear inversion, and fidelity metrics.

A state is measured in all 3^n settings of X, Y or Z per site, and its
density matrix is estimated straight from the outcome frequencies by
inverting the single-qubit Pauli measurement channel on every site
(Huang, Kueng & Preskill, arXiv:2002.08953).  This is the same estimate
as averaging every Pauli string's marginal over the settings that
measure it and summing the strings.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .statespace import wrap_phase

_SQ = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex)
# rotations taking each axis' eigenbasis onto the computational basis
_TO_Z = {
    "X": _H,
    "Y": _H @ np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex),
}
# one site's rotation for each measured axis, in the X, Y, Z order of the settings
_AXIS_STACK = np.stack([_TO_Z["X"], _TO_Z["Y"], np.eye(2)])
# inverse of the single-site measurement channel, M[a, b] = 3 U_a^dag |b><b| U_a - I
# for axis a's rotation U_a and outcome b
_INVERSE = 3 * np.einsum("abi,abj->abij", _AXIS_STACK.conj(), _AXIS_STACK) - np.eye(2)


@dataclass(frozen=True)
class TomographySettings:
    """Complete n-qubit measurement plan: every Pauli setting, shots, base seed.

    The settings are all 3^n strings over X, Y, Z in product order (site
    1 the most significant digit).  ``shots = 0`` means exact
    probabilities (no sampling).  Each setting draws from its own stream,
    keyed by ``seed`` and the setting's row index in that order, so the
    draws are reproducible regardless of evaluation order.
    """

    n_sites: int
    shots: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _frequencies(psi: np.ndarray, settings: TomographySettings) -> np.ndarray:
    """(S, 2^n) outcome frequencies of a normalized state, one row per setting.

    Each site is rotated once for all settings: contracting it with the
    stacked X, Y and Z rotations turns S settings' amplitudes into 3 S,
    the new axis the least significant digit, so rows come out in the
    settings' product order.  Each amplitude is the same two-term sum
    as rotating the setting's sites one at a time (Z is the identity), so
    the probabilities, and the multinomial draws from each setting's own
    stream, match those rotations wherever BLAS rounds both products
    alike (``tests/test_tomography.py`` compares n = 1..7).
    """
    n = settings.n_sites
    amps = psi
    for site in range(1, n + 1):
        t = amps.reshape(-1, 2 ** (site - 1), 2, 2 ** (n - site))
        # (3, 2, S, 2^(site-1), rest) -> (S, 3, 2^(site-1), 2, rest)
        amps = np.tensordot(_AXIS_STACK, t, axes=([2], [2])).transpose(2, 0, 3, 1, 4)
    probs = np.abs(amps.reshape(3**n, 2**n)) ** 2
    if not settings.shots:
        return probs
    freqs = np.empty_like(probs)
    for idx, p in enumerate(probs):
        rng = np.random.default_rng([settings.seed, idx])
        freqs[idx] = rng.multinomial(settings.shots, p / p.sum()) / settings.shots
    return freqs


def reconstruct(state: np.ndarray, settings: TomographySettings) -> np.ndarray:
    """Measure a state in every Pauli setting of the plan and invert.

    With shots the joint outcome distribution of each setting is sampled
    once (multinomial over the 2^n bitstrings) with a per-setting stream
    (``_frequencies``).  The linear-inversion estimate is then
    rho = 3^-n sum_s sum_b f_s(b) (x)_i M[a_i, b_i], with M the inverse
    of the single-site measurement channel (``_INVERSE``): the (3,)*n +
    (2,)*n frequencies are contracted one site's (setting, outcome) pair
    at a time, so no n-site operator or Pauli string is formed.

    The state is normalized before measurement: a sub-normalized
    (no-jump) vector is measured as the conditional state it represents.
    Negative eigenvalues are clipped to zero and the trace renormalized
    (plain projection, no likelihood fit).
    """
    psi = np.asarray(state, dtype=complex).ravel()
    n = settings.n_sites
    if psi.size != 2**n:
        raise ValueError(f"state dimension {psi.size} does not match {n} sites")
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("cannot measure the zero state")
    t = _frequencies(psi / nrm, settings).reshape((3,) * n + (2,) * n)
    for site in range(n):
        # contracts the leading site's (setting, outcome) pair and appends
        # its (row, column) pair
        t = np.tensordot(t, _INVERSE, axes=([0, n - site], [0, 1]))
    rho = t.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))
    rho = rho.reshape(2**n, 2**n) / 3**n
    rho = 0.5 * (rho + rho.conj().T)
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    return (v * w) @ v.conj().T


@dataclass(frozen=True)
class FidelityReport:
    """Raw fidelity, its optimum over one virtual Z, and the optimal angle."""

    fidelity: float
    fidelity_opt: float
    phi_opt: float

    def as_dict(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "fidelity_opt": self.fidelity_opt,
            "phi_opt": self.phi_opt,
        }


def fidelity_opt_z(rho: np.ndarray, target: np.ndarray) -> FidelityReport:
    """Fidelity allowing one virtual Z(phi) on site 1.

    Site 1 is the one the GHZ circuit singles out.
    F(phi) = base + 2 Re(e^{i phi} z) is a sinusoid in phi, so its
    maximum is base + 2|z| at phi = -arg z, reported in (-pi, pi];
    phi_opt is 0 when no rotation beats the raw fidelity.
    """
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(target, dtype=complex).ravel()
    if rho.shape != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: {rho.shape} vs {psi.size}")
    n = int(round(math.log2(psi.size)))
    if psi.size != 2**n:
        raise ValueError("target dimension is not a power of 2")

    # Z(phi) on rho is a phase e^{-i phi} on the site-1 |1> half of the
    # conjugated target, so F(phi) = base + 2 Re(e^{i phi} z).
    bit = (np.arange(psi.size) >> (n - 1)) & 1
    psi1 = np.where(bit == 1, psi, 0.0)
    psi0 = psi - psi1
    base = float(np.real(psi0.conj() @ rho @ psi0 + psi1.conj() @ rho @ psi1))
    z = complex(psi1.conj() @ rho @ psi0)
    f_raw = base + 2.0 * z.real
    f_opt = max(base + 2.0 * abs(z), f_raw)
    phi_opt = wrap_phase(-cmath.phase(z)) if f_opt > f_raw else 0.0
    return FidelityReport(f_raw, f_opt, phi_opt)
