"""Pauli-basis state tomography, reconstruction, and fidelity metrics."""

from __future__ import annotations

import cmath
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import statespace
from .statespace import wrap_phase

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_PAULI_STACK = np.stack([PAULI[c] for c in "IXYZ"])

_SQ = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex)
# rotations taking each axis' eigenbasis onto the computational basis
_TO_Z = {
    "X": _H,
    "Y": _H @ np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex),
}


@dataclass(frozen=True)
class TomographySettings:
    """Complete n-qubit measurement plan: every Pauli setting, shots, base seed.

    The settings are all 3^n strings over X, Y, Z in product order
    (``settings``).  ``shots = 0`` means exact expectations (no
    sampling).  Each setting draws from its own stream derived from
    ``seed`` and the setting's position in that order, so tables are
    reproducible regardless of evaluation order.
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

    @property
    def settings(self) -> tuple:
        return tuple("".join(p) for p in itertools.product("XYZ", repeat=self.n_sites))


@dataclass
class ExpectationTable:
    """Estimated <P> for every length-n Pauli string (I/X/Y/Z)."""

    n_sites: int
    shots: int
    values: dict


def _pauli_labels(n: int) -> list:
    """Every length-n Pauli string, in base-4 index order (I=0, X=1, Y=2, Z=3)."""
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n)]


def _walsh_hadamard(freqs: np.ndarray, n: int) -> np.ndarray:
    """Walsh-Hadamard transform, in place, of the rows of (S, 2^n) frequencies.

    Entry ``m`` of a row becomes sum_b (-1)^popcount(b & m) freq[b]: the
    expectation of that setting with the sites outside mask ``m`` (site 1
    the most significant bit) replaced by the identity.  One butterfly
    per site.
    """
    for site in range(1, n + 1):
        pairs = freqs.reshape(len(freqs), 2 ** (site - 1), 2, 2 ** (n - site))
        a0, a1 = pairs[:, :, 0], pairs[:, :, 1]
        diff = a0 - a1
        a0 += a1
        a1[...] = diff
    return freqs


def _label_indices(settings: tuple, n: int) -> np.ndarray:
    """(S, 2^n) base-4 index of the Pauli string behind each transform entry.

    Entry ``[i, m]`` keeps setting ``i``'s axis on the sites in mask ``m``
    and puts I elsewhere; strings are numbered with I=0, X=1, Y=2, Z=3
    and site 1 as the most significant digit, which is also their
    lexicographic order.
    """
    codes = np.frombuffer("".join(settings).encode("ascii"), dtype=np.uint8)
    digits = np.searchsorted(np.frombuffer(b"IXYZ", dtype=np.uint8), codes)
    place = statespace.occupation_rows(np.arange(2**n), n) * 4 ** np.arange(n - 1, -1, -1)
    return digits.reshape(-1, n) @ place.T


def _frequencies(psi: np.ndarray, settings: TomographySettings) -> np.ndarray:
    """(S, 2^n) outcome frequencies of a normalized state, one row per setting.

    The settings are visited in order and the rotated state of each
    prefix of axes is kept on a stack, so a setting only rotates the
    sites after the prefix it shares with the previous one.  Every
    rotation is the same ``apply_single_qubit`` call on the same input
    as when each setting is rotated from scratch, so the probabilities,
    and the multinomial draws from each setting's own stream, are too.
    """
    n = settings.n_sites
    labels = settings.settings
    freqs = np.empty((len(labels), 2**n))
    # rotated[k]: psi with the current setting's first k axes rotated onto Z
    rotated = [psi] + [None] * n
    previous = ""
    for idx, s in enumerate(labels):
        for depth in range(len(os.path.commonprefix((previous, s))), n):
            below = rotated[depth]
            rotated[depth + 1] = (below if s[depth] == "Z" else
                                  statespace.apply_single_qubit(below, _TO_Z[s[depth]],
                                                                depth + 1, n))
        previous = s
        probs = np.abs(rotated[n]) ** 2
        if settings.shots:
            rng = np.random.default_rng([settings.seed, idx])
            freqs[idx] = rng.multinomial(settings.shots, probs / probs.sum()) / settings.shots
        else:
            freqs[idx] = probs
    return freqs


def simulate_tomography(state: np.ndarray, settings: TomographySettings) -> ExpectationTable:
    """Measure a state in every Pauli setting of the plan.

    With shots the joint outcome distribution of each setting is sampled
    once (multinomial over the 2^n bitstrings) with a per-setting stream,
    so parity correlations are preserved.  Each Pauli string is then
    estimated by marginalizing every compatible setting (the ones that
    match it on its non-identity sites) and averaging, which uses all
    the data collected for the lower-weight strings.

    Settings sharing a prefix of axes share its rotated state.  One
    Walsh-Hadamard transform of all settings' outcome frequencies gives
    every compatible string's marginal at once, in O(n 2^n) per setting,
    and the marginals are averaged per string by base-4 label index.

    The state is normalized before measurement — a sub-normalized
    (no-jump) vector is measured as the conditional state it represents.
    """
    psi = np.asarray(state, dtype=complex).ravel()
    n = settings.n_sites
    if psi.size != 2**n:
        raise ValueError(f"state dimension {psi.size} does not match {n} sites")
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("cannot measure the zero state")
    marginals = _walsh_hadamard(_frequencies(psi / nrm, settings), n).ravel()
    labels = _label_indices(settings.settings, n).ravel()
    hits = np.bincount(labels, minlength=4**n)
    sums = np.bincount(labels, weights=marginals, minlength=4**n)
    names = _pauli_labels(n)
    values = {names[i]: float(sums[i] / hits[i]) for i in np.flatnonzero(hits)}
    return ExpectationTable(n, settings.shots, values)


def reconstruct(expectations) -> np.ndarray:
    """Linear-inversion density matrix, projected to PSD and unit trace.

    Needs an estimate for every Pauli string of the qubit count; raises
    on an incomplete table.  The 4^n estimates form a (4,)*n tensor and
    each axis is contracted with the stacked single-site Paulis in turn,
    so no n-site Pauli operator is formed.  Negative eigenvalues are
    clipped to zero and the trace renormalized (plain projection, no
    likelihood fit).
    """
    values = expectations.values if isinstance(expectations, ExpectationTable) else dict(expectations)
    n = len(next(iter(values)))
    dim = 2**n
    try:
        coeffs = np.array([values[label] for label in _pauli_labels(n)])
    except KeyError as exc:
        raise ValueError(f"incomplete Pauli basis: missing {exc.args[0]}") from None
    t = coeffs.reshape((4,) * n)
    for _ in range(n):
        # contracts the leading site axis and appends its (row, column) pair
        t = np.tensordot(t, _PAULI_STACK, axes=([0], [0]))
    rho = t.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))
    rho = rho.reshape(dim, dim) / dim
    rho = 0.5 * (rho + rho.conj().T)
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    return (v * w) @ v.conj().T


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Overlap <psi|rho|psi> of a density matrix with a pure target."""
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(target, dtype=complex).ravel()
    if rho.shape != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: {rho.shape} vs {psi.size}")
    return float(np.real(psi.conj() @ rho @ psi))


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
