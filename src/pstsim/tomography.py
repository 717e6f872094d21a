"""Pauli-basis state tomography, reconstruction, and fidelity metrics."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from . import statespace
from .statespace import wrap_phase

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_SQ = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex)
# rotations taking each axis' eigenbasis onto the computational basis
_TO_Z = {
    "X": _H,
    "Y": _H @ np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex),
}


class UndefinedPhaseError(ValueError):
    """Raised when a Bloch vector has no usable transverse component."""


@dataclass(frozen=True)
class TomographySettings:
    """Measurement plan: Pauli settings, shots per setting, base seed.

    ``shots = 0`` means exact expectations (no sampling).  Each setting
    draws from its own stream derived from ``seed`` and the setting's
    position, so tables are reproducible regardless of evaluation order.
    """

    settings: tuple
    shots: int = 0
    seed: int = 0

    def __post_init__(self):
        if not self.settings:
            raise ValueError("no measurement settings")
        n = len(self.settings[0])
        for s in self.settings:
            if len(s) != n or any(c not in "XYZ" for c in s):
                raise ValueError(f"bad Pauli setting {s!r}")
        if len(set(self.settings)) != len(self.settings):
            raise ValueError("duplicate measurement settings")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def n_sites(self) -> int:
        return len(self.settings[0])

    @classmethod
    def full(cls, n: int, shots: int = 0, seed: int = 0) -> "TomographySettings":
        """All 3^n settings needed for complete n-qubit tomography."""
        if n < 1:
            raise ValueError("need at least one site")
        labels = tuple("".join(p) for p in itertools.product("XYZ", repeat=n))
        return cls(labels, shots, seed)


@dataclass
class ExpectationTable:
    """Estimated <P> for every length-n Pauli string (I/X/Y/Z)."""

    n_sites: int
    shots: int
    values: dict

    def __getitem__(self, label: str) -> float:
        return self.values[label]

    def as_dict(self) -> dict:
        return {
            "n_sites": self.n_sites,
            "shots": self.shots,
            "values": {k: self.values[k] for k in sorted(self.values)},
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


def _signs(n: int, label: str) -> np.ndarray:
    """Outcome signs (-1)^(parity of bits under the non-identity sites)."""
    outcomes = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for site, c in enumerate(label, start=1):
        if c != "I":
            parity += (outcomes >> (n - site)) & 1
    return 1.0 - 2.0 * (parity % 2)


def simulate_tomography(state: np.ndarray, settings: TomographySettings) -> ExpectationTable:
    """Measure a state in every declared Pauli setting.

    With shots the joint outcome distribution of each setting is sampled
    once (multinomial over the 2^n bitstrings) with a per-setting stream,
    so parity correlations are preserved.  Each Pauli string is then
    estimated by marginalizing every compatible setting (the ones that
    match it on its non-identity sites) and averaging, which uses all
    the data collected for the lower-weight strings.

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
    psi = psi / nrm
    sums = {}
    hits = {}
    for idx, s in enumerate(settings.settings):
        rotated = psi
        for site, axis in enumerate(s, start=1):
            if axis != "Z":
                rotated = statespace.apply_single_qubit(rotated, _TO_Z[axis], site, n)
        probs = np.abs(rotated) ** 2
        if settings.shots:
            rng = np.random.default_rng([settings.seed, idx])
            freq = rng.multinomial(settings.shots, probs / probs.sum()) / settings.shots
        else:
            freq = probs
        for r in range(n + 1):
            for drop in itertools.combinations(range(n), r):
                label = list(s)
                for k in drop:
                    label[k] = "I"
                label = "".join(label)
                sums[label] = sums.get(label, 0.0) + float(np.dot(_signs(n, label), freq))
                hits[label] = hits.get(label, 0) + 1
    values = {label: sums[label] / hits[label] for label in sums}
    return ExpectationTable(n, settings.shots, values)


def reconstruct(expectations) -> np.ndarray:
    """Linear-inversion density matrix, projected to PSD and unit trace.

    Needs an estimate for every Pauli string of the qubit count; raises
    on an incomplete table.  Negative eigenvalues are clipped to zero
    and the trace renormalized (plain projection, no likelihood fit).
    """
    values = expectations.values if isinstance(expectations, ExpectationTable) else dict(expectations)
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


def xy_phase(rho: np.ndarray, threshold: float = 1e-6) -> float:
    """Equatorial angle atan2(<Y>, <X>) of a single-qubit state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("xy_phase takes a single-qubit density matrix")
    coher = 2.0 * rho[1, 0]  # <X> + i<Y>
    if abs(coher) < threshold:
        raise UndefinedPhaseError(
            f"transverse component {abs(coher):.3g} below threshold {threshold:.3g}"
        )
    return wrap_phase(math.atan2(coher.imag, coher.real))


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


def fidelity_opt_z(rho: np.ndarray, target: np.ndarray, site: int = 1,
                   grid: float = 1e-3) -> FidelityReport:
    """Fidelity allowing one virtual Z(phi) on the designated site.

    The site defaults to 1, the same site the GHZ circuit singles out.
    phi is swept over (-pi, pi] on a ``grid``-spaced sweep and the best
    point refined; phi_opt is reported in (-pi, pi].
    """
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(target, dtype=complex).ravel()
    if rho.shape != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: {rho.shape} vs {psi.size}")
    n = int(round(math.log2(psi.size)))
    if psi.size != 2**n:
        raise ValueError("target dimension is not a power of 2")
    if not 1 <= site <= n:
        raise ValueError(f"site {site} outside register of {n} qubits")

    # Z(phi) on rho is a phase e^{-i phi} on the site=|1> half of the
    # conjugated target, so F(phi) = base + 2 Re(e^{i phi} z).
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
    return FidelityReport(f_raw, f_opt, phi_opt)
