"""Engineered XY chains: coupling profiles, Hamiltonians, transfer unitaries.

A chain of ``n`` two-level sites with nearest-neighbour exchange couplings
``J_k`` (angular frequency), optional site detunings ``delta_k`` and
optional dispersive ZZ shifts ``zeta_k`` on adjacent pairs:

    H = sum_k J_k (s-_k s+_{k+1} + s+_k s-_{k+1})
      + sum_k delta_k n_k
      + sum_k zeta_k n_k n_{k+1}

The mirror-symmetric profile ``J_k ~ sqrt(k (n - k))`` makes the chain
refocus every state onto its spatial mirror image at time ``tau``, and a
one-parameter deformation with detunings transfers only a tunable
fraction ``sin^2(theta/2)`` between mirror pairs.  All builders return
angular-frequency units, as real matrices (every term above is real);
evolution is exp(-i H t).
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb, inf, isfinite, pi, prod, sqrt

import numpy as np
from scipy import sparse

from .. import evolution, statespace

__all__ = [
    "ChainSpec",
    "pst_couplings",
    "fst_profile",
    "block_states",
    "chain_hamiltonian",
    "pst_state_map",
    "pst_unitary",
    "transfer_phase",
]


@dataclass(frozen=True)
class ChainSpec:
    """Chain parameters in angular-frequency units.

    ``couplings`` has length n-1, ``detunings`` length n, ``zz`` length
    n-1 (shift of the doubly excited level of each adjacent pair).
    """

    couplings: tuple
    tau: float
    detunings: tuple = ()
    zz: tuple = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(j) for j in self.couplings))
        n = self.n_sites
        dets = tuple(float(d) for d in self.detunings) or (0.0,) * n
        zz = tuple(float(z) for z in self.zz) or (0.0,) * (n - 1)
        if len(dets) != n:
            raise ValueError(f"need {n} detunings, got {len(dets)}")
        if len(zz) != n - 1:
            raise ValueError(f"need {n - 1} zz values, got {len(zz)}")
        if not all(map(isfinite, self.couplings + dets + zz)):
            raise ValueError("couplings, detunings and zz must be finite")
        if not 0 < self.tau < inf:
            raise ValueError("tau must be positive and finite")
        object.__setattr__(self, "detunings", dets)
        object.__setattr__(self, "zz", zz)

    @property
    def n_sites(self) -> int:
        return len(self.couplings) + 1

    @classmethod
    def pst(cls, n: int, tau: float) -> "ChainSpec":
        return cls(couplings=tuple(pst_couplings(n, tau)), tau=tau)

    @classmethod
    def fst(cls, n: int, tau: float, theta: float) -> "ChainSpec":
        J, delta = fst_profile(n, tau, theta)
        return cls(couplings=tuple(J), tau=tau, detunings=tuple(delta))

    def with_zz(self, zz) -> "ChainSpec":
        return ChainSpec(self.couplings, self.tau, self.detunings, tuple(zz), self.label)


def pst_couplings(n: int, tau: float) -> np.ndarray:
    """Mirror-symmetric profile J_k = (pi/2 tau) sqrt(k (n-k)), k = 1..n-1."""
    if n < 2:
        raise ValueError("need at least two sites")
    if not 0 < tau < inf:
        raise ValueError("tau must be positive and finite")
    # k (n-k) is computed as an integer so J_k == J_{n-k} bit for bit
    J = np.array([pi / (2 * tau) * sqrt(k * (n - k)) for k in range(1, n)])
    _check_finite_profile(tau, J)
    return J


def fst_profile(n: int, tau: float, theta: float):
    """Couplings and detunings transferring the fraction sin^2(theta/2).

    Returns ``(J, delta)`` with ``J`` of length n-1 and ``delta`` of
    length n.  At theta = pi the profile reduces to :func:`pst_couplings`
    with exactly zero detunings; at theta = 0 nothing is transferred.
    The closed forms come in an even-n and an odd-n branch; the pairing
    used here is the only one whose denominators are nonsingular, and
    tests verify the transferred fraction it produces.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    if not 0 < tau < inf:
        raise ValueError("tau must be positive and finite")
    if not 0 <= theta <= pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    x = theta / pi
    J = np.empty(n - 1)
    delta = np.zeros(n)
    if n % 2 == 0:
        for k in range(1, n):
            num = k * (n - k) * ((n - 2 * k) ** 2 - x**2)
            den = (n - 1 - 2 * k) * (n + 1 - 2 * k)
            J[k - 1] = pi / (2 * tau) * sqrt(num / den)
    else:
        for k in range(1, n):
            num = k * (n - k) * ((n - 2 * k) ** 2 - (x - 1) ** 2)
            den = (n - 2 * k) ** 2
            J[k - 1] = pi / (2 * tau) * sqrt(num / den)
        for k in range(1, n + 1):
            delta[k - 1] = (
                pi / (2 * tau) * (x - 1) * (n / 2)
                * (1.0 / (2 * k - n) - 1.0 / (2 * k - 2 - n))
            )
    _check_finite_profile(tau, J, delta)
    return J, delta


def _check_finite_profile(tau: float, *profile) -> None:
    """Raise ValueError when tau is so short that a coupling ~ pi / (2 tau) overflowed."""
    if not all(np.isfinite(a).all() for a in profile):
        raise ValueError(f"tau {tau!r} s is too short: its couplings overflow")


def block_states(spec: ChainSpec, start: str) -> np.ndarray:
    """Basis states of the block of H holding the bitstring ``start``, descending.

    Hops keep the excitation number of each run of sites joined by
    nonzero couplings, so the block is every placement of each run's
    excitations in its run, C(run length, run excitations) of them per
    run.  Above ``evolution.DENSE_GUARD`` it raises ResourceError before
    any state is enumerated.  A one-excitation block comes in site order.
    Beyond 62 sites the indices are Python ints in an object array.
    """
    n = spec.n_sites
    cuts = [0] + [k + 1 for k, j in enumerate(spec.couplings) if j == 0] + [n]
    runs = [(a, b, start.count("1", a, b)) for a, b in zip(cuts, cuts[1:])]
    dim = prod(comb(b - a, m) for a, b, m in runs)
    if dim > evolution.DENSE_GUARD:
        raise evolution.ResourceError(f"block dimension {dim} above dense guard "
                                      f"{evolution.DENSE_GUARD}")
    states = [0]
    for a, b, m in runs:
        states = [s | sum(1 << (n - 1 - k) for k in sites)
                  for s in states for sites in combinations(range(a, b), m)]
    return np.array(sorted(states, reverse=True), dtype=np.int64 if n < 63 else object)


def chain_hamiltonian(spec: ChainSpec, states=None) -> sparse.csr_matrix:
    """H over basis states closed under its hops, by default all 2**n (sparse, real).

    Row i is ``states[i]``.  Read off the occupation bits of every state:
    detunings and ZZ shifts on the diagonal, and for each nonzero
    coupling a hop of an excitation to its empty neighbour, whose target
    flips both bits of the pair.
    """
    n = spec.n_sites
    order = None if states is None else np.argsort(states)
    states = np.arange(2**n) if states is None else np.asarray(states)
    occ = statespace.occupation_rows(states, n)
    diag = occ @ np.array(spec.detunings) + (occ[:, :-1] * occ[:, 1:]) @ np.array(spec.zz)
    d = np.flatnonzero(diag)
    rows, cols, vals = [], [], []
    for k, j in enumerate(spec.couplings):
        # hop an excitation from site k+1 to site k+2; a zero coupling hops nothing
        src = np.flatnonzero((occ[:, k] == 1) & (occ[:, k + 1] == 0) & (j != 0))
        dst = states[src] ^ (3 << (n - 2 - k))
        if order is not None:           # in the whole register a state is its own row
            dst = order[np.searchsorted(states, dst, sorter=order)]
        rows += [src, dst]
        cols += [dst, src]
        vals.append(np.full(2 * len(src), j))
    return sparse.csr_matrix((np.concatenate([*vals, diag[d]]),
                              (np.concatenate([*rows, d]), np.concatenate([*cols, d]))),
                             shape=(len(states),) * 2, dtype=float)


def transfer_phase(n: int) -> complex:
    """Amplitude attached to a single excitation after one transfer period.

    Equals (-1)**n * i**(n+1); cycles through -i, -1, +i, +1 as n mod 4
    runs over 2, 3, 0, 1.
    """
    return complex((-1) ** n * 1j ** (n + 1))


def pst_state_map(n: int, states=None):
    """Closed form action of one transfer period on the basis states ``states``.

    ``states`` lists basis states, by default all 2**n; only those are
    read, so no 2**n array is built for a few states of a long chain.
    Returns ``(targets, phases)``: ``states[i]`` is sent to
    ``targets[i]`` (its mirror image) with amplitude ``phases[i]``.  The
    phases are fixed so the map equals exp(-i H tau) of the chain built
    from :func:`pst_couplings` exactly, with no global-phase freedom
    left: each swapped mirror pair contributes exp(i s P pi/2), where P
    is the parity of the excitations strictly between the pair and
    s = +1 for n % 4 == 0 and -1 otherwise, and for odd n every
    transferred excitation carries an extra site factor (the centre site
    a different one) required by the interference of the crossing
    branches.  Every factor is a power of i, so every phase is exactly
    +-1 or +-i.  Beyond 62 sites the targets are Python ints in an
    object array.
    """
    s = +1 if n % 4 == 0 else -1
    alpha = transfer_phase(n)
    site_factor = np.ones(n, dtype=complex)
    if n % 2 == 1:
        site_factor[:] = alpha * -1j * s
        site_factor[(n - 1) // 2] = alpha
    states = np.arange(2**n) if states is None else np.asarray(states)
    bits = statespace.occupation_rows(states, n)
    # site 1 becomes the least significant bit
    targets = bits @ np.array([1 << k for k in range(n)], dtype=np.int64 if n < 63 else object)
    # by the parity of the excitations strictly between the swapped pair
    swap_phase = 1j * s * np.array([1, -1])
    phases = np.ones(len(states), dtype=complex)
    for k in range(1, n // 2 + 1):
        kt = n + 1 - k
        factor = swap_phase[bits[:, k:kt - 1].sum(axis=1) % 2]
        phases = np.where(bits[:, k - 1] != bits[:, kt - 1], phases * factor, phases)
    for i in range(n):
        # the transferred excitation on site i of the target
        phases = np.where(bits[:, n - 1 - i] == 1, phases * site_factor[i], phases)
    return targets, phases


def pst_unitary(n: int) -> np.ndarray:
    """Dense one-period transfer unitary on the full 2**n space."""
    targets, phases = pst_state_map(n)
    dim = 2**n
    U = np.zeros((dim, dim), dtype=complex)
    U[targets, np.arange(dim)] = phases
    return U

