"""Time evolution: the one place where a Hamiltonian is exponentiated.

Static Hamiltonians are split into the connected components of their
nonzero pattern.  For the excitation-conserving chains these are the
excitation sectors (finer where a coupling vanishes), so no sector
bookkeeping is passed in.  Each block the initial state touches is
diagonalised once, with ``eigh`` when it is Hermitian (real ``eigh``
for a real block) and ``eig`` when relaxation makes it non-Hermitian
(``expm`` near an exceptional point, where the eigenvectors are
ill-conditioned), and every requested time is then evaluated exactly; a
block above ``DENSE_GUARD`` raises ResourceError before any work.
``method="krylov"`` changes only what happens to a touched block above
the guard: it is stepped with scipy's ``expm_multiply`` as a slice of H
(sparse when H is) that is never made dense.  The flux-driven device
model steps its H(t) through the same block kernel, two static
exponentials per commutator-free step.  For a column driven
at one nonzero frequency whose period T fits in the time window, it
takes those steps over one period only, applied to the block identity;
later times reuse that period propagator and its substep propagators
and add one short step, with no further decomposition.  Relaxation
enters as non-Hermitian diagonal terms; the survival norm of the
propagated state is tracked alongside per-site populations.
"""

from dataclasses import dataclass
from math import pi

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

__all__ = [
    "EvolutionOptions",
    "NoiseSpec",
    "Trajectory",
    "evolve",
    "add_relaxation",
    "decay_rates",
    "ResourceError",
]

DENSE_GUARD = 4096

# eig-based propagation loses about cond(V) * eps; above this the block
# is exponentiated directly instead
_EIG_COND_LIMIT = 1e6


class ResourceError(RuntimeError):
    """Problem size above the configured dense guard."""


@dataclass
class EvolutionOptions:
    # dense-expm | krylov (also steps touched blocks above DENSE_GUARD)
    method: str = "dense-expm"

    def __post_init__(self):
        if self.method not in ("dense-expm", "krylov"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Relaxation times per site, in seconds.

    ``decay_convention`` selects the diagonal rate: ``"t1"`` uses
    -i/(2 T1) per excitation so an isolated excited site's population
    decays as exp(-t/T1); ``"rate-2pi"`` uses -i pi/T1, a 2 pi faster
    population decay kept for compatibility with simulations that quote
    the decay rate as a linear frequency.
    """

    t1: tuple = ()
    decay_convention: str = "t1"

    def __post_init__(self):
        object.__setattr__(self, "t1", tuple(float(t) for t in self.t1))
        if any(t <= 0 for t in self.t1):
            raise ValueError("relaxation times must be positive")
        if self.decay_convention not in ("t1", "rate-2pi"):
            raise ValueError(f"unknown decay convention {self.decay_convention!r}")


def decay_rates(noise: NoiseSpec) -> np.ndarray:
    """Imaginary diagonal rate per site (angular units, per excitation)."""
    t1 = np.array(noise.t1)
    if noise.decay_convention == "t1":
        return 1.0 / (2.0 * t1)
    return pi / t1


def add_relaxation(H, noise: NoiseSpec, occupations: np.ndarray):
    """H minus i times the per-site decay rates weighted by occupation.

    ``occupations`` maps basis states to per-site excitation numbers,
    shape (dim, n_sites), dense or sparse; it defines what "excitation
    at site s" means in whatever basis H is expressed.
    """
    if not sparse.issparse(occupations):
        occupations = np.asarray(occupations)
    if len(noise.t1) != occupations.shape[1]:
        raise ValueError("one T1 per site required")
    gam = decay_rates(noise)
    diag = occupations @ gam
    if sparse.issparse(H):
        n = H.shape[0]
        return H.tocsr() - sparse.csr_matrix((1j * diag, np.arange(n), np.arange(n + 1)),
                                             shape=H.shape)
    return np.asarray(H, dtype=complex) - 1j * np.diag(diag)


def _block_states(h: np.ndarray, psi0: np.ndarray, times) -> np.ndarray:
    """exp(-i h t) psi0 for every t in ``times``, from one decomposition of h.

    ``psi0`` is one state (d,) or a matrix of states (d, m); the result
    has shape (len(times), d) or (len(times), d, m).
    """
    times = np.asarray(times, dtype=float)
    if np.array_equal(h, h.conj().T):
        w, v = np.linalg.eigh(h)
        c = v.conj().T @ psi0
    else:
        w, v = np.linalg.eig(h)
        if np.linalg.cond(v) > _EIG_COND_LIMIT:
            return np.array([expm(-1j * h * t) @ psi0 for t in times])
        c = np.linalg.solve(v, psi0)
    phases = np.exp(-1j * np.outer(times, w))
    if c.ndim == 1:
        return phases * c @ v.T
    return (v * phases[:, None, :]) @ c


def _krylov_states(h, psi0: np.ndarray, times) -> np.ndarray:
    """exp(-i h t) psi0 for every t in ``times``, stepping ``expm_multiply`` between them.

    ``h`` is sparse or dense and is never densified; the result has shape
    (len(times), d).
    """
    A = -1j * h
    states = np.empty((len(times), len(psi0)), dtype=complex)
    psi = psi0
    t_prev = 0.0
    for i, t in enumerate(times):
        if t != t_prev:
            psi = expm_multiply(A * (t - t_prev), psi)
        states[i] = psi
        t_prev = t
    return states


def _components(A, psi0: np.ndarray | None = None):
    """The nonzero entries of A (CSR or ndarray) and the connected components of their pattern.

    Returns ``((row, col, val), labels, wanted)``: every nonzero entry once,
    rows ascending; the component label of every basis state; and the
    labels of the components where ``psi0`` has support, or all of them.
    """
    if sparse.issparse(A):
        if not A.has_canonical_format:          # the block fill assigns each entry once
            A = A.copy()
            A.sum_duplicates()
        row = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        col, val = A.indices, A.data
    else:
        row, col = np.nonzero(A)
        val = A[row, col]
    dim = A.shape[0]
    edge = val != 0                                 # a stored zero couples nothing
    row, col, val = row[edge], col[edge], val[edge]
    # real unit weights: csgraph casts complex weights to float, which
    # would drop purely imaginary couplings
    indptr = np.searchsorted(row, np.arange(dim + 1))
    pattern = sparse.csr_matrix((np.ones(len(row)), col, indptr), shape=(dim, dim))
    n_comp, labels = connected_components(pattern, directed=False)
    wanted = np.arange(n_comp) if psi0 is None else np.unique(labels[np.flatnonzero(psi0)])
    return (row, col, val), labels, wanted


def _blocks(H, psi0: np.ndarray | None = None, slice_above_guard: bool = False):
    """Diagonal blocks of H over the components of its nonzero pattern.

    Yields ``(indices, block)`` for every component, or only for those
    where ``psi0`` has support.  A block of at most ``DENSE_GUARD`` states
    is a dense array.  A larger one raises ResourceError before any work,
    or, with ``slice_above_guard``, is yielded as a slice of H (sparse
    when H is) that is never made dense.
    """
    A = H.tocsr() if sparse.issparse(H) else np.asarray(H)
    (row, col, val), labels, wanted = _components(A, psi0)
    largest = np.bincount(labels)[wanted].max(initial=0)
    if largest > DENSE_GUARD and not slice_above_guard:
        raise ResourceError(f"block dimension {largest} above dense guard {DENSE_GUARD}")
    entry_labels = labels[row]
    local = np.empty(len(labels), dtype=np.int64)   # position of each state in its block
    for label in wanted:
        idx = np.flatnonzero(labels == label)
        if len(idx) > DENSE_GUARD:
            yield idx, A[idx][:, idx]
            continue
        local[idx] = np.arange(len(idx))
        mine = entry_labels == label
        block = np.zeros((len(idx), len(idx)), dtype=val.dtype)
        block[local[row[mine]], local[col[mine]]] = val[mine]
        yield idx, block


def _ascending_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1d sequence")
    bad = times[~np.isfinite(times)]
    if len(bad):
        raise ValueError(f"times must be finite, got {bad[0]}")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    return times


@dataclass
class Trajectory:
    """States, per-site populations and survival norm on a time grid."""

    times: np.ndarray
    states: np.ndarray            # (n_times, dim)
    populations: np.ndarray       # (n_times, n_sites)
    norm: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.populations.shape[1]

    def to_csv(self, path):
        cols = ["time_s"] + [f"pop_site_{s + 1}" for s in range(self.n_sites)] + ["norm"]
        with open(path, "w", encoding="ascii", newline="\n") as f:
            f.write(",".join(cols) + "\n")
            for i, t in enumerate(self.times):
                row = [t] + list(self.populations[i]) + [self.norm[i]]
                f.write(",".join("%.12e" % v for v in row) + "\n")


def evolve(H, psi0: np.ndarray, times, options: EvolutionOptions | None = None,
           occupations: np.ndarray | None = None) -> Trajectory:
    """Propagate ``psi0`` through ``times`` (ascending, seconds).

    ``H`` is a static matrix, dense or sparse.  ``occupations``
    (dim, n_sites) converts amplitudes to per-site populations; when
    omitted each basis state is reported as its own column.  Each block
    of H that ``psi0`` touches and that has at most ``DENSE_GUARD``
    states (read at call time) is decomposed once, whatever the method.
    A larger touched block raises ResourceError before any work under
    the default method; ``method="krylov"`` instead steps
    ``expm_multiply`` between the requested times on it, as a slice of
    H (sparse when H is).  Components ``psi0`` does not touch stay
    exactly zero under both methods.  Raises ValueError for times that
    are not finite, not ascending or empty.
    """
    options = options or EvolutionOptions()
    times = _ascending_times(times)
    psi0 = np.asarray(psi0, dtype=complex)
    if np.shape(H) != (len(psi0), len(psi0)):
        raise ValueError("H must be a static square matrix matching psi0")
    states = np.zeros((len(times), len(psi0)), dtype=complex)

    for idx, h in _blocks(H, psi0, slice_above_guard=options.method == "krylov"):
        kernel = _block_states if len(idx) <= DENSE_GUARD else _krylov_states
        states[:, idx] = kernel(h, psi0[idx], times)

    if not np.all(np.isfinite(states)):
        raise FloatingPointError("non-finite amplitudes during evolution")

    prob = np.abs(states) ** 2
    norm = np.sqrt(prob.sum(axis=1))
    if occupations is not None:
        populations = prob @ np.asarray(occupations)
    else:
        populations = prob
    return Trajectory(times=times, states=states, populations=populations, norm=norm)
