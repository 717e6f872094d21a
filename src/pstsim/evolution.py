"""Time evolution: the one place where a Hamiltonian is exponentiated.

``evolve_blocks`` assembles a trajectory from the blocks of a static H
that the initial state touches: the chains pass the dense blocks they
know (``chains.block_states``), and ``evolve`` finds those of any H as
the connected components of its nonzero pattern.  One eigen kernel
exponentiates a stack of blocks, each with its states and time grid,
from one decomposition: ``eigh`` for a Hermitian stack (real for a real
one, such as every chain and device block), ``eig`` for a relaxed one
(``expm`` near an exceptional point); each item is bit-identical to a
one-block stack, and every time is evaluated exactly.  A touched block
above ``DENSE_GUARD`` raises ResourceError before any work, under any
``EvolutionOptions``.  The flux-driven device model takes its blocks
from the parity of its total excitation number, and steps its H(t) as
two static exponentials per commutator-free step, all the columns of a
block as one stack, or one state vector by a Chebyshev series where
that costs less (Tal-Ezer & Kosloff 1984); a column driven at one
frequency whose period fits the time window reuses its one-period
propagators.
Relaxation enters as non-Hermitian diagonal terms, and the survival norm
is tracked.  A trajectory of more than ``OUTPUT_GUARD`` amplitudes, and a
device run of more than ``STEP_GUARD`` steps, raise ResourceError before
any allocation or step.
"""

from dataclasses import dataclass
from math import exp, lgamma, log, pi

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from . import statespace

__all__ = [
    "EvolutionOptions",
    "NoiseSpec",
    "Trajectory",
    "evolve",
    "evolve_blocks",
    "add_relaxation",
    "decay_rates",
    "ResourceError",
]

DENSE_GUARD = 4096
# amplitudes in one trajectory, len(times) * dim; fixed here, so lowering
# DENSE_GUARD leaves it alone
OUTPUT_GUARD = DENSE_GUARD**2
# time steps of one driven device run: its CF4 steps plus its products
# with a one-period propagator
STEP_GUARD = 10**5

# eig-based propagation loses about cond(V) * eps; above this the block
# is exponentiated directly instead
_EIG_COND_LIMIT = 1e6

# the Chebyshev series drops the terms whose coefficient is below this
_EPS = np.finfo(float).eps


class ResourceError(RuntimeError):
    """Problem size above the dense, output or step guard."""


@dataclass
class EvolutionOptions:
    """Kept for the callers that pass it: :func:`evolve` reads none of it,
    and every method takes the one block path.  ``method`` is still
    checked by name."""

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


def add_relaxation(H: np.ndarray, noise: NoiseSpec, occupations: np.ndarray) -> np.ndarray:
    """The dense H minus i times the per-site decay rates weighted by occupation.

    ``occupations`` maps basis states to per-site excitation numbers,
    shape (dim, n_sites), a dense array; it defines what "excitation at
    site s" means in whatever basis H is expressed.
    """
    if len(noise.t1) != occupations.shape[1]:
        raise ValueError("one T1 per site required")
    return np.asarray(H, dtype=complex) - 1j * np.diag(
        statespace.site_sums(occupations, decay_rates(noise)))


def _product(a, b):
    """a * b broadcast over a stack, each item as its one-item stack computes it.

    numpy fuses the multiply-adds of a complex product in its vector loop,
    but not for a one-element product: where each item's product has one
    element it is written out, which is the unfused one.
    """
    if a.size > len(a) or b.size > len(b):
        return a * b
    (p, q), (x, y) = (a.real, a.imag), (b.real, b.imag)
    return p * x - q * y + 1j * (p * y + q * x)


def _matmul(a, b):
    """a @ b, where a real a takes a complex b apart into its real and
    imaginary parts as twice as many real columns and puts it together again."""
    if a.dtype.kind == "c" or b.dtype.kind != "c":
        return a @ b
    return (a @ np.ascontiguousarray(b).view(float)).view(complex)


def _block_states(hs: np.ndarray, states: np.ndarray, times) -> np.ndarray:
    """exp(-i h t) s for each block h of a stack (c, d, d) and every t of its grid.

    ``states`` is one state (c, d) or one matrix of states (c, d, m) per
    block and ``times`` one grid (T,) for all blocks or one per block
    (c, T); the result has shape (c, T, d) or (c, T, d, m).  Each item is
    exactly a one-block stack of its block: the same products in the same order.
    Real eigenvectors (a real symmetric stack) stay real: they act on the
    real and imaginary parts of the states.
    """
    times = np.asarray(times, dtype=float)
    vector = states.ndim == 2
    s = states[..., None] if vector else states
    if (hs == hs.conj().swapaxes(1, 2)).all():
        near = ()
        w, v = np.linalg.eigh(hs)
        c = _matmul(v.conj().swapaxes(1, 2), s)
    else:
        w, v = np.linalg.eig(hs)
        near = np.flatnonzero(np.linalg.cond(v) > _EIG_COND_LIMIT)
        v[near] = np.eye(hs.shape[1])   # a placeholder: these blocks take expm below
        c = np.linalg.solve(v, s)
    # v @ (phase * c) at every time at once, the times as columns of (c, d, T m)
    phases = np.exp(-1j * (w[:, :, None] * times[..., None, :]))
    (k, d, m), t = c.shape, phases.shape[-1]
    y = _product(phases[..., None], c[:, :, None]).reshape(k, d, t * m)
    out = _matmul(v, y).reshape(k, d, t, m).swapaxes(1, 2)
    out = out[..., 0] if vector else out
    for i in near:
        grid = times[i] if times.ndim == 2 else times
        out[i] = [expm(-1j * hs[i] * t) @ states[i] for t in grid]
    return out


def _gershgorin(h: np.ndarray, low=0.0, high=0.0):
    """Centre and half-width of an interval that holds the spectrum of
    the Hermitian h + diag(s) for every shift low <= s <= high (Gershgorin)."""
    diag = np.diag(h).real
    radius = np.abs(h).sum(axis=1) - np.abs(diag)
    lo, hi = np.min(diag + low - radius), np.max(diag + high + radius)
    return (hi + lo) / 2, (hi - lo) / 2


def _chebyshev_terms(x: float) -> int:
    """Terms K after which every coefficient 2 |J_k(x)| of the series of
    exp(-i x y) is below ``_EPS``, from the bound |J_k(x)| <= (x/2)^k / k!."""
    k, bound = 0, 2.0
    while bound >= _EPS:
        k += 1
        bound *= x / (2 * k)
    return k


def _chebyshev_reach(d: int) -> float:
    """The x = h r below which a step of h on a d-state block of Gershgorin
    half-width r needs 2 K < d terms (see _chebyshev_terms), so that its
    matrix-vector products cost less than an eigendecomposition.

    The bound on 2 |J_m(x)| grows with x, so K <= m = (d - 1) // 2 exactly
    when x < 2 (eps m! / 2)^(1/m)."""
    m = (d - 1) // 2
    return 2 * exp((log(_EPS / 2) + lgamma(m + 1)) / m) if m else 0.0


def _chebyshev_state(h: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) psi0 for a Hermitian h and one state, from a Chebyshev series.

    With [c - r, c + r] the Gershgorin interval of h and X = (h - c) / r,
    exp(-i h t) = exp(-i c t) sum_k (2 - [k = 0]) (-i)^k J_k(r t) T_k(X)
    (Tal-Ezer & Kosloff 1984).  The coefficients are the Fourier
    coefficients of exp(-i r t cos theta), from an FFT, and the series
    stops after the last one above ``_EPS``; T_k(X) psi0 follows from
    T_{k+1} = 2 X T_k - T_{k-1}.
    """
    mid, r = _gershgorin(h)
    x = r * t
    n = 2 * _chebyshev_terms(x)
    coef = np.fft.fft(np.exp(-1j * x * np.cos(2 * pi / n * np.arange(n))))[:n // 2] / n
    coef[1:] *= 2
    coef = coef[:np.flatnonzero(np.abs(coef) >= _EPS)[-1] + 1]
    v = np.ascontiguousarray(psi0, dtype=complex)
    if np.isrealobj(h):         # a real h steps the real and imaginary parts as two columns
        v = v.view(float).reshape(-1, 2)
    terms = np.empty((len(coef), *v.shape), dtype=v.dtype)
    terms[0] = v
    if len(coef) > 1:
        x2 = h * (2 / r)                        # 2 X
        x2.flat[::len(h) + 1] -= 2 * mid / r
        np.matmul(x2, v, out=terms[1])
        terms[1] /= 2
        for k in range(2, len(coef)):
            np.matmul(x2, terms[k - 1], out=terms[k])
            terms[k] -= terms[k - 2]
    if terms.dtype == float:
        terms = terms.view(complex)[..., 0]
    return np.exp(-1j * mid * t) * (coef @ terms)


def _blocks(H, psi0: np.ndarray | None = None):
    """Dense diagonal blocks of H (dense or sparse) over the connected
    components of its nonzero pattern: an iterator of ``(indices, block)``,
    components in order of their lowest state, all of them or those where
    ``psi0`` has support.  A block above ``DENSE_GUARD`` states raises
    ResourceError before any block is built.
    """
    A = sparse.csr_matrix(H)
    # A != 0 sums the duplicates of a non-canonical CSR and sorts its
    # indices in place: do that on a copy, never on the caller's matrix
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    n_comp, labels = connected_components(A != 0, directed=False)
    wanted = np.arange(n_comp) if psi0 is None else np.unique(labels[np.flatnonzero(psi0)])
    largest = np.bincount(labels)[wanted].max(initial=0)
    if largest > DENSE_GUARD:
        raise ResourceError(f"block dimension {largest} above dense guard {DENSE_GUARD}")

    def block(label):
        idx = np.flatnonzero(labels == label)
        return idx, A[idx][:, idx].toarray()

    return map(block, wanted)


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


def evolve(H, psi0: np.ndarray, times, options: EvolutionOptions | None = None,
           occupations: np.ndarray | None = None) -> Trajectory:
    """Propagate ``psi0`` through ``times`` (ascending, seconds) under a static H.

    ``H`` is dense or sparse; ``occupations`` (dim, n_sites) turns amplitudes
    into per-site populations (each state its own column when omitted);
    ``options`` is accepted and not read.  Each touched block of the
    nonzero pattern is decomposed once; one above ``DENSE_GUARD`` states
    (read at call time) raises ResourceError before any work.  Untouched
    blocks stay exactly zero.  Raises ValueError for times
    not finite, not ascending or empty, and ResourceError before any work
    when len(times) * dim is above ``OUTPUT_GUARD``.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if np.shape(H) != (len(psi0), len(psi0)):
        raise ValueError("H must be a static square matrix matching psi0")
    return evolve_blocks(_blocks(H, psi0), psi0, times, occupations)


def evolve_blocks(blocks, psi0: np.ndarray, times,
                  occupations: np.ndarray | None = None) -> Trajectory:
    """:func:`evolve` on known blocks ``(idx, h)``, H on the states ``psi0[idx]``
    (``idx`` an array or a slice), which cover every block ``psi0`` touches;
    each dense block is exponentiated by the eigen kernel."""
    times = _ascending_times(times)
    psi0 = np.asarray(psi0, dtype=complex)
    if len(times) * len(psi0) > OUTPUT_GUARD:
        raise ResourceError(f"{len(times)} times x {len(psi0)} states above the output "
                            f"guard of {OUTPUT_GUARD} amplitudes")
    states = np.zeros((len(times), len(psi0)), dtype=complex)
    for idx, h in blocks:
        states[:, idx] = _block_states(h[None], psi0[None, idx], times)[0]
    if not np.all(np.isfinite(states)):
        raise FloatingPointError("non-finite amplitudes during evolution")
    prob = np.abs(states) ** 2
    populations = prob if occupations is None else prob @ np.asarray(occupations)
    return Trajectory(times=times, states=states, populations=populations,
                      norm=np.sqrt(prob.sum(axis=1)))
