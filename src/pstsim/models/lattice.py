"""Square lattices with transfer couplings engineered per axis.

A 2D lattice inherits perfect transfer from its axes: choosing the
chain profile independently for rows and columns makes the hopping
matrix separate into a row term plus a column term, so a single
excitation refocuses at the mirror position (both axes mirrored) after
the common transfer time.  Holds in the single-excitation sector only.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import chains

__all__ = [
    "LatticeSpec",
    "site_index",
    "build_lattice_hamiltonian",
]


@dataclass(frozen=True)
class LatticeSpec:
    """nx-by-ny qubit grid, positions (x, y) with x in 1..nx, y in 1..ny."""

    nx: int
    ny: int
    tau: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("lattice dimensions must be positive")
        if self.nx * self.ny < 2:
            raise ValueError("lattice needs at least two sites")
        if not 0 < self.tau < np.inf:
            raise ValueError("transfer time must be positive and finite")
        chains.pst_couplings(max(self.nx, self.ny), self.tau)   # the longer axis overflows first

    @property
    def n_sites(self) -> int:
        return self.nx * self.ny


def site_index(spec: LatticeSpec, x: int, y: int) -> int:
    """Basis index of position (x, y); x-major ordering."""
    if not (1 <= x <= spec.nx and 1 <= y <= spec.ny):
        raise ValueError(f"position ({x}, {y}) outside {spec.nx}x{spec.ny} lattice")
    return (x - 1) * spec.ny + (y - 1)


def _axis_couplings(n: int, tau: float) -> tuple:
    return chains.ChainSpec.pst(n, tau).couplings if n > 1 else ()


def build_lattice_hamiltonian(spec: LatticeSpec) -> sparse.csr_matrix:
    """Real single-excitation hopping matrix (angular frequency), nx*ny dimensional.

    Equals kron(h_x, 1) + kron(1, h_y) of the axes' transfer chains (which
    carry no detunings), built from the hops directly: ``sparse.kron``
    takes longer than evolving a 9x7 lattice.
    """
    sites = np.arange(spec.n_sites).reshape(spec.nx, spec.ny)
    src = np.concatenate([sites[:-1].ravel(), sites[:, :-1].ravel()])
    dst = np.concatenate([sites[1:].ravel(), sites[:, 1:].ravel()])
    hop = np.concatenate([np.repeat(_axis_couplings(spec.nx, spec.tau), spec.ny),
                          np.tile(_axis_couplings(spec.ny, spec.tau), spec.nx)])
    return sparse.csr_matrix((np.concatenate([hop, hop]),
                              (np.concatenate([src, dst]), np.concatenate([dst, src]))),
                             shape=(spec.n_sites, spec.n_sites), dtype=float)
