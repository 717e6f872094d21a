"""Square lattices with transfer couplings engineered per axis.

A 2D lattice inherits perfect transfer from its axes: choosing the
chain profile independently for rows and columns makes the hopping
matrix separate into a row term plus a column term, so a single
excitation refocuses at the mirror position (both axes mirrored) after
the common transfer time.  Holds in the single-excitation sector only.
"""

from dataclasses import dataclass

import numpy as np

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
        if not self.tau > 0:
            raise ValueError("transfer time must be positive")

    @property
    def n_sites(self) -> int:
        return self.nx * self.ny


def site_index(spec: LatticeSpec, x: int, y: int) -> int:
    """Basis index of position (x, y); x-major ordering."""
    if not (1 <= x <= spec.nx and 1 <= y <= spec.ny):
        raise ValueError(f"position ({x}, {y}) outside {spec.nx}x{spec.ny} lattice")
    return (x - 1) * spec.ny + (y - 1)


def _axis_hopping(n: int, tau: float) -> np.ndarray:
    if n == 1:
        return np.zeros((1, 1))
    cs = chains.ChainSpec.pst(n, tau)
    return chains.single_excitation_hamiltonian(cs)


def build_lattice_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Single-excitation hopping matrix (angular frequency), nx*ny dimensional."""
    hx = _axis_hopping(spec.nx, spec.tau)
    hy = _axis_hopping(spec.ny, spec.tau)
    return np.kron(hx, np.eye(spec.ny)) + np.kron(np.eye(spec.nx), hy)

