"""Square lattices with transfer couplings engineered per axis.

A 2D lattice inherits perfect transfer from its axes: choosing the
chain profile independently for rows and columns makes the hopping
matrix a row term plus a column term that commute, so exp(-iHt) is the
product of the two axis chains' propagators and a single excitation
refocuses at the mirror position (both axes mirrored) after the common
transfer time.  Holds in the single-excitation sector only; no lattice
Hamiltonian is built (:func:`pstsim.protocols.lattice_pst` runs the two
axis chains).
"""

from dataclasses import dataclass

import numpy as np

from . import chains

__all__ = [
    "LatticeSpec",
    "site_index",
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

