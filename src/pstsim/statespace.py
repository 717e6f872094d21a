"""Computational-basis bookkeeping for chains of two-level sites.

Basis states of an ``n``-site chain are integers in ``[0, 2**n)`` whose
binary digits are the site occupations with site 1 as the most
significant bit, i.e. the bitstring reads left to right along the chain.
"""

from math import pi

import numpy as np

__all__ = [
    "wrap_phase",
    "basis_index",
    "occupation_rows",
    "occupation_matrix",
    "apply_single_qubit",
]


def wrap_phase(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    out = (x + pi) % (2 * pi) - pi
    return pi if out == -pi else out


def basis_index(bits) -> int:
    """Index of the basis state with the given occupation sequence (site 1 first)."""
    x = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"occupations must be 0/1, got {b!r}")
        x = (x << 1) | b
    return x


def occupation_rows(states, n: int) -> np.ndarray:
    """(len(states), n) int64 occupations (site 1 first) of an array of basis indices."""
    states = np.asarray(states)
    return ((states[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int64, copy=False)


def occupation_matrix(n: int) -> np.ndarray:
    """(2**n, n) matrix of per-site occupations over the full basis."""
    return occupation_rows(np.arange(2**n), n).astype(float)


def apply_single_qubit(psi: np.ndarray, op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Apply a 2x2 operator to one site of a full-space state vector."""
    if not 1 <= site <= n:
        raise ValueError(f"site {site} outside chain of length {n}")
    tensor = np.asarray(psi, dtype=complex).reshape((2,) * n)
    axis = site - 1
    tensor = np.tensordot(op, tensor, axes=([1], [axis]))
    # tensordot puts the contracted axis first; move it back into place
    tensor = np.moveaxis(tensor, 0, axis)
    return tensor.reshape(-1)

