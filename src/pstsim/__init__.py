"""Simulation toolkit for perfect and fractional state transfer on qubit chains.

Subpackages cover the excitation-conserving chain models and their
closed-form transfer unitaries, a flux-tunable transmon-coupler device
model, one time-evolution layer (each excitation sector diagonalised
once with eigh, or eig under relaxation; scipy's expm_multiply for
matrix-free stepping; commutator-free exponentials for driven models),
the transfer protocols and GHZ circuit, simulated tomography, and the
chevron / closed-loop calibration pipeline.
"""

__version__ = "0.1.0"

from . import statespace
from .models import chains, device, lattice
from . import evolution
from . import protocols
from . import tomography
from . import calibration
from . import serialize
from . import svg

__all__ = [
    "statespace",
    "chains",
    "device",
    "lattice",
    "evolution",
    "protocols",
    "tomography",
    "calibration",
    "serialize",
    "svg",
    "__version__",
]
