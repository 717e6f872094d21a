"""Chain-transfer experiments: PST/FST runs, parity phases, GHZ generation.

Each experiment is a pure function of its inputs.  A transfer run
evolves only the block of the chain Hamiltonian that its start touches.
An ideal parity experiment maps only its two input branches through the
closed-form transfer (:func:`chains.pst_state_map`); under ZZ or
relaxation a parity table reads the propagators of the excitation-sector
blocks, and a single parity experiment and the GHZ run index the full
2^n register (site 1 = most significant bit).
"""

from dataclasses import dataclass, field
from math import pi
import cmath

import numpy as np

from . import evolution, statespace
from .models import chains, lattice
from .statespace import wrap_phase

__all__ = [
    "GraphStateReport",
    "ParityExperimentResult",
    "GHZScenario",
    "GHZReport",
    "wrap_phase",
    "noise_label",
    "apply_gate",
    "run_pst",
    "parity_phase_experiment",
    "parity_phase_table",
    "parity_deviation_fit",
    "double_fst_parity_experiment",
    "ghz_circuit",
    "run_ghz",
    "paper_ghz_scenario",
    "graph_state_edges",
    "lattice_pst",
]

INPUT_PHASES = {"+x": 0.0, "+y": pi / 2, "-x": pi, "-y": -pi / 2}

# rows of one parity table, inputs x 2^(n-2); 2^18 admits n = 18 with all
# four inputs
ROW_GUARD = 2**18


# ---------------------------------------------------------------------------
# gates

_SQ = 1.0 / np.sqrt(2.0)
_H = np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _rx(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(phase: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * phase)]])


def apply_gate(state: np.ndarray, u: np.ndarray, sites, n: int) -> np.ndarray:
    """Apply the 2x2 unitary ``u`` to each listed site of an n-site state."""
    for site in sites:
        state = statespace.apply_single_qubit(state, u, site, n)
    return state


# ---------------------------------------------------------------------------
# transfer runs

def noise_label(zz, noise) -> str:
    """Which noise terms act: "ideal", "zz", "relax" or "zz+relax".

    ZZ acts when ``zz`` holds a nonzero coupling, relaxation when
    ``noise`` is a NoiseSpec; this is the rule :func:`run_pst` and the
    parity experiments follow.
    """
    terms = [name for name, on in (("zz", any(zz)), ("relax", noise is not None)) if on]
    return "+".join(terms) or "ideal"


def run_pst(spec: chains.ChainSpec, initial, times, noise=None) -> evolution.Trajectory:
    """Evolve the chain from a basis state and record per-site populations.

    ``initial`` is an n-bit occupation string (site 1 first) or a 1-based
    site, the string with one excitation there.  Only the block of H
    holding it is built (:func:`chains.block_states`); the trajectory's
    ``states`` are its amplitudes.  The spec's zz couplings act as they
    are (they leave a single excitation alone); ``noise`` adds relaxation.
    """
    n = spec.n_sites
    if isinstance(initial, (int, np.integer)):
        if not 1 <= initial <= n:
            raise ValueError(f"start site {initial} outside 1..{n}")
        initial = "0" * (initial - 1) + "1" + "0" * (n - initial)
    if len(initial) != n or set(initial) - {"0", "1"}:
        raise ValueError(f"initial state {initial!r} is neither a site nor {n} occupations")
    states = chains.block_states(spec, initial)
    occ = statespace.occupation_rows(states, n).astype(float)
    H = chains.chain_hamiltonian(spec, states)
    if noise is not None:
        H = evolution.add_relaxation(H, noise, occ)
    psi0 = (states == int(initial, 2)).astype(complex)
    return evolution.evolve(H, psi0, times, occupations=occ)


# ---------------------------------------------------------------------------
# parity experiment

@dataclass(frozen=True)
class ParityExperimentResult:
    inner: str
    input_state: str
    phase: float
    parity: int

    @property
    def deviation(self) -> float:
        """Phase minus its ideal value, wrapped to (-pi, pi].

        Ideally the phase is parity * pi/2 plus an offset fixed by n mod 4
        (pi, -pi/2, 0, +pi/2 for n mod 4 = 0, 1, 2, 3): minus the Z angle
        one transfer puts on every mirror-paired site.
        """
        n = len(self.inner) + 2
        paired_angle = (pi, pi / 2, 0.0, -pi / 2)[n % 4]
        return wrap_phase(self.phase - self.parity * pi / 2 + paired_angle)

    def as_dict(self) -> dict:
        return {"inner": self.inner, "input_state": self.input_state,
                "phase_rad": self.phase, "parity": self.parity}


def _parity_spec(n: int, zeta, tau):
    """Chain spec of a parity experiment (shared by a table)."""
    if n < 3:
        raise ValueError("parity experiment needs n >= 3")
    return chains.ChainSpec.pst(n, 640e-9 if tau is None else tau).with_zz(zeta)


def _parity_hamiltonian(spec, noise):
    H = chains.chain_hamiltonian(spec)
    if noise is None:
        return H
    return evolution.add_relaxation(H, noise, statespace.occupation_matrix(spec.n_sites))


def _input_weight(input_state: str):
    """e^(i phi) of an input state, the weight of its excited branch."""
    if input_state not in INPUT_PHASES:
        raise ValueError(f"input_state must be one of {sorted(INPUT_PHASES)}")
    return np.exp(1j * INPUT_PHASES[input_state])


def _parity_input(n: int, inner: str, input_state: str):
    """Basis indices of the two input branches and the weight of the second.

    Without site 1's excitation the input is ``low``, with it ``high``;
    each branch carries 1/sqrt(2) and ``high`` the input phase on top.
    """
    if len(inner) != n - 2 or set(inner) - {"0", "1"}:
        raise ValueError(f"inner must be a bitstring of length {n - 2}")
    low = int(inner, 2) << 1                  # sites 2..n-1; site n empty
    return low, low | 1 << (n - 1), _input_weight(input_state)


def _parity_result(inner: str, input_state: str, coher) -> ParityExperimentResult:
    """The row of a transferred state whose site n has <X> + i<Y> = ``coher``."""
    if abs(coher) < 1e-9:
        raise RuntimeError("transferred state has no x-y coherence; phase undefined")
    parity = -1 if inner.count("1") % 2 else 1
    return ParityExperimentResult(
        inner=inner, input_state=input_state, parity=parity,
        phase=wrap_phase(INPUT_PHASES[input_state] - cmath.phase(coher)))


def _transfer_coherences(n: int, low, high) -> np.ndarray:
    """p[high] conj(p[low]) for arrays of input branches, p the phases of
    :func:`chains.pst_state_map`: low and high land on mirror images that
    differ in site n only, so an input of weight w leaves site n the
    coherence w p[high] conj(p[low])."""
    _, p = chains.pst_state_map(n, np.concatenate([low, high]))
    return p[len(low):] * p[:len(low)].conj()


def parity_phase_experiment(n: int, inner: str, input_state: str, zeta=(),
                            noise=None, tau: float | None = None) -> ParityExperimentResult:
    """Transfer-phase measurement for one inner bitstring and input state.

    Site 1 is prepared in the +-x/+-y superposition, sites 2..n-1 in the
    computational ``inner`` pattern, site n in the ground state.  After
    one transfer site n's coherence <X> + i<Y> = 2 sum_x conj(psi[x]) psi[x|1]
    (x over the states with site n, the least significant bit, empty) is
    read out, and the prepared input phase is subtracted from its angle;
    the result is wrapped to (-pi, pi].  Nonzero ``zeta`` (rad/s per
    adjacent pair) adds ZZ terms during the transfer, and ``noise``
    relaxation.  Without either the coherence comes from the closed-form
    transfer of the two input branches alone, so any n runs; with
    either the input is evolved on the whole 2^n register, whose H is
    built in full.
    """
    spec = _parity_spec(n, zeta, tau)
    low, high, weight = _parity_input(n, inner, input_state)
    if noise_label(zeta, noise) == "ideal":
        coher = _transfer_coherences(n, [low], [high])[0] * weight
        return _parity_result(inner, input_state, coher)
    psi = np.zeros(2**n, dtype=complex)
    psi[low] = 1.0 / np.sqrt(2.0)
    psi[high] = weight / np.sqrt(2.0)
    state = evolution.evolve(_parity_hamiltonian(spec, noise), psi, [spec.tau]).states[0]
    return _parity_result(inner, input_state, 2.0 * np.vdot(state[0::2], state[1::2]))


def _table_rows(n: int, input_states, coher) -> list:
    """Rows of a table: every inner bitstring, in order, for each input state."""
    rows = []
    for code, row in enumerate(coher.tolist()):
        inner = format(code, f"0{n - 2}b")
        rows += [_parity_result(inner, inp, c) for inp, c in zip(input_states, row)]
    return rows


def _block_table(spec: chains.ChainSpec, noise, input_states) -> list:
    """The table from the transfer propagators U of the blocks of H.

    With site n the least significant bit, a row's site-n coherence is
    e^(i phi) sum_x conj(U[x, low]) U[x|1, high] over the states x of
    ``low``'s block with site n empty.  The rows whose branches lie in
    the same two blocks sum their products in one contraction once both
    blocks are built, and a block's U is dropped once no remaining row
    needs it.  A block above ``evolution.DENSE_GUARD`` states (n >= 15)
    raises ResourceError before any U is built.
    """
    n = spec.n_sites
    weights = np.array([_input_weight(inp) for inp in input_states])
    low = np.arange(2 ** (n - 2)) << 1
    high = low | 1 << (n - 1)
    block = np.full(2**n, -1)                       # block and column of every state built
    column = np.empty(2**n, dtype=np.int64)
    blocks = {}                                     # the states and propagator of a block in use
    coher = np.empty((len(low), len(weights)), dtype=complex)
    for b, (idx, h) in enumerate(evolution._blocks(_parity_hamiltonian(spec, noise))):
        block[idx], column[idx] = b, np.arange(len(idx))
        blocks[b] = idx, evolution._block_states(h[None], np.eye(len(idx))[None],
                                                 [spec.tau])[0, 0]
        lo_block, hi_block = block[low], block[high]
        ready = ((lo_block == b) | (hi_block == b)) & (lo_block >= 0) & (hi_block >= 0)
        for lo, hi in set(zip(lo_block[ready].tolist(), hi_block[ready].tolist())):
            group = np.flatnonzero((lo_block == lo) & (hi_block == hi))
            states = blocks[lo][0]
            x = states[(states & 1 == 0) & (block[states | 1] == hi)]  # site n empty, x|1 in hi
            sums = np.einsum("kr,kr->r",
                             blocks[lo][1][np.ix_(column[x], column[low[group]])].conj(),
                             blocks[hi][1][np.ix_(column[x | 1], column[high[group]])])
            coher[group] = sums[:, None] * weights
        pending = (lo_block < 0) | (hi_block < 0)
        for done in set(blocks) - set(lo_block[pending].tolist() + hi_block[pending].tolist()):
            del blocks[done]
    return _table_rows(n, input_states, coher)


def parity_phase_table(n: int, input_states=("+x",), zeta=(), noise=None,
                       tau: float | None = None):
    """All 2^(n-2) inner bitstrings for the given input states.

    Without ZZ or relaxation each row's coherence comes from the closed
    form of the transfer of its two input branches: no Hamiltonian is
    built, every phase is exactly parity * pi/2 plus the offset of n
    mod 4, and a row on the branch cut reads +pi.  With either, the rows
    are read from the sector propagators (:func:`_block_table`), whose
    dense guard stops n >= 15.  A table of more
    than ``ROW_GUARD`` rows (inputs x 2^(n-2)) raises ResourceError
    before any array is built.
    """
    spec = _parity_spec(n, zeta, tau)
    weights = np.array([_input_weight(inp) for inp in input_states])
    if len(weights) << (n - 2) > ROW_GUARD:
        raise evolution.ResourceError(f"{len(weights)} inputs x 2^{n - 2} inner states "
                                      f"above the row guard of {ROW_GUARD} rows")
    if noise_label(zeta, noise) != "ideal":
        return _block_table(spec, noise, input_states)
    low = np.arange(2 ** (n - 2)) << 1
    coher = _transfer_coherences(n, low, low | 1 << (n - 1))[:, None] * weights
    return _table_rows(n, input_states, coher)


def parity_deviation_fit(results) -> dict:
    """Line through the per-count means of |deviation| (rad).

    ``results`` are parity experiments; they are grouped by the number of
    excited inner sites, the occupation the ZZ phase error grows with.
    """
    by_count = {}
    for res in results:
        by_count.setdefault(res.inner.count("1"), []).append(abs(res.deviation))
    counts = sorted(by_count)
    means = [float(np.mean(by_count[k])) for k in counts]
    slope, intercept = np.polyfit(counts, means, 1)
    pred = np.polyval([slope, intercept], counts)
    ss_res = float(np.sum((np.array(means) - pred) ** 2))
    ss_tot = float(np.sum((np.array(means) - np.mean(means)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"counts": counts, "mean_deviation_rad": means,
            "slope_rad": float(slope), "intercept_rad": float(intercept),
            "r_squared": r2}


# ---------------------------------------------------------------------------
# double FST parity experiment

def double_fst_parity_experiment(middle_excited_first_leg: bool) -> np.ndarray:
    """Two theta=pi/2 fractional transfers on three sites.

    The outer excitation starts on site 1.  With the middle qubit in the
    ground state for both legs the two half-transfers compose and the
    excitation arrives at site 3.  Starting the middle excited and
    flipping it between the legs reverses the second rotation, so the
    excitation refocuses on site 1.  Returns per-site populations.
    """
    tau = 350e-9
    spec = chains.ChainSpec.fst(3, tau, pi / 2)
    H = chains.chain_hamiltonian(spec)
    state = np.zeros(8, dtype=complex)
    bits = 0b100 | (0b010 if middle_excited_first_leg else 0)
    state[bits] = 1.0
    state = evolution.evolve(H, state, [tau]).states[0]
    if middle_excited_first_leg:
        state = apply_gate(state, _X, (2,), 3)
    state = evolution.evolve(H, state, [tau]).states[0]
    occ = statespace.occupation_matrix(3)
    return (np.abs(state) ** 2) @ occ


# ---------------------------------------------------------------------------
# GHZ circuit

def ghz_circuit(n: int):
    """Local rotation layer that completes the n-qubit GHZ state.

    It acts after Hadamards on every site of |0...0> and one transfer of
    the chain, and depends on n mod 4.  Returns ``(u, sites)`` pairs, in
    order: each 2x2 unitary ``u`` acts on every listed site (see
    :func:`apply_gate`).  For odd n it is X(pi/2) on every site; for even
    n every site gets Y(pi/2) except site 1, whose axis is fixed up with
    a Z(-+pi/2) before an X(+-pi/2).
    """
    if n < 2:
        raise ValueError("GHZ circuit needs n >= 2")
    rest = tuple(range(2, n + 1))
    if n % 2 == 1:
        return [(_rx(pi / 2), (1, *rest))]
    if n % 4 == 0:
        return [(_rz(-pi / 2), (1,)), (_rx(pi / 2), (1,)), (_ry(pi / 2), rest)]
    return [(_rz(pi / 2), (1,)), (_rx(-pi / 2), (1,)), (_ry(pi / 2), rest)]


def ghz_state(n: int) -> np.ndarray:
    out = np.zeros(2**n, dtype=complex)
    out[0] = out[-1] = 1.0 / np.sqrt(2.0)
    return out


# ---------------------------------------------------------------------------
# noisy GHZ scenario

@dataclass(frozen=True)
class GHZScenario:
    """Concrete noise configuration for a GHZ-generation run.

    ``t1`` lists relaxation times per chain site; ``zeta`` lists residual
    ZZ strengths (rad/s) per adjacent pair.  ``zz_application`` places
    the ZZ phase either during the transfer window ("transfer") or as
    the accumulated conditional phase at the end of the sequence
    ("end").  ``decay_convention`` selects the non-Hermitian rate
    normalization (see evolution.NoiseSpec).
    """

    n: int = 3
    tau: float = 216e-9
    t1: tuple = ()
    zeta: tuple = ()
    decay_convention: str = "t1"
    zz_application: str = "end"
    label: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two sites")
        if self.t1 and len(self.t1) != self.n:
            raise ValueError("need one T1 per site")
        if self.zeta and len(self.zeta) != self.n - 1:
            raise ValueError("need one zeta per adjacent pair")
        if self.zz_application not in ("transfer", "end"):
            raise ValueError("zz_application must be 'transfer' or 'end'")

    def noise(self):
        if not self.t1:
            return None
        return evolution.NoiseSpec(t1=self.t1, decay_convention=self.decay_convention)


def paper_ghz_scenario() -> GHZScenario:
    """Three-qubit GHZ scenario with the published relaxation times.

    The chain maps onto device qubits (q5, q6, q1); the ZZ strengths are
    set so the accumulated conditional phase on |111> over the sequence
    is 0.378 rad.
    """
    zeta = -0.378 / (2 * 216e-9)
    return GHZScenario(n=3, tau=216e-9, t1=(63.4e-6, 72.0e-6, 12.1e-6),
                       zeta=(zeta, zeta), decay_convention="rate-2pi",
                       zz_application="end", label="ghz-n3-published")


@dataclass(frozen=True)
class GHZReport:
    fidelity: float
    fidelity_opt: float
    phi_opt: float
    norm: float
    state: np.ndarray = field(repr=False)

    def as_dict(self) -> dict:
        return {"fidelity": self.fidelity, "fidelity_opt": self.fidelity_opt,
                "phi_opt_rad": self.phi_opt, "norm": self.norm}


def run_ghz(scenario: GHZScenario) -> GHZReport:
    """Simulate the GHZ sequence under the scenario's noise terms.

    A Hadamard on every site of |0...0> gives |+...+>; one transfer of
    the chain follows, then the :func:`ghz_circuit` layer, each pair
    through :func:`apply_gate`.  Relaxation enters as a non-Hermitian term
    during the transfer; the surviving (no-jump) amplitude is compared
    against the GHZ target without renormalization, so population leak
    counts as infidelity.
    ``fidelity_opt`` maximizes over a virtual Z rotation of site 1.
    """
    n = scenario.n
    spec = chains.ChainSpec.pst(n, scenario.tau)
    if scenario.zeta and scenario.zz_application == "transfer":
        spec = spec.with_zz(scenario.zeta)
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    state = apply_gate(state, _H, range(1, n + 1), n)
    H = chains.chain_hamiltonian(spec)
    occ = statespace.occupation_matrix(n)
    noise = scenario.noise()
    if noise is not None:
        H = evolution.add_relaxation(H, noise, occ)
    state = evolution.evolve(H, state, [scenario.tau]).states[0]
    for u, sites in ghz_circuit(n):
        state = apply_gate(state, u, sites, n)
    if scenario.zeta and scenario.zz_application == "end":
        pair_term = np.zeros(2**n)
        for k, z in enumerate(scenario.zeta, start=1):
            pair_term += z * occ[:, k - 1] * occ[:, k]
        state = np.exp(-1j * pair_term * scenario.tau) * state
    a0 = state[0]
    a1 = state[-1]
    fid = 0.5 * abs(a0 + a1) ** 2
    fid_opt = 0.5 * (abs(a0) + abs(a1)) ** 2
    phi_opt = wrap_phase(cmath.phase(a0) - cmath.phase(a1)) if abs(a0) * abs(a1) > 0 else 0.0
    return GHZReport(fidelity=fid, fidelity_opt=fid_opt, phi_opt=phi_opt,
                     norm=float(np.linalg.norm(state) ** 2), state=state)


# ---------------------------------------------------------------------------
# graph-state bookkeeping

@dataclass(frozen=True)
class GraphStateReport:
    n: int
    iswap_edges: tuple
    cz_edges: tuple

    def union(self):
        return set(self.iswap_edges) | set(self.cz_edges)


def graph_state_edges(n: int) -> GraphStateReport:
    """Two-qubit interactions generated by one transfer on n sites.

    Each mirror pair (m, n+1-m) contributes an iSWAP edge; every site k
    strictly between a pair contributes CZ edges (m, k) and (n+1-m, k).
    Together these form the complete graph K_n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    iswap = []
    cz = []
    for m in range(1, n // 2 + 1):
        mt = n + 1 - m
        iswap.append((m, mt))
        for k in range(m + 1, mt):
            cz += [(m, k), (k, mt)]
    return GraphStateReport(n=n, iswap_edges=tuple(iswap), cz_edges=tuple(cz))


# ---------------------------------------------------------------------------
# lattices

def lattice_pst(spec: lattice.LatticeSpec, start, times) -> evolution.Trajectory:
    """Single-excitation lattice transfer; states and populations indexed x-major.

    The x hops and the y hops commute, so the amplitudes are products of
    the two axis chains' amplitudes, one :func:`run_pst` per axis; an axis
    of one site has amplitude 1, so a 1 x n or n x 1 lattice is its
    chain's run.  Raises ResourceError, before either chain runs, when
    len(times) * nx * ny is above ``evolution.OUTPUT_GUARD``.
    """
    lattice.site_index(spec, *start)
    if np.size(times) * spec.n_sites > evolution.OUTPUT_GUARD:
        raise evolution.ResourceError(f"{np.size(times)} times x {spec.n_sites} sites above "
                                      f"the output guard of {evolution.OUTPUT_GUARD} amplitudes")
    runs = [run_pst(chains.ChainSpec.pst(n, spec.tau), k, times)
            for n, k in zip((spec.nx, spec.ny), start) if n > 1]
    if len(runs) == 1:          # x-major order is then the longer axis's site order
        return runs[0]
    ax, ay = (run.states for run in runs)
    states = (ax[:, :, None] * ay[:, None, :]).reshape(len(ax), spec.n_sites)
    prob = np.abs(states) ** 2
    return evolution.Trajectory(times=runs[0].times, states=states, populations=prob,
                                norm=np.sqrt(prob.sum(axis=1)))
