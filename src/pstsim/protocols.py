"""Chain-transfer experiments: PST/FST runs, parity phases, GHZ generation.

Each experiment is a pure function of its inputs.  Every chain evolution
runs on the dense blocks of known state lists (:func:`chains.block_states`):
a transfer run on the block of its start, a ZZ or relaxed parity experiment
on one block per input branch, a parity table and the GHZ and double-FST
runs sector by sector (site 1 = most significant bit).  An ideal parity
experiment maps its two input branches through the closed-form transfer
(:func:`chains.pst_state_map`).  Parity results are numpy record arrays,
one row per inner bitstring and input state; a single experiment is the
rows of its one inner bitstring.
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
    psi0 = (states == int(initial, 2)).astype(complex)
    return evolution.evolve_blocks([(slice(None), _block(spec, states, noise))], psi0, times,
                                   occupations=statespace.occupation_rows(states, n).astype(float))


def _block(spec: chains.ChainSpec, states, noise) -> np.ndarray:
    """H on the basis states of a block, relaxed when ``noise`` is given."""
    h = chains.chain_block(spec, states)
    if noise is None:
        return h
    return evolution.add_relaxation(
        h, noise, statespace.occupation_rows(states, spec.n_sites).astype(float))


def _sectors(spec: chains.ChainSpec, counts) -> list:
    """Ascending states of each listed excitation sector (one block with no zero coupling)."""
    n = spec.n_sites
    return [chains.block_states(spec, "1" * m + "0" * (n - m))[::-1] for m in counts]


# ---------------------------------------------------------------------------
# parity experiment

def _parity_spec(n: int, zeta, tau):
    """Chain spec of a parity experiment (shared by a table)."""
    if n < 3:
        raise ValueError("parity experiment needs n >= 3")
    return chains.ChainSpec.pst(n, 640e-9 if tau is None else tau).with_zz(zeta)


def _input_weight(input_state: str):
    """e^(i phi) of an input state, the weight of its excited branch."""
    if input_state not in INPUT_PHASES:
        raise ValueError(f"input_state must be one of {sorted(INPUT_PHASES)}")
    return np.exp(1j * INPUT_PHASES[input_state])


def _table(n: int, input_states, codes, coher) -> np.recarray:
    """The rows of the inner bitstrings ``codes`` (integers), each for every input state.

    ``coher`` (codes x inputs) holds the <X> + i<Y> each row leaves on
    site n.  A row's phase is its input phase minus the angle of that
    coherence, wrapped to (-pi, pi].  Ideally it is parity * pi/2 plus an
    offset fixed by n mod 4 (pi, -pi/2, 0, +pi/2 for n mod 4 = 0, 1, 2,
    3): minus the Z angle one transfer puts on every mirror-paired site.
    A row's deviation is its phase minus that ideal value, wrapped the
    same way.
    """
    if np.any(np.abs(coher) < 1e-9):
        raise RuntimeError("transferred state has no x-y coherence; phase undefined")
    k, codes = len(input_states), codes.tolist()
    count = np.array([bin(c).count("1") for c in codes])
    parity = np.repeat(1 - 2 * (count % 2), k)
    phase = wrap_phase(np.tile([INPUT_PHASES[inp] for inp in input_states], len(codes))
                       - np.array([cmath.phase(c) for c in coher.ravel().tolist()]))
    deviation = wrap_phase(phase - parity * pi / 2 + (pi, pi / 2, 0.0, -pi / 2)[n % 4])
    inner = np.repeat([format(c, f"0{n - 2}b") for c in codes], k)
    return np.rec.fromarrays([inner, np.tile(input_states, len(codes)), phase, parity, deviation],
                             names="inner,input_state,phase,parity,deviation")


def _rows(spec: chains.ChainSpec, noise, input_states, codes) -> np.recarray:
    """The table rows of the inner bitstrings ``codes`` (integers).

    Site 1 is the most significant bit, so a row's input branches are
    ``low`` = code << 1, without site 1's excitation, and ``high``, with
    it.  Without ZZ or relaxation they land on mirror images that differ
    in site n only, with the phases p of :func:`chains.pst_state_map`,
    so an input of weight w (:func:`_input_weight`) leaves site n the
    coherence w p[high] conj(p[low]): no Hamiltonian is built.  With
    either, the rows come from the sector transfers of
    :func:`_block_table`.  A bare string for ``input_states`` raises
    TypeError: its characters are no input states.
    """
    if isinstance(input_states, str):
        raise TypeError(f"input_states must be a sequence of input states such as "
                        f"('+x',), got the string {input_states!r}")
    input_states = tuple(input_states)
    if noise_label(spec.zz, noise) != "ideal":
        return _block_table(spec, noise, input_states, codes)
    n = spec.n_sites
    weights = np.array([_input_weight(inp) for inp in input_states])
    low = codes << 1
    _, p = chains.pst_state_map(n, np.concatenate([low, low | 1 << (n - 1)]))
    return _table(n, input_states, codes, (p[len(low):] * p[:len(low)].conj())[:, None] * weights)


def parity_phase_experiment(n: int, inner: str, input_states=("+x",), zeta=(),
                            noise=None, tau: float | None = None) -> np.recarray:
    """Transfer-phase measurement for one inner bitstring and each input state.

    Site 1 is prepared in the +-x/+-y superposition, sites 2..n-1 in the
    computational ``inner`` pattern, site n in the ground state.  After
    one transfer site n's coherence <X> + i<Y> = 2 sum_x conj(psi[x]) psi[x|1]
    (x over the states with site n, the least significant bit, empty) is
    read out, and the prepared input phase is subtracted from its angle;
    the result is wrapped to (-pi, pi].  Nonzero ``zeta`` (rad/s per
    adjacent pair) adds ZZ terms during the transfer, and ``noise``
    relaxation.  Without either the coherence comes from the closed-form
    transfer of the two input branches alone, so any n runs; with
    either each branch is evolved on its own block.  Returns the rows of
    ``inner`` in such a table, one per input (see :func:`parity_phase_table`).
    """
    spec = _parity_spec(n, zeta, tau)
    if len(inner) != n - 2 or set(inner) - {"0", "1"}:
        raise ValueError(f"inner must be a bitstring of length {n - 2}")
    # Python ints: the codes of more than 64 sites overflow int64
    return _rows(spec, noise, input_states, np.array([int(inner, 2)], dtype=object))


def _block_table(spec: chains.ChainSpec, noise, input_states, codes) -> np.recarray:
    """Rows from the transfer of their input branches, one excitation sector at a time.

    ``codes`` are the rows' inner bitstrings as integers.  With site n the
    least significant bit, a row's site-n coherence is e^(i phi) sum_x
    conj(U[x, low]) U[x|1, high] over the states x of ``low``'s sector
    with site n empty.  Sector m propagates the ``low`` branches of m
    inner excitations and the ``high`` ones of m - 1; a sector above the
    dense guard (a table of n >= 15) raises before any sector is
    propagated.
    """
    n = spec.n_sites
    weights = np.array([_input_weight(inp) for inp in input_states])
    count = np.array([bin(c).count("1") for c in codes.tolist()])
    coher = np.empty((len(codes), len(weights)), dtype=complex)
    needed = np.union1d(count, count + 1).tolist()      # the sectors of low and of high
    for m, states in zip(needed, _sectors(spec, needed)):
        low = codes[count == m] << 1
        high = codes[count == m - 1] << 1 | 1 << (n - 1)
        cols = np.searchsorted(states, np.concatenate([low, high]))
        inputs = np.zeros((len(states), len(cols)))
        inputs[cols, np.arange(len(cols))] = 1.0
        u = evolution._block_states(_block(spec, states, noise)[None], inputs[None],
                                    [spec.tau])[0, 0]
        if len(high):           # the rows with m - 1 inner excitations
            x = np.flatnonzero(prev_states & 1 == 0)
            x1 = np.searchsorted(states, prev_states[x] | 1)
            sums = np.einsum("kr,kr->r", prev_low[x].conj(), u[x1, len(low):])
            coher[count == m - 1] = sums[:, None] * weights
        prev_states, prev_low = states, u[:, :len(low)]
    return _table(n, input_states, codes, coher)


def parity_phase_table(n: int, input_states=("+x",), zeta=(), noise=None,
                       tau: float | None = None) -> np.recarray:
    """All 2^(n-2) inner bitstrings for the given input states.

    One record array with the fields ``inner``, ``input_state``,
    ``phase``, ``parity`` and ``deviation`` (see :func:`_table`), a row
    per inner bitstring and input state, inner-major.  Without ZZ or
    relaxation every phase is exactly parity * pi/2 plus the offset of
    n mod 4, from the closed form (:func:`_rows`), and a row on the
    branch cut reads +pi.  With either, the dense guard of the sector
    transfers stops n >= 15.  A table of more than ``ROW_GUARD`` rows
    (inputs x 2^(n-2)) raises ResourceError before anything of size n is
    built.
    """
    if n >= 3 and len(input_states) << (n - 2) > ROW_GUARD:
        raise evolution.ResourceError(f"{len(input_states)} inputs x 2^{n - 2} inner states "
                                      f"above the row guard of {ROW_GUARD} rows")
    return _rows(_parity_spec(n, zeta, tau), noise, input_states, np.arange(2 ** (n - 2)))


def parity_deviation_fit(table) -> dict:
    """Line through the per-count means of |deviation| (rad).

    ``table`` is a :func:`parity_phase_table` or some of its rows; they are
    grouped by the number of excited inner sites, the occupation the ZZ
    phase error grows with.
    """
    count = np.array([inner.count("1") for inner in table.inner.tolist()])
    counts = np.unique(count).tolist()
    means = [float(np.mean(np.abs(table.deviation[count == k]))) for k in counts]
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
    blocks = [(s, _block(spec, s, None)) for s in _sectors(spec, range(4))]
    state = np.zeros(8, dtype=complex)
    bits = 0b100 | (0b010 if middle_excited_first_leg else 0)
    state[bits] = 1.0
    state = evolution.evolve_blocks(blocks, state, [tau]).states[0]
    if middle_excited_first_leg:
        state = apply_gate(state, _X, (2,), 3)
    state = evolution.evolve_blocks(blocks, state, [tau]).states[0]
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
    blocks = [(s, _block(spec, s, scenario.noise())) for s in _sectors(spec, range(n + 1))]
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    state = apply_gate(state, _H, range(1, n + 1), n)
    state = evolution.evolve_blocks(blocks, state, [scenario.tau]).states[0]
    for u, sites in ghz_circuit(n):
        state = apply_gate(state, u, sites, n)
    if scenario.zeta and scenario.zz_application == "end":
        occ = statespace.occupation_matrix(n)
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
