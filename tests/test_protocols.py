"""Tests for gate sequences, parity experiments, and GHZ preparation."""

import cmath
import itertools
import time
import tracemalloc
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstsim import evolution, protocols, statespace
from pstsim.models import chains

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


# ---------------------------------------------------------------- wrap_phase


@given(st.floats(-50.0, 50.0), st.integers(-5, 5))
def test_wrap_phase_periodic(x, k):
    a = protocols.wrap_phase(x)
    b = protocols.wrap_phase(x + 2.0 * pi * k)
    assert -pi < a <= pi
    assert abs(protocols.wrap_phase(a - b)) < 1e-9


def test_wrap_phase_branch_cut():
    assert protocols.wrap_phase(pi) == pytest.approx(pi)
    assert protocols.wrap_phase(-pi) == pytest.approx(pi)
    assert protocols.wrap_phase(0.0) == 0.0


def test_wrap_phase_array_equals_each_float():
    # the table's wrap, one array op, against the scalar wrap of each angle,
    # the branch cut and its odd multiples included
    x = np.random.default_rng(5).uniform(-50.0, 50.0, 200_000)
    x = np.concatenate([x, [pi, -pi, 3 * pi, -3 * pi, 0.0, -0.0, 2 * pi]])
    assert protocols.wrap_phase(x).tolist() == [protocols.wrap_phase(v) for v in x.tolist()]


# ----------------------------------------------------------------- apply_gate


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def _rot(axis, angle):
    """exp(-i angle sigma / 2) for the Pauli matrix ``axis``."""
    return (np.cos(angle / 2) * np.eye(2)
            - 1j * np.sin(angle / 2) * np.asarray(axis, dtype=complex))


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1j], [1j, 0.0]])
# every matrix the GHZ layer and the double-FST flip apply, by name
_GATES = {
    "H": _H,
    "X": _X,
    "rx(+pi/2)": _rot(_X, pi / 2),
    "rx(-pi/2)": _rot(_X, -pi / 2),
    "ry(+pi/2)": _rot(_Y, pi / 2),
    "rz(+pi/2)": np.diag([1.0, np.exp(0.5j * pi)]),
    "rz(-pi/2)": np.diag([1.0, np.exp(-0.5j * pi)]),
}


@pytest.mark.parametrize("site", [1, 2, 3])
@pytest.mark.parametrize("name", list(_GATES))
def test_apply_gate_matches_kron(name, site):
    psi = _random_state(3, 11)
    u = _GATES[name]
    out = protocols.apply_gate(psi, u, (site,), 3)
    factors = [u if k == site else np.eye(2) for k in (1, 2, 3)]
    ref = np.kron(np.kron(factors[0], factors[1]), factors[2]) @ psi
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_gate_unitarity_and_composition():
    psi = _random_state(4, 3)
    ops = [
        (_H, (1, 2, 3, 4)),
        (_rot(_X, pi / 2), (2,)),
        (_rot(_Y, -pi / 2), (3,)),
        (np.diag([1.0, np.exp(0.7j)]), (4,)),
        (_X, (1,)),
    ]
    out = psi
    for u, sites in ops:
        out = protocols.apply_gate(out, u, sites, 4)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_apply_gate_errors():
    psi = _random_state(2, 0)
    with pytest.raises(ValueError):
        protocols.apply_gate(psi, _H, (3,), 2)
    with pytest.raises(ValueError):
        protocols.apply_gate(np.ones(3), _H, (1,), 2)


# ----------------------------------------------------------------- GHZ circuit


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ghz_circuit_prepares_ghz(n):
    # Hadamards, one transfer period of the chain, then the rotation layer
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    psi = protocols.apply_gate(psi, _H, range(1, n + 1), n)
    psi = chains.pst_unitary(n) @ psi
    for u, sites in protocols.ghz_circuit(n):
        psi = protocols.apply_gate(psi, u, sites, n)
    target = protocols.ghz_state(n)
    assert abs(np.vdot(target, psi)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_ghz_state_shape():
    psi = protocols.ghz_state(3)
    assert psi[0] == pytest.approx(1 / np.sqrt(2))
    assert psi[-1] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(psi) == 2


def test_ghz_circuit_rejects_single_site():
    with pytest.raises(ValueError):
        protocols.ghz_circuit(1)


# ------------------------------------------------------------------- parity


def test_input_phase_table():
    assert protocols.INPUT_PHASES == {
        "+x": 0.0,
        "+y": pi / 2,
        "-x": pi,
        "-y": -pi / 2,
    }


def test_parity_phase_input_independent():
    phases = protocols.parity_phase_experiment(5, "101", tuple(protocols.INPUT_PHASES)).phase
    for p in phases[1:]:
        assert abs(protocols.wrap_phase(p - phases[0])) < 1e-9


# Ideal phases carry an n-dependent transfer offset on top of the +-pi/2
# parity split; the offset vanishes only for n = 6.
_IDEAL_PHASES = {
    3: (pi, 0.0),
    4: (-pi / 2, pi / 2),
    5: (0.0, pi),
    6: (pi / 2, -pi / 2),
}


@pytest.mark.parametrize("n", sorted(_IDEAL_PHASES))
def test_parity_phases_frozen(n):
    even_ref, odd_ref = _IDEAL_PHASES[n]
    even = protocols.parity_phase_experiment(n, "0" * (n - 2))[0]
    odd = protocols.parity_phase_experiment(n, "1" + "0" * (n - 3))[0]
    assert even.parity == 1
    assert odd.parity == -1
    assert abs(protocols.wrap_phase(even.phase - even_ref)) < 1e-9
    assert abs(protocols.wrap_phase(odd.phase - odd_ref)) < 1e-9
    # parities always sit pi apart
    assert abs(abs(protocols.wrap_phase(even.phase - odd.phase)) - pi) < 1e-9


def test_parity_table_n6_exact():
    rows = protocols.parity_phase_table(6)
    assert len(rows) == 16
    seen = set()
    for row in rows:
        seen.add(row.inner)
        parity = 1 - 2 * (row.inner.count("1") % 2)
        assert row.parity == parity
        assert abs(protocols.wrap_phase(row.phase - parity * pi / 2)) < 1e-9
    assert seen == {"".join(b) for b in itertools.product("01", repeat=4)}


def test_parity_experiment_is_a_table_row():
    # inner 10 is code 2, so with two inputs its rows are rows 2 * 2 and 2 * 2 + 1
    rows = protocols.parity_phase_experiment(4, "10", ("+x", "+y"))
    assert rows.dtype.names == ("inner", "input_state", "phase", "parity", "deviation")
    assert (rows[1].inner, rows[1].input_state, rows[1].parity) == ("10", "+y", -1)
    assert rows.tolist() == protocols.parity_phase_table(4, ("+x", "+y"))[4:6].tolist()


@pytest.mark.parametrize("n", range(3, 10))
def test_ideal_parity_deviation_vanishes_for_every_n(n):
    # the ideal offset depends on n mod 4; deviation removes it for every n
    rows = protocols.parity_phase_table(n, input_states=("+x", "-y"))
    assert max(abs(row.deviation) for row in rows) < 1e-9


def test_parity_zz_deviation_grows_with_count():
    zeta = (-2.0 * pi * 100e3,) * 5
    rows = protocols.parity_phase_table(6, zeta=zeta)
    dev = {}
    for row in rows:
        k = row.inner.count("1")
        d = abs(protocols.wrap_phase(row.phase - row.parity * pi / 2))
        dev.setdefault(k, []).append(d)
    means = [np.mean(dev[k]) for k in sorted(dev)]
    assert means[0] < 1e-9
    assert all(b > a for a, b in zip(means, means[1:]))
    fit = protocols.parity_deviation_fit(rows)
    assert fit["counts"] == sorted(dev)
    np.testing.assert_allclose(fit["mean_deviation_rad"], means, rtol=1e-12)
    assert fit["slope_rad"] == pytest.approx(0.129011, abs=1e-6)
    assert fit["r_squared"] > 0.999


def _free_fermion_deviations(n, zeta, tau=640e-9, nodes=80, codes=None):
    """First-order ZZ deviation of the rows of a parity table, from free fermions.

    By Jordan-Wigner the XY chain is free fermions with the single-particle
    H of its couplings (no string on a nearest-neighbour hop; Lieb, Schultz
    & Mattis 1961), and a basis branch is a Slater determinant.  Wick's
    theorem gives <n_k n_k+1> = G_kk G_k+1,k+1 - |G_k,k+1|^2 with
    G_kl(t) = sum over occupied s of conj(U_ks) U_ls, U = exp(-i h t).  To
    first order in zeta a branch gains only the phase
    Phi = int_0^tau sum_k zeta_k <n_k n_k+1> dt (its amplitude into other
    states reaches site n's coherence at second order), so a row deviates
    by Phi_high - Phi_low.  The integrand is a trigonometric polynomial of
    frequencies below 2 (n - 1) pi / tau: Gauss-Legendre with 80 nodes
    integrates it to about 1e-14 for n <= 12.  No chain Hamiltonian and no
    propagator of pstsim enters.  ``codes`` lists the rows' inner
    bitstrings as integers, by default all 2^(n-2) of a table.
    """
    J = chains.pst_couplings(n, tau)
    lam, v = np.linalg.eigh(np.diag(J, 1) + np.diag(J, -1))
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = (x + 1) * tau / 2
    U = (v * np.exp(-1j * lam * t[:, None, None])) @ v.T           # (nodes, n, n)
    low = (np.arange(2 ** (n - 2)) if codes is None else np.asarray(codes)) << 1

    def phi(branches):
        occ = ((branches[:, None] >> np.arange(n - 1, -1, -1)) & 1).T.astype(float)
        g_diag = (np.abs(U) ** 2) @ occ                             # (nodes, n, rows)
        g_next = (U[:, :-1].conj() * U[:, 1:]) @ occ                # G_k,k+1
        pairs = g_diag[:, :-1] * g_diag[:, 1:] - np.abs(g_next) ** 2
        return np.einsum("t,k,tkr->r", w * tau / 2, np.asarray(zeta), pairs)

    return phi(low | 1 << (n - 1)) - phi(low)


def _first_order_gap(n, zeta):
    """Largest |deviation - free-fermion first order| over a ZZ table's rows."""
    rows = protocols.parity_phase_table(n, zeta=zeta)
    dev = np.array([row.deviation for row in rows])
    return np.abs(np.angle(np.exp(1j * (dev - _free_fermion_deviations(n, zeta))))).max()


@pytest.mark.parametrize("n", range(3, 13))
def test_zz_tables_match_free_fermions_to_third_order(n):
    # With eps = max |zeta_k| tau the first neglected term is third order:
    # the second cancels, as halving zeta divides the largest gap by 8 (a
    # wrong sign or a ZZ term on the wrong pair would leave a first-order
    # gap, halved with zeta).  Its coefficient stays below 1/50 for
    # n <= 12 (at most 7.8e-3 for a uniform zeta, at n = 4, and 1.2e-2 for
    # the mixed-sign profile, at n = 8), so every row is held to
    # eps^3 / 50: 5.2e-6 rad at eps = 0.064 and 1.3e-3 rad at the
    # -2 pi 100 kHz the other ZZ tests use (eps = 0.40).
    tau = 640e-9
    uniform = np.full(n - 1, -1e5)
    gap = _first_order_gap(n, tuple(uniform))
    assert gap < (1e5 * tau) ** 3 / 50
    assert gap / _first_order_gap(n, tuple(uniform / 2)) == pytest.approx(8.0, abs=0.2)
    mixed = 1e5 * np.cos(2.0 * np.arange(n - 1))       # both signs, no mirror symmetry
    # at n = 12, about 1 s a table, the small uniform zeta and its half only
    for zeta in (mixed, np.full(n - 1, -2 * pi * 100e3)) if n < 12 else ():
        assert _first_order_gap(n, tuple(zeta)) < (np.abs(zeta).max() * tau) ** 3 / 50


def test_zz_single_experiments_on_forty_sites_match_free_fermions():
    # one branch of each row in the 40-state one-excitation block, the other
    # in the 780-state two-excitation block; held to the same eps^3 / 50
    n, tau = 40, 640e-9
    zeta = 1e5 * np.cos(2.0 * np.arange(n - 1))
    inners = ["0" * 38, "1" + "0" * 37, "0" * 19 + "1" + "0" * 18, "0" * 37 + "1"]
    want = _free_fermion_deviations(n, zeta, codes=[int(inner, 2) for inner in inners])
    got = [protocols.parity_phase_experiment(n, inner, zeta=tuple(zeta))[0].deviation
           for inner in inners]
    eps = np.abs(zeta).max() * tau
    assert np.abs(np.angle(np.exp(1j * (np.array(got) - want)))).max() < eps**3 / 50
    assert abs(want[1]) > 1e-3          # sites 1 and 2 excited: a first-order phase


def test_zz_single_experiment_beyond_62_sites():
    # 70 sites: the branch blocks hold Python ints; one excitation feels no ZZ
    row = protocols.parity_phase_experiment(70, "0" * 68, ("-y",), zeta=(-6e5,) * 69)[0]
    assert (row.parity, row.deviation) == (1, 0.0)


def test_recorded_zz_slope_matches_free_fermions():
    # the slope test_parity_zz_deviation_grows_with_count records, from the
    # first-order free-fermion deviations: each per-count mean moves by at
    # most the eps^3 / 50 bound, so the slope of five counts 0..4 by at most
    # sum |c - 2| / sum (c - 2)^2 = 0.6 times it
    n, zeta = 6, (-2.0 * pi * 100e3,) * 5
    dev = np.abs(_free_fermion_deviations(n, zeta))
    counts = np.array([bin(code).count("1") for code in range(2 ** (n - 2))])
    means = [dev[counts == k].mean() for k in range(n - 1)]
    slope = np.polyfit(np.arange(n - 1), means, 1)[0]
    bound = 0.6 * (2 * pi * 100e3 * 640e-9) ** 3 / 50
    assert abs(slope - 0.129011) < bound + 1e-6


def _model_terms(n, model):
    """zeta and noise of a parity model: ideal, zz, relax or zz+relax."""
    zeta = (-2.0 * pi * 100e3,) * (n - 1) if "zz" in model else ()
    noise = (evolution.NoiseSpec(t1=tuple(np.linspace(10e-6, 40e-6, n)))
             if "relax" in model else None)
    return zeta, noise


@pytest.mark.parametrize("model", ["ideal", "zz", "relax", "zz+relax"])
@pytest.mark.parametrize("n", range(3, 9))
def test_parity_table_matches_single_experiments(n, model):
    # under ZZ or relaxation a single experiment is the one row of the sector
    # path, which propagates its two branches only, and the table propagates
    # every row's branches; ideal rows of both come from the closed form
    zeta, noise = _model_terms(n, model)
    rows = protocols.parity_phase_table(n, tuple(protocols.INPUT_PHASES), zeta=zeta,
                                        noise=noise)
    assert len(rows) == 4 * 2 ** (n - 2)
    # every inner bitstring once, the input state cycling through all four
    for row in (rows[4 * code + code % 4] for code in range(2 ** (n - 2))):
        single = protocols.parity_phase_experiment(n, row.inner, (row.input_state,),
                                                   zeta=zeta, noise=noise)[0]
        assert abs(protocols.wrap_phase(row.phase - single.phase)) < 1e-12


@pytest.mark.parametrize("model", ["ideal", "zz", "relax", "zz+relax"])
@pytest.mark.parametrize("n", range(3, 13))
def test_parity_table_equals_the_scalar_readout(n, model, monkeypatch):
    # each row read from its coherence one float at a time: cmath.phase and
    # the scalar wrap; and the fit means against per-count lists.  np.angle
    # differs from cmath.phase in the last bit on some ZZ rows, and a
    # bincount sum from the mean of a list on some counts, so all is held to
    # ==.  The ideal tables of n = 5 and 9 and the relaxed one of n = 9 hold
    # rows on the branch cut
    seen = []
    table = protocols._table
    monkeypatch.setattr(protocols, "_table",
                        lambda *args: seen.append(args) or table(*args))
    zeta, noise = _model_terms(n, model)
    inputs = tuple(protocols.INPUT_PHASES)
    rows = protocols.parity_phase_table(n, inputs, zeta=zeta, noise=noise)
    ((_, _, codes, coher),) = seen
    paired_angle = (pi, pi / 2, 0.0, -pi / 2)[n % 4]
    want = []
    for code, row in zip(codes.tolist(), coher.tolist()):
        inner = format(code, f"0{n - 2}b")
        parity = -1 if inner.count("1") % 2 else 1
        for inp, c in zip(inputs, row):
            phase = protocols.wrap_phase(protocols.INPUT_PHASES[inp] - cmath.phase(c))
            deviation = protocols.wrap_phase(phase - parity * pi / 2 + paired_angle)
            want.append((inner, inp, phase, parity, deviation))
    assert rows.tolist() == want
    if model in ("ideal", "relax") and n % 4 == 1:
        # the odd-parity rows, within rounding of +-pi
        assert sum(abs(abs(w[2]) - pi) < 1e-9 for w in want) == len(want) // 2
    if "zz" in model:
        # the fit of the first input's rows, as the CLI writes it, and of all
        for part in (rows[rows.input_state == "+x"], rows):
            by_count = {}
            for inner, _, _, _, deviation in part.tolist():
                by_count.setdefault(inner.count("1"), []).append(abs(deviation))
            fit = protocols.parity_deviation_fit(part)
            assert fit["counts"] == sorted(by_count)
            assert fit["mean_deviation_rad"] == [float(np.mean(by_count[k]))
                                                 for k in sorted(by_count)]


def _full_register_hamiltonian(spec, noise):
    """The chain H on the whole 2^n register, dense, relaxed when ``noise`` is given."""
    H = chains.chain_hamiltonian(spec).toarray()
    if noise is None:
        return H
    return evolution.add_relaxation(H, noise, statespace.occupation_matrix(spec.n_sites))


def _dense_parity_table(n, input_states, zeta, noise):
    """The table as it was first built: two columns of one dense 2^n x 2^n U per row."""
    spec = protocols._parity_spec(n, zeta, None)
    H = _full_register_hamiltonian(spec, noise)
    U = np.zeros(H.shape, dtype=complex)
    for idx, h in evolution._blocks(H):
        U[np.ix_(idx, idx)] = evolution._block_states(h[None], np.eye(len(idx))[None],
                                                      [spec.tau])[0, 0]
    rows = []
    for code in range(2 ** (n - 2)):
        inner = format(code, f"0{n - 2}b")
        low = code << 1
        for inp in input_states:
            weight = np.exp(1j * protocols.INPUT_PHASES[inp])
            state = U[:, low] / np.sqrt(2.0) + weight * U[:, low | 1 << (n - 1)] / np.sqrt(2.0)
            # site n's <X> + i<Y>, read off the whole 2^n state
            coher = 2.0 * np.vdot(state[0::2], state[1::2])
            phase = protocols.wrap_phase(protocols.INPUT_PHASES[inp] - cmath.phase(coher))
            rows.append((inner, inp, -1 if inner.count("1") % 2 else 1, phase))
    return np.rec.fromrecords(rows, names="inner,input_state,parity,phase")


@pytest.mark.parametrize("model", ["ideal", "zz", "relax", "zz+relax"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10])
def test_parity_table_equals_dense_propagator_table(n, model):
    # the sector table and the single experiments' two branch blocks against
    # the whole register's propagator; the single experiments on up to 16
    # rows spread over the table
    zeta, noise = _model_terms(n, model)
    inputs = tuple(protocols.INPUT_PHASES)
    rows = protocols.parity_phase_table(n, inputs, zeta=zeta, noise=noise)
    ref = _dense_parity_table(n, inputs, zeta, noise)
    assert [(r.inner, r.input_state, r.parity) for r in rows] == \
        [(r.inner, r.input_state, r.parity) for r in ref]
    assert max(abs(protocols.wrap_phase(a.phase - b.phase)) for a, b in zip(rows, ref)) < 1e-12
    for r in ref[::max(1, len(ref) // 16)]:
        single = protocols.parity_phase_experiment(n, r.inner, (r.input_state,), zeta=zeta,
                                                   noise=noise)[0]
        assert abs(protocols.wrap_phase(single.phase - r.phase)) < 1e-12


@pytest.mark.parametrize("n", range(3, 13))
def test_ideal_parity_table_matches_closed_form(n):
    # the block path of the ideal model, the numeric reference of the closed
    # form the table uses: the ideal transfer is chains.pst_state_map's signed
    # permutation, low and high land on mirror images that differ in site n
    # only, so every row's phase is -angle(p[high] conj(p[low])), whatever the
    # input phase
    targets, p = chains.pst_state_map(n)
    rows = protocols._block_table(protocols._parity_spec(n, (), None), None,
                                  tuple(protocols.INPUT_PHASES), np.arange(2 ** (n - 2)))
    low = np.array([int(r.inner, 2) << 1 for r in rows])
    high = low | 1 << (n - 1)
    assert np.array_equal(targets[high], targets[low] | 1)
    want = -np.angle(p[high] * p[low].conj())
    gap = np.angle(np.exp(1j * (np.array([r.phase for r in rows]) - want)))
    assert np.abs(gap).max() < 1e-12


@pytest.mark.parametrize("model", ["ideal", "zz"])
@pytest.mark.parametrize("n", [6, 9])
def test_parity_table_on_real_blocks_matches_complex_blocks(n, model, monkeypatch):
    # the block table of the real chain Hamiltonian against the block table of
    # its complex copy; relaxed models are left out, as add_relaxation makes
    # both complex
    zeta, noise = _model_terms(n, model)
    inputs = tuple(protocols.INPUT_PHASES)
    spec = protocols._parity_spec(n, zeta, None)
    codes = np.arange(2 ** (n - 2))
    rows = protocols._block_table(spec, noise, inputs, codes)
    build = chains.chain_block
    monkeypatch.setattr(chains, "chain_block",
                        lambda spec, states: build(spec, states).astype(complex))
    ref = protocols._block_table(spec, noise, inputs, codes)
    assert [(r.inner, r.input_state, r.parity) for r in rows] == \
        [(r.inner, r.input_state, r.parity) for r in ref]
    assert max(abs(protocols.wrap_phase(a.phase - b.phase)) for a, b in zip(rows, ref)) < 1e-12


def test_parity_without_coherence_raises():
    # a T1 of 2 ns empties every excited branch long before tau = 640 ns
    noise = evolution.NoiseSpec(t1=(2e-9,) * 4)
    with pytest.raises(RuntimeError, match="no x-y coherence"):
        protocols.parity_phase_table(4, noise=noise)
    with pytest.raises(RuntimeError, match="no x-y coherence"):
        protocols.parity_phase_experiment(4, "00", noise=noise)


def test_parity_table_peaks_below_one_dense_propagator():
    # one dense 2^11 complex U alone takes 64 MiB.  The ZZ table propagates
    # one excitation sector at a time, only its own table inputs: its traced
    # peak is 9.7 MiB, against 16.8 MiB when each sector's whole propagator
    # was built and 18.9 MiB when every sector's was kept to the end
    zeta, _ = _model_terms(11, "zz")
    tracemalloc.start()
    try:
        protocols.parity_phase_table(11, zeta=zeta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20


def test_parity_table_above_dense_guard_fails_fast():
    # with ZZ the table reads sector propagators: C(15, 7) = 6435 states in
    # the largest excitation sector
    zeta, _ = _model_terms(15, "zz")
    start = time.perf_counter()
    with pytest.raises(evolution.ResourceError, match="above dense guard"):
        protocols.parity_phase_table(15, zeta=zeta)
    assert time.perf_counter() - start < 1.0


def test_ideal_parity_table_above_the_dense_guard_is_exact():
    # the closed form builds no sector, so n = 16 runs; every factor of its
    # phases is a power of i, so every deviation is exactly zero
    rows = protocols.parity_phase_table(16)
    assert len(rows) == 2**14
    assert all(row.deviation == 0.0 for row in rows)


@pytest.mark.parametrize("n", [5, 9])
def test_ideal_rows_on_the_branch_cut_read_plus_pi(n):
    # at n = 1 mod 4 an odd-parity row's ideal phase is pi; the closed form
    # puts every such row on the same side of the cut
    rows = protocols.parity_phase_table(n, tuple(protocols.INPUT_PHASES))
    on_cut = [row for row in rows if abs(protocols.wrap_phase(row.phase - pi)) < 1e-9]
    assert len(on_cut) == len(rows) // 2
    assert all(row.phase == pi for row in on_cut)


def test_parity_row_guard_fails_fast(monkeypatch):
    # 2^38 rows, and 2^(10^7 - 2): the guard is checked before any array of
    # the table exists, and before the chain spec's n - 1 couplings
    monkeypatch.setattr(chains, "pst_state_map", None)
    for n in (40, 10**7):
        start = time.perf_counter()
        with pytest.raises(evolution.ResourceError, match="row guard"):
            protocols.parity_phase_table(n)
        assert time.perf_counter() - start < 1.0


def test_ideal_parity_experiment_maps_only_its_two_branches():
    # 2^40 states in the register; the closed form maps the two input branches
    row = protocols.parity_phase_experiment(40, "0" * 38)[0]
    assert (row.parity, row.phase, row.deviation) == (1, -pi / 2, 0.0)
    row = protocols.parity_phase_experiment(40, "1" + "0" * 37, ("-y",))[0]
    assert (row.parity, row.deviation) == (-1, 0.0)


def test_parity_errors():
    with pytest.raises(ValueError):
        protocols.parity_phase_experiment(2, "")
    with pytest.raises(ValueError):
        protocols.parity_phase_experiment(5, "10")
    with pytest.raises(ValueError):
        protocols.parity_phase_experiment(5, "102")
    with pytest.raises(ValueError):
        protocols.parity_phase_experiment(5, "101", ("up",))
    with pytest.raises(ValueError, match="zz values"):
        protocols.parity_phase_experiment(5, "101", zeta=(1.0,))
    # a bare string is no sequence of input states, at either entry point
    with pytest.raises(TypeError, match=r"such as \('\+x',\), got the string '\+x'"):
        protocols.parity_phase_experiment(5, "101", "+x")
    with pytest.raises(TypeError, match=r"such as \('\+x',\), got the string '\+x'"):
        protocols.parity_phase_table(5, "+x")


# -------------------------------------------------------------------- run_pst


def test_run_pst_site_and_bitstring_agree():
    # site k is the bitstring with one excitation at k: one path, the same bits
    spec = chains.ChainSpec.pst(4, 640e-9)
    times = np.linspace(0.0, spec.tau, 9)
    a = protocols.run_pst(spec, 2, times)
    b = protocols.run_pst(spec, "0100", times)
    np.testing.assert_array_equal(a.populations, b.populations)
    np.testing.assert_array_equal(a.norm, b.norm)
    with pytest.raises(ValueError, match="neither a site nor 4 occupations"):
        protocols.run_pst(spec, "010", times)
    with pytest.raises(ValueError, match="outside 1..4"):
        protocols.run_pst(spec, 5, times)


def _full_register_run(spec, bits, times, noise):
    """The trajectory of a start evolved on the whole 2^n register."""
    n = spec.n_sites
    psi0 = np.zeros(2**n, dtype=complex)
    psi0[int(bits, 2)] = 1.0
    return evolution.evolve(_full_register_hamiltonian(spec, noise), psi0, times,
                            occupations=statespace.occupation_matrix(n))


def _block_reference_specs(n, rng):
    """PST, FST, PST with ZZ and PST with one zero coupling on n sites."""
    pst = chains.ChainSpec.pst(n, 640e-9)
    cut = list(pst.couplings)
    cut[rng.integers(n - 1)] = 0.0
    return [pst, chains.ChainSpec.fst(n, 640e-9, 0.6 * pi),
            pst.with_zz(rng.uniform(-2e6, 2e6, n - 1)),
            chains.ChainSpec(couplings=cut, tau=pst.tau)]


@pytest.mark.parametrize("n", range(2, 11))
def test_block_run_matches_the_full_register(n):
    # odd and even n cover both FST branches; T1 acts on every site; each
    # spec also starts from one site, given as its index
    rng = np.random.default_rng(n)
    times = np.linspace(0.0, 1.5 * 640e-9, 7)
    noise = evolution.NoiseSpec(t1=tuple(rng.uniform(0.2e-6, 2e-6, n)))
    for i, spec in enumerate(_block_reference_specs(n, rng)):
        site = 1 + i % n
        starts = {format(int(x), f"0{n}b") for x in rng.integers(0, 2**n, 4)} | {site}
        for start, relax in itertools.product(starts, (None, noise)):
            bits = start if isinstance(start, str) else format(1 << (n - site), f"0{n}b")
            got = protocols.run_pst(spec, start, times, noise=relax)
            want = _full_register_run(spec, bits, times, relax)
            np.testing.assert_allclose(got.populations, want.populations,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.norm, want.norm, rtol=0, atol=1e-12)


def test_noisy_single_excitation_guard_trips_without_dense_occupations():
    # the relaxation occupations of the n-site sector must not be a dense
    # n x n array: at n = 5000 that alone is 200 MB before the guard trips
    n = 5000
    spec = chains.ChainSpec.pst(n, 1e-6)
    noise = evolution.NoiseSpec(t1=(1e-5,) * n)
    tracemalloc.start()
    try:
        with pytest.raises(evolution.ResourceError, match="above dense guard"):
            protocols.run_pst(spec, 1, [0.0, 1e-6], noise=noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def _with_and_without_zz():
    ideal = chains.ChainSpec.pst(4, 640e-9)
    return ideal.with_zz((-2.0 * pi * 150e3,) * 3), ideal


def test_single_excitation_ignores_zz():
    spec, ideal = _with_and_without_zz()
    times = np.linspace(0.0, spec.tau, 17)
    np.testing.assert_allclose(protocols.run_pst(spec, 1, times).populations,
                               protocols.run_pst(ideal, 1, times).populations, atol=1e-10)


def test_two_excitations_feel_the_spec_zz():
    # ZZ acts whenever the spec carries it: no separate switch turns it on
    spec, ideal = _with_and_without_zz()
    times = np.linspace(0.0, spec.tau, 17)
    zz = protocols.run_pst(spec, "1100", times)
    plain = protocols.run_pst(ideal, "1100", times)
    assert np.max(np.abs(zz.populations - plain.populations)) > 1e-3
    np.testing.assert_allclose(zz.norm, 1.0, atol=1e-12)


# ---------------------------------------------------------------- double FST


def _with_full_register_transfer(monkeypatch, spec, noise):
    """Make evolution.evolve_blocks ignore its blocks and evolve the whole
    2^n register of ``spec`` instead, as the GHZ and double-FST runs did."""
    H = _full_register_hamiltonian(spec, noise)
    assemble = evolution.evolve_blocks      # what evolve(H, psi, times) runs on H's blocks
    monkeypatch.setattr(evolution, "evolve_blocks", lambda blocks, psi, times: assemble(
        evolution._blocks(H, np.asarray(psi, dtype=complex)), psi, times))


def test_double_fst_sectors_equal_the_full_register(monkeypatch):
    legs = [protocols.double_fst_parity_experiment(m) for m in (False, True)]
    _with_full_register_transfer(monkeypatch, chains.ChainSpec.fst(3, 350e-9, pi / 2), None)
    for m, got in zip((False, True), legs):
        np.testing.assert_array_equal(got, protocols.double_fst_parity_experiment(m))


def _ghz_scenarios():
    """Ideal, ZZ during the transfer and T1 GHZ scenarios of 2..8 sites, and the paper's."""
    out = [protocols.paper_ghz_scenario()]
    for n in range(2, 9):
        zeta = tuple(np.linspace(-3e6, 2e6, n - 1))
        out += [protocols.GHZScenario(n=n),
                protocols.GHZScenario(n=n, zeta=zeta, zz_application="transfer")]
        if n < 8:
            # at 8 sites the rates sum 8 terms per state, and gemv rounds such
            # a row by where it falls among the rows of one call
            out.append(protocols.GHZScenario(n=n, t1=tuple(np.linspace(10e-6, 60e-6, n))))
    return out


@pytest.mark.parametrize("scenario", _ghz_scenarios(), ids=lambda s: s.label or (
    f"{s.n}-" + ("t1" if s.t1 else "zz" if s.zeta else "ideal")))
def test_run_ghz_sectors_equal_the_full_register(scenario, monkeypatch):
    # the probabilities feed the tomography's multinomial draws: bit for bit
    state = protocols.run_ghz(scenario).state
    spec = chains.ChainSpec.pst(scenario.n, scenario.tau)
    if scenario.zz_application == "transfer":
        spec = spec.with_zz(scenario.zeta)
    _with_full_register_transfer(monkeypatch, spec, scenario.noise())
    want = protocols.run_ghz(scenario).state
    np.testing.assert_array_equal(state, want)
    np.testing.assert_array_equal(np.abs(state) ** 2, np.abs(want) ** 2)


def test_double_fst_transfer_and_refocus():
    transfer = protocols.double_fst_parity_experiment(False)
    refocus = protocols.double_fst_parity_experiment(True)
    assert transfer.shape == (3,)
    assert transfer[2] >= 1.0 - 1e-8
    assert refocus[0] >= 1.0 - 1e-8


# ---------------------------------------------------------------- graph state


@pytest.mark.parametrize("n", range(2, 11))
def test_graph_state_edges_cover_complete_graph(n):
    rep = protocols.graph_state_edges(n)
    complete = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    assert rep.union() == complete
    assert not set(rep.iswap_edges) & set(rep.cz_edges)
    assert all(a < b for a, b in rep.iswap_edges + rep.cz_edges)


# -------------------------------------------------------------------- run_ghz


def test_run_ghz_ideal():
    for n in (2, 3, 4, 5):
        rep = protocols.run_ghz(protocols.GHZScenario(n=n))
        assert rep.fidelity == pytest.approx(1.0, abs=1e-9)
        assert rep.norm == pytest.approx(1.0, abs=1e-9)


def test_run_ghz_published_scenario_frozen():
    rep = protocols.run_ghz(protocols.paper_ghz_scenario())
    assert rep.fidelity == pytest.approx(0.895497616382366, abs=1e-9)
    assert rep.fidelity_opt == pytest.approx(0.9272091070746482, abs=1e-9)
    assert rep.phi_opt == pytest.approx(-0.37201176527768975, abs=1e-9)
    assert rep.norm == pytest.approx(0.9277795000483815, abs=1e-9)
    d = rep.as_dict()
    assert "state" not in d
    assert d["fidelity"] == rep.fidelity


def test_ghz_scenario_validation():
    with pytest.raises(ValueError):
        protocols.GHZScenario(n=1)
    with pytest.raises(ValueError):
        protocols.GHZScenario(n=3, t1=(1e-5,))
    with pytest.raises(ValueError):
        protocols.GHZScenario(n=3, zeta=(1.0,))
    with pytest.raises(ValueError):
        protocols.GHZScenario(n=3, zz_application="middle")
