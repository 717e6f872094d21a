import ast
import itertools
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import expm

import pstsim
from pstsim import evolution, serialize, statespace
from pstsim.models import chains

SRC = Path(pstsim.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _random_hermitian(rng, dim, scale=1e6):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (A + A.conj().T) * scale


def _basis(dim, k=0):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def _spread_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("method", ["dense-expm", "krylov"])
def test_methods_agree_with_exact_exponential(method):
    rng = np.random.default_rng(3)
    H = _random_hermitian(rng, 8)
    psi0 = _basis(8)
    times = np.linspace(0.0, 3e-6, 7)
    opts = evolution.EvolutionOptions(method=method)
    traj = evolution.evolve(H, psi0, times, opts)
    for t, state in zip(times, traj.states):
        np.testing.assert_allclose(state, expm(-1j * H * t) @ psi0, atol=1e-7)


def test_trajectory_populations_and_norm():
    spec = chains.ChainSpec.pst(4, 640e-9)
    H = chains.chain_hamiltonian(spec)
    psi0 = _basis(16, 0b1000)
    times = np.linspace(0.0, 640e-9, 9)
    traj = evolution.evolve(H, psi0, times,
                            occupations=statespace.occupation_matrix(4))
    assert traj.populations.shape == (9, 4)
    np.testing.assert_allclose(traj.norm, 1.0, atol=1e-9)
    assert traj.populations[-1, 3] == pytest.approx(1.0, abs=1e-9)


def test_norm_tracks_decay_single_site():
    noise = evolution.NoiseSpec(t1=(12.1e-6,))
    H = evolution.add_relaxation(np.zeros((2, 2)), noise,
                                 statespace.occupation_matrix(1))
    times = np.array([0.0, 12.1e-6])
    traj = evolution.evolve(H, _basis(2, 1), times,
                            occupations=statespace.occupation_matrix(1))
    # amplitude norm decays at half the population rate
    assert traj.norm[-1] == pytest.approx(np.exp(-0.5), abs=1e-9)
    assert traj.populations[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)


def test_decay_conventions():
    t1 = 5e-6
    assert evolution.decay_rates(evolution.NoiseSpec(t1=(t1,)))[0] == \
        pytest.approx(1 / (2 * t1))
    assert evolution.decay_rates(
        evolution.NoiseSpec(t1=(t1,), decay_convention="rate-2pi"))[0] == \
        pytest.approx(np.pi / t1)
    with pytest.raises(ValueError):
        evolution.NoiseSpec(t1=(t1,), decay_convention="half")
    with pytest.raises(ValueError):
        evolution.NoiseSpec(t1=(0.0,))


def test_add_relaxation_shapes_and_signs():
    spec = chains.ChainSpec.pst(3, 1e-6)
    H = chains.chain_hamiltonian(spec).toarray()
    noise = evolution.NoiseSpec(t1=(1e-6, 2e-6, 3e-6))
    Heff = evolution.add_relaxation(H, noise, statespace.occupation_matrix(3))
    anti = (Heff - Heff.conj().T) / 2j
    assert np.all(np.linalg.eigvalsh(anti) <= 1e-12)
    with pytest.raises(ValueError):
        evolution.add_relaxation(H, evolution.NoiseSpec(t1=(1e-6,)),
                                 statespace.occupation_matrix(3))


def test_add_relaxation_matches_the_full_register():
    # a relaxed chain block (1, 7 and 21 states) is the block of the relaxed
    # full-register H, built in its sparse.diags form, entry for entry and
    # sign of zero, with and without a ZZ diagonal; the one-state block's
    # one-row rate sum would go to dot, which rounds it another way
    noise = evolution.NoiseSpec(t1=tuple(np.linspace(1e-6, 9e-6, 7)))
    rates = statespace.occupation_matrix(7) @ evolution.decay_rates(noise)
    pst = chains.ChainSpec.pst(7, 1e-6)
    for spec, start in itertools.product((pst, pst.with_zz(np.linspace(2e5, 9e5, 6))),
                                         ("1111111", "1111110", "1100000")):
        states = chains.block_states(spec, start)[::-1]
        got = evolution.add_relaxation(chains.chain_block(spec, states), noise,
                                       statespace.occupation_rows(states, 7).astype(float))
        H = chains.chain_hamiltonian(spec)
        want = (H - 1j * sparse.diags(rates.astype(complex))).toarray()[np.ix_(states, states)]
        assert got.dtype == complex
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got.real), np.signbit(want.real))
        np.testing.assert_array_equal(np.signbit(got.imag), np.signbit(want.imag))


def test_krylov_matches_dense_on_sparse_chain(monkeypatch):
    spec = chains.ChainSpec.pst(10, 640e-9)
    H = chains.chain_hamiltonian(spec)
    psi0 = _spread_state(np.random.default_rng(5), 2**10)
    times = np.linspace(0.0, 2 * 640e-9, 9)
    dense = evolution.evolve(H, psi0, times)
    # a guard of 0 puts every touched block, all eleven sectors, above it
    monkeypatch.setattr(evolution, "DENSE_GUARD", 0)
    operands = _record_expm_multiply(monkeypatch)
    krylov = evolution.evolve(H, psi0, times,
                              evolution.EvolutionOptions(method="krylov"))
    assert len(operands) == 11 * (len(times) - 1)
    np.testing.assert_allclose(krylov.states, dense.states, rtol=0, atol=1e-10)


def _record_expm_multiply(monkeypatch):
    operands = []
    kernel = evolution.expm_multiply
    monkeypatch.setattr(evolution, "expm_multiply",
                        lambda A, v: operands.append(A) or kernel(A, v))
    return operands


def test_krylov_steps_only_the_touched_sector(monkeypatch):
    # |110000000000> lives in the 66-state two-excitation sector of 4096 states
    H = chains.chain_hamiltonian(chains.ChainSpec.pst(12, 640e-9))
    psi0 = _basis(2**12, 0b110000000000)
    times = np.linspace(0.0, 2 * 640e-9, 9)
    eigen = evolution.evolve(H, psi0, times)
    monkeypatch.setattr(evolution, "DENSE_GUARD", 65)
    operands = _record_expm_multiply(monkeypatch)
    krylov = evolution.evolve(H, psi0, times, evolution.EvolutionOptions(method="krylov"))
    assert len(operands) == len(times) - 1
    assert {A.shape for A in operands} == {(66, 66)}
    np.testing.assert_allclose(krylov.states, eigen.states, rtol=0, atol=1e-10)


def test_krylov_below_dense_guard_is_the_eigen_path(monkeypatch):
    # under the default guard the 66-state sector takes the exact kernel
    operands = _record_expm_multiply(monkeypatch)
    H = chains.chain_hamiltonian(chains.ChainSpec.pst(12, 640e-9))
    psi0 = _basis(2**12, 0b110000000000)
    times = np.linspace(0.0, 2 * 640e-9, 41)
    krylov = evolution.evolve(H, psi0, times, evolution.EvolutionOptions(method="krylov"))
    assert operands == []
    np.testing.assert_array_equal(krylov.states, evolution.evolve(H, psi0, times).states)


def test_krylov_steps_only_blocks_above_a_lowered_guard(monkeypatch):
    # 6 sites, one state in every sector: blocks of 1, 6, 15, 20, 15, 6 and 1
    # states; a guard of 6 steps the 15-, 20- and 15-state blocks only
    H = chains.chain_hamiltonian(chains.ChainSpec.pst(6, 640e-9))
    psi0 = _spread_state(np.random.default_rng(4), 64)
    times = np.linspace(0.0, 640e-9, 5)
    eigen = evolution.evolve(H, psi0, times)
    monkeypatch.setattr(evolution, "DENSE_GUARD", 6)
    operands = _record_expm_multiply(monkeypatch)
    krylov = evolution.evolve(H, psi0, times, evolution.EvolutionOptions(method="krylov"))
    assert sorted(A.shape[0] for A in operands) == sorted([15, 20, 15] * (len(times) - 1))
    assert all(sparse.issparse(A) for A in operands)
    np.testing.assert_allclose(krylov.states, eigen.states, rtol=0, atol=1e-10)
    small = np.array([bin(k).count("1") in (0, 1, 5, 6) for k in range(64)])
    np.testing.assert_array_equal(krylov.states[:, small], eigen.states[:, small])


def test_krylov_matches_eigen_on_relaxed_chain(monkeypatch):
    # non-Hermitian blocks, and a state with support in all seven sectors
    noise = serialize.load_noise(CONFIGS / "noise_t1.json")
    H = evolution.add_relaxation(chains.chain_hamiltonian(chains.ChainSpec.pst(6, 640e-9)).toarray(),
                                 noise, statespace.occupation_matrix(6))
    psi0 = _spread_state(np.random.default_rng(9), 64)
    times = np.linspace(0.0, 2 * 640e-9, 7)
    eigen = evolution.evolve(H, psi0, times)
    monkeypatch.setattr(evolution, "DENSE_GUARD", 0)
    operands = _record_expm_multiply(monkeypatch)
    krylov = evolution.evolve(H, psi0, times, evolution.EvolutionOptions(method="krylov"))
    assert len(operands) == 7 * (len(times) - 1)
    np.testing.assert_allclose(krylov.states, eigen.states, rtol=0, atol=1e-10)
    assert krylov.norm[-1] < 1 - 1e-3


def test_krylov_runs_above_dense_guard(monkeypatch):
    # the 10-state two-excitation block of 5 sites is above a guard of 8:
    # the eigen path refuses it, Krylov steps it as a sparse slice
    monkeypatch.setattr(evolution, "DENSE_GUARD", 8)
    operands = _record_expm_multiply(monkeypatch)
    H = chains.chain_hamiltonian(chains.ChainSpec.pst(5, 640e-9))
    psi0 = _basis(32, 0b11000)
    times = np.linspace(0.0, 640e-9, 5)
    traj = evolution.evolve(H, psi0, times, evolution.EvolutionOptions(method="krylov"))
    assert operands and all(sparse.issparse(A) and A.shape == (10, 10) for A in operands)
    for t, state in zip(times, traj.states):
        np.testing.assert_allclose(state, expm(-1j * H.toarray() * t) @ psi0,
                                   rtol=0, atol=1e-10)


@pytest.mark.parametrize("method", ["dense-expm", "krylov"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evolve_rejects_non_finite_times(method, bad):
    H = chains.chain_hamiltonian(chains.ChainSpec.pst(4, 640e-9))
    with pytest.raises(ValueError, match=f"times must be finite, got {bad}"):
        evolution.evolve(H, _basis(16, 0b1000), [0.0, bad],
                         evolution.EvolutionOptions(method=method))


def test_dense_guard_trips(monkeypatch):
    # the guard bounds the largest block that is diagonalised, so it needs
    # a connected matrix: np.eye(16) is sixteen 1x1 blocks
    monkeypatch.setattr(evolution, "DENSE_GUARD", 8)
    H = _random_hermitian(np.random.default_rng(2), 16)
    with pytest.raises(evolution.ResourceError):
        evolution.evolve(H, _basis(16), [0.0, 1e-9])


def test_dense_guard_counts_only_touched_blocks(monkeypatch):
    # 5 sites: the one-excitation sector has 5 states, the two-excitation 10
    monkeypatch.setattr(evolution, "DENSE_GUARD", 8)
    H = chains.chain_hamiltonian(chains.ChainSpec.pst(5, 640e-9))
    traj = evolution.evolve(H, _basis(32, 0b10000), [0.0, 640e-9])
    assert abs(traj.states[-1, 0b00001]) ** 2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(evolution.ResourceError):
        evolution.evolve(H, _basis(32, 0b11000), [0.0, 640e-9])


def test_output_guard_trips_before_allocating(monkeypatch):
    # 4097 one-state blocks at 4097 times: 16 785 409 amplitudes, one above
    # the guard; the guard is fixed at import, so a lowered DENSE_GUARD
    # leaves it alone
    assert evolution.OUTPUT_GUARD == 4096**2
    H = sparse.diags(np.arange(4097.0)).tocsr()
    times = np.linspace(0.0, 1e-6, 4097)
    with pytest.raises(evolution.ResourceError, match="above the output guard of 16777216"):
        evolution.evolve(H, _basis(4097), times)
    monkeypatch.setattr(evolution, "DENSE_GUARD", 8)
    traj = evolution.evolve(H[:16, :16], _basis(16), times[:10])
    assert traj.states.shape == (10, 16) and 10 * 16 > 8**2
    np.testing.assert_allclose(traj.norm, 1.0, rtol=0, atol=1e-12)


def test_dense_guard_trips_before_the_output_guard():
    # both guards fail: the largest block is the cause worth reporting
    H = sparse.diags(np.ones(4999), 1, shape=(5000, 5000)).tocsr()
    with pytest.raises(evolution.ResourceError, match="above dense guard 4096"):
        evolution.evolve(H + H.T, _basis(5000), np.linspace(0.0, 1e-6, 5000))


# ------------------------------------------- a stack vs one-block calls

@pytest.mark.parametrize("d", [1, 4, 13, 14, 16])
@pytest.mark.parametrize("m", [None, 1, 3])
def test_block_steps_equal_the_eigen_kernel(d, m):
    # each item of a stack of 1 to 7 blocks, one state or a matrix of m
    # states each, is bit for bit a one-block stack of that block: at one
    # time per block, and on a grid of 5 times shared by every block; for
    # real symmetric stacks (real eigenvectors) and complex Hermitian ones
    rng = np.random.default_rng(10 * d + (m or 0))
    for c in range(1, 8):
        shape = (c, d) if m is None else (c, d, m)
        states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for hs in (np.array([_symmetric_block(rng, d) for _ in range(c)]),
                   np.array([_random_hermitian(rng, d, scale=1e9) for _ in range(c)])):
            for times in (rng.uniform(1e-12, 1e-10, (c, 1)), np.linspace(0.0, 1e-10, 5)):
                got = evolution._block_states(hs, states, times)
                grids = times if times.ndim == 2 else [times] * c
                want = [evolution._block_states(h[None], s[None], x)[0]
                        for h, s, x in zip(hs, states, grids)]
                np.testing.assert_array_equal(got, want)


# ------------------------------------------- real chain blocks vs their complex copies

def test_chain_builders_are_real_and_relaxation_complex():
    spec = chains.ChainSpec.fst(5, 640e-9, 0.6 * np.pi).with_zz((-2 * np.pi * 1e5,) * 4)
    H = chains.chain_hamiltonian(spec)
    assert H.dtype == np.float64
    assert chains.chain_block(spec, chains.block_states(spec, "01000")).dtype == np.float64
    noise = evolution.NoiseSpec(t1=(1e-5,) * 5)
    occ = statespace.occupation_matrix(5)
    assert evolution.add_relaxation(H.toarray(), noise, occ).dtype == np.complex128


@pytest.mark.parametrize("spec", [
    chains.ChainSpec.pst(7, 640e-9),
    chains.ChainSpec.fst(7, 640e-9, 0.6 * np.pi),          # odd n: nonzero detunings
    chains.ChainSpec.pst(6, 640e-9).with_zz((-2 * np.pi * 1e5,) * 5),
], ids=["pst", "fst-odd", "zz"])
def test_real_chain_blocks_match_their_complex_copies(spec):
    # every block through the real eigh against the complex eigh of the same
    # block, for its propagator columns and for one complex state
    rng = np.random.default_rng(spec.n_sites)
    H = chains.chain_hamiltonian(spec)
    times = np.linspace(0.0, 2 * spec.tau, 5)
    blocks = list(evolution._blocks(H))
    assert sum(len(idx) for idx, _ in blocks) == 2**spec.n_sites
    for idx, h in blocks:
        assert h.dtype == np.float64
        for states in (np.eye(len(idx))[None], _spread_state(rng, len(idx))[None]):
            np.testing.assert_allclose(
                evolution._block_states(h[None], states, times),
                evolution._block_states(h.astype(complex)[None], states, times),
                rtol=0, atol=1e-12)


# ------------------------------------------- Chebyshev steps vs the eigen kernel

def _symmetric_block(rng, d, scale=1e9):
    """Real symmetric d x d block with couplings of order ``scale`` on a spread diagonal."""
    A = rng.normal(size=(d, d)) * scale
    return (A + A.T) / 2 + np.diag(rng.normal(size=d) * 10 * scale + 30 * scale)


@pytest.mark.parametrize("d", [16, 40, 121, 200])
def test_chebyshev_state_matches_eigen_kernel(d):
    # h r from 0.01 to 50 on real symmetric blocks, and on a Hermitian one
    rng = np.random.default_rng(d)
    for x in (0.01, 0.1, 1.0, 3.0, 10.0, 50.0):
        for h in (_symmetric_block(rng, d), _random_hermitian(rng, d, scale=1e9)):
            t = x / evolution._gershgorin(h)[1]
            psi = _spread_state(rng, d)
            np.testing.assert_allclose(evolution._chebyshev_state(h, psi, t),
                                       evolution._block_states(h[None], psi[None], [t])[0, 0],
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 5])
def test_chebyshev_state_on_a_multiple_of_the_identity(d):
    # r = 0: the series is its first term and the step only turns the phase
    h = 7e9 * np.eye(d)
    assert evolution._gershgorin(h) == (7e9, 0.0)
    psi = _spread_state(np.random.default_rng(d), d)
    np.testing.assert_allclose(evolution._chebyshev_state(h, psi, 3e-10),
                               evolution._block_states(h[None], psi[None], [3e-10])[0, 0],
                               rtol=0, atol=1e-13)


def test_chebyshev_terms_bound_the_bessel_coefficients():
    # every coefficient 2 |J_k(x)| from K on is below eps, and K is at most
    # a tenth above the true count
    from scipy.special import jv

    for x in (0.0, 1e-3, 0.5, 2.0, 7.0, 30.0, 50.0):
        k = evolution._chebyshev_terms(x)
        above = 2 * np.abs(jv(np.arange(k + 40), x)) >= evolution._EPS
        true = np.flatnonzero(above)[-1] + 1
        assert true <= k <= 1.1 * true, x


def test_chebyshev_reach_is_the_cost_rule():
    # h r < _chebyshev_reach(d) exactly when the bound's term count K has 2K < d
    for d in (1, 2, 3, 14, 16, 121, 122, 400):
        reach = evolution._chebyshev_reach(d)
        for x in np.geomspace(1e-4, 200.0, 400):
            if abs(x - reach) > 1e-9 * reach:
                assert (x < reach) == (2 * evolution._chebyshev_terms(x) < d), (d, x)
    assert evolution._chebyshev_reach(2) == 0.0
    # the device model's blocks: 14 states need h r below about 0.01, 121 below about 25
    assert 0.005 < evolution._chebyshev_reach(14) < 0.02
    assert 20.0 < evolution._chebyshev_reach(121) < 30.0


# ------------------------------------------------ block propagation vs expm

def _block_propagator(H, t):
    """exp(-i H t), assembled from every block's matrix-psi0 kernel on the identity."""
    U = np.zeros(H.shape, dtype=complex)
    for idx, h in evolution._blocks(H):
        U[np.ix_(idx, idx)] = evolution._block_states(h[None], np.eye(len(idx))[None], [t])[0, 0]
    return U


def _assert_matches_expm(H, psi0, times, atol=1e-10):
    Hd = H.toarray() if hasattr(H, "toarray") else np.asarray(H)
    traj = evolution.evolve(H, psi0, times)
    for t, state in zip(times, traj.states):
        np.testing.assert_allclose(state, expm(-1j * Hd * t) @ psi0, rtol=0, atol=atol)


@pytest.mark.parametrize("n", range(2, 7))
def test_full_space_chain_matches_expm(n):
    # detunings and ZZ shifts on top of the transfer profile
    spec = chains.ChainSpec(couplings=chains.pst_couplings(n, 640e-9), tau=640e-9,
                            detunings=np.linspace(-1e6, 1e6, n), zz=np.full(n - 1, -2e5))
    H = chains.chain_hamiltonian(spec)
    psi0 = _spread_state(np.random.default_rng(n), H.shape[0])
    _assert_matches_expm(H, psi0, np.linspace(0.0, 2 * 640e-9, 7))


@pytest.mark.parametrize("t1", [None, (20e-6,) * 6], ids=["noise_t1", "equal_t1"])
def test_relaxation_matches_expm(t1):
    noise = (serialize.load_noise(CONFIGS / "noise_t1.json") if t1 is None
             else evolution.NoiseSpec(t1=t1))
    H = evolution.add_relaxation(chains.chain_hamiltonian(chains.ChainSpec.pst(6, 640e-9)).toarray(),
                                 noise, statespace.occupation_matrix(6))
    psi0 = _spread_state(np.random.default_rng(7), 64)
    _assert_matches_expm(H, psi0, np.linspace(0.0, 2 * 640e-9, 7))
    np.testing.assert_allclose(_block_propagator(H, 640e-9),
                               expm(-1j * H * 640e-9), rtol=0, atol=1e-10)


@pytest.mark.parametrize("form", ["dense", "csr", "duplicated csr"])
def test_imaginary_couplings_and_duplicate_entries(form):
    # purely imaginary couplings are edges of the pattern; a non-canonical
    # sparse H stores one coupling as two halves that must add up
    g = 1e6
    H = np.array([[0.0, 1j * g, 0.0, 0.0], [-1j * g, 3e5, 2j * g, 0.0],
                  [0.0, -2j * g, 0.0, 0.0], [0.0, 0.0, 0.0, 1e5]])
    Hin = H
    if form != "dense":
        row, col = np.nonzero(H)
        val = H[row, col]
        if form == "duplicated csr":
            row, col, val = np.repeat(row, 2), np.repeat(col, 2), np.repeat(val, 2) / 2
        indptr = np.searchsorted(row, np.arange(5))
        Hin = sparse.csr_matrix((val, col, indptr), shape=H.shape)
        assert Hin.has_canonical_format == (form == "csr")
    psi0 = _spread_state(np.random.default_rng(4), 4)
    _assert_matches_expm(Hin, psi0, np.linspace(0.0, 2e-6, 5))
    np.testing.assert_allclose(_block_propagator(Hin, 1e-6), expm(-1j * H * 1e-6),
                               rtol=0, atol=1e-10)
    # sites 0-2 form one block, site 3 its own
    assert sorted(len(idx) for idx, _ in evolution._blocks(Hin)) == [1, 3]


def test_exceptional_point_falls_back_to_expm(monkeypatch):
    # [[0, g], [g, -2ig]] has one doubly degenerate eigenvalue and one eigenvector
    g = 1e6
    H = np.array([[0.0, g], [g, -2j * g]])
    calls = []
    monkeypatch.setattr(evolution, "expm", lambda a: calls.append(a) or expm(a))
    times = np.linspace(0.0, 3e-6, 7)
    traj = evolution.evolve(H, _basis(2), times)
    assert len(calls) == len(times)
    for t, state in zip(times, traj.states):
        np.testing.assert_allclose(state, expm(-1j * H * t)[:, 0], rtol=0, atol=1e-10)


def test_stack_falls_back_to_expm_only_for_its_exceptional_blocks(monkeypatch):
    # a non-Hermitian stack of the exceptional block and a decaying one, each
    # with its own grid: the first takes expm at each of its times, and both
    # items equal their one-block stacks
    g = 1e6
    hs = np.array([[[0.0, g], [g, -2j * g]], [[0.0, g], [g, -0.5j * g]]])
    states = np.array([[1.0, 0.0], [0.6, 0.8j]])
    times = np.array([np.linspace(0.0, 3e-6, 4), np.linspace(1e-6, 2e-6, 4)])
    calls = []
    monkeypatch.setattr(evolution, "expm", lambda a: calls.append(a) or expm(a))
    got = evolution._block_states(hs, states, times)
    assert len(calls) == 4
    for h, s, grid, item in zip(hs, states, times, got):
        np.testing.assert_array_equal(item, evolution._block_states(h[None], s[None], grid)[0])
        for t, state in zip(grid, item):
            np.testing.assert_allclose(state, expm(-1j * h * t) @ s, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("theta", [0.0, np.pi / 2, np.pi])
def test_fst_chain_matches_expm(n, theta):
    H = chains.chain_hamiltonian(chains.ChainSpec.fst(n, 640e-9, theta))
    psi0 = _spread_state(np.random.default_rng(n), 2**n)
    _assert_matches_expm(H, psi0, np.linspace(0.0, 2 * 640e-9, 5))


def test_uniform_grid_matches_stepped_expm():
    # the replaced dense path stepped one exp(-i H dt) along the grid
    H = chains.chain_hamiltonian(chains.ChainSpec.pst(8, 640e-9))
    psi0 = _spread_state(np.random.default_rng(8), 256)
    times = np.linspace(0.0, 2 * 640e-9, 241)
    step = expm(-1j * H.toarray() * (times[1] - times[0]))
    traj = evolution.evolve(H, psi0, times)
    psi = psi0
    for state in traj.states:
        np.testing.assert_allclose(state, psi, rtol=0, atol=1e-10)
        psi = step @ psi


@pytest.mark.parametrize("name, allowed", [
    ("expm", {"evolution.py"}),   # evolution exponentiates every static Hamiltonian
    ("kron", set()),              # the device basis is built from its digits, not embedded
    # one eigen kernel for every static block; tomography projects onto PSD matrices
    ("eigh", {"evolution.py", "tomography.py"}),
    ("eig", {"evolution.py"}),
], ids=["expm", "kron", "eigh", "eig"])
def test_forbidden_name_stays_out(name, allowed):
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in allowed:
            continue
        with open(path, "rb") as fh:
            names = {tok.string for tok in tokenize.tokenize(fh.readline)
                     if tok.type == tokenize.NAME}
        if name in names:
            offenders.append(str(path.relative_to(SRC)))
    assert offenders == []


# the package, the scripts, the benchmark and the acceptance criteria: the code
# that runs the package for a user; unit tests alone do not count as a caller
_CALLERS = [*sorted(SRC.rglob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
            *sorted((ROOT / "perfbench").glob("*.py")),
            ROOT / "tests" / "test_acceptance.py"]


def _module_name(path):
    """Dotted module name of a package file, or the file stem elsewhere."""
    if SRC not in path.parents:
        return path.stem
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _import_aliases(nodes, path):
    """Local name -> dotted target for every import among ``nodes`` of ``path``.

    ``import a.b`` binds ``a``; ``import a.b as x`` binds ``x`` to ``a.b``;
    ``from m import y as z`` binds ``z`` to ``m.y``, with a relative ``m``
    resolved against the package of ``path``.
    """
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    aliases = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                local = a.asname or a.name.split(".")[0]
                aliases[local] = a.name if a.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(package[:len(package) + 1 - node.level]
                                + ([base] if base else []))
            for a in node.names:
                aliases[a.asname or a.name] = f"{base}.{a.name}"
    return aliases


def _qualified_uses(tree, aliases, reexports):
    """(dotted name, line) of every name or attribute chain rooted in an import alias."""
    def resolve(node):
        if isinstance(node, ast.Name):
            target = aliases.get(node.id)
        elif isinstance(node, ast.Attribute):
            base = resolve(node.value)
            target = base and f"{base}.{node.attr}"
        else:
            return None
        return reexports.get(target, target)

    for node in ast.walk(tree):
        # a store, such as a dataclass field named like a function, is no use
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = resolve(node)
            if name:
                yield name, node.lineno


def test_every_public_name_has_a_caller():
    # each top-level public def/class of the package is used, outside its own
    # definition, by the package, a script, the benchmark or an acceptance
    # criterion; unit tests alone do not count, and neither do __all__
    # strings.  A use must name the defining module: through an import
    # alias, or bare inside that module; a like-named attribute of some
    # other object or a keyword argument is no use
    spans, reexports, own = {}, {}, {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text())
        own[path] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own[path][node.name] = f"{module}.{node.name}"
                if not node.name.startswith("_"):
                    spans[f"{module}.{node.name}"] = (path, node.lineno, node.end_lineno)
        # a module-level import is also an attribute of the module
        for local, target in _import_aliases(tree.body, path).items():
            reexports[f"{module}.{local}"] = target
    used = set()
    for path in _CALLERS:
        tree = ast.parse(path.read_text())
        aliases = {**own.get(path, {}), **_import_aliases(ast.walk(tree), path)}
        for name, line in _qualified_uses(tree, aliases, reexports):
            if name in spans and not (spans[name][0] == path
                                      and spans[name][1] <= line <= spans[name][2]):
                used.add(name)
    assert sorted(set(spans) - used) == []


def _params(fn, skip: int):
    """Positional parameters of a def after the first ``skip``, and those with a default."""
    a = fn.args
    positional = [p.arg for p in (*a.posonlyargs, *a.args)]
    defaulted = positional[len(positional) - len(a.defaults):]
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional[skip:], defaulted


def _fields(cls):
    """Fields of a dataclass in constructor order, and those with a default."""
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
              and "ClassVar" not in ast.unparse(s.annotation)]
    # a bare field(repr=False) declares no default
    defaulted = [s for s in fields if s.value is not None and not (
        isinstance(s.value, ast.Call) and ast.unparse(s.value.func).endswith("field")
        and not {k.arg for k in s.value.keywords} & {"default", "default_factory"})]
    return [s.target.id for s in fields], [s.target.id for s in defaulted]


def _option_signatures():
    """Callee name -> [(positional parameters, {defaulted parameter: option})].

    A public function is called by its name, a public method by the method
    name, and a public class (its ``__init__`` or its dataclass fields) by
    the class name.  Options read "function.p", "Class.method.p" or "Class.p".
    """
    signatures = {}

    def add(callee, owner, params):
        positional, defaulted = params
        signatures.setdefault(callee, []).append(
            (positional, {p: f"{owner}.{p}" for p in defaulted}))

    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.FunctionDef):
                add(node.name, node.name, _params(node, 0))
                continue
            if any(ast.unparse(d).split("(")[0].endswith("dataclass")
                   for d in node.decorator_list):
                add(node.name, node.name, _fields(node))
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("_") and fn.name != "__init__"):
                    continue
                static = "staticmethod" in map(ast.unparse, fn.decorator_list)
                params = _params(fn, 0 if static else 1)
                if fn.name == "__init__":
                    add(node.name, node.name, params)
                else:
                    add(fn.name, f"{node.name}.{fn.name}", params)
    return signatures


# the one option only unit tests set: they run the device model at 2 levels
# to stay fast, every other caller at its datasheet 3 levels
_OPTIONS_SET_ONLY_BY_TESTS = {"DeviceBackend.levels"}


def _passed_arguments(call):
    """Positional count and keyword names a call is known to pass.

    A * splat of a tuple or list literal counts by its length and a **
    splat of a dict literal by its constant keys; the arguments of any
    other splat are unknown, so it passes nothing, and no positional
    argument after it is counted either.
    """
    n_positional = 0
    for a in call.args:
        if isinstance(a, ast.Starred):
            if not isinstance(a.value, (ast.Tuple, ast.List)):
                break
            n_positional += len(a.value.elts)
        else:
            n_positional += 1
    keywords = set()
    for k in call.keywords:
        if k.arg is not None:
            keywords.add(k.arg)
        elif isinstance(k.value, ast.Dict):
            keywords.update(key.value for key in k.value.keys
                            if isinstance(key, ast.Constant))
    return n_positional, keywords


def test_passed_arguments_reads_literal_splats():
    def passed(src):
        return _passed_arguments(ast.parse(src, mode="eval").body)

    assert passed("f(a, *(b, c), d=1)") == (3, {"d"})
    assert passed("f(*[a], **{'x': 1, **rest})") == (1, {"x"})
    assert passed("f(a, *args, b, **kwargs)") == (1, set())


def test_every_option_has_a_caller():
    # every defaulted parameter of a public function, method or __init__, and
    # every defaulted field of a public dataclass, is passed by keyword or by
    # position (literal splats included, see _passed_arguments) in some call
    # of that name by one of the callers above
    signatures = _option_signatures()
    options = {o for sigs in signatures.values() for _, opts in sigs for o in opts.values()}
    passed = set()
    for path in _CALLERS:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            n_positional, keywords = _passed_arguments(call)
            for positional, opts in signatures.get(name, ()):
                given = {*positional[:n_positional], *keywords}
                passed.update(opts[p] for p in given & set(opts))
    assert sorted(options - passed - _OPTIONS_SET_ONLY_BY_TESTS) == []
    # and the allowlist names only options that still need it
    assert _OPTIONS_SET_ONLY_BY_TESTS <= options - passed


def test_evolve_rejects_callable_or_mismatched_h():
    H = _random_hermitian(np.random.default_rng(11), 6)
    times = np.linspace(0.0, 2e-6, 5)
    for bad in (lambda t: H, H[:5, :5], sparse.csr_matrix(H[:, :5])):
        with pytest.raises(ValueError, match="square matrix"):
            evolution.evolve(bad, _basis(6), times)


def test_trajectory_to_csv_round_trip(tmp_path):
    spec = chains.ChainSpec.pst(3, 1e-6)
    H = chains.chain_hamiltonian(spec)
    times = np.linspace(0.0, 1e-6, 5)
    traj = evolution.evolve(H, _basis(8, 0b100), times,
                            occupations=statespace.occupation_matrix(3))
    path = tmp_path / "traj.csv"
    serialize.write_trajectory_csv(path, traj)
    text = path.read_text()
    assert text.splitlines()[0] == "time_s,pop_site_1,pop_site_2,pop_site_3,norm"
    data = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_allclose(data["pop_site_3"], traj.populations[:, 2],
                               rtol=1e-10)
    # identical evolution, identical bytes
    serialize.write_trajectory_csv(tmp_path / "again.csv", traj)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    assert path.read_bytes() == _per_row_csv(traj)


def _per_row_csv(traj) -> bytes:
    """The trajectory CSV as the per-row writer it replaced wrote it."""
    cols = ["time_s"] + [f"pop_site_{s + 1}" for s in range(traj.n_sites)] + ["norm"]
    text = ",".join(cols) + "\n"
    for i, t in enumerate(traj.times):
        row = [t] + list(traj.populations[i]) + [traj.norm[i]]
        text += ",".join("%.12e" % v for v in row) + "\n"
    return text.encode("ascii")


@pytest.mark.parametrize("n_times", [1, serialize._CSV_BLOCK, serialize._CSV_BLOCK + 3])
def test_trajectory_csv_bytes_across_line_blocks(tmp_path, n_times):
    # relaxation: norms below 1; a grid from 0 with tiny populations in exponent form
    spec = chains.ChainSpec.pst(4, 1e-6)
    H = evolution.add_relaxation(chains.chain_block(spec, chains.block_states(spec, "1000")),
                                 evolution.NoiseSpec(t1=(2e-6, 3e-6, 1e-6, 4e-6)),
                                 np.eye(4))
    traj = evolution.evolve(H, _basis(4, 0), np.linspace(0.0, 3e-6, n_times))
    serialize.write_trajectory_csv(tmp_path / "traj.csv", traj)
    assert (tmp_path / "traj.csv").read_bytes() == _per_row_csv(traj)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_unitarity_of_hermitian_evolution(seed):
    rng = np.random.default_rng(seed)
    H = _random_hermitian(rng, 5)
    psi0 = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi0 /= np.linalg.norm(psi0)
    traj = evolution.evolve(H, psi0, np.linspace(0, 1e-6, 4))
    np.testing.assert_allclose(traj.norm, 1.0, atol=1e-9)
