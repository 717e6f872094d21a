import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from pstsim import evolution, statespace
from pstsim.models import chains

TAU = 640e-9
TWO_PI = 2 * np.pi


def test_pst_couplings_six_sites_frozen():
    J = chains.pst_couplings(6, TAU) / TWO_PI
    np.testing.assert_allclose(
        J, [873464.0537108553, 1104854.3456039806, 1171875.0,
            1104854.3456039806, 873464.0537108553], rtol=1e-12)


def test_pst_couplings_two_sites():
    assert chains.pst_couplings(2, 1e-6)[0] == pytest.approx(TWO_PI * 250e3)


@given(st.integers(2, 14))
def test_pst_couplings_mirror_symmetric_exactly(n):
    J = chains.pst_couplings(n, TAU)
    np.testing.assert_array_equal(J, J[::-1])
    assert np.all(J > 0)


@given(st.integers(2, 14))
def test_pst_peak_coupling_grows_linearly(n):
    J = chains.pst_couplings(n, TAU)
    peak = np.pi / (2 * TAU) * np.sqrt((n // 2) * (n - n // 2))
    assert J.max() == pytest.approx(peak, rel=1e-12)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
@pytest.mark.parametrize("build", [
    lambda tau: chains.ChainSpec(couplings=(1.0,), tau=tau),
    lambda tau: chains.ChainSpec.pst(4, tau),
    lambda tau: chains.fst_profile(4, tau, 0.6 * np.pi),
])
def test_tau_must_be_positive_and_finite(build, tau):
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        build(tau)


@pytest.mark.parametrize("tau", [1e-320, 5e-309, 1e-308])
@pytest.mark.parametrize("build", [
    lambda tau: chains.pst_couplings(4, tau),
    lambda tau: chains.ChainSpec.pst(4, tau),
    lambda tau: chains.fst_profile(4, tau, 0.5 * np.pi),
    lambda tau: chains.fst_profile(5, tau, 0.5 * np.pi),
])
def test_tau_whose_couplings_overflow_is_rejected(build, tau):
    # pi / (2 tau) overflows for a subnormal tau; at 1e-308 the sqrt(k (n-k))
    # factor of 2 does
    with pytest.raises(ValueError, match="couplings overflow"):
        build(tau)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        chains.ChainSpec(couplings=(1.0,), tau=-1.0)
    with pytest.raises(ValueError):
        chains.ChainSpec(couplings=(1.0, 1.0), tau=1.0, detunings=(0.0,))
    with pytest.raises(ValueError):
        chains.ChainSpec(couplings=(1.0, 1.0), tau=1.0, zz=(0.0, 0.0, 0.0))
    spec = chains.ChainSpec.pst(4, TAU)
    assert spec.n_sites == 4
    assert spec.with_zz((1.0, 2.0, 3.0)).zz == (1.0, 2.0, 3.0)


def _random_spec(rng, n):
    return chains.ChainSpec(
        couplings=tuple(rng.uniform(0.5, 2.0, n - 1) * 1e6),
        tau=1e-6,
        detunings=tuple(rng.uniform(-1, 1, n) * 1e5),
        zz=tuple(rng.uniform(-1, 1, n - 1) * 1e4),
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_chain_hamiltonian_hermitian_and_number_conserving(n, seed):
    spec = _random_spec(np.random.default_rng(seed), n)
    H = chains.chain_hamiltonian(spec).toarray()
    np.testing.assert_allclose(H, H.conj().T, atol=1e-9)
    num = np.diag(statespace.occupation_matrix(n).sum(axis=1).astype(float))
    np.testing.assert_allclose(H @ num - num @ H, 0.0, atol=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_chain_hamiltonian_matches_operator_sum(n, seed):
    # the defining sum of site operators, independent of the bit-operation builder
    spec = _random_spec(np.random.default_rng(seed), n)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])       # |0><1| on one site
    num = np.diag([0.0, 1.0])

    def site(op, s):
        return np.kron(np.kron(np.eye(2 ** (s - 1)), op), np.eye(2 ** (n - s)))

    H = sum(d * site(num, s + 1) for s, d in enumerate(spec.detunings))
    for k, (j, z) in enumerate(zip(spec.couplings, spec.zz), start=1):
        hop = site(lower, k).conj().T @ site(lower, k + 1)
        H = H + j * (hop + hop.conj().T) + z * site(num, k) @ site(num, k + 1)
    np.testing.assert_allclose(chains.chain_hamiltonian(spec).toarray(), H,
                               rtol=0, atol=1e-9 * np.abs(H).max())


@pytest.mark.parametrize("values", [{"couplings": (1e6, np.inf)},
                                    {"couplings": (1e6, 1e6), "detunings": (0, np.nan, 0)},
                                    {"couplings": (1e6, 1e6), "zz": (-np.inf, 0)}])
def test_chain_spec_rejects_non_finite_values(values):
    with pytest.raises(ValueError, match="couplings, detunings and zz must be finite"):
        chains.ChainSpec(tau=TAU, **values)


def _sector_one(spec):
    """H on the one-excitation sector, in site order, from the block builder."""
    n = spec.n_sites
    return chains.chain_block(spec, [1 << (n - 1 - i) for i in range(n)])


def test_one_excitation_block_matches_sector_one():
    # site i alone excited is basis index 1 << (n-1-i), listed by site
    n = 5
    spec = chains.ChainSpec(couplings=chains.pst_couplings(n, TAU), tau=TAU,
                            detunings=np.linspace(-1e6, 1e6, n), zz=np.full(n - 1, -2e5))
    sites = [1 << (n - 1 - i) for i in range(n)]
    np.testing.assert_array_equal(chains.block_states(spec, "00100"), sites)
    H = chains.chain_hamiltonian(spec).toarray()
    np.testing.assert_array_equal(_sector_one(spec), H[np.ix_(sites, sites)])


@pytest.mark.parametrize("n", range(2, 11))
def test_block_states_are_the_component_of_the_start(n):
    # the enumerated block against the component evolve finds in the full H,
    # on a chain with and without a zero coupling
    rng = np.random.default_rng(n)
    pst = chains.ChainSpec.pst(n, TAU)
    cut = list(pst.couplings)
    cut[rng.integers(n - 1)] = 0.0
    for spec in (pst, chains.ChainSpec(couplings=cut, tau=TAU)):
        for x in rng.integers(0, 2**n, 6):
            states = chains.block_states(spec, format(int(x), f"0{n}b"))
            assert list(states) == sorted(states, reverse=True)
            [(idx, _)] = evolution._blocks(chains.chain_hamiltonian(spec), np.eye(2**n)[x])
            assert set(states) == set(idx.tolist())


def test_block_states_guard_and_wide_registers(monkeypatch):
    # a one-excitation block beyond 62 sites holds Python ints, in site order
    spec = chains.ChainSpec.pst(70, TAU)
    states = chains.block_states(spec, "0" * 69 + "1")
    assert states.dtype == object and list(states) == [1 << k for k in range(69, -1, -1)]
    np.testing.assert_array_equal(statespace.occupation_rows(states, 70), np.eye(70))
    J = np.array(spec.couplings)
    np.testing.assert_array_equal(chains.chain_block(spec, states),
                                  np.diag(J, 1) + np.diag(J, -1))
    monkeypatch.setattr(evolution, "DENSE_GUARD", 69)
    with pytest.raises(evolution.ResourceError, match="block dimension 70 above dense guard 69"):
        chains.block_states(spec, "1" + "0" * 69)


@pytest.mark.parametrize("n", range(2, 7))
def test_pst_unitary_equals_matrix_exponential(n):
    spec = chains.ChainSpec.pst(n, TAU)
    H = chains.chain_hamiltonian(spec).toarray()
    U = expm(-1j * H * TAU)
    np.testing.assert_allclose(chains.pst_unitary(n), U, atol=1e-12)


@given(st.integers(2, 8))
def test_pst_state_map_is_mirror_permutation(n):
    targets, phases = chains.pst_state_map(n)
    assert sorted(targets) == list(range(2**n))
    np.testing.assert_allclose(np.abs(phases), 1.0, atol=1e-12)
    for x in (0, 1, 2**n - 1):
        # the occupation pattern read backwards along the chain
        assert targets[x] == int(format(x, f"0{n}b")[::-1], 2)
    # vacuum never acquires a phase, and every phase is a power of i exactly
    assert phases[0] == 1.0 + 0j
    assert set(phases.tolist()) <= {1, 1j, -1, -1j}


@pytest.mark.parametrize("n", [2, 5, 8])
def test_pst_state_map_of_listed_states(n):
    # listed states map as they do in the whole register
    targets, phases = chains.pst_state_map(n)
    states = np.random.default_rng(n).integers(0, 2**n, 40)
    got_targets, got_phases = chains.pst_state_map(n, states)
    np.testing.assert_array_equal(got_targets, targets[states])
    np.testing.assert_array_equal(got_phases, phases[states])


def test_pst_state_map_beyond_62_sites():
    # the targets of a 70-site chain are Python ints, read backwards
    targets, phases = chains.pst_state_map(70, [1 << 69, 3])
    assert targets.tolist() == [1, 3 << 68]
    assert np.abs(phases).tolist() == [1.0, 1.0]


def test_transfer_phase_cycle():
    assert chains.transfer_phase(2) == -1j
    assert chains.transfer_phase(3) == -1
    assert chains.transfer_phase(4) == 1j
    assert chains.transfer_phase(5) == 1
    assert abs(chains.transfer_phase(11)) == 1.0


def test_profiles_above_the_output_guard_fail_before_any_coupling():
    # one coupling more than the guard, and 10^20 sites, checked from n alone
    for n in (evolution.OUTPUT_GUARD + 2, 10**20):
        with pytest.raises(evolution.ResourceError, match="above the output guard"):
            chains.pst_couplings(n, TAU)
        with pytest.raises(evolution.ResourceError, match="above the output guard"):
            chains.fst_profile(n, TAU, 1.0)


def test_fst_profile_theta_pi_reduces_to_pst():
    for n in (2, 3, 4, 5, 6, 7):
        J, delta = chains.fst_profile(n, TAU, np.pi)
        np.testing.assert_array_equal(J, chains.pst_couplings(n, TAU))
        np.testing.assert_array_equal(delta, np.zeros(n))


def test_fst_profile_bounds():
    with pytest.raises(ValueError):
        chains.fst_profile(4, TAU, 3.2)
    with pytest.raises(ValueError):
        chains.fst_profile(4, TAU, -0.1)
    with pytest.raises(ValueError):
        chains.fst_profile(1, TAU, 1.0)
    with pytest.raises(ValueError):
        chains.fst_profile(4, -TAU, 1.0)


def _transfer_fraction(n, theta):
    spec = chains.ChainSpec.fst(n, TAU, theta)
    H = _sector_one(spec)
    w, v = np.linalg.eigh(H)
    psi = (v * np.exp(-1j * w * TAU)) @ (v.conj().T @ np.eye(n)[:, 0])
    return abs(psi[-1]) ** 2


@pytest.mark.parametrize("theta", [0.0, 0.2 * np.pi, 0.5 * np.pi,
                                   0.6 * np.pi, np.pi])
@pytest.mark.parametrize("n", range(3, 7))
def test_fst_transferred_fraction(n, theta):
    assert _transfer_fraction(n, theta) == pytest.approx(
        np.sin(theta / 2) ** 2, abs=1e-10)


def test_fst_population_split_point_six_pi():
    frac = _transfer_fraction(3, 0.6 * np.pi)
    assert frac == pytest.approx(0.6545084971874737, abs=1e-9)
    assert round(frac, 4) == 0.6545


# The paper's parity-dependent effective interaction, kept as a reference
# for the chain propagator: each mirror pair swaps with an amplitude signed
# by the parity of the excitations strictly between it, dressed by local Z
# rotations.


def _fst_effective_hamiltonian(n, tau, theta):
    """Effective mirror-pair Hamiltonian generating one fractional transfer.

    H_eff = (theta / 2 tau) sum over mirror pairs (k, k~) of the
    pair-swap term conditioned on the excitations in between:
    (prod of sigma_z strictly between) (s-_k s+_k~ + s+_k s-_k~).
    """
    dim = 2**n
    bits = statespace.occupation_rows(np.arange(dim), n)
    H = np.zeros((dim, dim), dtype=complex)
    for k in range(1, n // 2 + 1):
        kt = n + 1 - k
        # swap the pair; amplitude carries the inner sigma_z parity
        src = np.flatnonzero(bits[:, k - 1] != bits[:, kt - 1])
        inner = bits[src, k:kt - 1].sum(axis=1)
        H[src ^ (1 << (n - k)) ^ (1 << (n - kt)), src] += theta / (2 * tau) * (-1.0) ** inner
    return H


def _fst_dressing_angles(n, theta):
    """Per-site Z angles relating the chain and effective propagators.

    exp(-i H_chain tau) = exp(-i H_eff tau) * D up to a global phase,
    where D applies diag(1, exp(i angle)) on each site.  Mirror-paired
    sites share one angle fixed by n mod 4 (0, -pi/2, pi, +pi/2 for
    n mod 4 = 2, 3, 0, 1); the odd-n centre angle is lowered from it by
    theta/2.  Only for n mod 4 == 2 is the dressing trivial and the two
    propagators equal up to global phase alone.
    """
    paired = {2: 0.0, 3: -np.pi / 2, 0: np.pi, 1: np.pi / 2}[n % 4]
    angles = np.full(n, paired)
    if n % 2 == 1:
        angles[(n - 1) // 2] = paired - theta / 2
    return angles


@pytest.mark.parametrize("n", range(2, 6))
def test_fst_effective_propagator_matches_full_evolution(n):
    theta = 0.6 * np.pi
    spec = chains.ChainSpec.fst(n, TAU, theta)
    H = chains.chain_hamiltonian(spec).toarray()
    U = expm(-1j * H * TAU)
    occupied = statespace.occupation_rows(np.arange(2**n), n)
    effective = (expm(-1j * _fst_effective_hamiltonian(n, TAU, theta) * TAU)
                 * np.exp(1j * (occupied @ _fst_dressing_angles(n, theta)))[np.newaxis, :])
    np.testing.assert_allclose(effective, U, atol=1e-8)


def test_fst_dressing_angles_by_residue():
    # the mirror-pair rotation axis angle depends only on n mod 4
    for n, expect in ((6, 0.0), (3, -np.pi / 2), (4, np.pi), (5, np.pi / 2)):
        ang = _fst_dressing_angles(n, 0.6 * np.pi)
        assert ang[0] == pytest.approx(expect, abs=1e-12)
