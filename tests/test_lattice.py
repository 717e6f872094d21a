import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstsim import evolution, protocols
from pstsim.models import chains, lattice


def test_site_index_x_major():
    spec = lattice.LatticeSpec(nx=4, ny=3, tau=1e-6)
    assert lattice.site_index(spec, 1, 1) == 0
    assert lattice.site_index(spec, 1, 3) == 2
    assert lattice.site_index(spec, 2, 1) == 3
    assert lattice.site_index(spec, 4, 3) == 11
    with pytest.raises(ValueError):
        lattice.site_index(spec, 5, 1)
    with pytest.raises(ValueError):
        lattice.site_index(spec, 0, 2)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_spec_rejects_non_finite_tau(tau):
    with pytest.raises(ValueError, match="positive and finite"):
        lattice.LatticeSpec(nx=2, ny=2, tau=tau)


@pytest.mark.parametrize("nx, ny", [(2, 2), (1, 4), (4, 1)])
@pytest.mark.parametrize("tau", [1e-320, 5e-309])
def test_spec_rejects_tau_whose_couplings_overflow(nx, ny, tau):
    with pytest.raises(ValueError, match="couplings overflow"):
        lattice.LatticeSpec(nx=nx, ny=ny, tau=tau)


def test_spec_validation():
    with pytest.raises(ValueError):
        lattice.LatticeSpec(nx=0, ny=3, tau=1e-6)
    with pytest.raises(ValueError):
        lattice.LatticeSpec(nx=1, ny=1, tau=1e-6)
    with pytest.raises(ValueError):
        lattice.LatticeSpec(nx=2, ny=2, tau=0.0)


def _chain(n):
    """The one-excitation block of the n-site PST chain, in site order."""
    spec = chains.ChainSpec.pst(n, 1e-6)
    return chains.chain_hamiltonian(spec, chains.block_states(spec, "1" + "0" * (n - 1)))


def _kron_sum(spec):
    """H = kron(h_x, 1) + kron(1, h_y) of the two axis chains, dense."""
    hx, hy = (_chain(n).toarray() if n > 1 else np.zeros((1, 1)) for n in (spec.nx, spec.ny))
    return np.kron(hx, np.eye(spec.ny)) + np.kron(np.eye(spec.nx), hy)


@pytest.mark.parametrize("nx, ny", [(3, 4), (5, 4), (1, 5), (5, 1), (2, 2), (9, 7)])
def test_product_of_axis_runs_matches_the_lattice_hamiltonian(nx, ny):
    spec = lattice.LatticeSpec(nx=nx, ny=ny, tau=1e-6)
    H = _kron_sum(spec)
    times = np.linspace(0.0, 2 * spec.tau, 9)
    for start in [(1, 1), ((nx + 1) // 2, (ny + 1) // 2), (nx, ny)]:
        psi0 = np.zeros(spec.n_sites, dtype=complex)
        psi0[lattice.site_index(spec, *start)] = 1.0
        ref = evolution.evolve(H, psi0, times)
        traj = protocols.lattice_pst(spec, start, times)
        np.testing.assert_array_equal(traj.times, ref.times)
        np.testing.assert_allclose(traj.states, ref.states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.populations, ref.populations, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.norm, ref.norm, rtol=0, atol=1e-12)


@pytest.mark.parametrize("start", [1, 3, 6])
def test_one_row_lattice_is_its_chain_run(start):
    spec = lattice.LatticeSpec(nx=1, ny=6, tau=1e-6)
    times = np.linspace(0.0, spec.tau, 7)
    traj = protocols.lattice_pst(spec, (1, start), times)
    ref = protocols.run_pst(chains.ChainSpec.pst(6, spec.tau), start, times)
    for field in ("times", "states", "populations", "norm"):
        assert np.array_equal(getattr(traj, field), getattr(ref, field)), field


def test_output_guard_trips_before_any_chain_runs(monkeypatch):
    def no_run(*args):
        raise AssertionError("ran an axis chain of a lattice above the output guard")

    monkeypatch.setattr(protocols, "run_pst", no_run)
    spec = lattice.LatticeSpec(nx=4096, ny=4096, tau=1e-6)
    start = time.perf_counter()
    with pytest.raises(evolution.ResourceError, match="output guard"):
        protocols.lattice_pst(spec, (1, 1), np.linspace(0.0, spec.tau, 7))
    assert time.perf_counter() - start < 1.0


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 5), st.integers(1, 5), st.data())
def test_corner_to_corner_transfer(nx, ny, data):
    if nx * ny < 2:
        ny = 2
    spec = lattice.LatticeSpec(nx=nx, ny=ny, tau=1e-6)
    x = data.draw(st.integers(1, nx))
    y = data.draw(st.integers(1, ny))
    traj = protocols.lattice_pst(spec, (x, y), np.array([spec.tau]))
    assert traj.populations.shape == (1, nx * ny)
    pops = traj.populations.reshape(1, nx, ny)
    # both axes mirrored
    assert pops[0, nx - x, ny - y] == pytest.approx(1.0, abs=1e-9)


def test_population_conservation_mid_transfer():
    spec = lattice.LatticeSpec(nx=3, ny=3, tau=1e-6)
    times = np.linspace(0.0, 1e-6, 7)
    traj = protocols.lattice_pst(spec, (2, 1), times)
    assert traj.populations.shape == (7, 9)
    np.testing.assert_allclose(traj.populations.sum(axis=1), 1.0, atol=1e-9)


def test_lattice_pst_wraps_into_trajectory():
    spec = lattice.LatticeSpec(nx=2, ny=2, tau=1e-6)
    traj = protocols.lattice_pst(spec, (1, 1), np.array([0.0, 5e-7, 1e-6]))
    assert traj.populations.shape == (3, 4)
    assert traj.populations[0, 0] == pytest.approx(1.0)
    assert traj.populations[-1, 3] == pytest.approx(1.0, abs=1e-9)
    # centre refocus for odd grids: (2,2) of 3x3 is its own mirror
    spec3 = lattice.LatticeSpec(nx=3, ny=3, tau=1e-6)
    traj3 = protocols.lattice_pst(spec3, (2, 2), np.array([1e-6]))
    assert traj3.populations[0, lattice.site_index(spec3, 2, 2)] == \
        pytest.approx(1.0, abs=1e-9)
