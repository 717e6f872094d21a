import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstsim import protocols
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


def test_hamiltonian_is_kron_sum_of_chains():
    spec = lattice.LatticeSpec(nx=3, ny=4, tau=1e-6)
    H = lattice.build_lattice_hamiltonian(spec).toarray()
    hx = chains.single_excitation_hamiltonian(chains.ChainSpec.pst(3, 1e-6)).toarray()
    hy = chains.single_excitation_hamiltonian(chains.ChainSpec.pst(4, 1e-6)).toarray()
    expect = np.kron(hx, np.eye(4)) + np.kron(np.eye(3), hy)
    np.testing.assert_allclose(H, expect, atol=1e-6)


def test_single_column_grid_is_a_chain():
    spec = lattice.LatticeSpec(nx=1, ny=5, tau=1e-6)
    H = lattice.build_lattice_hamiltonian(spec).toarray()
    hy = chains.single_excitation_hamiltonian(chains.ChainSpec.pst(5, 1e-6)).toarray()
    np.testing.assert_allclose(H, hy, atol=1e-6)


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
