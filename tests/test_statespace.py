import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstsim import statespace as ss


def test_basis_index_site1_most_significant():
    assert ss.basis_index([1, 0, 0]) == 4
    assert ss.basis_index([0, 0, 1]) == 1
    assert ss.basis_index([1, 0, 1, 1]) == 0b1011


@given(st.integers(2, 8), st.data())
def test_occupations_round_trip(n, data):
    idx = data.draw(st.integers(0, 2**n - 1))
    (occ,) = ss.occupation_rows([idx], n)
    assert len(occ) == n
    assert ss.basis_index(occ.tolist()) == idx


def test_occupation_matrix_bits():
    occ = ss.occupation_matrix(3)
    assert occ.shape == (8, 3)
    # index 6 = |110>: sites 1 and 2 excited
    assert occ[6].tolist() == [1, 1, 0]
    assert occ.sum(axis=1).tolist() == [bin(i).count("1") for i in range(8)]


@st.composite
def _state(draw, dim):
    re = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
    im = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
    v = np.array(re) + 1j * np.array(im)
    nrm = np.linalg.norm(v)
    if nrm < 1e-3:
        v = v + 1.0
        nrm = np.linalg.norm(v)
    return v / nrm


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.data())
def test_apply_single_qubit_matches_embedding(n, site, data):
    if site > n:
        site = 1 + site % n
    psi = data.draw(_state(2**n))
    op = np.array([[0.3, 0.91j], [-0.91j, 0.3]])
    full = np.kron(np.kron(np.eye(2 ** (site - 1)), op), np.eye(2 ** (n - site)))
    np.testing.assert_allclose(ss.apply_single_qubit(psi, op, site, n),
                               full @ psi, atol=1e-12)


def test_bad_inputs():
    with pytest.raises(ValueError):
        ss.basis_index([0, 2, 0])
    with pytest.raises(ValueError):
        ss.apply_single_qubit(np.ones(4) / 2, np.eye(2), 0, 2)


def test_occupation_rows_match_occupations():
    states = np.array([0, 5, 0b1011, 15])
    rows = ss.occupation_rows(states, 4)
    assert rows.tolist() == [[int(b) for b in format(x, "04b")] for x in states]
