import dataclasses
import time
from math import pi

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pstsim import evolution
from pstsim.models import device as dv


@pytest.fixture(scope="module")
def dev():
    return dv.default_device()


def test_default_device_datasheet_values(dev):
    assert dev.n_qubits == 6
    freqs = [q.frequency_hz / 1e9 for q in dev.qubits]
    np.testing.assert_allclose(freqs, [4.370, 3.930, 4.272, 4.220, 3.830, 3.210])
    t1 = [q.t1_s * 1e6 for q in dev.qubits]
    np.testing.assert_allclose(t1, [12.1, 53.2, 26.2, 46.0, 63.4, 72.0])
    ranges = [(c.omega_min_hz / 1e9, c.omega_max_hz / 1e9) for c in dev.couplers]
    np.testing.assert_allclose(ranges, [(3.65, 7.17), (4.92, 7.51), (3.38, 7.28),
                                        (4.66, 6.75), (2.57, 4.71), (3.95, 6.93)])
    gqq = [g / 1e6 if g is not None else None for g in dev.qubit_qubit_g_hz]
    assert gqq[0] is None and gqq[5] is None
    np.testing.assert_allclose(gqq[1:5], [6.0, 8.3, 6.6, 4.8])


def test_coupler_ring_wiring(dev):
    assert dev.coupler_qubits(1) == (1, 2)
    assert dev.coupler_qubits(5) == (5, 6)
    assert dev.coupler_qubits(6) == (6, 1)


def test_default_bias_frequencies(dev):
    for j, c in enumerate(dev.couplers, start=1):
        w = dv.coupler_frequency(c, c.phi_dc)
        assert c.omega_min_hz <= w <= c.omega_max_hz
    # couplers 1 and 5 sit exactly midway between their qubits
    for j in (1, 5):
        qa, qb = dev.coupler_qubits(j)
        mid = 0.5 * (dev.qubits[qa - 1].frequency_hz + dev.qubits[qb - 1].frequency_hz)
        w = dv.coupler_frequency(dev.couplers[j - 1], dev.couplers[j - 1].phi_dc)
        assert w == pytest.approx(mid, abs=1e3)


def test_flux_curve_endpoints_and_sweet_spot(dev):
    for c in dev.couplers:
        assert dv.coupler_frequency(c, 0.0) == pytest.approx(c.omega_max_hz, rel=1e-9)
        assert dv.coupler_frequency(c, 0.5) == pytest.approx(c.omega_min_hz, rel=1e-9)
        assert abs(dv.coupler_flux_derivative(c, 0.0)) < 1e-3 * abs(
            dv.coupler_flux_derivative(c, 0.25))
        # monotone decreasing on the first half period
        phis = np.linspace(0.0, 0.5, 21)
        ws = dv.coupler_frequency(c, phis)
        assert np.all(np.diff(ws) < 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.floats(0.0, 1.0))
@example(1, 0.0)
@example(1, 1.0)
@example(5, 0.0)
@example(5, 1.0)
def test_operating_point_round_trip(j, frac):
    dev_ = dv.default_device()
    c = dev_.couplers[j - 1]
    target = c.omega_min_hz + frac * (c.omega_max_hz - c.omega_min_hz)
    phi = dv.operating_point(c, target)
    assert 0.0 <= phi <= 0.5
    assert dv.coupler_frequency(c, phi) == pytest.approx(target, rel=1e-9)


def test_operating_point_out_of_range(dev):
    c = dev.couplers[0]
    with pytest.raises(ValueError):
        dv.operating_point(c, c.omega_max_hz * 1.1)


# The five-point central stencil coupler_flux_derivative used before the
# closed form, kept as the reference the closed form must reproduce.
_STENCIL_STEP = 1e-3
_STENCIL = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))


def _stencil_flux_derivative(coupler, phi):
    acc = 0.0
    for offset, w in _STENCIL:
        acc += w * dv.coupler_frequency(coupler, phi + offset * _STENCIL_STEP)
    return acc / (12.0 * _STENCIL_STEP)


def test_flux_derivative_matches_stencil(dev):
    phis = np.linspace(0.0, 0.5, 51)
    for c in dev.couplers:
        closed = dv.coupler_flux_derivative(c, phis)
        stencil = np.array([_stencil_flux_derivative(c, p) for p in phis])
        scale = np.max(np.abs(stencil))
        np.testing.assert_allclose(closed, stencil, rtol=0, atol=1e-7 * scale)


def test_effective_coupling_estimate_scale_and_sign(dev):
    drive = dv.DriveConfig(coupler=1, amplitude=0.01, frequency_hz=440e6)
    est = dv.effective_coupling_estimate(dev, (1, 2), drive)
    # bias is below the sweet spot on the falling branch: negative slope
    assert est < 0
    assert 0.5e6 < abs(est) / (2 * np.pi) < 2.0e6
    # first order in the drive amplitude
    half = dv.effective_coupling_estimate(
        dev, (1, 2), dv.DriveConfig(coupler=1, amplitude=0.005, frequency_hz=440e6))
    assert est / half == pytest.approx(2.0, rel=0.05)


def test_subset_model_basics(dev):
    model = dv.DeviceSubsetModel(dev, (1, 2), (1,), levels=3)
    assert model.dim == 27
    H = model.hamiltonian()
    np.testing.assert_allclose(H, H.conj().T, atol=1e-6)
    occ = model.occupations
    assert occ.shape == (27, 3)
    idx = model.bare_index({("q", 2): 1})
    assert occ[idx].tolist() == [0, 1, 0]
    idx2 = model.bare_index({("q", 1): 1, ("c", 1): 2})
    assert occ[idx2].tolist() == [1, 0, 2]


# the kron-embedding builder that H_fixed replaced, kept as its reference
def _mode_ops(levels: int):
    a = np.diag(np.sqrt(np.arange(1, levels)), 1)
    n = np.diag(np.arange(levels, dtype=float))
    return a, n


def _mode_index(self, kind: str, idx: int) -> int:
    if kind == "q":
        return self.qubits.index(idx)
    return len(self.qubits) + self.couplers.index(idx)


def _embed(self, op: np.ndarray, mode: int) -> np.ndarray:
    n_modes = len(self.qubits) + len(self.couplers)
    out = np.array([[1.0]])
    for m in range(n_modes):
        out = np.kron(out, op if m == mode else np.eye(self.levels))
    return out


def kron_H_fixed(self) -> np.ndarray:
    """H_fixed of a DeviceSubsetModel from embedded mode operators."""
    dev = self.device
    a, nop = _mode_ops(self.levels)
    duff = 0.5 * (nop @ nop - nop)           # a+ a+ a a / 2 on the diagonal
    H = np.zeros((self.dim, self.dim))     # real: its blocks take the real eigh
    for qi in self.qubits:
        q = dev.qubits[qi - 1]
        H += 2 * pi * q.frequency_hz * _embed(self, nop, _mode_index(self, "q", qi))
        H += 2 * pi * q.anharmonicity_hz * _embed(self, duff, _mode_index(self, "q", qi))
    for cj in self.couplers:
        c = dev.couplers[cj - 1]
        m = _mode_index(self, "c", cj)
        # the w_c(t) a+a part stays out of H_fixed; anharmonicity is static
        H += 2 * pi * c.anharmonicity_hz * _embed(self, duff, m)
        qa, qb = dev.coupler_qubits(cj)
        for qi, g in ((qa, c.g_left_hz), (qb, c.g_right_hz)):
            if qi in self.qubits:
                da = _embed(self, a - a.T, _mode_index(self, "q", qi))   # (a - a+), real
                dc = _embed(self, a - a.T, m)
                H += 2 * pi * g / 2 * (da @ dc)
    n_q = dev.n_qubits
    for p in range(1, n_q + 1):
        g = dev.qubit_qubit_g_hz[p - 1]
        qa, qb = p, p % n_q + 1
        if g is None or qa not in self.qubits or qb not in self.qubits:
            continue
        da = _embed(self, a - a.T, _mode_index(self, "q", qa))
        db = _embed(self, a - a.T, _mode_index(self, "q", qb))
        H += 2 * pi * g / 2 * (da @ db)
    return H


# (qubits, couplers, highest levels): the ring wrap (6, 1), and residual
# qubit-qubit g on the pairs (2, 3), (3, 4) and (4, 5)
_KRON_SUBSETS = [((1, 2), (1,), 3), ((1, 2, 3), (1, 2), 3), ((6, 1), (6,), 3),
                 ((2, 3, 4, 5), (2, 3, 4), 2)]


@pytest.mark.parametrize("levels", [2, 3])
def test_occupations_match_kron_form(dev, levels):
    for qubits, couplers, top in _KRON_SUBSETS:
        if levels > top:
            continue
        model = dv.DeviceSubsetModel(dev, qubits, couplers, levels=levels)
        n_modes = len(qubits) + len(couplers)
        number = np.diag(np.arange(levels, dtype=float))
        for m in range(n_modes):
            op = np.array([[1.0]])
            for k in range(n_modes):
                op = np.kron(op, number if k == m else np.eye(levels))
            np.testing.assert_array_equal(model.occupations[:, m], np.diag(op))
        assert np.array_equal(model.H_fixed, kron_H_fixed(model)), (qubits, couplers)
    # a two-qubit ring couples its one pair twice, through both couplers and both g_qq
    ring = dv.DeviceSpec(qubits=dev.qubits[:2], couplers=dev.couplers[:2],
                         qubit_qubit_g_hz=(5e6, 7e6))
    model = dv.DeviceSubsetModel(ring, (2, 1), (1, 2), levels=levels)
    assert np.array_equal(model.H_fixed, kron_H_fixed(model))


def _subset_models(dev):
    """Every device subset the tests and the DeviceBackend build: the Kronecker
    subsets, the pair of every coupler at 2-4 levels, the chain at 2-3, the
    two-qubit ring, and last the model without couplers, the one whose modes
    no coupling joins."""
    ring = dv.DeviceSpec(qubits=dev.qubits[:2], couplers=dev.couplers[:2],
                         qubit_qubit_g_hz=(5e6, 7e6))
    subsets = [(dev, qubits, couplers, levels) for qubits, couplers, top in _KRON_SUBSETS
               for levels in range(2, top + 1)]
    subsets += [(dev, dev.coupler_qubits(j), (j,), levels)
                for j in range(1, 7) for levels in (2, 3, 4)]
    subsets += [(dev, (1, 2, 3), (1, 2), levels) for levels in (2, 3)]
    subsets += [(ring, (2, 1), (1, 2), levels) for levels in (2, 3)]
    subsets += [(dev, (1, 2), (), 3)]
    return [dv.DeviceSubsetModel(*subset) for subset in subsets]


def test_device_hamiltonians_keep_the_excitation_parity(dev):
    # every coupling moves two modes by one level and every coupler term is
    # diagonal: no element joins an even total excitation number to an odd one
    for model in _subset_models(dev):
        odd = model.occupations.sum(axis=1) % 2 == 1
        for H in (model.H_fixed, model.hamiltonian()):
            assert not H[np.ix_(odd, ~odd)].any() and not H[np.ix_(~odd, odd)].any()


@pytest.mark.parametrize("start", ["one excitation", "both parities"])
def test_parity_blocks_are_the_components_evolve_finds(dev, monkeypatch, start):
    # on the subsets whose modes the couplings join, each parity class is one
    # component of H_fixed's pattern: evolve_columns steps the blocks that
    # evolution._blocks finds, in the same order (seen as it bounds their spectra)
    seen = []
    bound = dv._gershgorin

    def recorded(h, *shifts):
        seen.append(h)
        return bound(h, *shifts)

    monkeypatch.setattr(dv, "_gershgorin", recorded)
    for model in _subset_models(dev)[:-1]:
        psi0 = np.zeros(model.dim, dtype=complex)
        psi0[model.bare_index({("q", model.qubits[0]): 1})] = 1.0
        if start == "both parities":
            psi0[0] = 1.0                       # and the ground state, of even parity
        seen.clear()
        model.evolve_columns(psi0, [0.0], [])
        blocks = list(evolution._blocks(model.H_fixed, psi0))
        assert len(seen) == len(blocks) == (1 if start == "one excitation" else 2)
        for half, (_, h) in zip(seen, blocks):
            assert np.array_equal(half, h / 2), (model.qubits, model.couplers, model.levels)


def test_bare_index_rejects_unknown_modes(dev):
    model = dv.DeviceSubsetModel(dev, (1, 2), (1,), levels=2)
    assert model.bare_index({}) == 0
    for key in (("q", 4), ("c", 2), ("Q", 1), "q1"):
        with pytest.raises(ValueError, match="names no mode"):
            model.bare_index({key: 1})
    with pytest.raises(ValueError, match="level truncation"):
        model.bare_index({("c", 1): 2})


@pytest.mark.parametrize("qubits, couplers", [
    ((0, 1), (1,)), ((1, 2), (0,)), ((1, 1), (1,)), ((1, 2), (1, 1)), ((6, 7), (6,)),
    ((1, 2), (7,)), ((-1, 1), (6,))],
    ids=["qubit0", "coupler0", "qubit_twice", "coupler_twice", "qubit7", "coupler7",
         "qubit_negative"])
def test_subset_model_rejects_bad_indices(dev, qubits, couplers):
    with pytest.raises(ValueError, match="must be distinct and in 1..6"):
        dv.DeviceSubsetModel(dev, qubits, couplers, levels=2)


def test_coupler_qubits_rejects_unknown_coupler(dev):
    for j in (0, 7, 9, -1):
        with pytest.raises(ValueError, match="outside 1..6"):
            dev.coupler_qubits(j)
    with pytest.raises(ValueError, match="outside 1..6"):
        dv.effective_coupling_estimate(dev, (0, 1), dv.DriveConfig(0, 0.01, 440e6))


def test_subset_model_guard(dev):
    # the default guard trips before any matrices are built
    with pytest.raises(dv.ResourceError):
        dv.DeviceSubsetModel(dev, (1, 2, 3), (1, 2), levels=6)
    model = dv.DeviceSubsetModel(dev, (1, 2, 3), (1, 2), levels=3)
    assert model.dim == 3**5


def _excited(model):
    """One excitation on qubit 1."""
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[model.bare_index({("q", 1): 1})] = 1.0
    return psi0


def _pair_model(dev):
    """Pair (1, 2) with coupler 1 at two levels, and one excitation on qubit 1."""
    model = dv.DeviceSubsetModel(dev, (1, 2), (1,), levels=2)
    return model, _excited(model)


def _columns(coupler, amplitude, freqs):
    return [[dv.DriveConfig(coupler=coupler, amplitude=amplitude, frequency_hz=f)]
            for f in freqs]


def test_drive_outside_subset_rejected(dev):
    model, psi0 = _pair_model(dev)
    t = np.array([0.0, 1e-9])
    with pytest.raises(ValueError, match="outside the subset"):
        model.evolve_columns(psi0, t, _columns(3, 0.01, [1e8]))
    with pytest.raises(ValueError, match="amplitude"):
        model.evolve_columns(psi0, t, _columns(1, -0.01, [1e8]))


@pytest.mark.parametrize("amplitude, frequency", [(np.nan, 1e8), (0.01, np.nan),
                                                  (0.01, np.inf), (np.inf, 1e8)])
def test_non_finite_drive_rejected(dev, amplitude, frequency):
    # named with its column before any step, not from inside eigh or divmod
    model, psi0 = _pair_model(dev)
    columns = _columns(1, 0.01, [1e8]) + _columns(1, amplitude, [frequency])
    with pytest.raises(ValueError, match="non-finite drive on coupler 1 in column 1"):
        model.evolve_columns(psi0, np.array([0.0, 1e-9]), columns)


def test_dispersive_bias_keeps_qubits_bare(dev):
    # at every operating point the single-excitation eigenstates stay
    # mostly on their bare qubit (the couplers are parked dispersively)
    for j in range(1, 6):
        qa, qb = j, j + 1
        model = dv.DeviceSubsetModel(dev, (qa, qb), (j,), levels=2)
        w, v = np.linalg.eigh(model.hamiltonian())
        for qi in (qa, qb):
            idx = model.bare_index({("q", qi): 1})
            overlap = np.max(np.abs(v[idx, :]) ** 2)
            assert overlap > 0.95, (j, qi, overlap)


def test_evolve_columns_unitary_and_deterministic(dev):
    model, psi0 = _pair_model(dev)
    times = np.linspace(0.0, 50e-9, 6)
    columns = _columns(1, 0.01, [430e6, 445e6])
    pops = model.evolve_columns(psi0, times, columns)
    assert pops.shape == (6, model.dim, 2)
    # returned values are populations; every step is unitary on its block,
    # so they keep summing to 1 up to rounding
    np.testing.assert_allclose(np.sum(pops, axis=1), 1.0, atol=1e-9)
    # reruns are bit-identical; a 5 ns grid takes the same code path
    short = np.array([0.0, 5e-9])
    first = model.evolve_columns(psi0, short, columns)
    np.testing.assert_array_equal(first, model.evolve_columns(psi0, short, columns))


def test_evolve_columns_step_size_converged(dev, monkeypatch):
    # the one-period path (see evolve_columns) against half of its substep
    # over 10 ns, on resonance and 8 MHz off
    model, psi0 = _pair_model(dev)
    times = np.linspace(0.0, 10e-9, 3)
    bare = dev.qubits[0].frequency_hz - dev.qubits[1].frequency_hz
    columns = _columns(1, 0.01, bare + np.array([0.0, 8e6]))
    coarse = model.evolve_columns(psi0, times, columns)
    assert dv._STEPS_PER_PERIOD == 64
    monkeypatch.setattr(dv, "_STEPS_PER_PERIOD", 128)
    fine = model.evolve_columns(psi0, times, columns)
    np.testing.assert_allclose(coarse, fine, rtol=0, atol=1e-8)
    assert np.max(np.abs(coarse.sum(axis=1) - 1.0)) < 1e-9


def test_drive_table_validation(dev):
    model, psi0 = _pair_model(dev)
    t = np.array([0.0, 1e-9])
    twice = [dv.DriveConfig(coupler=1, amplitude=0.01, frequency_hz=f) for f in (1e8, 2e8)]
    with pytest.raises(ValueError, match="two drives on one coupler in column 1"):
        model.evolve_columns(psi0, t, [[], twice])
    # a drive of zero amplitude leaves its coupler at the bias, like no drive
    driven = _columns(1, 0.01, [440e6])[0]
    zero = model.evolve_columns(psi0, t, [_columns(1, 0.0, [440e6])[0], driven])
    empty = model.evolve_columns(psi0, t, [[], driven])
    np.testing.assert_array_equal(zero, empty)
    assert not np.array_equal(empty[:, :, 0], empty[:, :, 1])


def test_evolve_columns_chain_column_keeps_norm(dev):
    # two couplers driven at once in every column: the chain (q1, q2, q3)
    model = dv.DeviceSubsetModel(dev, (1, 2, 3), (1, 2), levels=2)
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[model.bare_index({("q", 1): 1})] = 1.0
    f = [q.frequency_hz for q in dev.qubits]
    columns = [[dv.DriveConfig(coupler=1, amplitude=0.01, frequency_hz=abs(f[0] - f[1]) + df),
                dv.DriveConfig(coupler=2, amplitude=0.012, frequency_hz=abs(f[1] - f[2]) - df)]
               for df in (0.0, 4e6)]
    pops = model.evolve_columns(psi0, np.linspace(0.0, 5e-9, 3), columns)
    assert pops.shape == (3, model.dim, 2)
    assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-9


def _plain_steps(model, psi0, times, columns):
    """evolve_columns as it was before the one-period path: every column
    stepped through the whole window, 2 pi / (_STEPS_PER_PERIOD max|w|)
    at most per step over the driven couplers of all columns."""
    times = np.asarray(times, dtype=float)
    ncol = len(columns)
    amps = np.zeros((len(model.couplers), ncol))
    w_ang = np.zeros((len(model.couplers), ncol))
    for col, drives in enumerate(columns):
        for d in drives:
            k = model.couplers.index(d.coupler)
            amps[k, col] = d.amplitude
            w_ang[k, col] = 2 * pi * d.frequency_hz

    phi_dc = np.array([[c.phi_dc] for c in model._specs])

    def coupler_diag(t):
        phi = phi_dc + amps * np.cos(w_ang * t)
        w = [dv.coupler_frequency(c, p) for c, p in zip(model._specs, phi)]
        return model._coupler_occ @ (2 * pi * np.reshape(w, phi.shape))

    rate = dv._STEPS_PER_PERIOD * np.abs(w_ang[amps > 0]).max(initial=0.0) / (2 * pi)
    r = 3**0.5 / 6
    c1, c2, a1, a2 = 0.5 - r, 0.5 + r, 0.25 + r, 0.25 - r
    halves = [(idx, block / 2) for idx, block in evolution._blocks(model.H_fixed, psi0)]
    psi = np.tile(np.asarray(psi0, dtype=complex)[:, None], (1, ncol))
    out = np.zeros((len(times), model.dim, ncol))
    t_now = 0.0
    for i, t_out in enumerate(times):
        n = max(int(np.ceil((t_out - t_now) * rate)), int(t_out > t_now))
        for k in range(n):
            h = (t_out - t_now) / n
            d1, d2 = coupler_diag(t_now + (k + c1) * h), coupler_diag(t_now + (k + c2) * h)
            for d in (a1 * d1 + a2 * d2, a2 * d1 + a1 * d2):
                for col in range(ncol):
                    for idx, half in halves:
                        psi[idx, col] = evolution._block_states(
                            (half + np.diag(d[idx, col]))[None], psi[None, idx, col], [h])[0, 0]
        t_now = t_out
        out[i] = np.abs(psi) ** 2
    return out


def _pair_tones(dev, offsets):
    bare = dev.qubits[0].frequency_hz - dev.qubits[1].frequency_hz
    return _columns(1, 0.01, bare + np.asarray(offsets))


def _chain_tones(dev):
    f = [q.frequency_hz for q in dev.qubits]
    return abs(f[0] - f[1]), abs(f[1] - f[2])


@pytest.mark.parametrize("levels", [2, 3])
def test_one_period_path_matches_plain_steps(dev, levels):
    # 100 ns is 44 periods: U_T^k psi0 and the substep propagators against
    # CF4 steps through the whole window, on resonance and 8 MHz off
    model = dv.DeviceSubsetModel(dev, (1, 2), (1,), levels=levels)
    psi0 = _excited(model)
    times = np.linspace(0.0, 100e-9, 21)
    columns = _pair_tones(dev, [0.0, 8e6])
    got = model.evolve_columns(psi0, times, columns)
    np.testing.assert_allclose(got, _plain_steps(model, psi0, times, columns), rtol=0, atol=1e-8)
    assert np.max(np.abs(got.sum(axis=1) - 1.0)) < 1e-9


@pytest.mark.parametrize("case", ["period beyond the window", "two tones", "frequency 0"])
def test_plain_columns_unchanged(dev, case):
    f01, f12 = _chain_tones(dev)
    if case == "two tones":
        model = dv.DeviceSubsetModel(dev, (1, 2, 3), (1, 2), levels=2)
        columns = [[dv.DriveConfig(1, 0.01, f01), dv.DriveConfig(2, 0.012, f12)]]
        times = np.linspace(0.0, 5e-9, 3)
    else:
        model = dv.DeviceSubsetModel(dev, (1, 2), (1,), levels=3)
        # a 30 MHz tone has a 33 ns period
        columns = _columns(1, 0.02, [30e6 if case == "period beyond the window" else 0.0])
        times = np.linspace(0.0, 20e-9, 5)
    psi0 = _excited(model)
    np.testing.assert_array_equal(model.evolve_columns(psi0, times, columns),
                                  _plain_steps(model, psi0, times, columns))


def test_one_period_path_at_multiples_of_the_period(dev):
    model, psi0 = _pair_model(dev)
    columns = _pair_tones(dev, [0.0])
    period = 2 * pi / (2 * pi * columns[0][0].frequency_hz)      # as evolve_columns has it
    times = period * np.arange(41)
    rests = [divmod(t, period)[1] for t in times[1:]]
    # rounding leaves r = 0 at some multiples and r just below T at others
    assert 0.0 in rests and max(rests) > period / 2
    got = model.evolve_columns(psi0, times, columns)
    np.testing.assert_allclose(got, _plain_steps(model, psi0, times, columns), rtol=0, atol=1e-8)


def test_mixed_call_keeps_plain_columns_exact(dev):
    model = dv.DeviceSubsetModel(dev, (1, 2, 3), (1, 2), levels=2)
    psi0 = _excited(model)
    f01, f12 = _chain_tones(dev)
    # two tones, one tone, undriven, one tone (A = 0 is no drive), frequency 0
    columns = [
        [dv.DriveConfig(1, 0.01, f01), dv.DriveConfig(2, 0.012, f12)],
        [dv.DriveConfig(1, 0.01, f01)],
        [],
        [dv.DriveConfig(2, 0.012, f12), dv.DriveConfig(1, 0.0, f01)],
        [dv.DriveConfig(1, 0.01, 0.0)],
    ]
    times = np.linspace(0.0, 10e-9, 5)
    got = model.evolve_columns(psi0, times, columns)
    want = _plain_steps(model, psi0, times, columns)
    plain, periodic = [0, 2, 4], [1, 3]
    np.testing.assert_array_equal(got[:, :, plain], want[:, :, plain])
    np.testing.assert_allclose(got[:, :, periodic], want[:, :, periodic], rtol=0, atol=1e-8)
    assert not np.array_equal(got[:, :, periodic], want[:, :, periodic])


def test_one_period_path_kernel_calls(dev, monkeypatch):
    # 600 ns is about 264 periods: the period build and one remainder step
    # per output time, where stepping the window took about 34 000 calls
    model, psi0 = _pair_model(dev)
    calls = []
    kernel = dv._block_states

    def counted(hs, *args):
        calls.extend([None] * len(hs))          # one per block of the stack
        return kernel(hs, *args)

    monkeypatch.setattr(dv, "_block_states", counted)
    times = np.linspace(0.0, 600e-9, 31)
    columns = _pair_tones(dev, [0.0, 8e6])
    pops = model.evolve_columns(psi0, times, columns)
    blocks = len(list(evolution._blocks(model.H_fixed, psi0)))
    assert 0 < len(calls) <= 2 * (dv._STEPS_PER_PERIOD + len(times)) * len(columns) * blocks
    assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-9


def _counted_kernels(monkeypatch):
    """Block dimension and state rank of every block the eigen and Chebyshev
    kernels step: one entry per Chebyshev call, and one per block of an
    eigen call's stack."""
    calls = {"_block_states": [], "_chebyshev_state": []}
    for name, seen in calls.items():
        kernel = getattr(dv, name)

        def counted(h, s, *args, kernel=kernel, seen=seen, stacked=name == "_block_states"):
            depth = len(h) if stacked else 1
            seen.extend([(np.shape(h)[-1], np.ndim(s) - stacked)] * depth)
            return kernel(h, s, *args)

        monkeypatch.setattr(dv, name, counted)
    return calls


def _two_tones(dev):
    f01, f12 = _chain_tones(dev)
    return [[dv.DriveConfig(1, 0.01, f01), dv.DriveConfig(2, 0.012, f12)]]


@pytest.mark.parametrize("levels, kernel", [(3, "_chebyshev_state"), (2, "_block_states")])
def test_two_tone_chain_kernel(dev, monkeypatch, levels, kernel):
    # the 121-state block of the levels-3 chain takes Chebyshev vector
    # steps (2K < d); the 16-state blocks at two levels keep eigh
    model = dv.DeviceSubsetModel(dev, (1, 2, 3), (1, 2), levels=levels)
    calls = _counted_kernels(monkeypatch)
    model.evolve_columns(_excited(model), np.linspace(0.0, 2e-9, 5), _two_tones(dev))
    assert len(calls[kernel]) > 100
    assert set(calls[kernel]) == {(121 if levels == 3 else 16, 1)}
    assert [c for name, c in calls.items() if name != kernel] == [[]]


@pytest.mark.parametrize("levels", [2, 3])
def test_pair_scan_keeps_the_eigen_kernel(dev, monkeypatch, levels):
    # 13/14-state (levels 3) and 4-state (levels 2) blocks: every step, the
    # one-period build's matrix steps and the remainder's vector steps, is eigh
    model = dv.DeviceSubsetModel(dev, (1, 2), (1,), levels=levels)
    calls = _counted_kernels(monkeypatch)
    model.evolve_columns(_excited(model), np.linspace(0.0, 8e-9, 5), _pair_tones(dev, [2e6, 8e6]))
    assert calls["_chebyshev_state"] == []
    assert {rank for _, rank in calls["_block_states"]} == {1, 2}


def test_one_tone_chain_builds_its_period_with_eigh(dev, monkeypatch):
    # the one-period build steps the block identity: matrix steps stay on
    # eigh, while the remainder step of each output time is a vector step
    model = dv.DeviceSubsetModel(dev, (1, 2, 3), (1, 2), levels=3)
    calls = _counted_kernels(monkeypatch)
    f01, _ = _chain_tones(dev)
    times = np.linspace(0.0, 5e-9, 4)
    model.evolve_columns(_excited(model), times, _columns(1, 0.01, [f01]))
    assert calls["_block_states"] == [(121, 2)] * (2 * dv._STEPS_PER_PERIOD)
    assert set(calls["_chebyshev_state"]) == {(121, 1)}
    assert len(calls["_chebyshev_state"]) <= 2 * (len(times) - 1)


def test_two_tone_chain_chebyshev_matches_eigen_steps(dev):
    # the calibration chain column: populations keep their sum and agree
    # with CF4 steps taken by eigh
    model = dv.DeviceSubsetModel(dev, (1, 2, 3), (1, 2), levels=3)
    psi0 = _excited(model)
    times = np.linspace(0.0, 2e-9, 5)
    got = model.evolve_columns(psi0, times, _two_tones(dev))
    assert np.max(np.abs(got.sum(axis=1) - 1.0)) < 1e-12
    np.testing.assert_allclose(got, _plain_steps(model, psi0, times, _two_tones(dev)),
                               rtol=0, atol=1e-12)
    assert got[-1, model.bare_index({("q", 1): 1}), 0] < 0.999


def test_plain_steps_step_size_converged(dev, monkeypatch):
    # two tones always take the plain steps: the step rule against half of
    # its step over 10 ns
    model = dv.DeviceSubsetModel(dev, (1, 2, 3), (1, 2), levels=2)
    psi0 = _excited(model)
    f01, f12 = _chain_tones(dev)
    columns = [[dv.DriveConfig(1, 0.01, f01), dv.DriveConfig(2, 0.012, f12)]]
    times = np.linspace(0.0, 10e-9, 3)
    coarse = model.evolve_columns(psi0, times, columns)
    monkeypatch.setattr(dv, "_STEPS_PER_PERIOD", 128)
    np.testing.assert_allclose(coarse, model.evolve_columns(psi0, times, columns),
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("levels", [2, 3])
def test_undriven_columns_match_static_evolve(dev, levels):
    # without a drive, or at frequency 0, H is static: evolve_columns must
    # agree with evolution.evolve on the same H
    model = dv.DeviceSubsetModel(dev, (1, 2), (1,), levels=levels)
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[model.bare_index({("q", 1): 1})] = 1.0
    times = np.linspace(0.0, 20e-9, 5)
    static = evolution.evolve(model.hamiltonian(), psi0, times).populations
    pops = model.evolve_columns(psi0, times, [[], _columns(1, 0.0, [440e6])[0]])
    for col in range(2):
        np.testing.assert_allclose(pops[:, :, col], static, rtol=0, atol=1e-12)
    amp = 0.02
    dc = dev.couplers[0]
    moved = dataclasses.replace(dev, couplers=(dataclasses.replace(dc, phi_dc=dc.phi_dc + amp),
                                               *dev.couplers[1:]))
    shifted = dv.DeviceSubsetModel(moved, (1, 2), (1,), levels=levels)
    expected = evolution.evolve(shifted.hamiltonian(), psi0, times).populations
    held = model.evolve_columns(psi0, times, _columns(1, amp, [0.0]))
    np.testing.assert_allclose(held[:, :, 0], expected, rtol=0, atol=1e-12)
    assert not np.allclose(expected, static, atol=1e-3)


def test_model_without_couplers_evolves_under_its_static_h(dev):
    # qubits 1 and 2 share no residual coupling, so H is diagonal: its blocks
    # are the two parity classes of the total excitation number, and two
    # undriven columns step each as one stack
    model = dv.DeviceSubsetModel(dev, (1, 2), (), levels=3)
    psi0 = np.full(model.dim, 1 / 3, dtype=complex)
    times = np.linspace(0.0, 5e-9, 4)
    pops = model.evolve_columns(psi0, times, [[], []])
    static = evolution.evolve(model.hamiltonian(), psi0, times).populations
    for col in range(2):
        np.testing.assert_allclose(pops[:, :, col], static, rtol=0, atol=1e-15)


def test_evolve_columns_without_columns(dev):
    model, psi0 = _pair_model(dev)
    assert model.evolve_columns(psi0, np.linspace(0.0, 5e-9, 3), []).shape == (3, model.dim, 0)


def test_long_windows_fail_before_the_first_step(dev, monkeypatch):
    # 1 ms of the two-tone chain is about 2.8e7 CF4 steps, and 1 s of a pair
    # scan about 4.4e8 products with U_T: both stop at the step guard
    from pstsim import calibration

    calls = []
    monkeypatch.setattr(dv, "_block_states", lambda *args: calls.append(None))
    f01, f12 = _chain_tones(dev)
    chain = calibration.DriveSettings((0.01, 0.01), (2 * pi * f01, 2 * pi * f12))
    start = time.perf_counter()
    with pytest.raises(dv.ResourceError, match=r"2\.82e\+07 CF4 steps .* step guard of 100000"):
        calibration.DeviceBackend(levels=2).run_chain(chain, 1, [0.0, 1e-3])
    with pytest.raises(dv.ResourceError, match=r"4\.4e\+08 period products"):
        calibration.chevron_scan(calibration.DeviceBackend(), (1, 2), [0.01], [2 * pi * f01],
                                 [0.0, 1.0])
    assert time.perf_counter() - start < 1.0
    assert calls == []


def test_step_guard_counts_steps_and_periods(dev, monkeypatch):
    # the guard is on the sum: a window that passes alone fails with a
    # plain column beside its periodic one
    model, psi0 = _pair_model(dev)
    times = np.linspace(0.0, 20e-9, 3)
    columns = _pair_tones(dev, [0.0])
    periods = int(times[-1] * columns[0][0].frequency_hz)
    monkeypatch.setattr(dv, "STEP_GUARD", periods)
    model.evolve_columns(psi0, times, columns)
    with pytest.raises(dv.ResourceError, match="step guard"):
        model.evolve_columns(psi0, times, columns + [[]])


def test_evolve_columns_rejects_bad_times(dev):
    model, psi0 = _pair_model(dev)
    columns = _columns(1, 0.01, [440e6])
    with pytest.raises(ValueError, match="times must be ascending"):
        model.evolve_columns(psi0, [5e-9, 0.0], columns)
    with pytest.raises(ValueError, match="times must be non-negative"):
        model.evolve_columns(psi0, [-1e-9], columns)
    for bad in ([], [[0.0, 1e-9]]):
        with pytest.raises(ValueError, match="non-empty 1d"):
            model.evolve_columns(psi0, bad, columns)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"times must be finite, got {bad}"):
            model.evolve_columns(psi0, [0.0, bad], columns)


def test_spec_validation(dev):
    with pytest.raises(ValueError):
        dv.DeviceSpec(qubits=dev.qubits, couplers=dev.couplers[:3])
    with pytest.raises(ValueError, match="at least two qubits"):
        dv.DeviceSpec(qubits=dev.qubits[:1], couplers=dev.couplers[:1])
    with pytest.raises(ValueError):
        dv.DeviceSpec(qubits=dev.qubits, couplers=dev.couplers,
                      qubit_qubit_g_hz=(None, 6e6))
    with pytest.raises(ValueError, match="two levels"):
        dv.DeviceSubsetModel(dev, (1, 2), (1,), levels=1)
