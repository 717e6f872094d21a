"""Transmon ring with flux-tunable couplers and parametric drives.

Six fixed-frequency qubits sit on a loop, every adjacent pair bridged by
a flux-tunable coupler.  Each mode is a Duffing oscillator truncated to
a few levels; qubit-coupler (and weak residual qubit-qubit) couplings
take the flux-flux form (g/2)(a+ - a)(b+ - b).  Modulating a coupler's
flux at the difference frequency of its two qubits activates an
effective exchange between them whose strength follows, to first order,
the derivative of the coupler frequency at the bias point.

Spec data (frequencies, couplings) is stored in Hz as it would appear on
a datasheet; every Hamiltonian builder returns angular-frequency units.
"""

import itertools
from dataclasses import dataclass
from math import pi

import numpy as np

from ..evolution import (DENSE_GUARD, STEP_GUARD, ResourceError, _ascending_times, _block_states,
                         _chebyshev_reach, _chebyshev_state, _gershgorin)

__all__ = [
    "QubitSpec",
    "CouplerSpec",
    "DeviceSpec",
    "DriveConfig",
    "ResourceError",
    "coupler_frequency",
    "flux_asymmetry",
    "coupler_flux_derivative",
    "effective_coupling_estimate",
    "DeviceSubsetModel",
    "default_device",
]

@dataclass(frozen=True)
class QubitSpec:
    frequency_hz: float
    anharmonicity_hz: float
    t1_s: float


@dataclass(frozen=True)
class CouplerSpec:
    """Tunable coupler: frequency range, anharmonicity and neighbour couplings.

    ``g_left_hz`` couples to the lower-indexed qubit of the pair the
    coupler bridges, ``g_right_hz`` to the higher-indexed one (ring
    wrap: the last coupler bridges the last and first qubits).
    ``phi_dc`` is the flux operating point (bias) in flux quanta.
    """

    omega_min_hz: float
    omega_max_hz: float
    anharmonicity_hz: float
    g_left_hz: float
    g_right_hz: float
    phi_dc: float = 0.0


@dataclass(frozen=True)
class DeviceSpec:
    """Ring of qubits and couplers; coupler j bridges qubits j and j+1 (wrapping)."""

    qubits: tuple
    couplers: tuple
    qubit_qubit_g_hz: tuple = ()   # residual static coupling per pair, None where unknown

    def __post_init__(self):
        n = len(self.qubits)
        if n < 2:           # one qubit would bridge, and couple to, itself
            raise ValueError("ring layout needs at least two qubits")
        if len(self.couplers) != n:
            raise ValueError("ring layout needs one coupler per qubit")
        gqq = tuple(self.qubit_qubit_g_hz) or (None,) * n
        if len(gqq) != n:
            raise ValueError("need one qubit-qubit g per adjacent pair")
        object.__setattr__(self, "qubit_qubit_g_hz", gqq)

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def coupler_qubits(self, j: int):
        """Indices (1-based) of the two qubits bridged by coupler j."""
        n = self.n_qubits
        if not 1 <= j <= n:
            raise ValueError(f"coupler {j} outside 1..{n}")
        return j, j % n + 1


@dataclass(frozen=True)
class DriveConfig:
    """Flux modulation of one coupler about its bias: phi_dc + A cos(2 pi f t)."""

    coupler: int
    amplitude: float            # flux quanta
    frequency_hz: float


def flux_asymmetry(coupler: CouplerSpec) -> float:
    """SQUID junction asymmetry d reproducing the coupler's frequency range."""
    ec = -coupler.anharmonicity_hz
    return ((coupler.omega_min_hz + ec) / (coupler.omega_max_hz + ec)) ** 2


def coupler_frequency(coupler: CouplerSpec, phi) -> np.ndarray:
    """Coupler frequency (Hz) at flux ``phi`` (flux quanta).

    Asymmetric-SQUID transmon dispersion
    w(phi) = (w_max + E_C) [d^2 + (1 - d^2) cos^2(pi phi)]^{1/4} - E_C
    with E_C = -anharmonicity and d fixed by w(0.5) = w_min.
    """
    ec = -coupler.anharmonicity_hz
    d = flux_asymmetry(coupler)
    c2 = np.cos(pi * np.asarray(phi, dtype=float)) ** 2
    return (coupler.omega_max_hz + ec) * (d * d + (1 - d * d) * c2) ** 0.25 - ec


def coupler_flux_derivative(coupler: CouplerSpec, phi) -> np.ndarray:
    """d w_c / d phi (Hz per flux quantum) of :func:`coupler_frequency`.

    With u = d^2 + (1 - d^2) cos^2(pi phi),
    dw/dphi = -(pi/4) (w_max + E_C) (1 - d^2) sin(2 pi phi) u^{-3/4}.
    """
    ec = -coupler.anharmonicity_hz
    d = flux_asymmetry(coupler)
    x = pi * np.asarray(phi, dtype=float)
    u = d * d + (1 - d * d) * np.cos(x) ** 2
    return -0.25 * pi * (coupler.omega_max_hz + ec) * (1 - d * d) * np.sin(2 * x) * u**-0.75


def effective_coupling_estimate(device: DeviceSpec, pair, drive: DriveConfig) -> float:
    """First-order estimate of the parametric coupling J (angular frequency).

    J ~ (d w_c/d phi)|_dc * g g' / Delta^2 * A / 2 with Delta the
    difference frequency of the driven pair.  Valid near the calibrated
    bias points; tests cross-check it against full-model chevron dynamics.
    """
    a, b = pair
    j = drive.coupler
    qa, qb = device.coupler_qubits(j)
    if {a, b} != {qa, qb}:
        raise ValueError(f"pair {pair} is not bridged by coupler {j}")
    cp = device.couplers[j - 1]
    delta = 2 * pi * (device.qubits[qa - 1].frequency_hz - device.qubits[qb - 1].frequency_hz)
    if delta == 0:
        raise ZeroDivisionError("degenerate pair: difference frequency is zero")
    deriv = 2 * pi * float(coupler_flux_derivative(cp, cp.phi_dc))
    g1 = 2 * pi * cp.g_left_hz
    g2 = 2 * pi * cp.g_right_hz
    return deriv * g1 * g2 / delta**2 * drive.amplitude / 2.0


_STEPS_PER_PERIOD = 64      # steps per period of the fastest drive


class DeviceSubsetModel:
    """Hamiltonian of a subset of qubits and couplers at their bias points.

    Splits H(t) = H_fixed + sum_j w_cj(phi_j(t)) N_j so time stepping
    only re-evaluates the coupler frequencies.  Modes are ordered as the
    given qubits followed by the given couplers, each with ``levels``
    states; ``occupations`` holds the (dim, n_modes) excitation numbers
    of the basis states in that order, the base-``levels`` digits of the
    basis index, most significant first.  The flux drives are passed per
    run to :meth:`evolve_columns`.
    """

    def __init__(self, device: DeviceSpec, qubit_indices, coupler_indices, levels: int):
        if levels < 2:
            raise ValueError("at least two levels per mode")
        self.device = device
        self.qubits = tuple(qubit_indices)
        self.couplers = tuple(coupler_indices)
        n = device.n_qubits
        for kind, idx in (("qubit", self.qubits), ("coupler", self.couplers)):
            if len(set(idx)) < len(idx) or not set(idx) <= set(range(1, n + 1)):
                raise ValueError(f"{kind} indices {idx} must be distinct and in 1..{n}")
        self.levels = levels
        self._modes = {key: m for m, key in enumerate(
            [("q", qi) for qi in self.qubits] + [("c", cj) for cj in self.couplers])}
        self.dim = self.levels**len(self._modes)
        if self.dim > DENSE_GUARD:
            raise ResourceError(f"{self.dim} basis states above guard {DENSE_GUARD}")
        self._build()

    def _build(self):
        dev, levels = self.device, self.levels
        self._place = levels ** np.arange(len(self._modes) - 1, -1, -1)
        occ = np.arange(self.dim)[:, None] // self._place % levels
        self.occupations = n = occ.astype(float)
        duff = n * (n - 1) / 2                   # a+ a+ a a / 2 on the diagonal
        diag = np.zeros(self.dim)
        H = np.zeros((self.dim, self.dim))     # real: its blocks take the real eigh

        def ladder(m, s):       # rows where (a - a+) moves mode m by s, and its elements there:
            ok = (0 <= occ[:, m] + s) & (occ[:, m] + s < levels)    # sqrt(n) down, -sqrt(n+1) up
            return ok, -s * np.sqrt(np.maximum(n[:, m], n[:, m] + s))

        def flux(a, b, g):      # (g/2)(a - a+)(b - b+): the index hops by +-place[a] +-place[b]
            p, q = self._modes[a], self._modes[b]
            for sp, sq in itertools.product((-1, 1), repeat=2):
                (ok_p, el_p), (ok_q, el_q) = ladder(p, sp), ladder(q, sq)
                src = np.flatnonzero(ok_p & ok_q)
                dst = src + sp * self._place[p] + sq * self._place[q]
                H[dst, src] += 2 * pi * g / 2 * (el_p[src] * el_q[src])

        for qi in self.qubits:
            q, m = dev.qubits[qi - 1], self._modes["q", qi]
            diag += 2 * pi * q.frequency_hz * n[:, m]
            diag += 2 * pi * q.anharmonicity_hz * duff[:, m]
        for cj in self.couplers:
            c = dev.couplers[cj - 1]
            # the w_c(t) a+a part stays out of H_fixed; anharmonicity is static
            diag += 2 * pi * c.anharmonicity_hz * duff[:, self._modes["c", cj]]
            for qi, g in zip(dev.coupler_qubits(cj), (c.g_left_hz, c.g_right_hz)):
                if qi in self.qubits:
                    flux(("q", qi), ("c", cj), g)
        for p, g in enumerate(dev.qubit_qubit_g_hz, start=1):
            pair = ("q", p), ("q", p % dev.n_qubits + 1)
            if g is not None and set(pair) <= self._modes.keys():
                flux(*pair, g)
        np.fill_diagonal(H, diag)
        self.H_fixed = H
        self._specs = [dev.couplers[cj - 1] for cj in self.couplers]
        self._coupler_occ = self.occupations[:, len(self.qubits):]

    def hamiltonian(self) -> np.ndarray:
        """Dense H with every coupler at its bias, in angular-frequency units."""
        bias = np.array([coupler_frequency(c, c.phi_dc) for c in self._specs])
        return self.H_fixed + np.diag(self._coupler_occ @ (2 * pi * bias))

    def bare_index(self, occupation: dict) -> int:
        """Basis index for a product state, e.g. {("q", 1): 1} for one excitation."""
        digits = np.zeros(len(self._modes), dtype=int)
        for key, d in occupation.items():
            if key not in self._modes:
                raise ValueError(f"{key!r} names no mode of the subset")
            if not 0 <= d < self.levels:
                raise ValueError("occupation outside the level truncation")
            digits[self._modes[key]] = d
        return int(digits @ self._place)

    def evolve_columns(self, psi0: np.ndarray, times: np.ndarray, columns) -> np.ndarray:
        """Propagate one initial state under each column's drives.

        ``columns`` holds one sequence of DriveConfigs per output column;
        a coupler with no drive in a column sits at its bias.  Steps are
        fourth-order commutator-free exponentials (Blanes & Moan 2006), at
        most 2 pi / (_STEPS_PER_PERIOD max|w|) long over the driven
        couplers of all columns, or one per output interval when H is
        static.  A column whose driven couplers share one nonzero
        frequency has period T = 2 pi / |w|; when T <= times[-1] it is not
        stepped through the window (Shirley 1965).  Its one-period
        propagator U_T is built from _STEPS_PER_PERIOD steps of
        h = T / _STEPS_PER_PERIOD, keeping every substep's propagator, and
        the state at t = k T + r is one short step from floor(r / h) h to
        r after that substep's propagator, applied to U_T^k psi0.  Each
        coupling moves two modes by one level and each drive is diagonal,
        so the blocks are the parity classes of the total excitation
        number that psi0 touches, even first.  Each step takes the columns
        it moves together: one stacked eigendecomposition per block, or a
        Chebyshev series per column for a vector step that costs less that
        way.  Returns |amplitudes|^2 with shape (len(times), dim, len(columns)).

        Raises ValueError for a non-finite drive and ResourceError, before
        the first step, when the CF4 steps plus the U_T products the
        window needs are above ``STEP_GUARD``.
        """
        times = _ascending_times(times)
        if times[0] < 0:
            raise ValueError("times must be non-negative")
        ncol = len(columns)
        amps = np.zeros((len(self.couplers), ncol))
        w_ang = np.zeros((len(self.couplers), ncol))
        for col, drives in enumerate(columns):
            if len({d.coupler for d in drives}) < len(drives):
                raise ValueError(f"two drives on one coupler in column {col}")
            for d in drives:
                if d.coupler not in self.couplers:
                    raise ValueError(f"drive on coupler {d.coupler} outside the subset")
                if not np.isfinite([d.amplitude, d.frequency_hz]).all():
                    raise ValueError(f"non-finite drive on coupler {d.coupler} in column {col}")
                if d.amplitude < 0:
                    raise ValueError("drive amplitude must be >= 0")
                k = self.couplers.index(d.coupler)
                amps[k, col] = d.amplitude
                w_ang[k, col] = 2 * pi * d.frequency_hz

        phi_dc = np.array([c.phi_dc for c in self._specs])[:, None]     # (n_couplers, 1)

        def coupler_diag(t):        # diagonal of H(t) - H_fixed, (dim, ncol); t may be per column
            phi = phi_dc + amps * np.cos(w_ang * t)
            w = [coupler_frequency(c, p) for c, p in zip(self._specs, phi)]
            return self._coupler_occ @ (2 * pi * np.reshape(w, phi.shape))

        rate = _STEPS_PER_PERIOD * np.abs(w_ang[amps > 0]).max(initial=0.0) / (2 * pi)
        # a step h is exp(-ih(a2 H1 + a1 H2)) exp(-ih(a1 H1 + a2 H2)), Hk = H(t + ck h)
        r = 3**0.5 / 6
        c1, c2, a1, a2 = 0.5 - r, 0.5 + r, 0.25 + r, 0.25 - r
        parity = self.occupations.sum(axis=1) % 2
        halves = [(idx, self.H_fixed[np.ix_(idx, idx)] / 2) for idx in map(
            np.flatnonzero, parity == np.unique(parity[np.flatnonzero(psi0)])[:, None])]
        # a vector step of h takes the Chebyshev kernel when h r is below
        # _chebyshev_reach(d), with r a Gershgorin half-width of every step's
        # block: each coupler anywhere in its tuning range, and a1 > 0 > a2
        # keep the step's diagonal shift a1 w1 + a2 w2 between a1 lo + a2 hi
        # and a2 lo + a1 hi
        tuning = self._coupler_occ @ (2 * pi * np.reshape(
            [(c.omega_min_hz, c.omega_max_hz) for c in self._specs], (-1, 2)))
        shift = tuning @ np.array([[a1, a2], [a2, a1]])
        limits = [(_gershgorin(half, *shift[idx].T)[1], _chebyshev_reach(len(idx)))
                  for idx, half in halves]

        def cf4_step(states, cols, t0, k, h):
            """``states``, one stack over ``cols`` per block, stepped from
            t0 + k h to t0 + (k + 1) h; new arrays, the old ones untouched.

            ``t0`` and ``h`` are scalars or per-column arrays.  Vector steps
            within reach take the Chebyshev kernel one at a time, and every
            other column of a block is stepped in one stack."""
            if len(cols) == 0:
                return states
            d1, d2 = coupler_diag(t0 + (k + c1) * h), coupler_diag(t0 + (k + c2) * h)
            d1, d2 = d1[:, cols].T, d2[:, cols].T
            h = np.broadcast_to(h, ncol)[cols]
            cheb = [np.flatnonzero(h * width < reach) if s.ndim == 2 else ()
                    for s, (width, reach) in zip(states, limits)]
            for d in (a1 * d1 + a2 * d2, a2 * d1 + a1 * d2):
                stepped = []
                for (idx, half), s, within in zip(halves, states, cheb):
                    hs = np.repeat(half[None], len(cols), axis=0)
                    hs.reshape(len(cols), -1)[:, ::len(idx) + 1] += d[:, idx]
                    if len(within) == 0:        # the whole stack, with no copy in or out
                        stepped.append(_block_states(hs, s, h[:, None])[:, 0])
                        continue
                    new = np.empty_like(s)
                    for col in within:
                        new[col] = _chebyshev_state(hs[col], s[col], h[col])
                    if len(within) < len(cols):
                        rest = np.setdiff1d(np.arange(len(cols)), within)
                        new[rest] = _block_states(hs[rest], s[rest], h[rest, None])[:, 0]
                    stepped.append(new)
                states = stepped
            return states

        tones = [np.unique(np.abs(w_ang[amps[:, col] > 0, col])) for col in range(ncol)]
        period = np.array([2 * pi / w[0] if len(w) == 1 and w[0] > 0 else np.inf for w in tones])
        periodic = np.flatnonzero(period <= times[-1])
        plain = np.flatnonzero(period > times[-1])

        sub = np.where(period <= times[-1], period, 0.0) / _STEPS_PER_PERIOD

        def split(t, col):          # t = k T + j h + rest with h = sub[col], 0 <= rest < h
            k, into = divmod(t, period[col])
            j = int(into // sub[col])
            return int(k), j, into - j * sub[col]

        # CF4 steps of the plain columns per output interval, and products
        # with U_T that bring the periodic columns to their last time
        gaps = np.diff(times, prepend=0.0)
        steps = np.maximum(np.ceil(gaps * rate), gaps > 0) * (len(plain) > 0)
        periods = np.max(times[-1] // period[periodic], initial=0)
        if steps.sum() + periods > STEP_GUARD:
            raise ResourceError(f"{steps.sum():.3g} CF4 steps and {periods:.3g} period "
                                f"products above the step guard of {STEP_GUARD}")

        def stacks(x, cols):        # x[idx] of each block, repeated for each of cols
            return [np.repeat(x[None, idx], len(cols), axis=0) for idx, _ in halves]

        # U_T of every periodic column, and a copy of each column's substep
        # propagators U(jh) that its own output times need; the stacked
        # identities start as zeros, as np.eye would allocate a block
        # identity even when no column is periodic
        build = [np.zeros((len(periodic), len(idx), len(idx)), dtype=complex) for idx, _ in halves]
        for u in build:
            diagonal = np.arange(u.shape[1])
            u[:, diagonal, diagonal] = 1.0
        need = [{split(t, col)[1] for t in times} for col in periodic]
        kept = {}                   # (j, p) -> U(jh) of periodic[p], one array per block

        def keep(j):
            for p, js in enumerate(need):
                if j in js:
                    kept[j, p] = [u[p].copy() for u in build]

        keep(0)
        for k in range(_STEPS_PER_PERIOD):
            build = cf4_step(build, periodic, 0.0, k, sub)
            keep(k + 1)

        psi0 = np.asarray(psi0, dtype=complex)
        states = stacks(psi0, plain)
        held = stacks(psi0, periodic)           # the states at n_held periods
        psi = np.tile(psi0[:, None], (1, ncol))
        n_held = np.zeros(len(periodic))
        out = np.zeros((len(times), self.dim, ncol))
        t_now = 0.0
        for i, t_out in enumerate(times):
            n = int(steps[i])
            for k in range(n):
                states = cf4_step(states, plain, t_now, k, (t_out - t_now) / n)
            t_now = t_out
            for (idx, _), s in zip(halves, states):
                psi[idx[:, None], plain] = s.T
            if len(periodic):
                k, j, r = np.array([split(t_out, col) for col in periodic]).T
                for m in range(int(np.max(k - n_held))):
                    go = np.flatnonzero(k - n_held > m)
                    for s, u in zip(held, build):
                        s[go] = (u[go] @ s[go, :, None])[..., 0]
                n_held = k
                now = [(np.stack([kept[x, p][b] for p, x in enumerate(j.astype(int))])
                        @ s[..., None])[..., 0] for b, s in enumerate(held)]
                t0, rest = np.zeros(ncol), np.zeros(ncol)
                t0[periodic], rest[periodic] = j * sub[periodic], r
                moving = r > 0
                moved = cf4_step([s[moving] for s in now], periodic[moving], t0, 0, rest)
                for (idx, _), s, m in zip(halves, now, moved):
                    s[moving] = m
                    psi[idx[:, None], periodic] = s.T
            out[i] = np.abs(psi) ** 2
        return out


def operating_point(coupler: CouplerSpec, omega_target_hz: float) -> float:
    """Flux (in [0, 0.5]) at which the coupler sits at ``omega_target_hz``.

    Inverts :func:`coupler_frequency`: with r = (w + E_C)/(w_max + E_C),
    cos^2(pi phi) = (r^4 - d^2)/(1 - d^2).
    """
    lo, hi = coupler.omega_min_hz, coupler.omega_max_hz
    if not lo <= omega_target_hz <= hi:
        raise ValueError(f"target {omega_target_hz} outside range [{lo}, {hi}]")
    ec = -coupler.anharmonicity_hz
    d = flux_asymmetry(coupler)
    r = (omega_target_hz + ec) / (hi + ec)
    c2 = np.clip((r**4 - d * d) / (1 - d * d), 0.0, 1.0)
    return float(np.arccos(np.sqrt(c2)) / pi)


# Default device: measured datasheet values where published; anharmonicities
# and flux operating points are artifact defaults (see package notes).
_QUBIT_FREQ_GHZ = (4.370, 3.930, 4.272, 4.220, 3.830, 3.210)
_QUBIT_T1_US = (12.1, 53.2, 26.2, 46.0, 63.4, 72.0)
_COUPLER_RANGE_GHZ = (
    (3.65, 7.17), (4.92, 7.51), (3.38, 7.28), (4.66, 6.75), (2.57, 4.71), (3.95, 6.93),
)
_G_NEXT_MHZ = (62.0, 74.0, 68.0, 60.0, 47.0, 77.0)   # qubit j  <-> coupler j
_G_PREV_MHZ = (65.0, 59.0, 112.0, 65.0, 61.0, 64.0)  # qubit j  <-> coupler j-1
_G_QQ_MHZ = (None, 6.0, 8.3, 6.6, 4.8, None)         # pair (j, j+1), ring
_QUBIT_ANHARM_MHZ = -250.0
_COUPLER_ANHARM_MHZ = -200.0

# Coupler bias frequencies (GHz) for the default operating points.  c1 and c5
# sit exactly midway between their two qubits: there the static mediated
# coupling cancels (decoupling point) and the first-order amplitude-to-coupling
# estimate, which divides by the qubit difference frequency squared, agrees
# with full-model chevron dynamics at small drive amplitude.  For c2, c4 and
# c6 the midpoint lies outside the tuning range, and for c3 it would sit on
# top of the near-degenerate qubit pair, so those fall back to a dispersive
# bias on the slope (g/detuning <= 0.3 for both neighbours, at least 100 MHz
# from either qubit).
_COUPLER_BIAS_GHZ = (4.1500, 5.4380, 4.5500, 5.0780, 3.5200, 4.8440)


def default_device() -> DeviceSpec:
    """Six-qubit ring with the published datasheet parameters."""
    qubits = tuple(
        QubitSpec(frequency_hz=f * 1e9, anharmonicity_hz=_QUBIT_ANHARM_MHZ * 1e6,
                  t1_s=t1 * 1e-6)
        for f, t1 in zip(_QUBIT_FREQ_GHZ, _QUBIT_T1_US)
    )
    couplers = []
    for j in range(6):
        lo, hi = _COUPLER_RANGE_GHZ[j]
        cp = CouplerSpec(
            omega_min_hz=lo * 1e9, omega_max_hz=hi * 1e9,
            anharmonicity_hz=_COUPLER_ANHARM_MHZ * 1e6,
            g_left_hz=_G_NEXT_MHZ[j] * 1e6,
            g_right_hz=_G_PREV_MHZ[(j + 1) % 6] * 1e6,
        )
        phi = operating_point(cp, _COUPLER_BIAS_GHZ[j] * 1e9)
        couplers.append(CouplerSpec(**{**cp.__dict__, "phi_dc": phi}))
    gqq = tuple(None if g is None else g * 1e6 for g in _G_QQ_MHZ)
    return DeviceSpec(qubits=qubits, couplers=tuple(couplers), qubit_qubit_g_hz=gqq)
