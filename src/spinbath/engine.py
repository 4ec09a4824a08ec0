"""Exact propagation of decoupling runs and bath correlation functions.

The initial state is the identity plus a small deviation along one spin
component, rho(0) = 1/d + eps S_u with eps = 2/d; the bath enters exactly
maximally mixed, so no averaging over bath configurations is needed. The
reported survival probability is the deviation overlap

    s_u(t) = Tr{S_u rho(t)} / Tr{S_u rho(0)},

which equals 1 at t = 0 and is immune to global propagator phases.

Only the deviation eps S_u matters: no unitary changes the 1/d part, and
S_u (x) 1 is traceless in every sector below, so s_u is exactly the
deviation autocorrelation Re Tr{S_u W S_u W^dag} / Tr{S_u^2} of the
propagator W, the quantity bath_correlation computes for a bath
observable; one kernel, _autocorrelation, reads both.

H_free, every pulse and the prepared state conserve the total bath I_z,
so propagate works in the bath-magnetization sectors: sector k (k bath
spins up) is C^2 (x) span{bath states with k up}, of size 2 C(n, k).
Every propagator and eigenphase power is a list of sector blocks, and the
survival overlap is the sum of the per-block traces. The diagonalizations
then cost O(sum_k (2 C(n, k))^3) instead of O(2^(3(n+1))); at n = 7 the
blocks are [2, 14, 42, 70, 70, 42, 14, 2] wide. build_h_free fills these
blocks from the basis bits, with no dense matrix. H_free also conserves the
system S_z, so a free step is two (C, C) halves per sector (_free_table).
Their eigenpairs are kept for the last model seen, so a sweep over delays
on one bath diagonalizes H_free once.

Ensemble averaging covers pulse-error realizations only: each realization
draws one RF amplitude scale (static inhomogeneity) from the error model,
with a generator seeded deterministically from (master_seed, k). When all
errors are static within a realization, the cycle propagator is built
once per realization; long runs then advance through its eigenphase
powers, at O(dim^2) per cycle instead of O(dim^3). A cycle propagator is
unitary, so each block is diagonalized in a unitary eigenbasis taken from
a Hermitian eigh (_unitary_eig); a block whose basis leaves an
off-diagonal residual above 1e-13 sends the realization down the direct
loop that short runs take. These powers and the bath correlations are one
eigenbasis sum, Re sum_ab W_ab exp(i (f_a - f_b) t) with W = |V^dag A V|^2,
which _autocorrelation forms and _spectral_series evaluates with no weight
dropped. Pulse-to-pulse tilt jitter breaks the reuse: the direct loop
carries every sector's accumulated propagator in one buffer
(_Accumulated), a static run applies its interval products to it, and a
jittered run applies each free step and each freshly drawn pulse.

Detection follows the ideal pulse frame, the numerical analog of a
receiver phase that tracks where a perfect sequence would have parked the
magnetization. Cycles with an even number of pi pulses have a scalar net
frame, so this changes nothing for them; odd-count cycles (single echo,
odd nonequidistant trains) report the positive echo amplitude instead of
an alternating sign.
"""

import concurrent.futures
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .hamiltonians import _basis_z, _h_e_blocks, _sectors, build_h_free
from .operators import _SPIN_HALF, eig_propagators, exp_propagators
from .pulses import (ErrorModel, _driven_hamiltonian, delta_rotation, ideal_frame,
                     sample_rf_scale)
from .util import first_crossing, fmt, realization_rng, require_int

RECORD_MODES = ("cycle_boundaries", "every_pulse")
INITIAL_AXES = ("x", "y", "z")

# below this many cycles a direct conjugation loop beats diagonalizing
# the cycle propagator
_POWER_MIN_CYCLES = 16

# pulse ends closer than this are one recording instant
_SAME_INSTANT = 1e-12

# _unitary_eig: the generic phase of its Hermitian part, the gap below
# which eigenvalues form one cluster and get no first-order correction,
# and the largest off-diagonal residual it accepts
_EIG_PHASE = 0.5 * (np.sqrt(5.0) - 1.0)
_EIG_CLUSTER_GAP = 1e-6
_EIG_RESIDUAL_MAX = 1e-13


@dataclass(frozen=True, eq=False)
class RunSpec:
    """Everything one survival-probability run needs.

    initial_axis is the deviation direction of the prepared state; record
    selects sampling at cycle boundaries (default) or after every pulse.
    """

    model: object
    timeline: object
    error_model: ErrorModel = ErrorModel()
    initial_axis: str = "x"
    n_realizations: int = 1
    master_seed: int = 0
    record: str = "cycle_boundaries"

    def __post_init__(self):
        if self.initial_axis not in INITIAL_AXES:
            raise ContractError(f"initial_axis must be x, y or z, got {self.initial_axis!r}")
        require_int(self.n_realizations, "n_realizations")
        require_int(self.master_seed, "master_seed")
        if self.n_realizations < 1:
            raise ContractError("n_realizations must be >= 1")
        if self.master_seed < 0:
            raise ContractError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.record not in RECORD_MODES:
            raise ContractError(f"record must be one of {RECORD_MODES}, got {self.record!r}")


@dataclass(frozen=True, eq=False)
class SurvivalTrace:
    """Ensemble-averaged survival probability against time.

    times are strictly increasing and start at 0; n_pulses counts pulses
    applied up to each instant; stderr is the standard error over
    realizations (zero for a single realization).
    """

    times: np.ndarray
    n_pulses: np.ndarray
    s: np.ndarray
    stderr: np.ndarray
    axis: str
    label: str

    def __post_init__(self):
        for name in ("times", "n_pulses", "s", "stderr"):
            a = np.asarray(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if not np.all(np.diff(self.times) > 0):
            raise ContractError("trace times must be strictly increasing")
        # written so that NaN fails the bound
        if not (np.all(np.abs(self.s) <= 1.0 + 1e-9) and np.all(np.isfinite(self.stderr))):
            raise ContractError("survival probabilities must be finite, within "
                                "[-1, 1] + 1e-9, with a finite stderr")

    def to_csv(self, fh, meta=None):
        """Write `time_us,n_pulses,s,stderr` rows with `# key=value` headers."""
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write("time_us,n_pulses,s,stderr\n")
        for t, n, s, e in zip(self.times, self.n_pulses, self.s, self.stderr):
            fh.write(f"{fmt(t)},{int(n)},{fmt(s)},{fmt(e)}\n")


class TauBEstimate(NamedTuple):
    """1/e crossing of a correlation series; reached is False when the
    series never gets there, in which case value is the end of the grid."""

    value: float
    reached: bool


def _pulse_blocks(ev, h_blocks, err, rf_scale, tilt=None):
    """Per-sector blocks of one pulse event; `tilt` overrides err.axis_tilt.

    A delta pulse is one 2x2 system rotation, returned alone as it acts the
    same on every sector (see _Accumulated.advance); a finite pulse is a
    list of one driven Hamiltonian exponentiated per block, so each
    diagonalization costs O(sum_k (2 C(n, k))^3) rather than O(dim^3).
    """
    if ev.duration > 0:
        rate = ev.nominal_angle / ev.duration
        return [exp_propagators(_driven_hamiltonian(h, ev.axis, rate, rf_scale, err, tilt),
                                (ev.duration,))[ev.duration] for h in h_blocks]
    return delta_rotation(ev.axis, ev.nominal_angle, rf_scale, err, tilt)


def _advance(u, w, out):
    """out = U W for one sector's blocks w, out of shape (2, 2, C, C) (see
    _Accumulated): U is a free step's (2, C, C) system-diagonal halves
    (_free_table) or a full (2C, 2C) block, a finite pulse or an interval
    product."""
    if u.ndim == 3:
        np.matmul(u, w, out=out)
    else:
        out[...] = (u @ w.reshape(2, len(u), -1)).reshape(out.shape)


class _Accumulated:
    """The accumulated propagators W of every sector, from the identity.

    They share one buffer of shape (2, 2, sum_k C_k^2), system-major: row
    [t, s] holds the (C, C) blocks <s|W|t> between column system state t and
    row system state s of each sector in turn, and blocks[k] views sector k
    as (2, 2, C, C). A delta pulse and the survival Gram then take one matmul
    for all sectors; each free step or full block takes one per sector. Each
    step writes the second of two buffers and swaps them.
    """

    def __init__(self, widths):
        offsets = np.cumsum([0] + [c * c for c in widths])
        self._buffers = [np.zeros((2, 2, offsets[-1]), dtype=complex) for _ in range(2)]
        self._blocks = [[b[:, :, o:o + c * c].reshape(2, 2, c, c)
                         for o, c in zip(offsets, widths)] for b in self._buffers]
        for block in self.blocks:
            block[0, 0] = block[1, 1] = np.eye(len(block[0, 0]))

    @property
    def blocks(self):
        return self._blocks[0]

    def advance(self, us):
        """W <- U W for one 2x2 rotation `us` of the system spin, or a list
        of one operator per sector (see _advance)."""
        if isinstance(us, list):
            for u, w, out in zip(us, *self._blocks):
                _advance(u, w, out)
        else:
            np.matmul(us, self._buffers[0], out=self._buffers[1])
        self._buffers.reverse()
        self._blocks.reverse()

    def gram(self):
        """The 4x4 Gram matrix of the [t, s] rows, summed over sectors."""
        x = self._buffers[0].reshape(4, -1)
        return x @ x.conj().T


def _interval_products(pieces, h_blocks, free_us, err, rf_scale):
    """Yield, for each segment list of `pieces` in order, the per-sector
    product of its segment propagators as full (2C, 2C) blocks.

    Free segments are read from the shared table free_us (_free_table) and
    pulses built by _pulse_blocks. The errors are static: each pulse shape is
    built once, and segment lists of equal shape yield one shared product.
    """
    events = {_shape(p): p for segments in pieces for kind, p in segments if kind == "pulse"}
    pulses = {key: _pulse_blocks(ev, h_blocks, err, rf_scale) for key, ev in events.items()}
    shared = {}
    for segments in pieces:
        key = tuple(p if kind == "free" else _shape(p) for kind, p in segments)
        if key not in shared:
            w = _Accumulated([len(h) // 2 for h in h_blocks])
            for kind, p in segments:
                w.advance(free_us[p] if kind == "free" else pulses[_shape(p)])
            shared[key] = [b.transpose(1, 2, 0, 3).reshape(2 * len(b[0, 0]), -1)
                           for b in w.blocks]
        yield shared[key]


# (halves, eigenpairs) of the last blocks _free_table diagonalized, replaced
# whole on a miss; at n_bath 7 each of the two takes about 110 KB
_free_eigs = None


def _free_table(h_blocks, dts):
    """{dt: [exp(-i H_k dt) for each block H_k]}, each as its (2, C, C)
    system-diagonal halves, from one eigh of both halves per block.

    H_k must conserve the system S_z, as H_free does, so that it is
    diag(H_E,k + D_k/2, H_E,k - D_k/2) with D = sum_j b_j I_z^j.

    The eigenpairs of the last halves diagonalized stay in one slot: a call
    whose halves are np.array_equal to them, such as the next delay of a
    sweep on one model, skips every eigh. eigh is deterministic, so a hit
    gives the same bits as a miss.
    """
    global _free_eigs
    if not dts:
        return {}
    halves = []
    for h in h_blocks:
        c = len(h) // 2
        halves.append(np.stack((h[:c, :c], h[c:, c:])))
    slot = _free_eigs
    if slot is not None and len(slot[0]) == len(halves) and all(
            np.array_equal(a, b) for a, b in zip(slot[0], halves)):
        eigs = slot[1]
    else:
        eigs = [np.linalg.eigh(x) for x in halves]
        _free_eigs = (halves, eigs)
    tables = [eig_propagators(eig, dts) for eig in eigs]
    return {dt: [table[dt] for table in tables] for dt in dts}


def _shape(ev):
    return ev.axis, ev.nominal_angle, ev.duration


class _Interval(NamedTuple):
    """Segments of a cycle up to the recording instant `end`, the cycle's
    pulse count there, and the net ideal frame of its pulses (a 2x2 system
    rotation, or None when it is a scalar)."""

    segments: list
    end: float
    n_pulses: int
    frame: object


def _net_frame(segments):
    frame = ideal_frame(p for kind, p in segments if kind == "pulse")
    scalar = frame[0, 0]
    if abs(abs(scalar) - 1.0) < 1e-12 and \
            float(np.max(np.abs(frame - scalar * np.eye(2)))) < 1e-12:
        return None
    return frame


def _recording_intervals(timeline, record):
    """Timeline.segments() cut after each recording instant of the cycle.

    Both modes record at the cycle end; every_pulse also records at the
    end of each pulse. Pulses that end within 1e-12 of each other share
    the instant of the last one, and a pulse ending at the cycle start is
    no instant of its own, so s(0) stays the prepared state.
    """
    segments = timeline.segments()
    # (index of the segment that closes it, time) per candidate instant
    cuts = []
    if record == "every_pulse":
        cuts = [(i, p.end_time) for i, (kind, p) in enumerate(segments)
                if kind == "pulse" and p.end_time > _SAME_INSTANT]
    cuts.append((len(segments) - 1, timeline.cycle_time))
    intervals, first, n = [], 0, 0
    for (last, end), (_, next_end) in zip(cuts, cuts[1:] + [(None, np.inf)]):
        if next_end - end <= _SAME_INSTANT:
            continue
        pieces = segments[first:last + 1]
        n += sum(kind == "pulse" for kind, _ in pieces)
        intervals.append(_Interval(pieces, end, n, _net_frame(pieces)))
        first = last + 1
    return intervals


def _powered_overlaps(u_cycle, s_u, n_cycles):
    """Survival overlaps after 0..n_cycles applications of one propagator,
    given as sector blocks, or None when a block has no accurate unitary
    eigenbasis (see _unitary_eig).

    With U = P diag(exp(i theta)) P^dag per block, the m-fold conjugation
    of the deviation S_u (x) 1 collapses to phase powers of theta; s(m) is
    then the deviation autocorrelation of _autocorrelation at cycle count m,
    with frequencies -theta. Only the eigenphases enter, so |lambda| is 1
    exactly and roundoff does not drift over long runs.
    """
    blocks = []
    for u in u_cycle:
        eig = _unitary_eig(u)
        if eig is None:
            return None
        eig = (-eig[0], eig[1])
        blocks.append((eig, eig, [np.kron(s_u, np.eye(len(u) // 2))]))
    return np.concatenate(([1.0], _autocorrelation(blocks, np.arange(1, n_cycles + 1))))


def _hermitian_part(u, phase):
    """(exp(-i phase) U + h.c.) / 2, whose eigenvalues are cos(theta - phase)
    for the eigenphases theta of a unitary U."""
    h = np.exp(-1j * phase) * u
    return 0.5 * (h + h.conj().T)


def _unitary_eig(u):
    """(theta, P) with U = P diag(exp(i theta)) P^dag and P unitary, for one
    unitary block U, or None when the basis found leaves an off-diagonal
    residual max|P^dag U P - diag| above _EIG_RESIDUAL_MAX.

    The eigenvectors of the Hermitian part at the generic phase _EIG_PHASE
    diagonalize U except within clusters of near-equal cos(theta - phase):
    eigenphase pairs mirrored about the phase, and eigenphases near the
    phase or opposite it, where cos is flat. Each cluster is diagonalized
    again through its Hermitian part at the phase + pi/2. One first-order
    correction X_ij = D_ij / (lambda_j - lambda_i) over the gaps above
    _EIG_CLUSTER_GAP, with D = P^dag U P, and one Newton-Schulz step
    P(3 - P^dag P)/2 back to a unitary P then bring the residual to
    roundoff.
    """
    w, p = np.linalg.eigh(_hermitian_part(u, _EIG_PHASE))
    d = p.conj().T @ u @ p
    edges = np.flatnonzero(np.diff(w) > _EIG_CLUSTER_GAP) + 1
    if edges.size + 1 < w.size:
        for lo, hi in zip([0, *edges], [*edges, w.size]):
            if hi - lo > 1:
                _, q = np.linalg.eigh(
                    _hermitian_part(d[lo:hi, lo:hi], _EIG_PHASE + 0.5 * np.pi))
                p[:, lo:hi] = p[:, lo:hi] @ q
        d = p.conj().T @ u @ p
    lam = np.diag(d)
    gap = lam[None, :] - lam[:, None]
    far = np.abs(gap) > _EIG_CLUSTER_GAP
    p = p + p @ (np.where(far, d, 0.0) / np.where(far, gap, 1.0))
    p = p @ (1.5 * np.eye(w.size) - 0.5 * (p.conj().T @ p))
    d = p.conj().T @ u @ p
    theta = np.angle(np.diag(d))
    np.fill_diagonal(d, 0.0)
    if np.max(np.abs(d)) > _EIG_RESIDUAL_MAX:
        return None
    return theta, p


def _spectral_series(weights, rows, cols, times):
    """Re sum_ab W_ab exp(i (f_a - g_b) t) for every t of `times`, with row and
    column frequencies f = `rows`, g = `cols` (one array on a diagonal block),
    as Re sum_a conj(E_a) (W G)_a with E = exp(-i f t), G = exp(-i g t), over
    blocks of at least 256 times, so memory stays O(dim max(dim, 256)).
    """
    times = np.asarray(times, dtype=float)
    series = np.empty(times.size)
    step = max(*weights.shape, 256)
    for start in range(0, times.size, step):
        e = np.exp(-1j * np.outer(rows, times[start:start + step]))
        g = e if cols is rows else np.exp(-1j * np.outer(cols, times[start:start + step]))
        series[start:start + step] = np.real(np.einsum("at,at->t", e.conj(), weights @ g))
    return series


def _realization_curve(spec, intervals, h_blocks, s_u, k, free_us):
    """Survival values for realization k at the recording instants.

    The direct loop carries the accumulated propagators W (_Accumulated) and
    reads s = Re Tr{(d (x) 1) W (S_u (x) 1) W^dag} / Tr{(S_u (x) 1)^2}, with d
    the prepared S_u in the detection frame, as the sum of the 4x4 Gram
    against kron(S_u^T, d). A static run applies its interval products, a
    jittered run each segment.
    """
    n_cycles, err = spec.timeline.n_cycles, spec.error_model
    rng = realization_rng(spec.master_seed, k)
    rf_scale = sample_rf_scale(err, rng)
    pieces = [iv.segments for iv in intervals]
    if err.tilt_jitter_sd == 0:
        static = list(_interval_products(pieces, h_blocks, free_us, err, rf_scale))
        if (spec.record == "cycle_boundaries" and intervals[0].frame is None
                and n_cycles >= _POWER_MIN_CYCLES):
            powered = _powered_overlaps(static[0], s_u, n_cycles)
            if powered is not None:
                return powered

        def operators(i):
            return [static[i]]
    else:
        def operators(i):
            # every pulse application draws a fresh tilt, in time order
            return (free_us[p] if kind == "free" else _pulse_blocks(
                p, h_blocks, err, rf_scale, err.axis_tilt + rng.normal(0.0, err.tilt_jitter_sd))
                for kind, p in pieces[i])

    w = _Accumulated([len(h) // 2 for h in h_blocks])
    d, key = s_u, np.kron(s_u.T, s_u)
    norm0 = 0.25 * sum(len(h) for h in h_blocks)
    values = [1.0]
    for _ in range(n_cycles):
        for i, iv in enumerate(intervals):
            for us in operators(i):
                w.advance(us)
            if iv.frame is not None:
                d = iv.frame @ d @ iv.frame.conj().T
                key = np.kron(s_u.T, d)
            values.append(float(np.real(np.vdot(key, w.gram()))) / norm0)
    return np.asarray(values)


def propagate(spec, threads=1):
    """Run the ensemble and return the averaged SurvivalTrace.

    Every propagator and state is a list of bath-magnetization sector
    blocks (hamiltonians._sectors), so the largest diagonalization is the
    largest block. The reduction order over realizations is fixed by
    index, so the result is bit-identical for any thread count.
    """
    if require_int(threads, "threads") < 1:
        raise ContractError(f"threads must be >= 1, got {threads}")
    model, tl = spec.model, spec.timeline
    h_blocks = build_h_free(model, _sectors(model.n_bath))
    s_u = _SPIN_HALF[spec.initial_axis]
    intervals = _recording_intervals(tl, spec.record)
    # free evolution does not depend on the pulse-error draw, so the
    # realizations share one table read-only
    free_us = _free_table(h_blocks, {dt for iv in intervals
                                     for kind, dt in iv.segments if kind == "free"})

    def curve(k):
        return _realization_curve(spec, intervals, h_blocks, s_u, k, free_us)

    ks = range(spec.n_realizations)
    if threads > 1 and spec.n_realizations > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            curves = np.vstack(list(pool.map(curve, ks)))
    else:
        curves = np.vstack([curve(k) for k in ks])

    m = np.arange(tl.n_cycles)[:, None]
    times = m * tl.cycle_time + np.array([iv.end for iv in intervals])
    # a cycle ends at (m + 1) tau_c; m tau_c + tau_c can differ in the last bit
    times[:, -1] = (m[:, 0] + 1) * tl.cycle_time
    counts = m * intervals[-1].n_pulses + np.array([iv.n_pulses for iv in intervals])
    mean = curves.mean(axis=0)
    if curves.shape[0] > 1:
        stderr = curves.std(axis=0, ddof=1) / np.sqrt(curves.shape[0])
    else:
        stderr = np.zeros_like(mean)
    return SurvivalTrace(times=np.concatenate(([0.0], times.ravel())),
                         n_pulses=np.concatenate(([0], counts.ravel())), s=mean,
                         stderr=stderr, axis=spec.initial_axis, label=tl.label)


def bath_correlation(model, t_grid, which="ix_total", j=0):
    """Normalized bath autocorrelation Tr{A(0) A(t)} / Tr{A A} under H_E.

    which='ix_total' uses A = sum_j I_x^j (the transverse free-induction
    observable of the bath species); which='iz' uses A = I_z^j for the
    chosen bath index j. Baths with uneven couplings give genuinely
    different per-j curves, so j is explicit. which='iz_mean' is the mean
    of the per-spin I_z^j curves over all j, the curve tau_B is read from.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not np.all(np.isfinite(t_grid)):
        raise ContractError(f"t_grid must be 1-D and finite, got shape {t_grid.shape}")
    require_int(j, "bath index j")
    if which not in ("ix_total", "iz", "iz_mean"):
        raise ContractError(f"which must be 'ix_total', 'iz' or 'iz_mean', got {which!r}")
    if which != "iz" and model.n_bath == 0:
        raise ContractError(f"{which} correlation needs at least one bath spin")
    if which == "iz" and not 0 <= j < model.n_bath:
        raise ContractError(f"bath index {j} out of range for n_bath={model.n_bath}")
    spins = None if which == "ix_total" else [j] if which == "iz" else range(model.n_bath)
    return _autocorrelation(_bath_blocks(model, spins), t_grid)


def _bath_blocks(model, spins):
    """_autocorrelation blocks under H_E, one eigh per bath-space sector, of the
    I_z^j of `spins` by their diagonals, or of sum_j I_x^j when spins is None:
    its (k, k + 1) blocks only, as their transposes add the conjugate series."""
    sectors, eigs = zip(*[(idx, np.linalg.eigh(h)) for idx, h in _h_e_blocks(model)])
    if spins is None:
        return [(a, b, [0.5 * (np.bitwise_count(ka[:, None] ^ kb) == 1)])
                for a, b, ka, kb in zip(eigs, eigs[1:], sectors, sectors[1:])]
    z = _basis_z(model.n_bath)[list(spins)]
    return [(eig, eig, list(z[:, idx])) for eig, idx in zip(eigs, sectors)]


def _autocorrelation(blocks, times):
    """sum_j Tr{A_j(0) A_j(t)} / sum_j Tr{A_j A_j} for every t of `times`.

    Each block is ((f, V), (g, U), observables): the eigenpairs of the
    evolution on two invariant subspaces (one twice for a diagonal block) and
    the block of each Hermitian A_j between them, or its diagonal. The weights
    sum_j |V^dag A_j U|^2 of every block go through _spectral_series; the
    series are summed and divided by the total weight. For A_j of equal norm,
    such as the I_z^j, this is the mean of their normalized curves.
    """
    series, total = 0.0, 0.0
    for (f, v), (g, u), observables in blocks:
        vh = v.conj().T
        weights = sum(np.abs((vh * a if a.ndim == 1 else vh @ a) @ u) ** 2 for a in observables)
        series = series + _spectral_series(weights, f, g, times)
        total = total + weights.sum()
    return series / total


def estimate_tau_b(series, times):
    """First 1/e crossing of a correlation series, linearly interpolated.

    The series must start at 1 (within 1e-6) on strictly increasing times. When
    it never reaches 1/e the estimate is flagged unreached at the end of the grid.
    """
    series = np.asarray(series, dtype=float)
    times = np.asarray(times, dtype=float)
    if series.size < 2:
        raise ContractError("need at least two samples")
    if times.ndim != 1 or times.shape != series.shape or not np.all(np.diff(times) > 0):
        raise ContractError(f"times must increase strictly, one per sample, got {times.shape}")
    if abs(series[0] - 1.0) > 1e-6:
        raise ContractError(f"correlation series must start at 1, got {series[0]}")
    t = first_crossing(times, series, 1.0 / np.e)
    if t is None:
        return TauBEstimate(float(times[-1]), False)
    return TauBEstimate(t, True)


def model_tau_b(model, t_max=2000.0, n_points=800):
    """Bath correlation time from the per-spin I_z curves, averaged over j.

    Doubles the grid (up to 8x) when the mean curve has not crossed 1/e;
    each H_E sector block is diagonalized once for all spins and horizons.
    """
    if model.n_bath == 0:
        raise ContractError("tau_B needs at least one bath spin")
    if not (math.isfinite(t_max) and t_max > 0 and n_points >= 2):
        raise ContractError(f"model_tau_b needs a finite t_max > 0 and n_points >= 2, "
                            f"got t_max={t_max}, n_points={n_points}")
    blocks = _bath_blocks(model, range(model.n_bath))
    horizon = float(t_max)
    for _ in range(4):
        t_grid = np.linspace(0.0, horizon, n_points)
        est = estimate_tau_b(_autocorrelation(blocks, t_grid), t_grid)
        if est.reached:
            return est
        horizon *= 2.0
    return est
