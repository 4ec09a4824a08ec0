"""Exact propagation of decoupling runs and bath correlation functions.

The initial state is the identity plus a small deviation along one spin
component, rho(0) = 1/d + eps S_u with eps = 2/d; the bath enters exactly
maximally mixed, so no averaging over bath configurations is needed. The
reported survival probability is the deviation overlap

    s_u(t) = Tr{S_u rho(t)} / Tr{S_u rho(0)},

which equals 1 at t = 0 and is immune to global propagator phases.

Ensemble averaging covers pulse-error realizations only: each realization
draws one RF amplitude scale (static inhomogeneity) from the error model,
with a generator seeded deterministically from (master_seed, k). When all
errors are static within a realization, the cycle propagator is built
once per realization; long runs then advance through its eigenphase
powers instead of conjugating the state cycle by cycle, which costs
O(dim^2) per cycle instead of O(dim^3). Pulse-to-pulse tilt jitter breaks
that reuse, so jittered runs rebuild the cycle propagator every cycle.

Detection follows the ideal pulse frame, the numerical analog of a
receiver phase that tracks where a perfect sequence would have parked the
magnetization. Cycles with an even number of pi pulses have a scalar net
frame, so this changes nothing for them; odd-count cycles (single echo,
odd nonequidistant trains) report the positive echo amplitude instead of
an alternating sign.
"""

import concurrent.futures
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, TimelineError
from .hamiltonians import build_h_e, build_h_free
from .operators import exp_propagators
from .pulses import (ErrorModel, PulseSpec, _conjugate, _left, delta_rotation, ideal_frame,
                     real_pulse, sample_rf_scale)
from .sequences import validate_timeline
from .util import first_crossing, fmt, realization_rng

RECORD_MODES = ("cycle_boundaries", "every_pulse")
INITIAL_AXES = ("x", "y", "z")

# below this many cycles a direct conjugation loop beats diagonalizing
# the cycle propagator
_POWER_MIN_CYCLES = 16


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
        if float(np.max(np.abs(self.s))) > 1.0 + 1e-9:
            raise ContractError("survival probabilities must stay within [-1, 1] + 1e-9")

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


def _cycle_frame(timeline):
    """Net ideal frame of one cycle for detection, a 2x2 system rotation,
    or None when it is a scalar (the common case)."""
    frame = ideal_frame(timeline.events)
    scalar = frame[0, 0]
    if abs(abs(scalar) - 1.0) < 1e-12 and \
            float(np.max(np.abs(frame - scalar * np.eye(2)))) < 1e-12:
        return None
    return frame


class PropagatorCache:
    """Segment propagators for one realization: the run's shared free
    table {dt: exp(-i H_free dt)} plus pulse propagators.

    Delta pulses are 2x2 rotations of the system spin (see pulses._left);
    finite pulses are full-space propagators. With tilt jitter enabled
    every pulse is built fresh from a new tilt draw (in pulse application
    order, so runs are deterministic in the realization seed); without it
    pulses are cached by shape.
    """

    def __init__(self, h_free, ops, err, rf_scale, free_us, rng):
        self.h_free = h_free
        self.ops = ops
        self.err = err
        self.rf_scale = rf_scale
        self.rng = rng
        self._free = free_us
        self._pulse = {}

    def segment(self, kind, payload):
        return self._free[payload] if kind == "free" else self.pulse(payload)

    def cycle(self, segments):
        """Product of the segment propagators over one cycle."""
        u_cycle = self.ops.identity
        for i, (kind, payload) in enumerate(segments):
            u = self.segment(kind, payload)
            u_cycle = u if i == 0 and u.shape == u_cycle.shape else _left(u, u_cycle)
        return u_cycle

    def pulse(self, ev):
        jitter = self.err.tilt_jitter_sd > 0
        key = (ev.axis, ev.nominal_angle, ev.duration)
        if not jitter:
            u = self._pulse.get(key)
            if u is not None:
                return u
        tilt = None
        if jitter:
            tilt = self.err.axis_tilt + self.rng.normal(0.0, self.err.tilt_jitter_sd)
        if ev.duration > 0:
            spec = PulseSpec(ev.axis, ev.nominal_angle, ev.duration,
                             ev.nominal_angle / ev.duration)
            u = real_pulse(spec, self.rf_scale, self.err, self.h_free, self.ops,
                           tilt=tilt).matrix
        else:
            u = delta_rotation(ev.axis, ev.nominal_angle, self.rf_scale, self.err, tilt)
        if not jitter:
            self._pulse[key] = u
        return u


def _powered_overlaps(u_cycle, dev0, rho0, norm0, n_cycles):
    """Survival overlaps after 0..n_cycles applications of one propagator.

    In the eigenbasis of the cycle propagator the m-fold conjugation
    collapses to phase powers, s(m) = sum_ij w_ij z_ij^m with |z_ij| = 1,
    so each cycle costs an elementwise multiply instead of two matrix
    products. Eigenvalue moduli are renormalized to 1 to stop roundoff
    drift over long runs; agreement with the direct loop is at the
    1e-13 level even for fully degenerate spectra.
    """
    lam, p = np.linalg.eig(u_cycle)
    lam = lam / np.abs(lam)
    pinv = np.linalg.inv(p)
    a = p.conj().T @ dev0 @ p
    b = pinv @ rho0 @ pinv.conj().T
    w = (a * b.T).ravel()
    z = (np.conj(lam)[:, None] * lam[None, :]).ravel()
    keep = np.abs(w) > np.abs(w).sum() * 1e-16
    w, z = w[keep], z[keep]
    values = np.empty(n_cycles + 1)
    values[0] = 1.0
    cur = np.ones_like(z)
    for m in range(1, n_cycles + 1):
        cur *= z
        values[m] = np.real(w @ cur) / norm0
    return values


def _realization_curve(spec, segments, h_free, dev0, norm0, k, cycle_frame, free_us):
    """Survival values for realization k at the configured record instants."""
    model, tl = spec.model, spec.timeline
    rng = realization_rng(spec.master_seed, k)
    rf_scale = sample_rf_scale(spec.error_model, rng)
    cache = PropagatorCache(h_free, model.ops, spec.error_model, rf_scale, free_us, rng)
    rho = model.ops.identity / model.ops.dim + dev0
    static_pulses = spec.error_model.tilt_jitter_sd == 0

    if spec.record == "cycle_boundaries":
        u_cycle = cache.cycle(segments)
        if static_pulses and cycle_frame is None and tl.n_cycles >= _POWER_MIN_CYCLES:
            return _powered_overlaps(u_cycle, dev0, rho, norm0, tl.n_cycles)
        det = dev0
        values = np.empty(tl.n_cycles + 1)
        values[0] = 1.0
        for m in range(1, tl.n_cycles + 1):
            # jittered pulses draw fresh tilts, so every cycle is rebuilt;
            # drop the previous propagator first so only one is alive
            if m > 1 and not static_pulses:
                del u_cycle
                u_cycle = cache.cycle(segments)
            rho = _conjugate(u_cycle, rho)
            if cycle_frame is not None:
                det = _conjugate(cycle_frame, det)
            values[m] = np.real(np.einsum("ij,ji->", det, rho)) / norm0
        return values

    # every_pulse: step through all cycles, sampling after each pulse and
    # at each cycle boundary. The recording grid is identical across
    # realizations, so values align by index.
    det = dev0
    values = [1.0]
    for _ in range(tl.n_cycles):
        for kind, payload in segments:
            rho = _conjugate(cache.segment(kind, payload), rho)
            if kind == "pulse":
                det = _conjugate(delta_rotation(payload.axis, payload.nominal_angle), det)
                values.append(np.real(np.einsum("ij,ji->", det, rho)) / norm0)
        values.append(np.real(np.einsum("ij,ji->", det, rho)) / norm0)
    return np.asarray(values)


def _record_grid(timeline, record):
    """(times, n_pulses) for the recording instants of the whole run."""
    if record == "cycle_boundaries":
        m = np.arange(timeline.n_cycles + 1)
        return m * timeline.cycle_time, m * timeline.pulses_per_cycle
    times, counts = [0.0], [0]
    n = 0
    for m in range(timeline.n_cycles):
        shift = m * timeline.cycle_time
        for ev in timeline.events:
            n += 1
            times.append(shift + ev.end_time)
            counts.append(n)
        times.append(shift + timeline.cycle_time)
        counts.append(n)
    return np.asarray(times), np.asarray(counts)


def _dedupe_grid(times, counts, curves):
    """Merge recording instants that coincide (back-to-back delta pulses),
    keeping the last value at each time."""
    keep = np.ones(times.size, dtype=bool)
    keep[:-1] = np.diff(times) > 1e-12
    return times[keep], counts[keep], curves[:, keep]


def propagate(spec, threads=1):
    """Run the ensemble and return the averaged SurvivalTrace.

    The reduction order over realizations is fixed by index, so the result
    is bit-identical for any thread count.
    """
    if threads < 1:
        raise ContractError(f"threads must be >= 1, got {threads}")
    problems = validate_timeline(spec.timeline)
    if problems:
        raise TimelineError("; ".join(problems))
    model = spec.model
    h_free = build_h_free(model)
    eps = 2.0 / model.ops.dim
    dev0 = eps * model.ops.s(spec.initial_axis)
    norm0 = float(np.real(np.einsum("ij,ji->", dev0, dev0)))
    segments = spec.timeline.segments()
    cycle_frame = _cycle_frame(spec.timeline)
    # free evolution does not depend on the pulse-error draw, so the
    # realizations share one table read-only
    free_us = exp_propagators(h_free, {dt for kind, dt in segments if kind == "free"})

    ks = range(spec.n_realizations)
    if threads > 1 and spec.n_realizations > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            curves = list(pool.map(
                lambda k: _realization_curve(
                    spec, segments, h_free, dev0, norm0, k, cycle_frame, free_us),
                ks))
    else:
        curves = [_realization_curve(spec, segments, h_free, dev0, norm0, k, cycle_frame,
                                     free_us) for k in ks]
    curves = np.vstack(curves)

    times, counts = _record_grid(spec.timeline, spec.record)
    if spec.record == "every_pulse":
        times, counts, curves = _dedupe_grid(times, counts, curves)
    mean = curves.mean(axis=0)
    if curves.shape[0] > 1:
        stderr = curves.std(axis=0, ddof=1) / np.sqrt(curves.shape[0])
    else:
        stderr = np.zeros_like(mean)
    return SurvivalTrace(times=times, n_pulses=counts, s=mean, stderr=stderr,
                         axis=spec.initial_axis, label=spec.timeline.label)


def bath_correlation(model, t_grid, which="ix_total", j=0):
    """Normalized bath autocorrelation Tr{A(0) A(t)} / Tr{A A} under H_E.

    which='ix_total' uses A = sum_j I_x^j (the transverse free-induction
    observable of the bath species); which='iz' uses A = I_z^j for the
    chosen bath index j. Baths with uneven couplings give genuinely
    different per-j curves, so j is explicit.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    ops = model.ops
    if which == "ix_total":
        if model.n_bath == 0:
            raise ContractError("ix_total correlation needs at least one bath spin")
        a = np.sum(ops.ix, axis=0)
    elif which == "iz":
        if not 0 <= j < model.n_bath:
            raise ContractError(f"bath index {j} out of range for n_bath={model.n_bath}")
        a = ops.iz[j]
    else:
        raise ContractError(f"which must be 'ix_total' or 'iz', got {which!r}")
    return _correlation_series(np.linalg.eigh(build_h_e(model)), a, t_grid)


def _correlation_series(eig_h_e, a, t_grid):
    """Tr{A(0) A(t)} / Tr{A A} on t_grid from the eigenpairs (w, v) of H_E."""
    w, v = eig_h_e
    a_eig = v.conj().T @ a @ v
    weights = np.abs(a_eig) ** 2
    norm = float(weights.sum())
    if norm <= 0:
        raise ContractError("correlation normalization is zero")
    gaps = (w[:, None] - w[None, :]).ravel()
    weights = weights.ravel()
    # matrix elements between same-sector eigenstates dominate; drop the
    # zero weights so the phase table stays small
    keep = weights > norm * 1e-15
    phases = np.outer(gaps[keep], t_grid)
    np.cos(phases, out=phases)
    series = (weights[keep] @ phases) / norm
    return series


def estimate_tau_b(series, times):
    """First 1/e crossing of a correlation series, linearly interpolated.

    The series must start at 1 (within 1e-6). When it never reaches 1/e the
    estimate is flagged unreached and reports the end of the grid.
    """
    series = np.asarray(series, dtype=float)
    times = np.asarray(times, dtype=float)
    if series.size < 2:
        raise ContractError("need at least two samples")
    if abs(series[0] - 1.0) > 1e-6:
        raise ContractError(f"correlation series must start at 1, got {series[0]}")
    t = first_crossing(times, series, 1.0 / np.e)
    if t is None:
        return TauBEstimate(float(times[-1]), False)
    return TauBEstimate(t, True)


def model_tau_b(model, t_max=2000.0, n_points=800):
    """Bath correlation time from the per-spin I_z curves, averaged over j.

    Doubles the grid (up to 8x) when the mean curve has not crossed 1/e;
    H_E is diagonalized once for all spins and horizons.
    """
    if model.n_bath == 0:
        raise ContractError("tau_B needs at least one bath spin")
    eig_h_e = np.linalg.eigh(build_h_e(model))
    horizon = float(t_max)
    for _ in range(4):
        t_grid = np.linspace(0.0, horizon, n_points)
        mean = np.mean(
            [_correlation_series(eig_h_e, iz, t_grid) for iz in model.ops.iz],
            axis=0,
        )
        est = estimate_tau_b(mean, t_grid)
        if est.reached:
            return est
        horizon *= 2.0
    return est
