"""Decay-curve reduction and optimal-delay sweeps.

Oscillating survival traces (pulse-error beats, coupling fringes) are first
reduced to an upper envelope; a decay time is then read off either as the
interpolated 1/e crossing of that envelope or from a least-squares
exponential fit to its logarithm. Sweeps rerun one sequence family across a
grid of inter-pulse delays at a fixed total evolution-time budget, so every
grid point gets the same wall-clock exposure to the bath, and report the
delay that maximizes the decay time.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .engine import RunSpec, SurvivalTrace, check_run_options, propagate
from .errors import ContractError, SpinBathError
from .pulses import ErrorModel
from .sequences import (compile_cdd, compile_cpmg, compile_free, compile_hahn,
                        compile_pdd, compile_udd)
from .util import first_crossing

SEQUENCE_FAMILIES = ("fid", "hahn", "cp", "cpmg", "cpmg2", "pdd", "cdd", "udd")
DECAY_METHODS = ("one_over_e", "exp_fit")


@dataclass(frozen=True)
class DecaySummary:
    """Decay time of one run plus the bookkeeping needed to compare runs.

    reached is False when the envelope never crossed 1/e (or the fit slope
    was not a decay), in which case decay_time is NaN.
    """

    sequence_label: str
    initial_axis: str
    tau: float
    tau_c: float
    decay_time: float
    method: str
    pulses_per_unit_time: float
    reached: bool


@dataclass(frozen=True)
class OrderFit:
    """Least-squares line n = c + b ln(tau_opt / tau_b).

    b is the log-slope; the observed trend of shorter optimal delays at
    higher concatenation order makes it negative. Standard deviations are
    NaN when there are too few points for a residual estimate.
    """

    c: float
    b: float
    c_sd: float
    b_sd: float
    n_points: int


@dataclass(frozen=True)
class SweepResult:
    summaries: tuple
    tau_opt: float
    failures: tuple


def envelope(trace):
    """Upper envelope of |s| via suffix maxima and linear interpolation.

    A sample is an anchor when no later sample of |s| exceeds it; anchors
    therefore track the decaying oscillation peaks, and a monotone trace is
    returned unchanged. Endpoints are always anchors.
    """
    y = np.abs(np.asarray(trace.s, dtype=float))
    if y.size < 4:
        raise ContractError(f"envelope needs at least 4 samples, got {y.size}")
    suffix_max = np.maximum.accumulate(y[::-1])[::-1]
    anchors = np.flatnonzero(y >= suffix_max - 1e-15)
    if anchors[0] != 0:
        anchors = np.insert(anchors, 0, 0)
    env = np.interp(trace.times, trace.times[anchors], y[anchors])
    return SurvivalTrace(times=trace.times, n_pulses=trace.n_pulses, s=env,
                         stderr=trace.stderr, axis=trace.axis, label=trace.label)


def decay_time(trace, method="one_over_e", tau=math.nan, tau_c=math.nan,
               pulses_per_unit_time=math.nan):
    """Reduce one survival trace to a DecaySummary.

    method 'one_over_e' interpolates the first 1/e crossing of the
    envelope; 'exp_fit' least-squares fits log(envelope) over the samples
    above a small floor and reports -1/slope.
    """
    if method not in DECAY_METHODS:
        raise ContractError(f"unknown decay-time method {method!r}")
    env = envelope(trace)
    t = np.asarray(env.times, dtype=float)
    y = np.asarray(env.s, dtype=float)
    value, reached = math.nan, False
    if method == "one_over_e":
        crossing = first_crossing(t, y, 1.0 / math.e)
        if crossing is not None and crossing > 0:
            value, reached = crossing, True
    else:
        floor = max(float(y.max()) * 1e-3, 1e-12)
        mask = y > floor
        if int(mask.sum()) >= 3:
            slope, _ = np.polyfit(t[mask], np.log(y[mask]), 1)
            if slope < 0:
                value, reached = -1.0 / slope, True
    return DecaySummary(
        sequence_label=trace.label, initial_axis=trace.axis, tau=tau, tau_c=tau_c,
        decay_time=value, method=method, pulses_per_unit_time=pulses_per_unit_time,
        reached=reached,
    )


def compile_family(family, tau, tau_p=0.0, n_cycles=1, order=2, udd_pulses=4):
    """Compile any family by name at inter-pulse delay tau.

    For 'udd' the delay is mapped onto the cycle through
    tau_c = N (tau + tau_p), which matches the equidistant trains' pulse
    rate at the same tau. 'fid' ignores tau_p and yields free evolution
    with cycle time 2 tau.
    """
    _check_family(family)
    if family == "fid":
        return compile_free(2.0 * tau, n_cycles)
    if family == "hahn":
        return compile_hahn(tau, tau_p, n_cycles)
    if family in ("cp", "cpmg", "cpmg2"):
        return compile_cpmg(tau, tau_p, n_cycles, variant=family)
    if family == "pdd":
        return compile_pdd(tau, tau_p, n_cycles)
    if family == "cdd":
        return compile_cdd(order, tau, tau_p, n_cycles)
    return compile_udd(udd_pulses, udd_pulses * (tau + tau_p), tau_p, n_cycles)


def fair_tau(family, tau, order=2):
    """Delay that matches the two-pulse train's pulse rate at delay tau.

    The matched rate is 1 pulse per (tau + tau_p). Equidistant families
    already satisfy it at the same tau; the echo runs at half the delay and
    concatenated cycles need tau scaled by N_n / 4^n. The pulse width tau_p
    cancels in the match, so the delay does not depend on it.
    """
    _check_family(family, fair=True)
    if family == "hahn":
        return 0.5 * tau
    if family == "cdd":
        n_free = 4**order
        n_pulses = 0
        for _ in range(order):
            n_pulses = 4 * n_pulses + 4
        return tau * n_pulses / n_free
    return tau


def _check_family(family, fair=False):
    """Raise a ContractError for an unknown family, or for 'fid' when its
    delay is to be matched by pulse rate (fair_tau)."""
    if family not in SEQUENCE_FAMILIES:
        raise ContractError(f"unknown family {family!r}; known: {SEQUENCE_FAMILIES}")
    if fair and family == "fid":
        raise ContractError("free evolution has no pulse rate to match")


def sweep_tau(family, tau_grid, model, error_model, axis, time_budget,
              tau_p=0.0, order=2, udd_pulses=4, n_realizations=1,
              master_seed=0, method="one_over_e", fair=False):
    """Decay time across a delay grid at a fixed total-time budget.

    Each grid point is compiled once, at one cycle, and run for n_cycles =
    max(1, round(budget / tau_c)) cycles, so long and short cycles see
    comparable total evolution time. Per-point domain errors
    (SpinBathError, LinAlgError) are recorded and the sweep continues; any
    other exception propagates. The returned tau_opt is the grid delay
    maximizing the decay time, with unreached decays ranked above any
    finite value (ties resolve to the smallest delay). The run options, the
    method and the family (with `fair`) are checked once, before the first
    point.
    """
    tau_grid = [float(t) for t in tau_grid]
    if not tau_grid:
        raise ContractError("tau_grid must not be empty")
    if not (math.isfinite(time_budget) and time_budget > 0):
        raise ContractError(f"time_budget must be finite and > 0, got {time_budget}")
    check_run_options(axis, n_realizations, master_seed)
    if method not in DECAY_METHODS:
        raise ContractError(f"unknown decay-time method {method!r}")
    _check_family(family, fair)
    summaries, failures = [], []
    for tau in tau_grid:
        try:
            tau_eff = fair_tau(family, tau, order) if fair else tau
            tl = compile_family(family, tau_eff, tau_p, 1, order, udd_pulses)
            tl = dataclasses.replace(tl, n_cycles=max(1, int(round(time_budget / tl.cycle_time))))
            spec = RunSpec(model=model, timeline=tl, error_model=error_model,
                           initial_axis=axis, n_realizations=n_realizations,
                           master_seed=master_seed)
            summaries.append(decay_time(
                propagate(spec), method, tau=tau, tau_c=tl.cycle_time,
                pulses_per_unit_time=tl.pulses_per_cycle / tl.cycle_time))
        except (SpinBathError, np.linalg.LinAlgError) as exc:
            failures.append((tau, f"{type(exc).__name__}: {exc}"))
    if not summaries:
        raise ContractError(f"every sweep point failed: {failures}")
    ranking = [math.inf if not s.reached else s.decay_time for s in summaries]
    top = max(ranking)
    tau_opt = min(s.tau for s, r in zip(summaries, ranking) if r == top)
    return SweepResult(summaries=tuple(summaries), tau_opt=tau_opt,
                       failures=tuple(failures))


def fit_order_relation(points, tau_b):
    """Fit n = c + b ln(tau_opt / tau_b) by least squares.

    Parameters
    ----------
    points : sequence of (order, tau_opt)
        At least two points with distinct tau_opt values.
    tau_b : float
        Bath correlation time used to normalize the delays.

    Returns
    -------
    OrderFit
    """
    pts = [(float(n), float(t)) for n, t in points]
    if len(pts) < 2:
        raise ContractError("order fit needs at least two points")
    if not (math.isfinite(tau_b) and tau_b > 0):
        raise ContractError(f"tau_b must be finite and > 0, got {tau_b}")
    for order, t in pts:
        if not (math.isfinite(order) and math.isfinite(t) and t > 0):
            raise ContractError(f"point ({order}, {t}) needs a finite order and a finite "
                                "tau_opt > 0")
    x = np.array([math.log(t / tau_b) for _, t in pts])
    n = np.array([o for o, _ in pts])
    if float(np.ptp(x)) < 1e-12:
        raise ContractError("tau_opt values are degenerate; cannot fit a slope")
    a = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(a, n, rcond=None)
    b, c = float(coef[0]), float(coef[1])
    dof = len(pts) - 2
    if dof > 0:
        resid = n - a @ coef
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.inv(a.T @ a)
        b_sd, c_sd = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])
    else:
        b_sd = c_sd = math.nan
    return OrderFit(c=c, b=b, c_sd=c_sd, b_sd=b_sd, n_points=len(pts))


def hahn_decay_trace(model, tau_grid, error_model=None, axis="x", tau_p=0.0,
                     n_realizations=1, master_seed=0):
    """Single-echo decay curve: s at the echo time (2 tau + tau_p) for each
    delay in the grid, as a SurvivalTrace, so the standard decay extraction
    applies. Every echo is compiled before any runs; one propagate call then
    runs them all as rows (engine.propagate), each the same as a run of its own.
    """
    grid = np.asarray(tau_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ContractError(f"tau_grid must be a non-empty 1-D grid, got shape {grid.shape}")
    if not np.all(np.diff(grid) > 0):
        raise ContractError("tau_grid must be strictly increasing")
    first, *rows = [compile_hahn(float(tau), tau_p) for tau in grid]
    spec = RunSpec(model=model, timeline=first, error_model=error_model or ErrorModel(),
                   initial_axis=axis, n_realizations=n_realizations, master_seed=master_seed)
    return dataclasses.replace(propagate(spec, rows=rows), label="hahn-echo-curve")
