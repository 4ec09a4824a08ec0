"""Exact propagation of decoupling runs and bath correlation functions.

The initial state is the identity plus a small deviation along one spin
component, rho(0) = 1/d + eps S_u with eps = 2/d; the bath enters exactly
maximally mixed, so no averaging over bath configurations is needed. The
reported survival probability is the deviation overlap

    s_u(t) = Tr{S_u rho(t)} / Tr{S_u rho(0)},

which equals 1 at t = 0 and is immune to global propagator phases.

Only the deviation eps S_u matters: no unitary changes the 1/d part, and
S_u (x) 1 is traceless in every sector (frame module notes), so s_u is
exactly the deviation autocorrelation Re Tr{S_u W S_u W^dag} / Tr{S_u^2}
of the propagator W, the quantity bath_correlation computes for a bath
observable; one kernel, spectral._autocorrelation, reads both.

Ensemble averaging covers pulse-error realizations only: each realization
draws one RF amplitude scale (static inhomogeneity) from the error model,
with a generator seeded deterministically from (master_seed, k), and
takes the path _plan picks (_realization_curve); a static run may power
its cycle product (spectral module notes). One-cycle runs with the same
pulses, such as an echo curve's delays, are rows of one buffer started from
one broadcast row, in chunks within _CHUNK_BYTES set up once each (_Run).

Detection follows the ideal pulse frame, the numerical analog of a
receiver phase that tracks where a perfect sequence would have parked the
magnetization. Cycles with an even number of pi pulses have a scalar net
frame, so this changes nothing for them; odd-count cycles (single echo,
odd nonequidistant trains) report the positive echo amplitude instead of
an alternating sign.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .frame import (_Accumulated, _flip, _flip_phase, _free_eigensystems, _interval_products,
                    _operators)
from .hamiltonians import _sectors, build_h_free
from .operators import _SPIN_HALF
from .plan import _check_rows, _plan, _recording_intervals, _row_intervals
from .pulses import ErrorModel, sample_rf_scale
from .spectral import _autocorrelation, _bath_blocks, _powered_overlaps
from .util import first_crossing, fmt, realization_rng, require_int, write_csv

RECORD_MODES = ("cycle_boundaries", "every_pulse")
INITIAL_AXES = ("x", "y", "z")

# bytes of buffers and phase tables per chunk of rows, held at once, of at
# least one row: an n 7 echo curve's 15 rows (165 KB each, 2.5 MB) are one
# chunk; more rows or wider sectors still split into chunks within it
_CHUNK_BYTES = 1 << 22

# |+u>, the system state of the prepared S_u along each initial axis
_PLUS = {"x": np.array([1.0, 1.0]) * math.sqrt(0.5), "y": np.array([1.0, 1j]) * math.sqrt(0.5),
         "z": np.array([1.0, 0.0])}


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
        check_run_options(self.initial_axis, self.n_realizations, self.master_seed,
                          self.record)


def check_run_options(initial_axis="x", n_realizations=1, master_seed=0,
                      record="cycle_boundaries"):
    """Raise a ContractError naming the first of RunSpec's fields that is out
    of contract."""
    if initial_axis not in INITIAL_AXES:
        raise ContractError(f"initial_axis must be x, y or z, got {initial_axis!r}")
    require_int(n_realizations, "n_realizations")
    require_int(master_seed, "master_seed")
    if n_realizations < 1:
        raise ContractError("n_realizations must be >= 1")
    if master_seed < 0:
        raise ContractError(f"master_seed must be >= 0, got {master_seed}")
    if record not in RECORD_MODES:
        raise ContractError(f"record must be one of {RECORD_MODES}, got {record!r}")


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
        shapes = [a.shape for a in (self.times, self.n_pulses, self.s, self.stderr)]
        if self.times.ndim != 1 or len(set(shapes)) > 1:
            raise ContractError(f"trace arrays must be 1-D and of one length, got shapes {shapes}")
        if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0)):
            raise ContractError("trace times must be finite and strictly increasing")
        # written so that NaN fails the bound
        if not (np.all(np.abs(self.s) <= 1.0 + 1e-9) and np.all(np.isfinite(self.stderr))):
            raise ContractError("survival probabilities must be finite, within "
                                "[-1, 1] + 1e-9, with a finite stderr")

    def to_csv(self, fh, meta=None):
        """Write `time_us,n_pulses,s,stderr` rows under `# key=value` lines (util.write_csv)."""
        write_csv(fh, meta or {}, "time_us,n_pulses,s,stderr",
                  ((fmt(t), str(int(n)), fmt(s), fmt(e))
                   for t, n, s, e in zip(self.times, self.n_pulses, self.s, self.stderr)))


class TauBEstimate(NamedTuple):
    """1/e crossing of a correlation series; reached is False when the
    series never gets there, in which case value is the end of the grid."""

    value: float
    reached: bool


def _initial_columns(axis, c):
    """(columns, sign): the direct loop's initial system columns, (2, T), for
    the prepared S_u along `axis`, and how sector n - k of a spin flip of
    phase c reads them (_detection_key).

    The first column is |+u>. Sector n - k reads the mirrored S_u' = q S_u q,
    q = u . sigma, through q|+u>. When S_u' = sign S_u (every axis when u is
    along x or y, the z axis for any in-plane u), |+u> serves it too and T
    is 1; otherwise q|+u> is the second column and sign is 0.
    """
    plus = _PLUS[axis][:, None]
    if c is None:
        return plus, 1
    q, s_u = _flip(c), _SPIN_HALF[axis]
    for sign in (1, -1):
        # |u| is 1 only to rounding, so q S_z q = -S_z only to rounding
        if np.max(np.abs(q @ s_u @ q - sign * s_u)) <= 1e-15:
            return plus, sign
    return np.hstack((plus, q @ plus)), 0


def _detection_key(d, c, sign):
    """The (2T, 2T) key against which the direct loop reads s from the Gram
    of its T columns (_initial_columns), for the detection operator d.

    W is unitary and d traceless, so Tr{(d (x) 1) W W^dag} = 0 and reading
    |+u><+u| = S_u + 1/2 gives the same s as reading S_u: the key of one
    column is d. Under a spin flip of phase c the Gram counts sector k twice
    for the pair k, n - k, and sector n - k reads d' = q d q, so the key is
    the mean of both reads: (d + sign d') / 2 on one column, and d and d' on
    the diagonal blocks of the two columns |+u> and q|+u>.
    """
    if c is None:
        return d
    q = _flip(c)
    if sign:
        return 0.5 * (d + sign * (q @ d @ q))
    key = np.zeros((4, 4), dtype=complex)
    key[:2, :2], key[2:, 2:] = d, q @ d @ q
    return 0.5 * key


# what every realization of one chunk of rows reads, built once before
# them: what _plan reads of it (`counts`: its recording intervals, cycles,
# columns, rows and sector widths and weights), the layout (_Layout) and
# spin-flip phase `flip` (_flip_phase) of the run, the free steps' phase
# tables, the initial columns and their `sign` (_initial_columns), the
# detection key of the prepared S_u (_detection_key), the initial norm, and
# under static errors the path _plan picks (else None)
_Run = namedtuple("_Run", "spec counts layout flip phases columns sign key norm0 path")


def _realization_curve(run, k, built):
    """Survival values for realization k of a run (_Run) at the recording
    instants after t = 0: per cycle and interval, each of its rows in turn.
    The realization's operators (_operators) go into `built` under k, where
    a later chunk of rows finds them.

    The direct loop carries the accumulated propagators W applied to the
    initial columns (_Accumulated), and reads s = Re Tr{(d (x) 1) W (S_u (x)
    1) W^dag} / Tr{(S_u (x) 1)^2}, with d the prepared S_u in the detection
    frame, as the sum of each row's Gram of those columns against the key of
    d (_detection_key). A jittered run applies each segment. A static run
    takes the run's path: powered, steps (each segment, with each pulse
    built once) or products (one interval product per interval and cycle).
    A powered run that falls back reuses its operators and cycle product,
    and is planned again with that product paid for.
    """
    spec, layout, (intervals, n_cycles, _, rows, *_) = run.spec, run.layout, run.counts
    pieces = [iv.segments for iv in intervals]
    rng = realization_rng(spec.master_seed, k)
    rf_scale = sample_rf_scale(spec.error_model, rng)
    if k not in built:
        built[k] = _operators(spec.timeline.events, layout, spec.error_model, rf_scale)
    operators, path, s_u = built[k], run.path, _SPIN_HALF[spec.initial_axis]
    static, products = None if path is None else operators(pieces), None
    if path == "powered":
        products = _interval_products(pieces, static, layout, run.phases)
        powered = _powered_overlaps(products[0], s_u, n_cycles, layout, run.flip)
        if powered is not None:
            return powered[1:]
        path = _plan(*run.counts, built=True)
    if path == "products":
        static = [[u] for u in products or _interval_products(pieces, static, layout, run.phases)]

    w = _Accumulated(layout, run.phases, run.columns, rows)
    d, key, values = s_u, run.key, []
    for _ in range(n_cycles):
        for iv, ops in zip(intervals, static or operators(pieces, rng)):
            for us in ops:
                w.advance(us)
            if iv.frame is not None:
                d = iv.frame @ d @ iv.frame.conj().T
                key = _detection_key(d, run.flip, run.sign)
            values += [float(np.real(np.vdot(key, g))) / run.norm0 for g in w.gram()]
    return np.asarray(values)


def propagate(spec, *, rows=()):
    """Run the ensemble and return the averaged SurvivalTrace.

    Every propagator and state is a list of bath-magnetization sector
    blocks (hamiltonians._sectors), so the largest diagonalization is the
    largest block; a run with a spin flip (_flip_phase) propagates one
    sector of each mirrored pair. Realizations run in index order.

    `rows` are further one-cycle Timelines with the pulses of a one-cycle
    spec.timeline and ever longer cycles (else a ContractError), each run
    as a row of one buffer (_Accumulated) in chunks of _CHUNK_BYTES; the
    trace then holds s at each run's cycle end, the same as runs of their own.
    """
    model, tl = spec.model, spec.timeline
    intervals, runs = _recording_intervals(tl, spec.record), [t.segments() for t in (tl, *rows)]
    _check_rows(spec, tl, rows, runs)
    # free evolution does not depend on the pulse-error draw, so the
    # realizations share one frame read-only; the couplings key the frame
    # cache, copied so that no later edit of the model reaches it; no H_free
    # block outlives the frame
    flip = _flip_phase(tl.events, spec.error_model)
    layout = _free_eigensystems(build_h_free(model, _sectors(model.n_bath)),
                                (model.b.copy(), model.d.copy()), flip is not None)
    columns, sign = _initial_columns(spec.initial_axis, flip)
    key = _detection_key(_SPIN_HALF[spec.initial_axis], flip, sign)
    norm0 = 0.5 * sum(m * c for m, c in zip(layout.weights, layout.widths))

    def free_keys(intervals):
        return {p for iv in intervals for kind, p in iv.segments if kind == "free"}

    # a row takes two buffers of T columns and its phase tables
    whole = _row_intervals(intervals, runs) if rows else intervals
    row_bytes = 32 * layout.size * (2 * columns.shape[1] + len(free_keys(whole)))
    step = max(1, _CHUNK_BYTES // row_bytes)
    curves = [np.ones((spec.n_realizations, 1))]
    # each realization's operators, kept for its later chunks when there are
    # several
    built = {}
    for chunk in (runs[lo:lo + step] for lo in range(0, len(runs), step)):
        shared = whole if len(chunk) == len(runs) else _row_intervals(intervals, chunk)
        counts = (shared, tl.n_cycles, columns.shape[1], len(chunk), layout.widths,
                  layout.weights)
        run = _Run(spec, counts, layout, flip, layout.phases(free_keys(shared)), columns, sign,
                   key, norm0, _plan(*counts) if spec.error_model.tilt_jitter_sd == 0 else None)
        curves.append(np.vstack([_realization_curve(run, k, built if len(runs) > step else {})
                                 for k in range(spec.n_realizations)]))
    curves = np.hstack(curves)

    m = np.arange(tl.n_cycles)[:, None]
    times = m * tl.cycle_time + np.array([iv.end for iv in intervals])
    # a cycle ends at (m + 1) tau_c; m tau_c + tau_c can differ in the last bit
    times[:, -1] = (m[:, 0] + 1) * tl.cycle_time
    counts = m * intervals[-1].n_pulses + np.array([iv.n_pulses for iv in intervals])
    mean, n = curves.mean(axis=0), curves.shape[0]
    stderr = curves.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
    # the rows' cycle ends follow
    times = np.concatenate(([0.0], times.ravel(), [r.cycle_time for r in rows]))
    counts = np.concatenate(([0], counts.ravel(), [intervals[-1].n_pulses] * len(rows)))
    return SurvivalTrace(times=times, n_pulses=counts, s=mean, stderr=stderr,
                         axis=spec.initial_axis, label=tl.label)


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


def estimate_tau_b(series, times):
    """First 1/e crossing of a correlation series, linearly interpolated.

    The series must be finite, start at 1 (within 1e-6) and lie on finite, strictly
    increasing times. When it never reaches 1/e it is flagged unreached at the end of
    the grid.
    """
    series = np.asarray(series, dtype=float)
    times = np.asarray(times, dtype=float)
    if series.size < 2:
        raise ContractError("need at least two samples")
    if (times.ndim != 1 or times.shape != series.shape or not np.all(np.isfinite(times))
            or not np.all(np.diff(times) > 0)):
        raise ContractError(f"times must increase strictly and be finite, one per sample, "
                            f"got {times.shape}")
    if not np.all(np.isfinite(series)):
        raise ContractError("correlation series must be finite")
    if abs(series[0] - 1.0) > 1e-6:
        raise ContractError(f"correlation series must start at 1, got {series[0]}")
    t = first_crossing(times, series, 1.0 / np.e)
    if t is None:
        return TauBEstimate(float(times[-1]), False)
    return TauBEstimate(t, True)


def model_tau_b(model, t_max=2000.0, n_points=800):
    """Bath correlation time from the per-spin I_z curves, averaged over j.

    Doubles the grid (up to 8x) when the mean curve has not crossed 1/e;
    each H_E sector block is diagonalized and weighted once for all spins
    and horizons. On the grid t_i = i dt, dt = horizon / (n_points - 1),
    the phases exp(-i f t_i) are those of the frequencies f dt at the counts
    i, so _autocorrelation builds their tables from products; each frequency
    array is scaled once, and arrays shared between blocks stay shared.
    """
    if model.n_bath == 0:
        raise ContractError("tau_B needs at least one bath spin")
    require_int(n_points, "n_points")
    if not (math.isfinite(t_max) and t_max > 0 and n_points >= 2):
        raise ContractError(f"model_tau_b needs a finite t_max > 0 and n_points >= 2, "
                            f"got t_max={t_max}, n_points={n_points}")
    weighted = _bath_blocks(model, range(model.n_bath))
    horizon, counts = float(t_max), np.arange(n_points)
    for _ in range(4):
        dt = horizon / (n_points - 1)
        scaled = {id(a): a * dt for f, g, _ in weighted for a in (f, g)}
        steps = [(scaled[id(f)], scaled[id(g)], w) for f, g, w in weighted]
        t_grid = np.linspace(0.0, horizon, n_points)
        est = estimate_tau_b(_autocorrelation(steps, counts), t_grid)
        if est.reached:
            return est
        horizon *= 2.0
    return est
