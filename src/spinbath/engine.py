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
system S_z, so each sector block has two real symmetric (C, C) halves
H_s = V_s diag(w_s) V_s^T, s = +, - (_free_eigensystems). A bounded cache
keeps these free frames of recent couplings, with the layouts of the runs
on them (_Kept), so a sweep over delays or baths run again in turn
diagonalizes each bath once, and a repeat run stacks no mixings.

Flipping every spin, Q = (u . sigma) (x) J_bath for an in-plane unit
vector u, turns S_z and every I_z^j over and so leaves H_free unchanged; it
also leaves a pulse about the line u unchanged. Q maps sector k onto sector
n - k, with J reversing the ascending bath states. So when the errors are
static and every pulse axis is +u or -u after the static axis tilt
(_flip_phase; a pulseless run qualifies, pdd, cdd and tilt jitter do
not), block n - k of every interval product is Q times block k
times Q^dag. Such a run keeps the sectors k < n - k with weight 2, plus the
middle sector k = n/2 (_mirror_sectors). Sector n - k then reads the
mirrored observable q S_u q and detection frame q d q, q = u . sigma, in
sector k. The powered path splits the middle block, which commutes with Q,
into its Q = +1 and -1 halves (_parity_blocks), in the free eigenframe
below, where Q reads [[0, conj(c) K], [c K^T, 0]] with the real orthogonal
K = V_+^T J V_- (_Kept.reversal). Bath correlations pair their H_E sectors
the same way (_bath_blocks).

Ensemble averaging covers pulse-error realizations only: each realization
draws one RF amplitude scale (static inhomogeneity) from the error model,
with a generator seeded deterministically from (master_seed, k). When all
errors are static within a realization, the cycle propagator can be built
once per realization, and the run advances through its eigenphase powers,
at O(dim^2) per cycle instead of O(dim^3): the powered path. Each block
gets a unitary eigenbasis from a Hermitian eigh (_unitary_eig), or is its
own when it is diagonal to 1e-13; one with an off-diagonal residual above
1e-13 sends the realization down the direct loop, which reuses the
realization's pulses and cycle product. Time reversal makes that eigh
real for cpmg, cp and delta-pulse udd: in the frame
S = diag(exp(-i phi/2), exp(i phi/2)) (x) 1 of a paired run's pulse axis
c = exp(i phi) (_axis_frame) every free step and pulse is symmetric, so a
cycle whose segments read the same backwards is too, and a symmetric
unitary A + iB (A, B real symmetric, commuting) has a real orthogonal
eigenbasis; cpmg2, finite-pulse udd and unpaired runs
stay complex. These powers and the bath correlations are one eigenbasis
sum, Re sum_ab W_ab exp(i (f_a - f_b) t) with W = |V^dag A V|^2, which
_autocorrelation forms and _spectral_series evaluates with no weight
dropped. Pulse-to-pulse tilt jitter breaks the reuse: the direct loop
carries every sector's accumulated propagator W in one buffer
(_Accumulated), in the eigenframe of the free halves, X_s = V_s^T W_s. A
free step is then one multiply of the whole buffer by the phases
exp(-i w dt). A delta pulse [[a, b], [c, d]] is X_+ <- a X_+ + b M X_-
and X_- <- c M^T X_+ + d X_- with the real mixing M = V_+^T V_-, one real
product per sector width. The survival Gram reads X within a half, and
Tr{W_+ W_-^dag} = vdot(M X_-, X_+) across them. A jittered run applies
each free step and each pulse at a freshly drawn tilt. A static run either
powers, or steps each segment with each pulse built once, or applies the
product of each recording interval once per cycle; _plan picks the path
that costs least, counted from the run's shape alone: powering pays for
many cycles, stepping for few cycles and few pulses per interval, products
for many pulses per interval over a few cycles. A 2x2 system operator p
reads V^T (p (x) 1) V = [[p_00, p_01 M], [p_10 M^T, p_11]] in the frame
(_frame_observable). A realization builds the +x pulse of each strength
once (_pulse_blocks), a finite one from its real drive plus diag(w_+, w_-)
there, so no H_free block outlives the frame; as H_free conserves the
system S_z, the pulse about a tilted axis sign u is it with its
off-diagonal halves times conj(c) and c, c = sign (u_x + i u_y) (_turns).
The powered path reads the cycle product, built in the frame, against
S_u; a pulseless cycle is diagonal there, so it needs no eigh. Only
avgham.magnus_defect turns a product back. One-cycle runs with the same
pulses, such as the delays of an echo curve, are rows of one buffer: each
row takes its own phases, every pulse acts on all rows at once, and each
row reads its own Gram; the rows go in chunks within _CHUNK_BYTES, and
each realization builds its pulses once for all chunks.

The direct loop needs W only on the prepared state's system column |+u>,
S_u = |+u><+u| - 1/2: W is unitary and the detection operator d is
traceless, so Tr{(d (x) 1) W W^dag} = 0 and reading |+u><+u| (x) 1 gives
the same s as reading S_u (x) 1. So it carries W (|+u> (x) 1), half the
columns of W, at half the flops of every step (_initial_columns). A paired
sector n - k reads q S_u q; when that is +-S_u, |+u> serves it through the
key (_detection_key), otherwise (a static axis tilt, with S_u in-plane)
q|+u> rides along as a second column. Interval products carry the frame's
whole identity, as the powered path and avgham.magnus_defect need them whole.

Detection follows the ideal pulse frame, the numerical analog of a
receiver phase that tracks where a perfect sequence would have parked the
magnetization. Cycles with an even number of pi pulses have a scalar net
frame, so this changes nothing for them; odd-count cycles (single echo,
odd nonequidistant trains) report the positive echo amplitude instead of
an alternating sign.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .hamiltonians import _basis_z, _h_e_blocks, _mirror_sectors, _sectors, build_h_free
from .operators import _SPIN_HALF, exp_propagator
from .pulses import (ErrorModel, axis_vector, delta_rotation, ideal_frame, sample_rf_scale,
                     split_axis)
from .util import first_crossing, fmt, realization_rng, require_int

RECORD_MODES = ("cycle_boundaries", "every_pulse")
INITIAL_AXES = ("x", "y", "z")

# _plan: what one numpy call costs beyond its arithmetic, in real
# multiply-adds, and a real eigh of width N, in N^3 multiply-adds (a
# complex one counts 4x); both fitted to forced-path timings (BENCH_28.json)
_CALL_COST = 2e4
_EIG_COST = 15

# bytes of buffers and phase tables per chunk of rows, of at least one row
_CHUNK_BYTES = 1 << 19

# |+u>, the system state of the prepared S_u along each initial axis
_PLUS = {"x": np.array([1.0, 1.0]) * math.sqrt(0.5), "y": np.array([1.0, 1j]) * math.sqrt(0.5),
         "z": np.array([1.0, 0.0])}

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


def _pulse_blocks(ev, kept, err, rf_scale):
    """The +x pulse of ev's strength (_strength) on the kept sectors, which
    _turned turns to any axis and tilt: one 2x2 system rotation for a delta
    pulse, as it acts the same on every sector (_Accumulated.advance), or
    one (2C, 2C) block per sector in the free eigenframe, the exponential of
    the real symmetric diag(w) + (w_eff / 2) [[0, M], [M^T, 0]]
    (_frame_observable) by one real eigh of width 2C."""
    if ev.duration > 0:
        w_eff = ev.nominal_angle / ev.duration * (rf_scale * (1.0 + err.flip_angle_fraction))
        return [exp_propagator(_frame_observable(w_eff * _SPIN_HALF["x"].real, m, w),
                               ev.duration) for w, _, m in kept.eigs]
    return delta_rotation("x", ev.nominal_angle, rf_scale, err, 0.0)


def _turns(events):
    """A function of in-plane tilts t_i, one per pulse of `events`, that
    returns the phase conj(c) by which _turned turns the +x pulse of each
    one's strength into it, c = sign (u_x + i u_y) of its axis tilted by t_i
    (pulses.axis_vector): conj(c_0) (cos t - i sin t), c_0 = sign or i sign
    for an x or y axis, exact products, so a turned delta pulse is the same
    floats as its delta_rotation."""
    untilted = np.array([sign * (1.0 if base == "x" else -1j)
                         for base, sign in (split_axis(ev.axis) for ev in events)], dtype=complex)

    def turns(tilts):
        return untilted * (np.cos(tilts) - 1j * np.sin(tilts))

    return turns


def _turned(x, turn):
    """The +x pulse x (_pulse_blocks) in the frame of its turn (_turns,
    _axis_frame): a 2x2 rotation, a stack of them with one turn each, or the
    list of a finite pulse's blocks."""
    return [_axis_frame(b, turn) for b in x] if isinstance(x, list) else _axis_frame(x, turn)


def _jittered_cycles(pieces, kept, err, rf_scale, rng):
    """A function that returns the operators of each interval of the next
    jittered cycle, in the order _Accumulated.advance applies them: free
    steps by their length, and each pulse turned to a fresh axis tilt
    (_turned) from the +x pulse of its strength, built once (_pulse_blocks).
    A cycle's tilts come from one rng.normal call in time order, the same
    stream as one draw per pulse, and its delta pulses turn as one stack."""
    events = [p for segments in pieces for kind, p in segments if kind == "pulse"]
    built = {_strength(ev): ev for ev in events}
    built = {key: _pulse_blocks(ev, kept, err, rf_scale) for key, ev in built.items()}
    delta = [i for i, ev in enumerate(events) if ev.duration == 0]
    stack, turns = np.array([built[_strength(events[i])] for i in delta]), _turns(events)

    def cycle():
        turn = turns(rng.normal(err.axis_tilt, err.tilt_jitter_sd, size=len(events)))
        rotated = iter(_turned(stack, turn[delta]) if delta else ())
        pulses = iter([next(rotated) if ev.duration == 0 else _turned(built[_strength(ev)], t)
                       for ev, t in zip(events, turn)])
        return [[p if kind == "free" else next(pulses) for kind, p in segments]
                for segments in pieces]

    return cycle


def _advance(u, w, out):
    """out = U W for one sector's full (2C, 2C) block U in the frame, a finite
    pulse or an interval product, and its blocks w and out (_Accumulated)."""
    out[...] = (u @ w.reshape(len(w), len(u), -1)).reshape(out.shape)


def _mix(m, x, out):
    """out = M X in M's dtype: float views of X and out for a real M."""
    np.matmul(m, x, out=out)


class _Kept:
    """The sector blocks a run propagates: every sector, or under a spin flip
    of phase `flip` (_flip_phase) the _mirror_sectors, and the layout of
    such a run on the frame of `h_blocks` cached under `key`
    (_free_eigensystems), shared read-only and holding no H_free block:
    their weights and eigensystems (w, V, M), ordered by width in the buffer
    (_Accumulated) so that k and n - k sit side by side, and each width's
    stacked mixings [M, M^dag] (`groups`).
    """

    def __init__(self, h_blocks, key, flip=None):
        self._layout = _free_eigensystems(h_blocks, key, flip is not None)
        vars(self).update(self._layout, flip=flip)

    def phases(self, keys):
        """The phase steps exp(-i w dt) of each free step's key, a length dt
        or the tuple of the D rows' lengths (_row_intervals), as (D, 1, 2,
        size) tables for _Accumulated."""
        return {key: np.exp(-1j * np.reshape(key, (-1, 1, 1, 1)) * self._w)[..., self._spread]
                for key in keys}

    @cached_property
    def reversal(self):
        """K = V_+^T J V_- of the middle sector under a spin flip, with J
        reversing its bath states: a real orthogonal (C, C) matrix, in which
        the flip reads [[0, conj(c) K], [c K^T, 0]] in the frame
        (_parity_blocks). A powered run forms it on first use, after its
        cycle product, so that it adds nothing to the run's peak memory, and
        leaves it in the layout for later runs: one dict item, set whole."""
        (_, v, _), = [eig for eig, m in zip(self.eigs, self.weights) if m == 1]
        self._layout["reversal"] = k = v[0].T @ v[1][::-1]
        return k

    def back(self, us):
        """Sector blocks U in the frame turned out of it, V U V^dag with
        V = diag(V_+, V_-) (avgham's magnus_defect only)."""
        vs = [v.conj().swapaxes(1, 2) for _, v, _ in self.eigs]
        return [_sandwich(v[:, None], u.reshape(2, len(v[0]), 2, -1).swapaxes(1, 2), v[None])
                .swapaxes(1, 2).reshape(len(u), -1) for u, v in zip(us, vs)]


class _Accumulated:
    """The accumulated propagators W of the kept sectors (_Kept) of D rows
    (runs sharing their pulses) applied to T initial system columns psi_t,
    W (psi_t (x) 1), in their free eigenframe X_s = V_s^dag W_s (module notes).

    They share one buffer of shape (D T, 2, sum_k C_k^2): row [r T + t, s]
    holds the (C, C) blocks V_s^dag <s|W_r|psi_t> of each sector in the kept
    layout, and blocks[k] views sector k as (D T, 2, C, C). Each step but a
    free one writes the second of two buffers and swaps them. A sector of
    weight m starts at sqrt(m) psi_t (x) 1, so the Gram counts it m times;
    without columns W starts at the frame's identity and comes out as
    V^dag W V.
    """

    def __init__(self, kept, phases, columns=None, rows=1):
        t = rows * (2 if columns is None else columns.shape[1])
        self._phases, self._rows = phases, rows
        buffers = [np.empty((t, 2, kept.size), dtype=complex) for _ in range(2)]
        # per buffer x: it, its (D, T, 2, size) view for a free step, its
        # sector blocks, and the _mix operands of a pulse (M X_-, M^dag X_+
        # into the other buffer) and of the Gram (M X_- only)
        self._states = [
            (x, x.reshape(rows, -1, 2, kept.size),
             [x[..., sl].reshape(t, 2, c, c) for sl, c in zip(kept.slices, kept.widths)],
             [(m, x[:, ::-1, sl].reshape(t, 2, *shape).view(m.dtype),
               out[:, :, sl].reshape(t, 2, *shape).view(m.dtype)) for sl, shape, m in kept.groups],
             [(m[0], x[:, 1, sl].reshape(t, *shape).view(m.dtype),
               out[:, 0, sl].reshape(t, *shape).view(m.dtype)) for sl, shape, m in kept.groups])
            for x, out in (buffers, buffers[::-1])]
        start = np.tile(np.eye(2) if columns is None else columns.T, (rows, 1))
        for block, (_, v, _), m in zip(self.blocks, kept.eigs, kept.weights):
            block[...] = np.eye(len(v[0])) if columns is None else v.conj().swapaxes(1, 2)
            block *= (start if columns is None else math.sqrt(m) * start)[:, :, None, None]

    @property
    def blocks(self):
        return self._states[0][2]

    def advance(self, op):
        """W <- U W for a free step keyed by `op` (_Kept.phases), a 2x2
        rotation `op` of the system spin, or a list `op` of full blocks in
        the frame (_advance)."""
        (x, by_row, blocks, mixes, _), (out, _, out_blocks, _, _) = self._states
        if isinstance(op, (float, tuple)):
            by_row *= self._phases[op]
            return
        if isinstance(op, list):
            for u, w, o in zip(op, blocks, out_blocks):
                _advance(u, w, o)
        else:
            for m, xin, o in mixes:
                _mix(m, xin, o)
            # x is spent once mixed, so it takes the diagonal terms in place
            for s, (diag, off) in enumerate(((op[0, 0], op[0, 1]), (op[1, 1], op[1, 0]))):
                out[:, s] *= off
                x[:, s] *= diag
                out[:, s] += x[:, s]
        self._states.reverse()

    def gram(self):
        """Each row's (2T, 2T) Gram of its [t, s] columns of W, summed over
        sectors, as (D, 2T, 2T): one vdot of X within a half, Tr{W_+ W_-^dag}
        = vdot(M X_-, X_+) across; no row meets another."""
        (x, _, _, _, mixes), (out, *_) = self._states
        for m, xin, o in mixes:
            _mix(m, xin, o)
        x0, x1, r = x[:, 0], x[:, 1], out[:, 0]
        # (b, a) of the entry vdot(b[u], a[t]) at [(t, s), (u, z)], per s and z
        pairs, ts = (((x0, x0), (r, x0)), ((x0, r), (x1, x1))), len(x) // self._rows
        return np.array([[[np.vdot(b[o + u], a[o + t]) for u in range(ts) for b, a in pairs[s]]
                          for t in range(ts) for s in (0, 1)] for o in range(0, len(x), ts)])


def _static_operators(pieces, kept, err, rf_scale, pulses):
    """The operators of each segment list of `pieces` under static errors, in
    the order _Accumulated.advance applies them: free steps by their length,
    and each pulse shape turned once to the static tilt (_turned) from the
    +x pulse of its strength, built once (_pulse_blocks); both go into
    `pulses`, by shape and by strength, where a later call finds them."""
    shapes = {_shape(p): p for segments in pieces for kind, p in segments if kind == "pulse"}
    new = [ev for key, ev in shapes.items() if key not in pulses]
    strengths = {_strength(ev): ev for ev in new if _strength(ev) not in pulses}
    pulses.update({key: _pulse_blocks(ev, kept, err, rf_scale) for key, ev in strengths.items()})
    pulses.update({_shape(ev): _turned(pulses[_strength(ev)], turn)
                   for ev, turn in zip(new, _turns(new)(np.full(len(new), err.axis_tilt)))})
    return [[p if kind == "free" else pulses[_shape(p)] for kind, p in segments]
            for segments in pieces]


def _interval_products(pieces, operators, kept, phases):
    """For each segment list of `pieces` in order, the per-sector product of
    its static `operators` (_static_operators) in the frame (_Kept), V^dag U V,
    as full (2C, 2C) blocks that own their memory; `phases` holds the free
    steps' tables. Segment lists of equal shape share one product."""
    shared = {}
    for segments, ops in zip(pieces, operators):
        key = _interval_key(segments)
        if key not in shared:
            w = _Accumulated(kept, phases)
            for op in ops:
                w.advance(op)
            shared[key] = [np.array(b.transpose(1, 2, 0, 3)).reshape(2 * len(b[0, 0]), -1)
                           for b in w.blocks]
    return [shared[_interval_key(segments)] for segments in pieces]


def _plan(intervals, n_cycles, columns, rows, widths, weights, built=False):
    """The path of a static run, "powered", "products" or "steps", whichever
    costs least by a count of real multiply-adds over the kept sectors
    (_Kept: their `widths` C and `weights`), plus _CALL_COST per numpy call
    and _EIG_COST N^3 per eigh of width N. It reads no array.

    Both direct paths carry B = D T columns (`rows` D, `columns` T) and pay,
    per interval and cycle, a Gram (2B sum C^3 and 4 D T^2 vdots) and the
    free steps (8B sum C^2 each). Stepping applies each delta pulse (4B sum
    C^3 in one product per width, and six scalar passes) and each finite
    pulse (16B sum C^3, one product per sector). Products build each
    distinct interval's product from the frame's identity (B = 2), unless
    `built`, and apply one full block per sector (16B sum C^3) per interval
    and cycle. Only a run of one row and one interval with a scalar net
    frame may power: it builds the cycle product, diagonalizes each block
    (none for a pulseless cycle), reads its weights, and sums a series of
    N^2 per cycle. The blocks are N = 2C wide; under a spin flip (a weight
    of 2) they count as real, as for the palindromes, and the middle
    sector's (weight 1) splits into two C wide. A powered run that falls
    back is planned again `built`.
    """
    c2, c3 = (sum(c ** p for c in widths) for p in (2, 3))
    b, sectors, groups, paired = rows * columns, len(widths), len(set(widths)), 2 in weights

    # numpy calls: a free step 1, a delta pulse 6 and one per width, a block
    # product 3 per sector, a Gram 4 and its vdots and mixings, a product's
    # buffer and copies 5 per sector, a powered block about 120 (BENCH_28)
    def applied(segments, b):
        return sum(8 * b * c2 + _CALL_COST if kind == "free" else
                   16 * b * c3 + 3 * sectors * _CALL_COST if p.duration > 0 else
                   4 * b * c3 + 24 * b * c2 + (groups + 6) * _CALL_COST
                   for kind, p in segments)

    gram = (2 * b * c3 + 16 * rows * columns ** 2 * c2
            + (4 * rows * columns ** 2 + groups + 4) * _CALL_COST)
    distinct = {_interval_key(iv.segments): iv.segments for iv in intervals}
    build = 0 if built else sum(applied(segments, 2) + 5 * sectors * _CALL_COST
                                for segments in distinct.values())
    costs = {"steps": n_cycles * sum(applied(iv.segments, b) + gram for iv in intervals),
             "products": build + n_cycles * len(intervals) * (
                 16 * b * c3 + 3 * sectors * _CALL_COST + gram)}
    if not built and rows == 1 and len(intervals) == 1 and intervals[0].frame is None:
        blocks = [n for c, m in zip(widths, weights)
                  for n in ([c, c] if paired and m == 1 else [2 * c])]
        pulsed = any(kind == "pulse" for kind, _ in intervals[0].segments)
        # _unitary_eig's eigh and its sandwiches, correction and Newton-Schulz
        # step, then the weights' sandwich: real products, or complex ones
        n3 = ((_EIG_COST + 11) * pulsed + 4 if paired else
              (4 * _EIG_COST + 28) * pulsed + 16)
        costs["powered"] = build + sum(n3 * n ** 3 + 2 * n_cycles * n * n + 120 * _CALL_COST
                                       for n in blocks)
    return min(costs, key=costs.get)


# the free frames of _free_eigensystems, least recently used first, as
# (key, eigensystems, layouts by pairing, bytes) tuples that no call changes
# but for the one item _Kept.reversal sets in a paired layout; the budget
# holds several baths up to n_bath 9 (1.8 MB with a paired layout), one
# from n_bath 10 (7.9 MB), and from n_bath 11 only the newest
_frames = ()
_FRAME_BYTES = 1 << 24


def _free_eigensystems(h_blocks, key, paired=None):
    """[(w, V, M)] per block H_k: the eigenpairs H_s = V_s diag(w_s) V_s^dag of
    its two system halves s = +, -, stacked as w (2, C) and V (2, C, C), and
    their mixing M = V_+^dag V_-, from one eigh of both halves; with
    `paired`, the layout on them of a run of the _mirror_sectors (True) or
    of every sector (False) instead (_Kept).

    H_k must conserve the system S_z, as H_free does, so that it is
    diag(H_E,k + D_k/2, H_E,k - D_k/2) with D = sum_j b_j I_z^j. Halves
    with no imaginary part, as H_free's, are diagonalized and kept real.

    A cache (_frames) keeps every block's, even where a run pairs sectors
    (the frozen count test expects one eigh per sector), and the layouts on
    them, under the `key` of their call: arrays that fix h_blocks, which
    nothing changes afterwards, copies of the couplings (model.b, model.d)
    from propagate or the blocks' stacked halves (_halves) from
    avgham.magnus_defect. A call whose key is np.array_equal to an entry's,
    such as the next delay of a sweep or a bath run again, skips every eigh
    and gives the same bits. Beside the newest entry it holds at most
    _FRAME_BYTES: a miss first drops the least recently used entries that
    would not fit beside the new one (its key and 48 C^2 + 32 C bytes per
    block). Entries are replaced whole, so threads see whole entries.
    """
    global _frames
    frames = list(_frames)
    hit = [i for i, (k, *_) in enumerate(frames)
           if len(k) == len(key) and all(map(np.array_equal, k, key))]
    if hit:
        entry = frames.pop(hit[0])
    else:
        need = sum(a.nbytes for a in key) + sum(12 * len(h) ** 2 + 16 * len(h) for h in h_blocks)
        while frames and sum(f[3] for f in frames) + need > _FRAME_BYTES:
            del frames[0]
        _frames, key, eigs = tuple(frames), tuple(key), []
        for h in h_blocks:
            w, v = np.linalg.eigh(_halves(h))
            eigs.append((w, v, v[0].conj().T @ v[1]))
        entry = (key, eigs, {}, sum(a.nbytes for a in (*key, *(a for e in eigs for a in e))))
    if paired is not None and paired not in entry[2]:
        n = len(entry[1])
        sectors, weights = zip(*(_mirror_sectors(n - 1) if paired else [(k, 1) for k in range(n)]))
        kept = [entry[1][k] for k in sectors]
        widths = [len(v[0]) for _, v, _ in kept]
        order = sorted(range(len(kept)), key=widths.__getitem__)
        ends = dict(zip(order, np.cumsum([widths[i] ** 2 for i in order])))
        slices = [slice(ends[i] - c * c, ends[i]) for i, c in enumerate(widths)]
        groups = []
        for c in sorted(set(widths)):
            members = [i for i in order if widths[i] == c]
            m = np.stack([kept[i][2] for i in members])
            groups.append((slice(slices[members[0]].start, ends[members[-1]]), m.shape,
                           np.stack((m, m.conj().swapaxes(1, 2)))))
        w, ordered = np.hstack([kept[i][0] for i in order]), [widths[i] for i in order]
        spread = np.repeat(np.arange(w.shape[1]), np.repeat(ordered, ordered))
        layout = dict(sectors=sectors, weights=weights, eigs=kept, widths=widths, slices=slices,
                      size=ends[order[-1]], groups=groups, _w=w, _spread=spread)
        # counting the middle sector's _Kept.reversal, formed on first use
        arrays = [w, spread, *(m for *_, m in groups),
                  *(v[0] for (_, v, _), m in zip(kept, weights) if paired and m == 1)]
        entry = (*entry[:2], {**entry[2], paired: layout}, entry[3] + sum(a.nbytes for a in arrays))
    # threads that store at once may each drop the other's update: that
    # entry is built again when next asked for, never seen half built
    frames.append(entry)
    while len(frames) > 1 and sum(f[3] for f in frames) > _FRAME_BYTES:
        del frames[0]
    _frames = tuple(frames)
    return entry[1] if paired is None else entry[2][paired]


def _halves(h):
    """The two system S_z halves of a block h, stacked as (2, C, C): a real
    copy when they have no imaginary part, as H_free's."""
    c = len(h) // 2
    x = np.stack((h[:c, :c], h[c:, c:]))
    return x if x.imag.any() else x.real.copy()


def _interval_key(segments):
    return tuple(p if kind == "free" else _shape(p) for kind, p in segments)


def _shape(ev):
    return ev.axis, ev.nominal_angle, ev.duration


def _strength(ev):
    return ev.nominal_angle, ev.duration


def _flip_phase(events, err):
    """c = u_x + i u_y of the spin flip Q = (u . sigma) (x) J_bath that leaves
    every propagator of a run with these pulse `events` unchanged, or None.

    Q turns S_z and every I_z^j over, so it leaves H_free alone, and it leaves
    a pulse about the in-plane line u alone. So the errors must be static
    and every pulse axis must be +u or -u, tilted by the static axis_tilt; a
    run without pulses takes u = x.
    """
    if err.tilt_jitter_sd != 0:
        return None
    bases = {split_axis(ev.axis)[0] for ev in events}
    if len(bases) > 1:
        return None
    ux, uy = axis_vector(bases.pop() if bases else "x", err.axis_tilt)
    return complex(ux, uy)


def _flip(c):
    """u . sigma, the system factor of the spin flip of phase c."""
    return np.array([[0.0, np.conj(c)], [c, 0.0]])


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


def _parity_blocks(x, c, k):
    """(X_++, X_--, X_+-, X_-+) of a middle-sector block X = [[A, B], [C, D]]
    in system halves, on the eigenvectors P_a = (1, a c K^T) / sqrt 2 of its
    spin flip Q = [[0, conj(c) K], [c K^T, 0]] (_flip_phase, _Kept.reversal),
    a = +1 or -1: X_ab = P_a^dag X P_b = (A + b c B K^T + a conj(c) K C
    + a b K D K^T) / 2, in real products with the real K."""
    n = len(x) // 2
    # the four terms halved, combined in place to keep few (C, C) temporaries
    a, kdk = 0.5 * x[:n, :n], _sandwich(k.T, x[n:, n:], k.T)
    bk, kc = _real_left(k, x[:n, n:].T).T, _real_left(k, x[n:, :n])
    kdk *= 0.5
    bk *= 0.5 * c
    kc *= 0.5 * np.conj(c)
    even, odd = a + kdk, np.subtract(a, kdk, out=kdk)
    plus, minus = bk + kc, np.subtract(bk, kc, out=bk)
    return even + plus, np.subtract(even, plus, out=even), odd - minus, np.add(odd, minus, out=odd)


def _axis_frame(x, c):
    """S^dag X S, S = diag(exp(-i phi/2), exp(i phi/2)) (x) 1 with c = exp(i phi),
    for a block X in system halves, or a stack of them with one c each: its
    off-diagonal halves times c, conj(c). S commutes with the frame's
    V = diag(V_+, V_-), so this holds in it too."""
    n = x.shape[-1] // 2
    c = np.asarray(c)[..., None, None]
    out = x.astype(complex)
    out[..., :n, n:] *= c
    out[..., n:, :n] *= np.conj(c)
    return out


def _frame_observable(p, m, w=(0.0, 0.0)):
    """V^dag (p (x) 1) V + diag(w) = [[p_00 + w_+, p_01 M], [p_10 M^T, p_11 + w_-]]
    for a 2x2 system operator p and a sector's eigensystem (w, V, M), V =
    diag(V_+, V_-), M = V_+^T V_- (_free_eigensystems): the powered path's
    observable (w = 0) or a finite pulse's Hamiltonian (_pulse_blocks). V
    must be real, as propagate's are; avgham.magnus_defect's may be complex."""
    c = len(m)
    a = np.zeros((2 * c, 2 * c), dtype=np.result_type(p, m))
    diagonal = a.reshape(-1)[::2 * c + 1]
    diagonal[:c], diagonal[c:] = p[0, 0] + w[0], p[1, 1] + w[1]
    np.multiply(m, p[0, 1], out=a[:c, c:])
    np.multiply(m.T, p[1, 0], out=a[c:, :c])
    return a


def _powered_overlaps(u_cycle, s_u, n_cycles, kept):
    """Survival overlaps after 0..n_cycles applications of one propagator,
    given as the kept sector blocks in the frame (_Kept, _interval_products),
    or None when a block has no accurate unitary eigenbasis (see
    _unitary_eig).

    With U = P diag(exp(i theta)) P^dag per block, the m-fold conjugation
    of the deviation S_u (x) 1 collapses to phase powers of theta; s(m) is
    then the deviation autocorrelation of _autocorrelation at cycle count m,
    with frequencies -theta. Only the eigenphases enter, so |lambda| is 1
    exactly and roundoff does not drift over long runs. The frame V is real
    orthogonal, so the observable enters as V^T (S_u (x) 1) V
    (_frame_observable), and a pulseless cycle is diagonal there.

    Under a spin flip Q, sector n - k reads the mirrored S_u' = q S_u q with
    q = u . sigma, so a kept pair adds the autocorrelations of S_u and S_u'
    in sector k: twice those of the parts of S_u even and odd under the
    flip, turned with the pair block into the pulse-axis frame (_axis_frame).
    The middle block commutes with Q and is diagonalized as its two parity
    halves; the off-parity part of S_u enters as their cross block, twice
    for its transpose. An off-parity residual of the cycle block above
    _EIG_RESIDUAL_MAX returns None.
    """
    c = kept.flip
    parts = [s_u]
    if c is not None:
        q = _flip(c)
        halves = [0.5 * (s_u + q @ s_u @ q), 0.5 * (s_u - q @ s_u @ q)]
        parts = [_axis_frame(p, c) for p in halves if p.any()]
        # the middle sector's parity blocks of S_u that are not zero: the
        # even part gives the diagonal ones, the odd part the cross one (in
        # the frame they are rounding where the part is zero)
        middle = [halves[0].any()] * 2 + [halves[1].any()]

    def frequencies(u):
        eig = _unitary_eig(u)
        return None if eig is None else (-eig[0], eig[1])

    blocks = []
    for u, m, (_, _, mix) in zip(u_cycle, kept.weights, kept.eigs):
        if c is None or m == 2:
            eig = frequencies(u if c is None else _axis_frame(u, c))
            if eig is None:
                return None
            blocks.append((eig, eig, [_frame_observable(p, mix) for p in parts], m))
            continue
        u_pp, u_mm, *off = _parity_blocks(u, c, kept.reversal)
        if max(np.max(np.abs(x)) for x in off) > _EIG_RESIDUAL_MAX:
            return None
        plus, minus = frequencies(u_pp), frequencies(u_mm)
        if plus is None or minus is None:
            return None
        a_pp, a_mm, a_pm, _ = _parity_blocks(_frame_observable(s_u, mix), c, kept.reversal)
        blocks += [b for b, keep in zip(((plus, plus, [a_pp], 1), (minus, minus, [a_mm], 1),
                                         (plus, minus, [a_pm], 2)), middle) if keep]
    return np.concatenate(([1.0], _autocorrelation(blocks, np.arange(1, n_cycles + 1))))


def _hermitian_part(u, phase, real=False):
    """(exp(-i phase) U + h.c.) / 2, whose eigenvalues are cos(theta - phase)
    for the eigenphases theta of a unitary U, or its real part."""
    h = np.exp(-1j * phase) * u
    h = 0.5 * (h + h.conj().T)
    return h.real if real else h


def _real_left(v, a):
    """V A for a real V and a complex A, or stacks of them: a real product on
    the (re, im) pairs of A's rows, at half the flops of a complex one."""
    return (v @ np.ascontiguousarray(a).view(float)).view(complex)


def _sandwich(v, a, u):
    """V^dag A U, or a stack of them; for real V, U and a complex A, real products
    (_real_left) on A's rows and then on (V^T A)^T's."""
    if np.iscomplexobj(v) or np.iscomplexobj(u) or not np.iscomplexobj(a):
        return v.conj().swapaxes(-1, -2) @ a @ u
    # (V^T A)^T made contiguous at once, so that V^T A is not kept beside it
    atv = np.ascontiguousarray(_real_left(v.swapaxes(-1, -2), a).swapaxes(-1, -2))
    return _real_left(u.swapaxes(-1, -2), atv).swapaxes(-1, -2)


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

    A U symmetric within _EIG_RESIDUAL_MAX has a real orthogonal eigenbasis
    (module notes), found from real Hermitian parts with a real X and P. A U
    diagonal within that bound, such as a pulseless cycle in the free
    eigenframe, is its own eigenbasis: (angle(diag U), 1), with no eigh.
    """
    off = np.abs(u)
    np.fill_diagonal(off, 0.0)
    if np.max(off) <= _EIG_RESIDUAL_MAX:
        return np.angle(np.diag(u)), np.eye(len(u))
    real = np.max(np.abs(u - u.T)) <= _EIG_RESIDUAL_MAX
    w, p = np.linalg.eigh(_hermitian_part(u, _EIG_PHASE, real))
    d = _sandwich(p, u, p)
    edges = np.flatnonzero(np.diff(w) > _EIG_CLUSTER_GAP) + 1
    if edges.size + 1 < w.size:
        for lo, hi in zip([0, *edges], [*edges, w.size]):
            if hi - lo > 1:
                _, q = np.linalg.eigh(
                    _hermitian_part(d[lo:hi, lo:hi], _EIG_PHASE + 0.5 * np.pi, real))
                p[:, lo:hi] = p[:, lo:hi] @ q
        d = _sandwich(p, u, p)
    lam = np.diag(d)
    gap = lam[None, :] - lam[:, None]
    far = np.abs(gap) > _EIG_CLUSTER_GAP
    p = p + p @ (np.real if real else np.asarray)(np.where(far, d, 0.0) / np.where(far, gap, 1.0))
    p = p @ (1.5 * np.eye(w.size) - 0.5 * (p.conj().T @ p))
    d = _sandwich(p, u, p)
    theta = np.angle(np.diag(d))
    np.fill_diagonal(d, 0.0)
    if np.max(np.abs(d)) > _EIG_RESIDUAL_MAX:
        return None
    return theta, p


def _spectral_series(weights, e, g):
    """Re sum_ab W_ab exp(i (f_a - g_b) t) for each column t of the phase tables
    E = exp(-i f t) and G = exp(-i g t), as Re sum_a conj(E_a) (W G)_a in real
    products on their (re, im) pairs, W being real."""
    wg = weights @ g.view(float)
    return np.einsum("at,at->t", e.view(float), wg).reshape(-1, 2).sum(1)


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


def _realization_curve(spec, intervals, kept, phases, s_u, k, rows, pulses):
    """Survival values for realization k at the recording instants after
    t = 0, from the kept sector blocks (_Kept): per cycle and interval, each
    of the D `rows` in turn (_row_intervals). A static run builds its pulses
    into `pulses` (_static_operators), which may hold them from an earlier
    chunk of rows.

    The direct loop carries the accumulated propagators W applied to the
    prepared state's system column |+u> (_Accumulated, _initial_columns),
    and reads s = Re Tr{(d (x) 1) W (S_u (x) 1) W^dag} / Tr{(S_u (x) 1)^2},
    with d the prepared S_u in the detection frame, as the sum of each
    row's Gram of those columns against the key of d (_detection_key). A
    jittered run applies each segment. A static run takes the one path
    _plan picks from its counts: powered, steps (each segment, with each
    pulse built once) or products (one interval product per interval and
    cycle). A powered run that falls back reuses its operators and cycle
    product, and is planned again with that product paid for.
    """
    n_cycles, err = spec.timeline.n_cycles, spec.error_model
    rng = realization_rng(spec.master_seed, k)
    rf_scale = sample_rf_scale(err, rng)
    pieces = [iv.segments for iv in intervals]
    columns, sign = _initial_columns(spec.initial_axis, kept.flip)
    if err.tilt_jitter_sd == 0:
        static, products = _static_operators(pieces, kept, err, rf_scale, pulses), None
        counts = (intervals, n_cycles, columns.shape[1], rows, kept.widths, kept.weights)
        path = _plan(*counts)
        if path == "powered":
            products = _interval_products(pieces, static, kept, phases)
            powered = _powered_overlaps(products[0], s_u, n_cycles, kept)
            if powered is not None:
                return powered[1:]
            path = _plan(*counts, built=True)
        if path == "products":
            static = [[u] for u in products or _interval_products(pieces, static, kept, phases)]

        def cycle():
            return static
    else:
        cycle = _jittered_cycles(pieces, kept, err, rf_scale, rng)

    w = _Accumulated(kept, phases, columns, rows)
    d, key = s_u, _detection_key(s_u, kept.flip, sign)
    norm0 = 0.5 * sum(m * c for m, c in zip(kept.weights, kept.widths))
    values = []
    for _ in range(n_cycles):
        for iv, operators in zip(intervals, cycle()):
            for us in operators:
                w.advance(us)
            if iv.frame is not None:
                d = iv.frame @ d @ iv.frame.conj().T
                key = _detection_key(d, kept.flip, sign)
            values += [float(np.real(np.vdot(key, g))) / norm0 for g in w.gram()]
    return np.asarray(values)


def _row_intervals(runs):
    """The recording intervals of one run, or the one interval of one-cycle
    runs (rows) with each free step keyed by the tuple of their lengths."""
    if len(runs) == 1:
        return runs[0]
    (first,), *_ = runs
    return [first._replace(segments=[
        (kind, tuple(run[0].segments[i][1] for run in runs) if kind == "free" else p)
        for i, (kind, p) in enumerate(first.segments)])]


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
    if rows and (spec.record != "cycle_boundaries" or {t.n_cycles for t in (tl, *rows)} != {1}
                 or any(a.cycle_time >= b.cycle_time for a, b in zip((tl, *rows), rows))
                 or len({tuple(kind if kind == "free" else _shape(p) for kind, p in t.segments())
                         for t in (tl, *rows)}) > 1):
        raise ContractError("rows need one-cycle timelines recorded at cycle_boundaries, with "
                            "the pulses of spec.timeline in order and ever longer cycles")
    s_u = _SPIN_HALF[spec.initial_axis]
    runs = [_recording_intervals(t, spec.record) for t in (tl, *rows)]
    # free evolution does not depend on the pulse-error draw, so the
    # realizations share one frame read-only; the couplings key the frame
    # cache, copied so that no later edit of the model reaches it; no H_free
    # block outlives the frame
    kept = _Kept(build_h_free(model, _sectors(model.n_bath)), (model.b.copy(), model.d.copy()),
                 _flip_phase(tl.events, spec.error_model))

    def free_keys(intervals):
        return {p for iv in intervals for kind, p in iv.segments if kind == "free"}

    # a row takes two buffers of T columns and its phase tables
    t = _initial_columns(spec.initial_axis, kept.flip)[0].shape[1]
    row_bytes = 32 * kept.size * (2 * t + len(free_keys(_row_intervals(runs))))
    step = max(1, _CHUNK_BYTES // row_bytes)
    curves = [np.ones((spec.n_realizations, 1))]
    # each realization's static pulses, kept for its later chunks when there
    # are several
    pulses = [{} for _ in range(spec.n_realizations if len(runs) > step else 0)]
    for chunk in (runs[lo:lo + step] for lo in range(0, len(runs), step)):
        intervals = _row_intervals(chunk)
        phases = kept.phases(free_keys(intervals))
        curves.append(np.vstack([_realization_curve(spec, intervals, kept, phases, s_u, k,
                                                    len(chunk), pulses[k] if pulses else {})
                                 for k in range(spec.n_realizations)]))
    curves = np.hstack(curves)

    intervals = runs[0]
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


def _bath_blocks(model, spins):
    """_autocorrelation blocks under H_E of the I_z^j of `spins` by their
    diagonals, or of sum_j I_x^j when spins is None: its (k, k + 1) blocks
    only, as their transposes add the conjugate series.

    Flipping every bath spin leaves H_E and sum_j I_x^j alone and turns each
    I_z^j over, and it maps sector k onto sector n - k with its states
    reversed. So only the _mirror_sectors are diagonalized, one eigh each;
    a mirrored pair's blocks count twice, and the eigenvectors of sector
    n - k are those of sector k with their rows reversed.
    """
    n = model.n_bath
    sectors, h_e = zip(*_h_e_blocks(model))
    kept = _mirror_sectors(n)
    eigs = {k: np.linalg.eigh(h_e[k]) for k, _ in kept}
    if spins is None:
        def eig(k):
            w, v = eigs[min(k, n - k)]
            return (w, v) if 2 * k <= n else (w, v[::-1])
        # (k, k + 1) mirrors onto (n - k - 1, n - k)
        return [(eig(k), eig(k + 1),
                 [0.5 * (np.bitwise_count(sectors[k][:, None] ^ sectors[k + 1]) == 1)],
                 2 if 2 * k + 1 < n else 1) for k in range((n + 1) // 2)]
    z = _basis_z(n)[list(spins)]
    return [(eigs[k], eigs[k], list(z[:, sectors[k]]), m) for k, m in kept]


def _autocorrelation(blocks, times):
    """sum_j Tr{A_j(0) A_j(t)} / sum_j Tr{A_j A_j} for every t of `times`.

    Each block is ((f, V), (g, U), observables, m): the eigenpairs of the
    evolution on two invariant subspaces (one twice for a diagonal block),
    the block of each Hermitian A_j between them, or its diagonal, and the
    number of times m the block counts. The weights m sum_j |V^dag A_j U|^2
    of every block go through _spectral_series; the series are summed and
    divided by the total weight. For A_j of equal norm, such as the I_z^j,
    this is the mean of their normalized curves.

    Integer `times` that step by 1, such as cycle counts, build each phase
    table exp(-i f t) from products: its first column by exp, then the
    columns t + n from those before times exp(-i f n), doubling n.
    """
    weights = [m * sum(np.abs(_sandwich(v, a, u) if a.ndim == 2 else (v.conj().T * a) @ u)
                       ** 2 for a in observables) for (_, v), (_, u), observables, m in blocks]
    counts = np.issubdtype(np.asarray(times).dtype, np.integer) and np.all(np.diff(times) == 1)
    times = np.asarray(times, dtype=float)
    series = np.zeros(times.size)
    # chunks of at least 256 times keep memory O(dim max(dim, 256)); each
    # frequency array's phase table is built once per chunk (parity halves and
    # bath blocks share theirs) and dropped after the last block reading it
    step = max(256, *(n for w in weights for n in w.shape))
    last = {id(a): i for i, ((f, _), (g, _), _, _) in enumerate(blocks) for a in (f, g)}
    for start in range(0, times.size, step):
        chunk, tables = times[start:start + step], {}
        for i, (((f, _), (g, _), _, _), w) in enumerate(zip(blocks, weights)):
            for key, a in {id(f): f, id(g): g}.items():
                if key not in tables and not counts:
                    tables[key] = np.exp(-1j * np.outer(a, chunk))
                elif key not in tables:
                    table = tables[key] = np.empty((a.size, chunk.size), dtype=complex)
                    table[:, 0], n = np.exp(-1j * a * chunk[0]), 1
                    while n < chunk.size:
                        k = min(n, chunk.size - n)
                        np.multiply(table[:, :k], np.exp(-1j * n * a)[:, None],
                                    out=table[:, n:n + k])
                        n += k
            series[start:start + step] += _spectral_series(w, tables[id(f)], tables[id(g)])
            tables = {key: table for key, table in tables.items() if last[key] > i}
    return series / sum(w.sum() for w in weights)


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
