"""The free eigenframe of a run's sector blocks, and what acts in it.

This module imports neither spectral nor engine, which build on it.

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
on them (_Layout), so a sweep over delays or baths run again in turn
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
sector k; the middle sector's Q in the frame is _Layout.reversal.
avgham.magnus_defect pairs its sector blocks the same way, under the
weaker condition that Q turns each pulse into itself up to a sign.

The direct loop carries every sector's accumulated propagator W in one
buffer (_Accumulated), in the eigenframe of the free halves, X_s = V_s^T
W_s. A free step is then one multiply of the whole buffer by the phases
exp(-i w dt). A delta pulse [[a, b], [c, d]] is X_+ <- a X_+ + b M X_-
and X_- <- c M^T X_+ + d X_- with the real mixing M = V_+^T V_-, one real
product per sector width. A realization builds the +x pulse of each
strength once (_pulse_blocks), a finite one from its real drive plus
diag(w_+, w_-) in the frame (_frame_observable), so no H_free block
outlives the frame; as H_free conserves the system S_z, the pulse about a
tilted axis sign u is it with its off-diagonal halves times conj(c) and
c, c = sign (u_x + i u_y) (_turns).
"""

import math
from functools import cached_property

import numpy as np

from .hamiltonians import _mirror_sectors
from .operators import _SPIN_HALF, exp_propagator
from .pulses import axis_vector, delta_rotation, split_axis

# the free frames of _free_eigensystems, least recently used first, as
# (key, eigensystems, layouts by pairing, bytes) tuples that no call changes
# but for the reversal a paired layout forms on first use; the budget
# holds several baths up to n_bath 9 (1.8 MB with a paired layout), one
# from n_bath 10 (7.9 MB), and from n_bath 11 only the newest
_frames = ()
_FRAME_BYTES = 1 << 24


def _free_eigensystems(h_blocks, key, paired):
    """The layout (_Layout) of a run of the _mirror_sectors (`paired` True) or
    of every sector on the frame of the blocks H_k: their eigs [(w, V, M)],
    the eigenpairs H_s = V_s diag(w_s) V_s^dag of the two system halves s =
    +, -, stacked as w (2, C) and V (2, C, C), and their mixing M = V_+^dag
    V_-, from one eigh of both halves.

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
    if paired not in entry[2]:
        layout = _Layout(entry[1], paired)
        entry = (*entry[:2], {**entry[2], paired: layout}, entry[3] + layout.nbytes)
    # threads that store at once may each drop the other's update: that
    # entry is built again when next asked for, never seen half built
    frames.append(entry)
    while len(frames) > 1 and sum(f[3] for f in frames) > _FRAME_BYTES:
        del frames[0]
    _frames = tuple(frames)
    return entry[2][paired]


def _halves(h):
    """The two system S_z halves of a block h, stacked as (2, C, C): a real
    copy when they have no imaginary part, as H_free's."""
    c = len(h) // 2
    x = np.stack((h[:c, :c], h[c:, c:]))
    return x if x.imag.any() else x.real.copy()


class _Layout:
    """The sector blocks a run propagates on one cached frame
    (_free_eigensystems): every sector, or under a spin flip (_flip_phase,
    avgham._defect_flip) the _mirror_sectors (`paired`), shared read-only and
    holding no H_free block: their weights and eigensystems (w, V, M),
    ordered by width in the buffer (_Accumulated) so that k and n - k sit side
    by side, and each width's stacked mixings [M, M^dag] (`groups`).
    """

    def __init__(self, eigs, paired):
        n = len(eigs)
        self.sectors, self.weights = zip(*(_mirror_sectors(n - 1) if paired else
                                           [(k, 1) for k in range(n)]))
        self.eigs = [eigs[k] for k in self.sectors]
        self.widths = widths = [len(v[0]) for _, v, _ in self.eigs]
        order = sorted(range(len(widths)), key=widths.__getitem__)
        ends = dict(zip(order, np.cumsum([widths[i] ** 2 for i in order])))
        self.slices = [slice(ends[i] - c * c, ends[i]) for i, c in enumerate(widths)]
        self.size, self.groups = ends[order[-1]], []
        for c in sorted(set(widths)):
            members = [i for i in order if widths[i] == c]
            m = np.stack([self.eigs[i][2] for i in members])
            self.groups.append((slice(self.slices[members[0]].start, ends[members[-1]]), m.shape,
                                np.stack((m, m.conj().swapaxes(1, 2)))))
        ordered = [widths[i] for i in order]
        self._w = np.hstack([self.eigs[i][0] for i in order])
        self._spread = np.repeat(np.arange(self._w.shape[1]), np.repeat(ordered, ordered))
        # counting the middle sector's reversal, formed on first use
        self.nbytes = sum(a.nbytes for a in [
            self._w, self._spread, *(m for *_, m in self.groups),
            *(v[0] for (_, v, _), m in zip(self.eigs, self.weights) if paired and m == 1)])

    def phases(self, keys):
        """The phase steps exp(-i w dt) of each free step's key, a length dt
        or the tuple of the D rows' lengths (_row_intervals), as C-contiguous
        (D, 1, 2, size) tables for _Accumulated."""
        return {key: np.take(np.exp(-1j * np.reshape(key, (-1, 1, 1, 1)) * self._w),
                             self._spread, axis=-1) for key in keys}

    @cached_property
    def reversal(self):
        """K = V_+^T J V_- of the middle sector under a spin flip, with J
        reversing its bath states: a real orthogonal (C, C) matrix, in which
        the flip reads [[0, conj(c) K], [c K^T, 0]] in the frame
        (_parity_blocks). A powered run forms it on first use, after its
        cycle product, so that it adds nothing to the run's peak memory, and
        the layout keeps it for later runs: one attribute, set whole."""
        (_, v, _), = [eig for eig, m in zip(self.eigs, self.weights) if m == 1]
        return v[0].T @ v[1][::-1]


class _Accumulated:
    """The accumulated propagators W of the kept sectors (_Layout) of D rows
    (runs sharing their pulses) applied to T initial system columns psi_t,
    W (psi_t (x) 1), in their free eigenframe X_s = V_s^dag W_s (module notes).

    They share one buffer of shape (D T, 2, sum_k C_k^2): row [r T + t, s]
    holds the (C, C) blocks V_s^dag <s|W_r|psi_t> of each sector in the kept
    layout, and blocks[k] views sector k as (D T, 2, C, C). Each step but a
    free one writes the second of two buffers and swaps them. A sector of
    weight m starts at sqrt(m) psi_t (x) 1, so the Gram counts it m times;
    without columns W starts at the frame's identity and comes out as
    V^dag W V. Every row starts the same, so row 0's T columns are written in
    place, sector by sector, and rows 1..D-1 take them in one broadcast copy.
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
        start = np.eye(2) if columns is None else columns.T
        for block, (_, v, _), m in zip(self.blocks, kept.eigs, kept.weights):
            row = block[:len(start)]
            row[...] = np.eye(len(v[0])) if columns is None else v.conj().swapaxes(1, 2)
            row *= (start if columns is None else math.sqrt(m) * start)[:, :, None, None]
        if rows > 1:
            self._states[0][1][1:] = self._states[0][1][0]

    @property
    def blocks(self):
        return self._states[0][2]

    def advance(self, op):
        """W <- U W for a free step keyed by `op` (_Layout.phases), a 2x2
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


def _advance(u, w, out):
    """out = U W for one sector's full (2C, 2C) block U in the frame, a finite
    pulse or an interval product, and its blocks w and out (_Accumulated)."""
    out[...] = (u @ w.reshape(len(w), len(u), -1)).reshape(out.shape)


def _mix(m, x, out):
    """out = M X in M's dtype: float views of X and out for a real M."""
    np.matmul(m, x, out=out)


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


def _operators(events, layout, err, rf_scale):
    """The operators of a cycle of these pulse `events` on the layout under
    one realization's errors, as a function of its segment lists `pieces`
    and, under tilt jitter, the realization's generator, in the order
    _Accumulated.advance applies them: free steps by their length, and each
    pulse turned (_turned) from the +x pulse of its strength, built once
    (_pulse_blocks). Static errors turn each shape once, to the static tilt.
    Tilt jitter turns every pulse of each call to a fresh tilt, drawn by one
    rng.normal call in time order, the same stream as one draw per pulse,
    and its delta pulses as one stack."""
    strengths = {_strength(ev): ev for ev in events}
    built = {key: _pulse_blocks(ev, layout, err, rf_scale) for key, ev in strengths.items()}
    if err.tilt_jitter_sd == 0:
        shapes = {_shape(ev): ev for ev in events}
        turned = {key: _turned(built[_strength(ev)], turn) for (key, ev), turn in
                  zip(shapes.items(), _turns(shapes.values())(np.full(len(shapes), err.axis_tilt)))}

        def pulses(rng):
            return map(turned.get, map(_shape, events))
    else:
        delta = [i for i, ev in enumerate(events) if ev.duration == 0]
        stack, turns = np.array([built[_strength(events[i])] for i in delta]), _turns(events)

        def pulses(rng):
            turn = turns(rng.normal(err.axis_tilt, err.tilt_jitter_sd, size=len(events)))
            rotated = iter(_turned(stack, turn[delta]) if delta else ())
            return [next(rotated) if ev.duration == 0 else _turned(built[_strength(ev)], t)
                    for ev, t in zip(events, turn)]

    def operators(pieces, rng=None):
        applied = iter(pulses(rng))
        return [[p if kind == "free" else next(applied) for kind, p in segments]
                for segments in pieces]

    return operators


def _interval_products(pieces, operators, layout, phases):
    """For each segment list of `pieces` in order, the per-sector product of
    its static `operators` (_operators) in the frame (_Layout), V^dag U V,
    as full (2C, 2C) blocks that own their memory; `phases` holds the free
    steps' tables. Segment lists of equal shape share one product."""
    shared = {}
    for segments, ops in zip(pieces, operators):
        key = _interval_key(segments)
        if key not in shared:
            w = _Accumulated(layout, phases)
            for op in ops:
                w.advance(op)
            shared[key] = []
            for b in w.blocks:
                # quadrant [s, t] of the product is b[t, s], copied in place
                u = np.empty((2, b.shape[-1], 2, b.shape[-1]), dtype=complex)
                u[:, :, 0], u[:, :, 1] = b
                shared[key].append(u.reshape(2 * b.shape[-1], -1))
    return [shared[_interval_key(segments)] for segments in pieces]


def _interval_key(segments):
    return tuple(p if kind == "free" else _shape(p) for kind, p in segments)


def _shape(ev):
    return ev.axis, ev.nominal_angle, ev.duration


def _strength(ev):
    return ev.nominal_angle, ev.duration
