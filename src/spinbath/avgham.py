"""Average Hamiltonian theory: toggling frames, leading Magnus terms, claims.

For a delta-pulse cycle the free evolution between pulses is rotated into
the frame of the preceding ideal pulses, H_k = P_k^dag H_free P_k, and the
leading terms over one cycle are

    H0 = (1/tau_c) sum_k H_k dt_k
    H1 = (-i / 2 tau_c) sum_{k<l} [H_l dt_l, H_k dt_k]   (k earlier in time).

Pulse errors are handled through the exact factorization real = error x
ideal: the instantaneous error rotation that follows pulse i is absorbed
into the next free segment as an extra static term (its integrated action
divided by the segment length), which leaves H0 identical to the kick
picture. A small registry of closed-form claims about these terms is
checked numerically by verify_claim.
"""

from dataclasses import dataclass

import numpy as np

from .engine import PropagatorCache
from .errors import ContractError
from .hamiltonians import build_h_e, build_h_error, build_h_free, default_model
from .operators import build_operator_set, evolve, exp_propagators, require_hermitian
from .pulses import (ErrorModel, PulseSpec, _conjugate, _left, delta_rotation, error_factor,
                     ideal_frame)
from .sequences import compile_cpmg, compile_pdd

CLAIM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ToggledSegment:
    """One free period in the toggling frame: positive duration, frame
    Hamiltonian including any absorbed pulse-error action."""

    duration: float
    h_tilde: np.ndarray

    def __post_init__(self):
        if self.duration <= 0:
            raise ContractError(f"segment duration must be > 0, got {self.duration}")
        object.__setattr__(self, "h_tilde", np.asarray(self.h_tilde, dtype=complex))


def rotation_generator(u):
    """Hermitian G with u = exp(-i G), principal branch per eigenvalue."""
    w, v = np.linalg.eig(np.asarray(u, dtype=complex))
    g = (v * (-np.angle(w))) @ np.linalg.inv(v)
    return 0.5 * (g + g.conj().T)


def toggling_frames(timeline, h_free, ops, pulse_model="ideal", error_model=None):
    """Toggling-frame segments of one delta-pulse cycle.

    Returns a list of ToggledSegment whose durations sum to tau_c. With
    pulse_model='errored' the error rotation following each pulse is folded
    into the next free segment as its toggled generator (rf_scale fixed at
    1, so only the deterministic flip-angle and tilt errors enter); a
    trailing error with no following free period cannot be represented
    this way and raises ContractError.
    """
    if pulse_model not in ("ideal", "errored"):
        raise ContractError(f"pulse_model must be 'ideal' or 'errored', got {pulse_model!r}")
    if pulse_model == "errored" and error_model is None:
        raise ContractError("pulse_model='errored' needs an error_model")
    h_free = require_hermitian(h_free, "free Hamiltonian")
    # the ideal frame and the pulse-error kicks act on the system spin
    # alone, so both stay 2x2
    segments = []
    frame = np.eye(2, dtype=complex)
    pending = None
    for kind, payload in timeline.segments():
        if kind == "free":
            area = _conjugate(frame.conj().T, h_free) * payload
            if pending is not None:
                area = area + np.kron(pending, np.eye(ops.dim // 2))
                pending = None
            segments.append(ToggledSegment(payload, area / payload))
            continue
        if payload.duration != 0.0:
            raise ContractError(
                "toggling frames need delta pulses; finite-width pulses are "
                "handled through their error factors"
            )
        frame = delta_rotation(payload.axis, payload.nominal_angle) @ frame
        if pulse_model == "errored":
            g = rotation_generator(error_factor(payload, 1.0, error_model))
            # the error rotation acts after the ideal pulse, so toggle it
            # with the frame that includes this pulse
            kick = frame.conj().T @ g @ frame
            pending = kick if pending is None else pending + kick
    if pending is not None and float(np.max(np.abs(pending))) > 1e-15:
        raise ContractError(
            "a trailing pulse-error rotation has no following free period to absorb it"
        )
    total = sum(s.duration for s in segments)
    if abs(total - timeline.cycle_time) > 1e-9 * max(1.0, timeline.cycle_time):
        raise ContractError(
            f"segment durations sum to {total}, expected tau_c={timeline.cycle_time}"
        )
    return segments


def average_hamiltonian(segments, order):
    """Magnus term of the requested order (0 or 1) for one cycle.

    Order 0 is the duration-weighted mean of the frame Hamiltonians; order
    1 is the antisymmetrized commutator sum, which vanishes whenever all
    segments commute and flips sign under time reversal of the cycle.
    """
    if order not in (0, 1):
        raise ContractError(f"order must be 0 or 1, got {order}")
    if not segments:
        raise ContractError("need at least one toggled segment")
    tau_c = sum(s.duration for s in segments)
    if order == 0:
        acc = sum(s.h_tilde * s.duration for s in segments)
        return acc / tau_c
    areas = [s.h_tilde * s.duration for s in segments]
    dim = areas[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    running = np.zeros((dim, dim), dtype=complex)
    for area in areas:
        acc += area @ running - running @ area
        running += area
    return acc * (-1j / (2.0 * tau_c))


def _component_table(h, ops):
    """Coefficients of H on the orthogonal basis {S_u, S_u I_z^j} plus the
    Frobenius norm of what is left over."""
    comps = {}
    rest = np.asarray(h, dtype=complex).copy()
    for name, s_u in (("x", ops.sx), ("y", ops.sy), ("z", ops.sz)):
        basis = [(f"s{name}", s_u)]
        basis += [(f"s{name}.iz{j}", s_u @ ops.iz[j]) for j in range(ops.n_bath)]
        for key, op in basis:
            norm = float(np.real(np.einsum("ij,ji->", op.conj().T, op)))
            c = complex(np.einsum("ij,ji->", op.conj().T, h)) / norm
            comps[key] = c
            rest -= c * op
    return comps, float(np.linalg.norm(rest))


def _claim_cpmg_flip_angle(params):
    """Plain two-pulse train with flip-angle error: the zeroth-order average
    Hamiltonian is a pure S_y field of strength 2 eps pi / tau_c."""
    tau = params.get("tau", 30.0)
    eps = params.get("flip_angle_fraction", 0.05)
    model = params.get("model") or default_model(
        seed=params.get("seed", 11), n_bath=params.get("n_bath", 2),
        b_scale=0.05, d_scale=0.05)
    ops = model.ops
    tl = compile_cpmg(tau, 0.0)
    err = ErrorModel(flip_angle_fraction=eps)
    segs = toggling_frames(tl, build_h_free(model), ops, "errored", err)
    h0 = average_hamiltonian(segs, 0)
    # the bath-internal term rides along untouched by system pulses; the
    # claim concerns everything the central spin can feel
    comps, rest = _component_table(h0 - build_h_e(model), ops)
    expected = 2.0 * eps * np.pi / tl.cycle_time
    got = comps["sy"].real
    scale = abs(expected)
    off_axis = max(abs(comps["sx"]), abs(comps["sz"]))
    se_terms = max(abs(v) for k, v in comps.items() if ".iz" in k)
    residual = max(abs(got - expected), off_axis, se_terms, rest) / scale
    return {
        "claim": "cpmg-flip-angle-zeroth-order",
        "statement": "flip-angle error leaves a pure S_y zeroth-order field "
                     "of strength 2*eps*pi/tau_c on the plain two-pulse train",
        "norms": {"sy_coefficient": got, "expected": expected,
                  "off_axis_max": off_axis, "system_bath_max": se_terms,
                  "unmodeled_rest": rest},
        "residual": residual,
    }


def _claim_cpmg2_cancellation(params):
    """Alternating +y/-y pair: for hard pulses and vanishing delays the
    accumulated zeroth-order error generator cancels exactly."""
    eps = params.get("flip_angle_fraction", 0.05)
    ops = build_operator_set(params.get("n_bath", 1))
    err = ErrorModel(flip_angle_fraction=eps)
    frame = np.eye(2, dtype=complex)
    acc = np.zeros((2, 2), dtype=complex)
    for axis in ("y", "-y"):
        g = rotation_generator(error_factor(PulseSpec.delta(axis, np.pi), 1.0, err))
        frame = delta_rotation(axis, np.pi) @ frame
        acc += frame.conj().T @ g @ frame
    # the full-space generator is acc (x) 1_bath, of norm |acc| sqrt(dim / 2)
    generator_sum = float(np.linalg.norm(acc) * np.sqrt(ops.dim // 2))
    ref = abs(eps) * np.pi * float(np.linalg.norm(ops.sy))
    residual = generator_sum / ref
    return {
        "claim": "cpmg2-error-sum-vanishes",
        "statement": "with hard pulses and vanishing delays the +y/-y pair "
                     "accumulates no zeroth-order error generator",
        "norms": {"generator_sum": generator_sum, "reference": ref},
        "residual": residual,
    }


def _claim_pdd_cancels_coupling(params):
    """Four-pulse block: the zeroth-order average of a general system-bath
    error Hamiltonian vanishes, leaving only the bath term."""
    tau = params.get("tau", 20.0)
    seed = params.get("seed", 5)
    model = params.get("model") or default_model(
        seed=seed, n_bath=params.get("n_bath", 3), b_scale=0.05, d_scale=0.05)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.05, 0.05, 3)
    b_u = rng.uniform(-0.05, 0.05, (3, model.n_bath))
    h_err = build_h_error(a, b_u, model)
    h_e = build_h_e(model)
    tl = compile_pdd(tau, 0.0)
    segs = toggling_frames(tl, h_err + h_e, model.ops, "ideal")
    h0 = average_hamiltonian(segs, 0)
    ref = float(np.linalg.norm(h_err))
    residual = float(np.linalg.norm(h0 - h_e)) / ref
    return {
        "claim": "pdd-cancels-system-bath-coupling",
        "statement": "the four-pulse block averages any S_u (a_u + sum_j "
                     "b_uj I_z^j) coupling to zero at leading order",
        "norms": {"h0_minus_bath": float(np.linalg.norm(h0 - h_e)), "reference": ref},
        "residual": residual,
    }


CLAIMS = {
    "cpmg-flip-angle-zeroth-order": _claim_cpmg_flip_angle,
    "cpmg2-error-sum-vanishes": _claim_cpmg2_cancellation,
    "pdd-cancels-system-bath-coupling": _claim_pdd_cancels_coupling,
}

CLAIM_IDS = tuple(CLAIMS)


def verify_claim(claim_id, params=None):
    """Check one registered closed-form claim numerically.

    Returns a JSON-friendly report with the relevant norms, the relative
    residual, the tolerance, and a boolean `pass`.
    """
    try:
        fn = CLAIMS[claim_id]
    except KeyError:
        raise ContractError(
            f"unknown claim {claim_id!r}; known claims: {', '.join(CLAIMS)}"
        ) from None
    report = fn(dict(params or {}))
    report["tolerance"] = CLAIM_TOL
    report["pass"] = bool(report["residual"] < CLAIM_TOL)
    return report


def magnus_defect(timeline, h_free, ops):
    """Norm of U_exact(tau_c) - exp(-i (H0 + H1) tau_c) for one cycle.

    Scales as the cube of the coupling strength, which is the standard
    convergence diagnostic for the truncated expansion.
    """
    segs = toggling_frames(timeline, h_free, ops, "ideal")
    h01 = average_hamiltonian(segs, 0) + average_hamiltonian(segs, 1)
    u_avg = evolve(h01, timeline.cycle_time).matrix
    # the engine's cycle product; error-free pulses at unit RF scale are
    # exactly the ideal rotations
    pieces = timeline.segments()
    free_us = exp_propagators(h_free, {dt for kind, dt in pieces if kind == "free"})
    u_exact = PropagatorCache(h_free, ops, ErrorModel(), 1.0, free_us, None).cycle(pieces)
    # undo the ideal frame so both matrices live in the toggling frame at
    # the cycle end; for pi-pulse cycles the net frame is +-identity
    frame = ideal_frame(timeline.events)
    return float(np.linalg.norm(_left(frame.conj().T, u_exact) - u_avg))
