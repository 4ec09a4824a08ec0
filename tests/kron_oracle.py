"""The tests' full-space oracle: the package's sector-block Hamiltonians and
toggling frames written out independently, as products of kron-embedded
single-site operators on the whole 2**(n_bath + 1) space."""

from types import SimpleNamespace

import numpy as np

from spinbath import ContractError, PulseSpec, ToggledSegment, ideal_pulse, real_pulse
from spinbath.avgham import rotation_generator

SPIN_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


def full_space(n_bath):
    """n_bath, dim, the system spin's sx, sy, sz and the bath spins' lists
    ix, iy, iz on the full space; site 0, the system, is the leading factor."""
    sites = {u: [np.kron(np.kron(np.eye(2**q), half), np.eye(2 ** (n_bath - q)))
                 for q in range(n_bath + 1)] for u, half in SPIN_HALF.items()}
    return SimpleNamespace(n_bath=n_bath, dim=2 ** (n_bath + 1),
                           **{f"s{u}": sites[u][0] for u in "xyz"},
                           **{f"i{u}": sites[u][1:] for u in "xyz"})


def h_error(a, b_u, model):
    """sum_u S_u (a_u + sum_j b_uj I_z^j), skipping zero b_uj."""
    ops = full_space(model.n_bath)
    h = np.zeros((ops.dim, ops.dim), dtype=complex)
    for u, s_u in enumerate((ops.sx, ops.sy, ops.sz)):
        field = a[u] * np.eye(ops.dim)
        for j in np.flatnonzero(b_u[u]):
            field = field + b_u[u, j] * ops.iz[j]
        h += s_u @ field
    return h


def h_se(model):
    """S_z sum_j b_j I_z^j, skipping zero b_j."""
    return h_error(np.zeros(3), np.vstack((np.zeros((2, model.n_bath)), model.b)), model)


def h_e(model):
    """sum_{i<j} d_ij [2 I_z^i I_z^j - I_x^i I_x^j - I_y^i I_y^j], skipping
    zero d_ij."""
    ops = full_space(model.n_bath)
    h = np.zeros((ops.dim, ops.dim), dtype=complex)
    for i, j in zip(*np.nonzero(np.triu(model.d, 1))):
        h += model.d[i, j] * (2.0 * ops.iz[i] @ ops.iz[j] - ops.ix[i] @ ops.ix[j]
                              - ops.iy[i] @ ops.iy[j])
    return h


def error_generator(axis, angle, err, ops):
    """Generator of the full-space error factor real @ ideal^dag, with the
    real pulse built under a zero Hamiltonian."""
    zero = np.zeros((ops.dim, ops.dim), dtype=complex)
    real = real_pulse(PulseSpec.delta(axis, angle), 1.0, err, zero, ops).matrix
    return rotation_generator(real @ ideal_pulse(axis, angle, ops).matrix.conj().T)


def toggling_frames(timeline, h_free, error_model=None):
    """avgham.toggling_frames with every frame and kick a full-space matrix:
    kron-embedded ideal pulses and full-space error generators."""
    ops = SimpleNamespace(dim=len(h_free))
    frame = np.eye(ops.dim, dtype=complex)
    segments, pending, generators = [], None, {}
    for kind, payload in timeline.segments():
        if kind == "free":
            area = frame.conj().T @ h_free @ frame * payload
            if pending is not None:
                area, pending = area + pending, None
            segments.append(ToggledSegment(payload, area / payload))
            continue
        frame = ideal_pulse(payload.axis, payload.nominal_angle, ops).matrix @ frame
        if error_model is not None:
            key = (payload.axis, payload.nominal_angle)
            if key not in generators:
                generators[key] = error_generator(*key, error_model, ops)
            kick = frame.conj().T @ generators[key] @ frame
            pending = kick if pending is None else pending + kick
    if pending is not None and np.max(np.abs(pending)) > 1e-15:
        raise ContractError("trailing pulse error")
    return segments
