"""Pulse propagators and the error channels applied to them."""

import numpy as np
import pytest

from spinbath import (
    BimodalRf,
    ContractError,
    ErrorModel,
    FixedRf,
    GaussianRf,
    PulseSpec,
    build_h_free,
    build_operator_set,
    default_model,
    error_factor,
    ideal_pulse,
    real_pulse,
    sample_rf_scale,
)


def _z_rotation(angle, ops):
    w, v = np.linalg.eigh(np.asarray(ops.sz))
    return (v * np.exp(-1j * w * angle)) @ v.conj().T


@pytest.fixture(scope="module")
def ops2():
    return build_operator_set(2)


def test_ideal_pi_pulse_flips_transverse_components(ops2):
    u = ideal_pulse("y", np.pi, ops2).matrix
    # conjugation by exp(-i pi S_y): S_x -> -S_x, S_z -> -S_z, S_y fixed
    assert np.allclose(u @ ops2.sx @ u.conj().T, -ops2.sx, atol=1e-13)
    assert np.allclose(u @ ops2.sz @ u.conj().T, -ops2.sz, atol=1e-13)
    assert np.allclose(u @ ops2.sy @ u.conj().T, ops2.sy, atol=1e-13)


def test_negative_axis_reverses_rotation(ops2):
    u_plus = ideal_pulse("y", np.pi / 2, ops2).matrix
    u_minus = ideal_pulse("-y", np.pi / 2, ops2).matrix
    assert np.allclose(u_minus, u_plus.conj().T, atol=1e-13)


def test_two_pi_rotation_is_minus_identity(ops2):
    u = ideal_pulse("x", 2 * np.pi, ops2).matrix
    assert np.allclose(u, -np.eye(ops2.dim), atol=1e-13)


def test_pulse_spec_area_contract():
    PulseSpec("x", np.pi, 10.4, np.pi / 10.4)  # closes
    with pytest.raises(ContractError):
        PulseSpec("x", np.pi, 10.4, 0.5)  # area mismatch
    with pytest.raises(ContractError):
        PulseSpec("q", np.pi)
    with pytest.raises(ContractError):
        PulseSpec("x", np.pi, 5.0, 0.0)


def test_finite_pulse_approaches_delta_limit():
    # with H_free = 0 the finite pulse is the ideal rotation for any width
    m = default_model(n_bath=2, b_scale=0.0, d_scale=0.0)
    h0 = np.zeros((m.ops.dim, m.ops.dim))
    err = ErrorModel()
    spec = PulseSpec.from_rf("y", np.pi, np.pi / 25.0)
    u_fin = real_pulse(spec, 1.0, err, h0, m.ops).matrix
    u_ideal = ideal_pulse("y", np.pi, m.ops).matrix
    assert np.max(np.abs(u_fin - u_ideal)) < 1e-12


def test_finite_pulse_includes_bath_dynamics():
    m = default_model(n_bath=2)
    h_free = np.asarray(build_h_free(m), dtype=complex)
    spec = PulseSpec.from_rf("y", np.pi, np.pi / 10.4)
    u = real_pulse(spec, 1.0, ErrorModel(), h_free, m.ops).matrix
    u_ideal = ideal_pulse("y", np.pi, m.ops).matrix
    # the bath moves during 10.4 us, so the two must differ measurably
    assert np.max(np.abs(u - u_ideal)) > 1e-3


def test_flip_angle_fraction_scales_rotation(ops2):
    err = ErrorModel(flip_angle_fraction=0.05)
    u = real_pulse(PulseSpec.delta("x", np.pi), 1.0, err,
                   np.zeros((ops2.dim, ops2.dim)), ops2).matrix
    expected = ideal_pulse("x", np.pi * 1.05, ops2).matrix
    assert np.allclose(u, expected, atol=1e-13)


def test_rf_scale_multiplies_angle(ops2):
    u = real_pulse(PulseSpec.delta("x", np.pi), 0.9, ErrorModel(),
                   np.zeros((ops2.dim, ops2.dim)), ops2).matrix
    expected = ideal_pulse("x", 0.9 * np.pi, ops2).matrix
    assert np.allclose(u, expected, atol=1e-13)


def test_axis_tilt_rotates_axis_within_plane(ops2):
    zero = np.zeros((ops2.dim, ops2.dim))
    tilt = 0.2
    u = real_pulse(PulseSpec.delta("y", np.pi), 1.0, ErrorModel(axis_tilt=tilt),
                   zero, ops2).matrix
    # equivalent to conjugating the clean pulse by a z rotation
    rz = _z_rotation(tilt, ops2)
    u_ref = rz @ ideal_pulse("y", np.pi, ops2).matrix @ rz.conj().T
    assert np.allclose(u, u_ref, atol=1e-12)


def test_tilt_override_parameter(ops2):
    zero = np.zeros((ops2.dim, ops2.dim))
    err = ErrorModel(axis_tilt=0.3)
    u_override = real_pulse(PulseSpec.delta("y", np.pi), 1.0, err, zero, ops2,
                            tilt=0.0).matrix
    assert np.allclose(u_override, ideal_pulse("y", np.pi, ops2).matrix,
                       atol=1e-13)


def test_identical_tilted_pair_cancels(ops2):
    # two equal pi pulses about any common axis compose to a global phase,
    # which is why a static tilt alone cannot damage the component along
    # the nominal axis in an even train
    zero = np.zeros((ops2.dim, ops2.dim))
    err = ErrorModel(axis_tilt=0.17)
    u = real_pulse(PulseSpec.delta("y", np.pi), 1.0, err, zero, ops2).matrix
    pair = u @ u
    phase = pair[0, 0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.max(np.abs(pair - phase * np.eye(ops2.dim))) < 1e-12


def test_error_factor_recomposes_pulse(ops2):
    err = ErrorModel(flip_angle_fraction=0.08, axis_tilt=0.1)
    spec = PulseSpec.delta("x", np.pi)
    e = error_factor(spec, 0.93, err)
    assert e.shape == (2, 2)
    ideal = ideal_pulse("x", np.pi, ops2).matrix
    real = real_pulse(spec, 0.93, err, np.zeros((ops2.dim, ops2.dim)), ops2).matrix
    assert np.allclose(np.kron(e, np.eye(ops2.dim // 2)) @ ideal, real, atol=1e-12)


def test_error_factor_is_identity_for_perfect_pulse():
    e = error_factor(PulseSpec.delta("y", np.pi), 1.0, ErrorModel())
    assert np.allclose(e, np.eye(2), atol=1e-13)


def test_rf_distributions():
    rng = np.random.default_rng(0)
    assert FixedRf().sample(rng) == 1.0
    bi = BimodalRf(0.9, 1.1, weight=1.0)
    assert bi.sample(rng) == 0.9
    g = GaussianRf(1.0, 0.0)
    assert g.sample(rng) == 1.0
    draws = [GaussianRf(1.0, 0.1).sample(rng) for _ in range(400)]
    assert 0.05 < np.std(draws) < 0.15
    with pytest.raises(ContractError):
        BimodalRf(-1.0, 1.0)
    with pytest.raises(ContractError):
        GaussianRf(0.0, 0.1)


def test_sample_rf_scale_deterministic():
    err = ErrorModel(rf=GaussianRf(1.0, 0.1))
    assert sample_rf_scale(err, 42) == sample_rf_scale(err, 42)
    assert sample_rf_scale(err, 42) != sample_rf_scale(err, 43)


def test_error_model_trivial_flag():
    assert ErrorModel().is_trivial
    assert not ErrorModel(flip_angle_fraction=0.01).is_trivial
    assert not ErrorModel(axis_tilt=0.05).is_trivial
    assert not ErrorModel(tilt_jitter_sd=0.1).is_trivial
    assert not ErrorModel(rf=GaussianRf()).is_trivial
