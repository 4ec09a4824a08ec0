"""Pulse propagators and the error channels applied to them."""

import numpy as np
import pytest

import kron_oracle as oracle
from spinbath import (
    BimodalRf,
    ContractError,
    ErrorModel,
    FixedRf,
    GaussianRf,
    PulseEvent,
    PulseSpec,
    build_h_free,
    build_operator_set,
    default_model,
    error_factor,
    ideal_pulse,
    real_pulse,
    sample_rf_scale,
)
from spinbath.engine import _Kept, _pulse_blocks, _turned, _turns
from spinbath.pulses import PULSE_AXES, axis_vector, delta_rotation, split_axis
from spinbath.hamiltonians import _sector_blocks, _sectors


def _z_rotation(angle, n_bath):
    w, v = np.linalg.eigh(oracle.full_space(n_bath).sz)
    return (v * np.exp(-1j * w * angle)) @ v.conj().T


@pytest.fixture(scope="module")
def ops2():
    return build_operator_set(2)


def test_ideal_pi_pulse_flips_transverse_components(ops2):
    u = ideal_pulse("y", np.pi, ops2).matrix
    s = oracle.full_space(ops2.n_bath)
    # conjugation by exp(-i pi S_y): S_x -> -S_x, S_z -> -S_z, S_y fixed
    assert np.allclose(u @ s.sx @ u.conj().T, -s.sx, atol=1e-13)
    assert np.allclose(u @ s.sz @ u.conj().T, -s.sz, atol=1e-13)
    assert np.allclose(u @ s.sy @ u.conj().T, s.sy, atol=1e-13)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pulse_spec_rejects_non_finite_fields(bad):
    for args in (("x", np.pi, bad), ("x", bad), ("x", np.pi, 1.5, bad)):
        with pytest.raises(ContractError, match="finite"):
            PulseSpec(*args)


def test_finite_pulse_approaches_delta_limit():
    # with H_free = 0 the finite pulse is the ideal rotation for any width
    m = default_model(n_bath=2, b_scale=0.0, d_scale=0.0)
    h0 = np.zeros((m.ops.dim, m.ops.dim))
    err = ErrorModel()
    spec = PulseSpec("y", np.pi, 25.0, np.pi / 25.0)
    u_fin = real_pulse(spec, 1.0, err, h0, m.ops).matrix
    u_ideal = ideal_pulse("y", np.pi, m.ops).matrix
    assert np.max(np.abs(u_fin - u_ideal)) < 1e-12


def test_finite_pulse_includes_bath_dynamics():
    m = default_model(n_bath=2)
    h_free = np.asarray(build_h_free(m), dtype=complex)
    spec = PulseSpec("y", np.pi, 10.4, np.pi / 10.4)
    u = real_pulse(spec, 1.0, ErrorModel(), h_free, m.ops).matrix
    u_ideal = ideal_pulse("y", np.pi, m.ops).matrix
    # the bath moves during 10.4 us, so the two must differ measurably
    assert np.max(np.abs(u - u_ideal)) > 1e-3


def test_engine_finite_pulse_matches_real_pulse_per_sector():
    # the engine exponentiates the +x pulse without the public checks, one
    # bath-magnetization sector at a time, in the free eigenframe, and turns
    # it to each axis and tilt by a phase; turned out of the frame, each
    # block is the dense pulse's
    m = default_model(n_bath=3)
    h_free = build_h_free(m)
    sectors = _sectors(m.n_bath)
    err = ErrorModel(flip_angle_fraction=0.03, axis_tilt=0.05)
    h_blocks = _sector_blocks(h_free, sectors)
    kept = _Kept(h_blocks, h_blocks)
    x_pulse = _pulse_blocks(PulseEvent(3.0, "x", np.pi, 1.5), kept, err, 0.97)
    for axis in PULSE_AXES:
        ev = PulseEvent(3.0, axis, np.pi, 1.5)
        spec = PulseSpec(axis, np.pi, 1.5, np.pi / 1.5)
        for tilt in (0.0, 0.3):
            dense = real_pulse(spec, 0.97, err, h_free, m.ops, tilt).matrix
            (turn,) = _turns([ev])(np.array([tilt]))
            blocks = kept.back(_turned(x_pulse, turn))
            assert len(blocks) == len(sectors)
            for idx, block in zip(sectors, blocks):
                assert np.max(np.abs(block - dense[np.ix_(idx, idx)])) < 1e-12


def test_engine_delta_pulse_equals_delta_rotation():
    # the +x rotation turned by a phase is the same floats as the rotation
    # about the tilted axis, one pulse at a time or as a stack
    rng = np.random.default_rng(3)
    angles = [np.pi, 0.5 * np.pi, -0.3, 7.1, 0.0, -np.pi]
    events = [PulseEvent(1.0, axis, angle, 0.0) for axis in PULSE_AXES for angle in angles]
    for eps in (0.0, 0.03, -0.05):
        err = ErrorModel(flip_angle_fraction=eps, axis_tilt=0.02)
        for rf_scale in (1.0, 1.07):
            for tilts in (np.zeros(len(events)), rng.normal(0.02, 0.3, size=len(events))):
                turns = _turns(events)(tilts)
                xs = [_pulse_blocks(ev, None, err, rf_scale) for ev in events]
                stack = _turned(np.array(xs), turns)
                for ev, x, turn, tilt, r in zip(events, xs, turns, tilts, stack):
                    expected = delta_rotation(ev.axis, ev.nominal_angle, rf_scale, err, tilt)
                    assert np.array_equal(_turned(x, turn), expected)
                    assert np.array_equal(r, expected)
    with pytest.raises(ContractError, match="PULSE_AXES"):
        _turns([PulseEvent(1.0, "y", np.pi, 0.0), PulseEvent(2.0, "z", np.pi, 0.0)])


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
    rz = _z_rotation(tilt, ops2.n_bath)
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


class _Draws:
    """An RF distribution whose every draw is `value`."""

    def __init__(self, value):
        self.value = value

    def sample(self, rng):
        return self.value


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
def test_sample_rf_scale_rejects_a_non_finite_or_non_positive_draw(value):
    with pytest.raises(ContractError, match="RF scale must be finite and > 0"):
        sample_rf_scale(ErrorModel(rf=_Draws(value)), 0)


@pytest.mark.parametrize("rf_scale", [np.nan, np.inf, 0.0])
def test_real_pulse_rejects_a_non_finite_or_non_positive_rf_scale(ops2, rf_scale):
    zero = np.zeros((ops2.dim, ops2.dim))
    for spec in (PulseSpec.delta("x", np.pi), PulseSpec("x", np.pi, 1.5, np.pi / 1.5)):
        with pytest.raises(ContractError, match="rf_scale must be finite and > 0"):
            real_pulse(spec, rf_scale, ErrorModel(), zero, ops2)


def test_error_model_trivial_flag():
    assert ErrorModel().is_trivial
    assert not ErrorModel(flip_angle_fraction=0.01).is_trivial
    assert not ErrorModel(axis_tilt=0.05).is_trivial
    assert not ErrorModel(tilt_jitter_sd=0.1).is_trivial
    assert not ErrorModel(rf=GaussianRf()).is_trivial


def test_error_model_rejects_negative_or_non_finite_channels():
    for kwargs in ({"tilt_jitter_sd": -0.1}, {"tilt_jitter_sd": np.nan},
                   {"tilt_jitter_sd": np.inf}, {"flip_angle_fraction": np.nan},
                   {"flip_angle_fraction": -np.inf}, {"axis_tilt": np.nan},
                   {"axis_tilt": np.inf}):
        with pytest.raises(ContractError):
            ErrorModel(**kwargs)
    for mean, sd in ((1.0, np.nan), (np.nan, 0.1), (np.inf, 0.1), (1.0, np.inf)):
        with pytest.raises(ContractError, match="finite"):
            GaussianRf(mean, sd)
    for s1, s2 in ((np.nan, 1.0), (1.0, np.inf)):
        with pytest.raises(ContractError, match="finite"):
            BimodalRf(s1, s2)


def _pauli_sum_rotation(axis, angle, rf_scale, err, tilt):
    """delta_rotation written as cos(half) 1 - i sin(half) (u . sigma)."""
    pauli = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
             np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
             np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
    base, sign = split_axis(axis)
    ux, uy = axis_vector(base, err.axis_tilt if tilt is None else tilt)
    half = 0.5 * (sign * angle * (rf_scale * (1.0 + err.flip_angle_fraction)))
    return np.cos(half) * np.eye(2, dtype=complex) - 1j * np.sin(half) * (
        ux * pauli[0] + uy * pauli[1])


def test_delta_rotation_equals_the_pauli_sum():
    for axis in ("x", "y", "-x", "-y"):
        for angle in (np.pi, 0.5 * np.pi, -0.3, 2.0 * np.pi, 0.0, 7.1):
            for rf_scale in (1.0, 0.93, 1.07):
                for eps in (0.0, 0.03, -0.05):
                    err = ErrorModel(flip_angle_fraction=eps, axis_tilt=0.01)
                    for tilt in (None, 0.0, 0.02, -0.4):
                        r = delta_rotation(axis, angle, rf_scale, err, tilt)
                        assert np.array_equal(
                            r, _pauli_sum_rotation(axis, angle, rf_scale, err, tilt))
    # a pulse turns the system spin about a transverse axis only
    for axis in ("z", "-z"):
        for build in (split_axis, lambda a: axis_vector(a, 0.0),
                      lambda a: delta_rotation(a, np.pi),
                      lambda a: ideal_pulse(a, np.pi, build_operator_set(1))):
            with pytest.raises(ContractError, match="PULSE_AXES"):
                build(axis)
