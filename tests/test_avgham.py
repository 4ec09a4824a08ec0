"""Toggling frames, leading-order averages, and the claim registry."""

import numpy as np
import pytest

import spinbath.avgham as avgham
from spinbath import (
    CLAIM_IDS,
    ContractError,
    ErrorModel,
    PulseSpec,
    build_model,
    build_operator_set,
    compile_cpmg,
    compile_pdd,
    default_model,
    ideal_pulse,
    real_pulse,
)
from spinbath.analysis import compile_family
from spinbath.avgham import (
    ToggledSegment,
    average_hamiltonian,
    build_h_e,
    build_h_free,
    magnus_defect,
    rotation_generator,
    toggling_frames,
    verify_claim,
)
from spinbath.operators import evolve


def small_model(seed=0, n_bath=3, scale=0.05):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-scale, scale, n_bath)
    iu = np.triu_indices(n_bath, 1)
    d = np.zeros((n_bath, n_bath))
    d[iu] = rng.uniform(-scale, scale, len(iu[0]))
    return build_model(b, d + d.T)


def test_toggling_frames_partition_the_cycle():
    m = small_model()
    tl = compile_pdd(12.0)
    segs = toggling_frames(tl, build_h_free(m), m.ops)
    assert len(segs) == 4
    assert sum(s.duration for s in segs) == pytest.approx(tl.cycle_time)
    ref = np.linalg.eigvalsh(build_h_free(m))
    for s in segs:
        assert np.allclose(s.h_tilde, s.h_tilde.conj().T, atol=1e-12)
        # frame changes are unitary, so each toggled piece keeps the spectrum
        assert np.allclose(np.linalg.eigvalsh(s.h_tilde), ref, atol=1e-10)


def test_pdd_zeroth_order_is_bath_only():
    m = small_model(seed=5)
    segs = toggling_frames(compile_pdd(9.0), build_h_free(m), m.ops)
    h0 = average_hamiltonian(segs, 0)
    assert np.max(np.abs(h0 - build_h_e(m))) < 1e-12


def test_average_hamiltonian_orders():
    m = small_model(seed=1)
    segs = toggling_frames(compile_cpmg(10.0), build_h_free(m), m.ops)
    h0 = average_hamiltonian(segs, 0)
    h1 = average_hamiltonian(segs, 1)
    assert np.allclose(h0, h0.conj().T, atol=1e-12)
    assert np.allclose(h1, h1.conj().T, atol=1e-12)
    with pytest.raises(ContractError):
        average_hamiltonian(segs, 2)


def test_rotation_generator_inverts_evolve():
    m = small_model(seed=2, n_bath=2)
    h = 0.3 * build_h_free(m) / np.max(np.abs(np.linalg.eigvalsh(build_h_free(m))))
    g = rotation_generator(evolve(h, 1.0).matrix)
    assert np.max(np.abs(g - h)) < 1e-10


def test_magnus_defect_shrinks_cubically():
    ratios = []
    for seed in range(5):
        m = small_model(seed=seed)
        h = build_h_free(m)
        d_long = magnus_defect(compile_pdd(20.0), h, m.ops)
        d_short = magnus_defect(compile_pdd(10.0), h, m.ops)
        assert d_short < d_long
        ratios.append(d_long / d_short)
    # halving the delay should cut the residual by roughly 2^3
    assert 3.0 < min(ratios)
    assert 5.0 < float(np.mean(ratios)) < 12.0


def test_claim_registry():
    for cid in ("cpmg-flip-angle-zeroth-order",
                "cpmg2-error-sum-vanishes",
                "pdd-cancels-system-bath-coupling"):
        report = verify_claim(cid)
        assert report["pass"], report
        assert report["residual"] < report["tolerance"]
        assert report["claim"] == cid
        assert isinstance(report["statement"], str)
    with pytest.raises(ContractError):
        verify_claim("no-such-claim")


def test_claim_accepts_parameter_overrides():
    report = verify_claim("cpmg-flip-angle-zeroth-order",
                          {"tau": 14.0, "flip_angle_fraction": 0.02, "seed": 3})
    assert report["pass"]


def test_errored_frames_see_the_flip_angle():
    m = small_model(seed=7)
    tl = compile_cpmg(16.0)
    err = ErrorModel(flip_angle_fraction=0.04)
    ideal = toggling_frames(tl, build_h_free(m), m.ops, "ideal")
    bad = toggling_frames(tl, build_h_free(m), m.ops, "errored", err)
    h0_ideal = average_hamiltonian(ideal, 0)
    h0_bad = average_hamiltonian(bad, 0)
    assert np.max(np.abs(h0_ideal - h0_bad)) > 1e-4


def _full_space_error_generator(axis, angle, err, ops):
    """Generator of the full-space error factor real @ ideal^dag, with the
    real pulse built under a zero Hamiltonian."""
    zero = np.zeros((ops.dim, ops.dim), dtype=complex)
    real = real_pulse(PulseSpec.delta(axis, angle), 1.0, err, zero, ops).matrix
    return rotation_generator(real @ ideal_pulse(axis, angle, ops).matrix.conj().T)


def _full_space_frames(timeline, h_free, ops, pulse_model="ideal", error_model=None):
    """toggling_frames with every frame and kick a full-space matrix:
    kron-embedded ideal pulses and full-space error generators."""
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
        if pulse_model == "errored":
            key = (payload.axis, payload.nominal_angle)
            if key not in generators:
                generators[key] = _full_space_error_generator(*key, error_model, ops)
            kick = frame.conj().T @ generators[key] @ frame
            pending = kick if pending is None else pending + kick
    if pending is not None and np.max(np.abs(pending)) > 1e-15:
        raise ContractError("trailing pulse error")
    return segments


def _full_space_magnus_defect(timeline, h_free, ops, segs):
    """magnus_defect from the ideal full-space frames `segs`, with the exact
    cycle built from kron-embedded ideal pulses."""
    h01 = average_hamiltonian(segs, 0) + average_hamiltonian(segs, 1)
    u_avg = evolve(h01, timeline.cycle_time).matrix
    u_exact = np.eye(ops.dim, dtype=complex)
    frame = np.eye(ops.dim, dtype=complex)
    free = {}
    for kind, payload in timeline.segments():
        if kind == "free":
            if payload not in free:
                free[payload] = evolve(h_free, payload).matrix
            u_exact = free[payload] @ u_exact
        else:
            p = ideal_pulse(payload.axis, payload.nominal_angle, ops).matrix
            u_exact = p @ u_exact
            frame = p @ frame
    return float(np.linalg.norm(frame.conj().T @ u_exact - u_avg))


_AVGHAM_FAMILIES = [("hahn", 2, 4), ("cp", 2, 4), ("cpmg", 2, 4), ("cpmg2", 2, 4),
                    ("pdd", 2, 4), ("cdd", 1, 4), ("cdd", 2, 4), ("cdd", 3, 4),
                    ("udd", 2, 1), ("udd", 2, 2), ("udd", 2, 3), ("udd", 2, 4)]


@pytest.mark.parametrize("n_bath", [3, 7])
@pytest.mark.parametrize("family, order, udd_pulses", _AVGHAM_FAMILIES, ids=[
    f"cdd{o}" if f == "cdd" else f"udd{u}" if f == "udd" else f
    for f, o, u in _AVGHAM_FAMILIES])
def test_system_rotations_match_full_space_reference(family, order, udd_pulses, n_bath):
    m = default_model(seed=37, n_bath=n_bath)
    h = build_h_free(m)
    tl = compile_family(family, 13.0, 0.0, 1, order, udd_pulses)
    err = ErrorModel(flip_angle_fraction=0.04, axis_tilt=0.03)
    refs = {}
    for pulse_model in ("ideal", "errored"):
        try:
            ref = refs[pulse_model] = _full_space_frames(tl, h, m.ops, pulse_model, err)
        except ContractError:
            # pdd and cdd end on a pulse, so an errored cycle is undefined
            with pytest.raises(ContractError, match="trailing"):
                toggling_frames(tl, h, m.ops, pulse_model, err)
            continue
        got = toggling_frames(tl, h, m.ops, pulse_model, err)
        assert [s.duration for s in got] == [s.duration for s in ref]
        for g, r in zip(got, ref):
            assert np.max(np.abs(g.h_tilde - r.h_tilde)) < 1e-12
    expected = _full_space_magnus_defect(tl, h, m.ops, refs["ideal"])
    assert abs(magnus_defect(tl, h, m.ops) - expected) <= 1e-10 * expected


@pytest.mark.parametrize("n_bath", [3, 7])
def test_claims_match_full_space_reference(n_bath, monkeypatch):
    params = {"n_bath": n_bath}
    got = {cid: verify_claim(cid, params)["norms"] for cid in CLAIM_IDS}
    monkeypatch.setattr(avgham, "toggling_frames", _full_space_frames)
    ref = {cid: verify_claim(cid, params)["norms"] for cid in CLAIM_IDS}
    ops = build_operator_set(n_bath)
    eps = 0.05
    frame = np.eye(ops.dim, dtype=complex)
    acc = np.zeros((ops.dim, ops.dim), dtype=complex)
    for axis in ("y", "-y"):
        g = _full_space_error_generator(axis, np.pi, ErrorModel(flip_angle_fraction=eps), ops)
        frame = ideal_pulse(axis, np.pi, ops).matrix @ frame
        acc += frame.conj().T @ g @ frame
    ref["cpmg2-error-sum-vanishes"] = {
        "generator_sum": float(np.linalg.norm(acc)),
        "reference": eps * np.pi * float(np.linalg.norm(ops.sy))}
    for cid in CLAIM_IDS:
        assert got[cid].keys() == ref[cid].keys()
        # the residual norms sit at round-off, so every norm is compared
        # relative to the largest norm of its report
        scale = max(abs(v) for v in ref[cid].values())
        for key, value in ref[cid].items():
            assert abs(got[cid][key] - value) <= 1e-12 * scale, (cid, key)
