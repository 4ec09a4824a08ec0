"""Propagation engine: exact oracles, determinism, and trace bookkeeping."""

import io

import numpy as np
import pytest

import spinbath.engine as engine
from spinbath import (
    BimodalRf,
    ContractError,
    CouplingSpec,
    ErrorModel,
    GaussianRf,
    PulseSpec,
    RunSpec,
    bath_correlation,
    build_h_free,
    build_model,
    compile_cdd,
    compile_cpmg,
    compile_free,
    compile_hahn,
    compile_pdd,
    default_model,
    estimate_tau_b,
    evolve,
    ideal_pulse,
    prepare_initial_state,
    propagate,
    real_pulse,
    sample_couplings,
    sample_rf_scale,
    survival_probability,
)
from spinbath.analysis import compile_family
from spinbath.util import realization_rng


def dephasing_model(n_bath, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-scale, scale, n_bath)
    return build_model(b, np.zeros((n_bath, n_bath)))


def test_fid_matches_product_of_cosines():
    # for pure dephasing the transverse FID factorizes over bath spins:
    # s_x(t) = prod_j cos(b_j t / 2), summed over bath configurations
    m = dephasing_model(6, seed=3)
    n = 50
    tl = compile_free(400.0 / n, n_cycles=n)
    trace = propagate(RunSpec(model=m, timeline=tl))
    expected = np.prod(np.cos(np.outer(trace.times, m.b) / 2.0), axis=1)
    assert np.max(np.abs(trace.s - expected)) < 1e-9


def test_fid_longitudinal_component_is_conserved():
    m = dephasing_model(4)
    tl = compile_free(50.0, n_cycles=4)
    trace = propagate(RunSpec(model=m, timeline=tl, initial_axis="z"))
    assert np.max(np.abs(trace.s - 1.0)) < 1e-12


def test_hahn_echo_is_exact_on_static_bath():
    m = dephasing_model(5, seed=11)
    for tau in (7.3, 31.0, 118.4):
        trace = propagate(RunSpec(model=m, timeline=compile_hahn(tau)))
        assert trace.s[-1] == pytest.approx(1.0, abs=1e-12)


def test_hahn_echo_train_stays_refocused_on_static_bath():
    # the detection frame follows the ideal pulses, so every echo in an
    # odd-count train reports +1 rather than an alternating sign
    m = dephasing_model(5, seed=11)
    tl = compile_hahn(20.0, n_cycles=6)
    trace = propagate(RunSpec(model=m, timeline=tl))
    assert np.max(np.abs(trace.s - 1.0)) < 1e-12


def test_hahn_echo_decays_with_flip_flops():
    m = default_model()
    trace = propagate(RunSpec(model=m, timeline=compile_hahn(120.0)))
    assert trace.s[-1] < 0.9


def test_survival_probability_sign_convention():
    m = dephasing_model(2)
    rho0 = prepare_initial_state("x", m)
    dev = rho0.matrix - m.ops.identity / m.ops.dim
    assert survival_probability(rho0, dev) == pytest.approx(1.0)
    flipped = m.ops.identity / m.ops.dim - dev
    assert survival_probability(flipped, dev) == pytest.approx(-1.0)


def test_survival_probability_global_phase_immunity():
    m = dephasing_model(3, seed=8)
    rho0 = prepare_initial_state("y", m)
    dev = rho0.matrix - m.ops.identity / m.ops.dim
    u = np.exp(1j * 0.7) * np.eye(m.ops.dim)
    assert survival_probability(u @ rho0.matrix @ u.conj().T, dev) == pytest.approx(1.0)


def test_prepare_initial_state_structure():
    m = dephasing_model(3)
    rho = prepare_initial_state("x", m)
    eps = 2.0 / m.ops.dim
    assert np.allclose(rho.matrix, m.ops.identity / m.ops.dim + eps * m.ops.sx,
                       atol=1e-14)
    with pytest.raises(ContractError):
        RunSpec(model=m, timeline=compile_free(10.0), initial_axis="w")


def test_runspec_validation():
    m = dephasing_model(2)
    tl = compile_free(10.0)
    with pytest.raises(ContractError):
        RunSpec(model=m, timeline=tl, n_realizations=0)
    with pytest.raises(ContractError):
        RunSpec(model=m, timeline=tl, record="sometimes")
    with pytest.raises(ContractError, match="master_seed"):
        RunSpec(model=m, timeline=tl, master_seed=-1)


def test_record_grids():
    m = dephasing_model(2)
    tl = compile_cpmg(10.0, 0.0, n_cycles=3)
    tr_c = propagate(RunSpec(model=m, timeline=tl))
    assert np.allclose(tr_c.times, np.arange(4) * tl.cycle_time)
    assert list(tr_c.n_pulses) == [0, 2, 4, 6]

    tr_p = propagate(RunSpec(model=m, timeline=tl, record="every_pulse"))
    # per cycle: two pulse instants plus the boundary
    assert len(tr_p.times) == 1 + 3 * 3
    assert tr_p.n_pulses[-1] == 6
    assert np.all(np.diff(tr_p.times) > 0)


def test_every_pulse_matches_cycle_boundaries():
    # finite back-to-back pulses and static errors, below the powering
    # threshold: both record modes take the same per-segment products
    m = default_model(n_bath=3)
    err = ErrorModel(rf=GaussianRf(1.0, 0.10), flip_angle_fraction=0.03)
    tl = compile_cdd(2, 6.0, 2.0, n_cycles=3)
    assert tl.n_cycles < engine._POWER_MIN_CYCLES
    spec = dict(model=m, timeline=tl, error_model=err, initial_axis="y",
                n_realizations=2, master_seed=4)
    cyc = propagate(RunSpec(**spec))
    per = propagate(RunSpec(**spec, record="every_pulse"))
    idx = [int(np.argmin(np.abs(per.times - t))) for t in cyc.times]
    assert np.max(np.abs(per.times[idx] - cyc.times)) < 1e-9
    assert list(per.n_pulses[idx]) == list(cyc.n_pulses)
    assert np.max(np.abs(per.s[idx] - cyc.s)) < 1e-12
    assert np.max(np.abs(per.stderr[idx] - cyc.stderr)) < 1e-12


def test_ensemble_stderr_and_mean():
    m = dephasing_model(2, scale=0.0)  # no bath at all, errors only
    err = ErrorModel(rf=GaussianRf(1.0, 0.08))
    tl = compile_cpmg(5.0, 0.0, n_cycles=10)
    one = propagate(RunSpec(model=m, timeline=tl, error_model=err,
                            initial_axis="x", n_realizations=1, master_seed=5))
    assert np.all(one.stderr == 0.0)
    many = propagate(RunSpec(model=m, timeline=tl, error_model=err,
                             initial_axis="x", n_realizations=24, master_seed=5))
    assert np.any(many.stderr > 0.0)
    assert np.max(np.abs(many.s)) <= 1.0 + 1e-9


def test_thread_count_does_not_change_results():
    m = dephasing_model(3, seed=2)
    err = ErrorModel(rf=GaussianRf(1.0, 0.10))
    tl = compile_cpmg(8.0, 0.0, n_cycles=20)
    spec = RunSpec(model=m, timeline=tl, error_model=err, initial_axis="x",
                   n_realizations=12, master_seed=9)
    a = propagate(spec, threads=1)
    b = propagate(spec, threads=4)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.stderr, b.stderr)


def test_eigenphase_powering_matches_direct_loop(monkeypatch):
    m = default_model(n_bath=3)
    err = ErrorModel(rf=GaussianRf(1.0, 0.10), flip_angle_fraction=0.03)
    tl = compile_cpmg(12.0, 2.0, n_cycles=40)
    spec = RunSpec(model=m, timeline=tl, error_model=err, initial_axis="y",
                   n_realizations=3, master_seed=4)
    fast = propagate(spec)
    monkeypatch.setattr(engine, "_POWER_MIN_CYCLES", 10**9)
    slow = propagate(spec)
    assert np.max(np.abs(fast.s - slow.s)) < 1e-12


def test_tilt_jitter_runs_are_deterministic_and_decay():
    m = dephasing_model(2, scale=0.0)
    err = ErrorModel(tilt_jitter_sd=0.2)
    tl = compile_cpmg(4.0, 0.0, n_cycles=60)
    spec = RunSpec(model=m, timeline=tl, error_model=err, initial_axis="y",
                   n_realizations=6, master_seed=3)
    a = propagate(spec)
    b = propagate(spec, threads=3)
    assert np.array_equal(a.s, b.s)
    # the jittered axis performs a random walk that damages even the
    # component along the nominal pulse axis
    assert a.s[-1] < 0.5


def test_trace_csv_roundtrip():
    m = dephasing_model(2)
    trace = propagate(RunSpec(model=m, timeline=compile_free(30.0, n_cycles=2)))
    buf = io.StringIO()
    trace.to_csv(buf, meta={"tool": "spinbath"})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# tool=spinbath"
    assert lines[1] == "time_us,n_pulses,s,stderr"
    assert len(lines) == 2 + 3


def test_bath_correlation_two_spin_oracle():
    # a single flip-flop pair: i_z(t) = (1 + cos(d t)) / 2
    d = np.zeros((2, 2))
    d[0, 1] = d[1, 0] = 0.21
    m = build_model(np.zeros(2), d)
    t = np.linspace(0.0, 80.0, 160)
    series = bath_correlation(m, t, which="iz", j=0)
    assert np.max(np.abs(series - (1 + np.cos(0.21 * t)) / 2)) < 1e-12


def test_bath_correlation_normalization_and_errors():
    m = default_model(n_bath=3)
    t = np.linspace(0.0, 10.0, 5)
    series = bath_correlation(m, t, which="ix_total")
    assert series[0] == pytest.approx(1.0)
    with pytest.raises(ContractError):
        bath_correlation(m, t, which="iz", j=5)
    with pytest.raises(ContractError):
        bath_correlation(m, t, which="parallel")


def test_estimate_tau_b_synthetic():
    t = np.linspace(0.0, 10.0, 2001)
    est = estimate_tau_b(np.exp(-t / 2.0), t)
    assert est.reached
    assert est.value == pytest.approx(2.0, rel=1e-3)
    gauss = estimate_tau_b(np.exp(-((t / 3.0) ** 2)), t)
    assert gauss.value == pytest.approx(3.0, rel=1e-3)
    flat = estimate_tau_b(np.ones_like(t), t)
    assert not flat.reached
    assert flat.value == t[-1]
    with pytest.raises(ContractError):
        estimate_tau_b(0.5 * np.ones_like(t), t)


def test_model_tau_b_frozen_default():
    est = engine.model_tau_b(default_model())
    assert est.reached
    assert est.value == pytest.approx(108.5, abs=1.0)


def test_pdd_decouples_better_than_fid():
    m = default_model()
    horizon = 240.0
    fid = propagate(RunSpec(model=m, timeline=compile_free(horizon / 8, n_cycles=8)))
    pdd = propagate(RunSpec(model=m, timeline=compile_pdd(horizon / 32, n_cycles=8)))
    assert pdd.s[-1] > fid.s[-1] + 0.2


def _bath_operators(n):
    """I_x, I_y, I_z of each of n bath spins in the bath space alone."""
    half = {"x": np.array([[0, 0.5], [0.5, 0]], dtype=complex),
            "y": np.array([[0, -0.5j], [0.5j, 0]], dtype=complex),
            "z": np.array([[0.5, 0], [0, -0.5]], dtype=complex)}
    return {u: [np.kron(np.kron(np.eye(2**j), op), np.eye(2 ** (n - j - 1)))
                for j in range(n)] for u, op in half.items()}


def _conditional_survival(model, timeline):
    """Ideal delta-pulse survival from conditional bath evolution.

    The bath evolves in dimension 2^n under H_E + B/2 for the system's up
    branch and H_E - B/2 for the down branch, B = sum_j b_j I_z^j, and each
    pi pulse swaps the branches; s = Re Tr[U_-^dag U_+] / 2^n (Yao, Liu &
    Sham, PRB 74, 195301 (2006)). Returns s at every cycle boundary.
    """
    n = model.n_bath
    ops = _bath_operators(n)
    h_e = sum(model.d[i, j] * (2 * ops["z"][i] @ ops["z"][j] - ops["x"][i] @ ops["x"][j]
                               - ops["y"][i] @ ops["y"][j])
              for i in range(n) for j in range(i + 1, n))
    field = sum(model.b[j] * ops["z"][j] for j in range(n))
    u = {+1: np.eye(2**n), -1: np.eye(2**n)}
    sign = 1

    def free(dt):
        for branch in (+1, -1):
            w, v = np.linalg.eigh(h_e + branch * sign * field / 2)
            u[branch] = (v * np.exp(-1j * w * dt)) @ v.conj().T @ u[branch]

    values = [1.0]
    for _ in range(timeline.n_cycles):
        cursor = 0.0
        for ev in timeline.events:
            free(ev.start_time - cursor)
            sign = -sign
            cursor = ev.start_time
        free(timeline.cycle_time - cursor)
        values.append(np.real(np.trace(u[-1].conj().T @ u[+1])) / 2**n)
    return np.array(values)


# (id, family, cdd order): the plain "cdd" id is order 2
_ORACLE_TRAINS = [("hahn", "hahn", 2), ("cp", "cp", 2), ("cpmg", "cpmg", 2),
                  ("cpmg2", "cpmg2", 2), ("pdd", "pdd", 2), ("cdd1", "cdd", 1),
                  ("cdd", "cdd", 2), ("cdd3", "cdd", 3), ("udd", "udd", 2), ("fid", "fid", 2)]
# (id suffix, coupling seed, distribution): two seeds and the gaussian draw
_ORACLE_MODELS = [("", 21, "uniform_symmetric"), ("seed8", 8, "uniform_symmetric"),
                  ("gaussian", 21, "gaussian")]


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("family, order, seed, distribution", [
    pytest.param(family, order, seed, dist, id=f"{name}-{suffix}" if suffix else name)
    for suffix, seed, dist in _ORACLE_MODELS for name, family, order in _ORACLE_TRAINS])
def test_ideal_trains_match_conditional_evolution(family, order, seed, distribution, axis):
    spec = CouplingSpec(seed=seed, distribution=distribution)
    m = build_model(*sample_couplings(spec, 5))
    tl = compile_family(family, 23.0, 0.0, n_cycles=3, order=order, udd_pulses=4)
    trace = propagate(RunSpec(model=m, timeline=tl, initial_axis=axis))
    assert np.max(np.abs(trace.s - _conditional_survival(m, tl))) < 1e-12


def _dense_kron_curves(spec):
    """Survival values per realization with every pulse and detection frame
    embedded in the full space: real_pulse and ideal_pulse matrices, one
    evolve() per free gap, and the engine's per-realization draws (RF scale
    first, then one tilt per pulse application in time order). Recording
    instants that coincide keep the last value, as in SurvivalTrace."""
    model, tl, err = spec.model, spec.timeline, spec.error_model
    ops = model.ops
    h_free = build_h_free(model)
    dev0 = 2.0 / ops.dim * ops.s(spec.initial_axis)
    norm0 = np.real(np.trace(dev0 @ dev0))
    curves = []
    for k in range(spec.n_realizations):
        rng = realization_rng(spec.master_seed, k)
        rf_scale = sample_rf_scale(err, rng)
        rho = ops.identity / ops.dim + dev0
        det = dev0
        times, values = [0.0], [1.0]
        for m in range(tl.n_cycles):
            cursor = 0.0
            for ev in tl.events:
                if ev.start_time - cursor > 1e-9:
                    u = evolve(h_free, ev.start_time - cursor).matrix
                    rho = u @ rho @ u.conj().T
                tilt = None
                if err.tilt_jitter_sd > 0:
                    tilt = err.axis_tilt + rng.normal(0.0, err.tilt_jitter_sd)
                pulse = PulseSpec(ev.axis, ev.nominal_angle, ev.duration,
                                  ev.nominal_angle / ev.duration if ev.duration else 0.0)
                u = real_pulse(pulse, rf_scale, err, h_free, ops, tilt=tilt).matrix
                rho = u @ rho @ u.conj().T
                p = ideal_pulse(ev.axis, ev.nominal_angle, ops).matrix
                det = p @ det @ p.conj().T
                if spec.record == "every_pulse":
                    times.append(m * tl.cycle_time + ev.end_time)
                    values.append(np.real(np.trace(det @ rho)) / norm0)
                cursor = ev.end_time
            if tl.cycle_time - cursor > 1e-9:
                u = evolve(h_free, tl.cycle_time - cursor).matrix
                rho = u @ rho @ u.conj().T
            times.append((m + 1) * tl.cycle_time)
            values.append(np.real(np.trace(det @ rho)) / norm0)
        last = np.append(np.diff(times) > 1e-12, True)
        curves.append(np.array(values)[last])
    return np.array(curves)


_JITTER = ErrorModel(rf=GaussianRf(1.0, 0.1), axis_tilt=0.02, tilt_jitter_sd=0.15)
_STATIC = ErrorModel(rf=BimodalRf(), flip_angle_fraction=0.03, axis_tilt=0.05)


@pytest.mark.parametrize("record", ["cycle_boundaries", "every_pulse"])
@pytest.mark.parametrize("family, tau_p, err, n_cycles", [
    ("cpmg", 0.0, _JITTER, 4),
    ("cdd", 0.0, _STATIC, 3),
    ("pdd", 0.0, _STATIC, 20),  # static delta pulses: the powered path
    ("cpmg2", 1.5, _STATIC, 3),
    ("udd", 1.5, _JITTER, 3),
    ("hahn", 0.0, _STATIC, 5),
    ("hahn", 1.5, _JITTER, 5),
])
def test_system_factor_pulses_match_dense_kron_reference(family, tau_p, err, n_cycles,
                                                          record):
    m = default_model(seed=4, n_bath=4)
    tl = compile_family(family, 17.0, tau_p, n_cycles=n_cycles, order=2, udd_pulses=3)
    spec = RunSpec(model=m, timeline=tl, error_model=err, initial_axis="x",
                   n_realizations=2, master_seed=8, record=record)
    trace = propagate(spec)
    ref = _dense_kron_curves(spec).mean(axis=0)
    assert trace.s.shape == ref.shape
    assert np.max(np.abs(trace.s - ref)) < 1e-12


def test_propagate_never_builds_bath_operators():
    m = default_model(n_bath=8)
    tl = compile_cpmg(20.0, 0.0, n_cycles=2)
    propagate(RunSpec(model=m, timeline=tl, error_model=_STATIC, n_realizations=2))
    assert not {"ix", "iy", "iz"} & set(m.ops.__dict__)
