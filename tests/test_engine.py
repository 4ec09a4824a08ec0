"""Propagation engine: exact oracles, determinism, and trace bookkeeping."""

import concurrent.futures
import io
import math
import sys

import numpy as np
import pytest

import spinbath.engine as engine
from spinbath import (
    BimodalRf,
    ContractError,
    CouplingSpec,
    ErrorModel,
    GaussianRf,
    PulseEvent,
    PulseSpec,
    RunSpec,
    SurvivalTrace,
    Timeline,
    bath_correlation,
    build_h_e,
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
    propagate,
    real_pulse,
    sample_couplings,
    sample_rf_scale,
)
from spinbath.analysis import compile_family
from spinbath.operators import exp_propagators
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


def _decoupled_two_pi_pulses(timeline, **kw):
    # no couplings, and every pulse turns by 2 pi where the ideal frame
    # expects pi
    m = build_model(np.zeros(2), np.zeros((2, 2)))
    return propagate(RunSpec(model=m, timeline=timeline,
                             error_model=ErrorModel(flip_angle_fraction=1.0), **kw))


def test_survival_probability_sign_convention():
    # the 2 pi pulse leaves S_x in place while the ideal frame expects it
    # flipped, so the echo reads -1
    trace = _decoupled_two_pi_pulses(compile_hahn(10.0), initial_axis="x")
    assert np.allclose(trace.s, [1.0, -1.0], atol=1e-12)


def test_survival_probability_global_phase_immunity():
    # each 2 pi pulse about y is the global phase -1
    trace = _decoupled_two_pi_pulses(compile_cpmg(10.0, 0.0, 3), initial_axis="y",
                                     record="every_pulse")
    assert trace.s.size == 1 + 3 * 3
    assert np.allclose(trace.s, 1.0, atol=1e-12)


def test_prepare_initial_state_structure():
    # the prepared deviation eps * S_axis is normalized to itself, so every
    # axis starts at s = 1 and the trace carries the axis it was run on
    m = dephasing_model(3)
    for axis in ("x", "y", "z"):
        trace = propagate(RunSpec(model=m, timeline=compile_free(10.0), initial_axis=axis))
        assert trace.times[0] == 0.0
        assert abs(trace.s[0] - 1.0) < 1e-14
        assert trace.axis == axis
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


def test_thread_count_below_one_rejected():
    spec = RunSpec(model=dephasing_model(2), timeline=compile_free(10.0))
    for threads in (0, -1):
        with pytest.raises(ContractError, match="threads"):
            propagate(spec, threads=threads)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", None])
def test_counts_and_seeds_must_be_integers(bad):
    m, tl = dephasing_model(2), compile_free(10.0)
    for field in ("n_realizations", "master_seed"):
        with pytest.raises(ContractError, match=f"{field} must be an integer"):
            RunSpec(model=m, timeline=tl, **{field: bad})
    with pytest.raises(ContractError, match="threads must be an integer"):
        propagate(RunSpec(model=m, timeline=tl), threads=bad)


def test_numpy_integer_counts_and_seeds_run_as_python_ints():
    m, tl = default_model(seed=2, n_bath=3), compile_cpmg(10.0, 0.0, n_cycles=3)
    err = ErrorModel(rf=GaussianRf(sd=0.05))
    a = propagate(RunSpec(model=m, timeline=tl, error_model=err, n_realizations=2,
                          master_seed=5), threads=2)
    b = propagate(RunSpec(model=m, timeline=tl, error_model=err, n_realizations=np.int64(2),
                          master_seed=np.uint32(5)), threads=np.int32(2))
    np.testing.assert_array_equal(a.s, b.s)
    np.testing.assert_array_equal(a.stderr, b.stderr)


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


def _events_walk_grid(timeline):
    """every_pulse (times, n_pulses) from the event list: each pulse end and
    each cycle end, with instants within 1e-12 merged into the last one."""
    times, counts, n = [0.0], [0], 0
    for m in range(timeline.n_cycles):
        for ev in timeline.events:
            n += 1
            times.append(m * timeline.cycle_time + ev.end_time)
            counts.append(n)
        times.append(m * timeline.cycle_time + timeline.cycle_time)
        counts.append(n)
    keep = np.append(np.diff(times) > 1e-12, True)
    return np.asarray(times)[keep], np.asarray(counts)[keep]


@pytest.mark.parametrize("family, order", [
    ("fid", 2), ("hahn", 2), ("cp", 2), ("cpmg", 2), ("cpmg2", 2), ("pdd", 2),
    ("cdd", 1), ("cdd", 2), ("cdd", 3), ("udd", 2)])
@pytest.mark.parametrize("tau_p", [0.0, 1.5])
def test_every_pulse_grid_matches_an_events_walk(family, order, tau_p):
    tl = compile_family(family, 13.0, tau_p, n_cycles=3, order=order, udd_pulses=3)
    trace = propagate(RunSpec(model=dephasing_model(1), timeline=tl, record="every_pulse"))
    times, counts = _events_walk_grid(tl)
    assert trace.times.shape == times.shape
    assert np.max(np.abs(trace.times - times)) < 1e-12
    assert np.array_equal(trace.n_pulses, counts)


def test_every_pulse_keeps_the_prepared_state_at_a_pulse_at_cycle_start():
    # a pulse at t = 0 is no recording instant of its own: s(0) stays 1 and
    # every cycle end reads the cycle_boundaries value
    tl = Timeline((PulseEvent(0.0, "y", np.pi, 0.0), PulseEvent(4.0, "y", np.pi, 0.0)),
                  10.0, 2)
    spec = dict(model=default_model(n_bath=2), timeline=tl,
                error_model=ErrorModel(flip_angle_fraction=0.1))
    per = propagate(RunSpec(**spec, record="every_pulse"))
    cyc = propagate(RunSpec(**spec))
    assert list(per.times) == [0.0, 4.0, 10.0, 14.0, 20.0]
    assert list(per.n_pulses) == [0, 2, 2, 4, 4]
    assert per.s[0] == 1.0
    assert np.max(np.abs(per.s[[0, 2, 4]] - cyc.s)) < 1e-12
    assert cyc.s[1] == pytest.approx(0.809, abs=1e-3)


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
    noisy = ErrorModel(rf=GaussianRf(1.0, 0.10), flip_angle_fraction=0.03)
    cases = [
        (default_model(n_bath=3), noisy, compile_cpmg(12.0, 2.0, n_cycles=40), "y", 3),
        # ideal pulses leave a fully degenerate cycle spectrum
        (default_model(n_bath=0), ErrorModel(), compile_cpmg(12.0, 0.0, n_cycles=20), "x", 1),
        (default_model(n_bath=1), ErrorModel(), compile_cpmg(12.0, 0.0, n_cycles=20), "y", 1),
        # 101 recorded points against dim 32: four blocks, the last one partial
        (default_model(n_bath=4), noisy, compile_cpmg(9.0, 0.0, n_cycles=100), "x", 2),
        # sectors k and n - k are isospectral, which a full-space eig mixes
        (default_model(n_bath=6), ErrorModel(), compile_cpmg(12.0, 0.0, n_cycles=20), "x", 1),
        (default_model(n_bath=6), ErrorModel(flip_angle_fraction=0.03),
         compile_cpmg(12.0, 0.0, n_cycles=100), "y", 1),
        # long static-error runs on the largest blocks, 70 and 140 wide
        (default_model(n_bath=7), noisy, compile_cpmg(10.0, 0.0, n_cycles=200), "x", 2),
        (default_model(n_bath=8), noisy, compile_cpmg(10.0, 0.0, n_cycles=200), "x", 1),
    ]
    powered, calls = engine._powered_overlaps, []

    def counted(*args):
        calls.append(args)
        return powered(*args)

    monkeypatch.setattr(engine, "_powered_overlaps", counted)
    for m, err, tl, axis, n_real in cases:
        spec = RunSpec(model=m, timeline=tl, error_model=err, initial_axis=axis,
                       n_realizations=n_real, master_seed=4)
        fast = propagate(spec)
        assert len(calls) == n_real
        calls.clear()
        with monkeypatch.context() as direct:
            direct.setattr(engine, "_POWER_MIN_CYCLES", 10**9)
            slow = propagate(spec)
        assert not calls
        assert fast.s[0] == 1.0
        assert np.max(np.abs(fast.s - slow.s)) < 1e-12


def _random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _with_eigenphases(theta, rng):
    q = _random_unitary(len(theta), rng)
    return (q * np.exp(1j * np.asarray(theta))) @ q.conj().T


def _assert_unitary_eigenbasis(u):
    eig = engine._unitary_eig(u)
    assert eig is not None
    theta, p = eig
    n = u.shape[0]
    assert np.max(np.abs(p.conj().T @ p - np.eye(n))) < 1e-13
    assert np.max(np.abs(p.conj().T @ u @ p - np.diag(np.exp(1j * theta)))) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 14, 42, 70, 112, 140])
def test_unitary_eig_on_random_unitaries(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        _assert_unitary_eigenbasis(_random_unitary(n, rng))


def test_unitary_eig_on_degenerate_spectra(monkeypatch):
    for n in (1, 2, 14, 70):
        _assert_unitary_eigenbasis(np.eye(n, dtype=complex))
    # ideal pulses leave a fully degenerate cycle spectrum
    blocks, kernel = [], engine._unitary_eig

    def collect(u):
        blocks.append(u)
        return kernel(u)

    monkeypatch.setattr(engine, "_unitary_eig", collect)
    for n_bath in (0, 1):
        propagate(RunSpec(model=default_model(n_bath=n_bath),
                          timeline=compile_cpmg(12.0, 0.0, n_cycles=20)))
    assert len(blocks) == 3
    monkeypatch.undo()
    for u in blocks:
        _assert_unitary_eigenbasis(u)


@pytest.mark.parametrize("n", [2, 6, 40])
def test_unitary_eig_where_the_hermitian_part_is_degenerate(n):
    rng = np.random.default_rng(n)
    phi = engine._EIG_PHASE
    # theta_i + theta_j = 2 phi: cos(theta - phi) is equal for the pair
    theta = rng.uniform(-np.pi, np.pi, n)
    theta[:2] = phi + 0.3, phi - 0.3
    _assert_unitary_eigenbasis(_with_eigenphases(theta, rng))
    # near phi and phi + pi cos(theta - phi) is flat
    theta = rng.uniform(-np.pi, np.pi, n)
    theta[0], theta[-1] = phi + 1e-9, phi + np.pi - 1e-9
    if n > 2:
        theta[1] = phi - 1e-9
    _assert_unitary_eigenbasis(_with_eigenphases(theta, rng))


def test_unitary_eig_fallback_runs_the_direct_loop(monkeypatch):
    spec = RunSpec(model=default_model(n_bath=4),
                   timeline=compile_cpmg(9.0, 0.0, n_cycles=40),
                   error_model=ErrorModel(rf=GaussianRf(1.0, 0.10), flip_angle_fraction=0.03),
                   initial_axis="y", n_realizations=2, master_seed=4)
    with monkeypatch.context() as direct:
        direct.setattr(engine, "_POWER_MIN_CYCLES", 10**9)
        slow = propagate(spec)
    powered, results = engine._powered_overlaps, []

    def recorded(*args):
        results.append(powered(*args))
        return results[-1]

    advance, steps = engine._advance, []

    def counted(u, w, out):
        # the products of a delta-pulse train are built from free halves and
        # whole-buffer rotations, so only the direct loop applies a full
        # (2C, 2C) block: one interval product per sector and cycle
        steps.append(u.ndim == 2)
        return advance(u, w, out)

    monkeypatch.setattr(engine, "_powered_overlaps", recorded)
    monkeypatch.setattr(engine, "_advance", counted)
    monkeypatch.setattr(engine, "_EIG_RESIDUAL_MAX", 0.0)
    fell_back = propagate(spec)
    assert results == [None, None]
    # 40 cycles x 3 sectors x 2 realizations: cpmg pairs sectors {0, 4} and
    # {1, 3} and keeps the middle sector 2 whole
    assert sum(steps) == 240
    assert np.array_equal(fell_back.s, slow.s)
    assert np.array_equal(fell_back.stderr, slow.stderr)


def _cycle_blocks(model, timeline, err, rf_scale=1.02):
    """The cycle product on every sector, built without the pairing."""
    h_blocks = build_h_free(model, engine._sectors(model.n_bath))
    pieces = [timeline.segments()]
    free_us = engine._free_table(h_blocks, {dt for kind, dt in pieces[0] if kind == "free"})
    (u,) = engine._interval_products(pieces, h_blocks, free_us, err, rf_scale)
    return u


def _flip_operator(c, width):
    """Q = (u . sigma) (x) J on a sector block `width` wide."""
    return np.kron(engine._flip(c), np.eye(width // 2)[::-1])


@pytest.mark.parametrize("n_bath", [4, 5])
@pytest.mark.parametrize("tau_p", [0.0, 1.5])
@pytest.mark.parametrize("axis_tilt", [0.0, 0.1])
@pytest.mark.parametrize("family", ["cpmg", "hahn", "udd"])
def test_paired_timelines_have_mirrored_cycle_blocks(family, axis_tilt, tau_p, n_bath):
    err = ErrorModel(flip_angle_fraction=0.03, axis_tilt=axis_tilt)
    tl = compile_family(family, 12.0, tau_p, order=2, udd_pulses=4)
    c = engine._flip_phase(tl.events, err)
    assert c is not None
    u = _cycle_blocks(default_model(seed=6, n_bath=n_bath), tl, err)
    for k, block in enumerate(u):
        q = _flip_operator(c, len(block))
        assert np.max(np.abs(q @ block @ q.conj().T - u[n_bath - k])) < 1e-12
    if n_bath % 2 == 0:
        # the middle block commutes with Q: no entry between its parity halves
        *_, pm, mp = engine._parity_blocks(u[n_bath // 2], c)
        assert max(np.max(np.abs(pm)), np.max(np.abs(mp))) < 1e-13


@pytest.mark.parametrize("events, err", [
    (compile_pdd(12.0).events, ErrorModel()),
    (compile_cdd(2, 12.0).events, ErrorModel()),
    ((PulseEvent(5.0, "z", np.pi, 0.0),), ErrorModel()),
    ((PulseEvent(5.0, "y", np.pi, 0.0), PulseEvent(9.0, "-z", np.pi, 0.0)), ErrorModel()),
    (compile_cpmg(12.0).events, ErrorModel(tilt_jitter_sd=0.1)),
], ids=["pdd", "cdd2", "z", "y-and-z", "jitter"])
def test_runs_without_one_static_pulse_line_do_not_pair(events, err):
    assert engine._flip_phase(events, err) is None


def test_pdd_cycle_blocks_are_not_mirrored():
    # x and y pulses: neither in-plane flip maps sector k onto n - k
    u = _cycle_blocks(default_model(seed=6, n_bath=4), compile_pdd(12.0), ErrorModel())
    for c in (1.0, 1j):
        qs = [_flip_operator(c, len(b)) for b in u]
        assert max(np.max(np.abs(q @ b @ q.conj().T - u[4 - k]))
                   for k, (q, b) in enumerate(zip(qs, u))) > 1e-3


@pytest.mark.parametrize("record", ["cycle_boundaries", "every_pulse"])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("n_bath, family, tau_p, n_cycles", [
    (4, "cpmg", 0.0, 20),  # powered at cycle boundaries, the middle sector split
    (5, "udd", 1.5, 16),  # powered, every sector paired
    (0, "cp", 0.0, 20),  # the middle sector alone, one state per parity
    (4, "hahn", 1.5, 3),  # the direct loop only
])
def test_paired_runs_match_dense_kron_reference(monkeypatch, n_bath, family, tau_p,
                                                n_cycles, axis, record):
    # the static tilt moves the pulse line off x and y, so that S_x and S_y
    # are neither even nor odd under the flip
    err = ErrorModel(rf=BimodalRf(), flip_angle_fraction=0.03, axis_tilt=0.05)
    tl = compile_family(family, 17.0, tau_p, n_cycles=n_cycles, udd_pulses=4)
    assert engine._flip_phase(tl.events, err) is not None
    powered, results = engine._powered_overlaps, []

    def recorded(*args):
        results.append(powered(*args))
        return results[-1]

    monkeypatch.setattr(engine, "_powered_overlaps", recorded)
    spec = RunSpec(model=default_model(seed=4, n_bath=n_bath), timeline=tl, error_model=err,
                   initial_axis=axis, n_realizations=2, master_seed=8, record=record)
    trace = propagate(spec)
    expect_powered = record == "cycle_boundaries" and n_cycles >= engine._POWER_MIN_CYCLES
    assert len(results) == (2 if expect_powered else 0)
    assert all(r is not None for r in results)
    ref = _dense_kron_curves(spec).mean(axis=0)
    assert trace.s.shape == ref.shape
    assert np.max(np.abs(trace.s - ref)) < 1e-12


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


def test_survival_trace_rejects_non_finite_values():
    times, n_pulses = np.array([0.0, 10.0]), np.array([0, 2])
    for s, stderr in (([1.0, np.nan], [0.0, 0.0]), ([1.0, 0.5], [0.0, np.inf])):
        with pytest.raises(ContractError, match="finite"):
            SurvivalTrace(times=times, n_pulses=n_pulses, s=np.array(s),
                          stderr=np.array(stderr), axis="x", label="fid")


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
    empty = build_model(np.zeros(0), np.zeros((0, 0)))
    for which in ("ix_total", "iz_mean"):
        with pytest.raises(ContractError, match="at least one bath spin"):
            bath_correlation(empty, t, which=which)


@pytest.mark.parametrize("seed", [37, 11])
@pytest.mark.parametrize("n_bath", [1, 2, 3, 4, 5, 6])
def test_bath_correlation_matches_direct_trace(n_bath, seed):
    # Tr{A U(t)^dag A U(t)} / Tr{A^2}, with U(t) = exp(-i H_E t) from evolve
    m = default_model(seed=seed, n_bath=n_bath)
    t = np.array([0.0, 3.0, 25.0, 110.0, 480.0, 2000.0])
    us = [evolve(build_h_e(m), ti).matrix for ti in t]

    def direct(a):
        return np.array([np.real(np.trace(a @ u.conj().T @ a @ u)) for u in us]) \
            / np.real(np.trace(a @ a))

    iz = [direct(a) for a in m.ops.iz]
    cases = [("ix_total", 0, direct(np.sum(m.ops.ix, axis=0))),
             ("iz_mean", 0, np.mean(iz, axis=0))]
    cases += [("iz", j, ref) for j, ref in enumerate(iz)]
    for which, j, ref in cases:
        got = bath_correlation(m, t, which=which, j=j)
        assert np.max(np.abs(got - ref)) < 1e-12, (which, j)


def test_bath_correlations_of_one_bath_spin_are_exactly_one():
    # 1-wide sector blocks and no flip-flop partner: nothing decays
    m = default_model(n_bath=1)
    t = np.linspace(0.0, 500.0, 7)
    for which in ("ix_total", "iz", "iz_mean"):
        assert np.all(bath_correlation(m, t, which=which) == 1.0), which


def test_bath_correlations_diagonalize_bath_space_sector_blocks(monkeypatch):
    m = default_model(n_bath=7)
    widths = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    t = np.linspace(0.0, 400.0, 9)
    for which in ("ix_total", "iz", "iz_mean"):
        bath_correlation(m, t, which=which, j=3)
    assert engine.model_tau_b(m).reached
    # the widest bath-space block is C(7, 3) = 35
    assert widths and max(widths) == 35


@pytest.mark.parametrize("t_grid", [5.0, np.ones((2, 3)), [0.0, math.nan, 2.0],
                                    [0.0, math.inf]], ids=["scalar", "2-D", "nan", "inf"])
def test_bath_correlation_rejects_a_bad_grid(t_grid):
    with pytest.raises(ContractError, match="t_grid"):
        bath_correlation(default_model(n_bath=2), t_grid)


@pytest.mark.parametrize("j", [1.5, True, "0", None])
def test_bath_correlation_rejects_a_non_integer_index(j):
    with pytest.raises(ContractError, match="bath index j"):
        bath_correlation(default_model(n_bath=2), [0.0, 1.0], which="iz", j=j)


def test_bath_correlation_accepts_a_numpy_index():
    m = default_model(n_bath=2)
    t = [0.0, 30.0]
    assert np.array_equal(bath_correlation(m, t, which="iz", j=np.int64(1)),
                          bath_correlation(m, t, which="iz", j=1))


@pytest.mark.parametrize("times", [np.linspace(0.0, 1.0, 4), np.linspace(1.0, 0.0, 5),
                                   [0.0, 1.0, 1.0, 2.0, 3.0], np.ones((1, 5))],
                         ids=["short", "decreasing", "repeated", "2-D"])
def test_estimate_tau_b_rejects_a_bad_time_grid(times):
    with pytest.raises(ContractError, match="times must increase strictly"):
        estimate_tau_b(np.exp(-np.arange(5.0)), times)


def test_model_tau_b_reads_the_iz_mean_crossing():
    m = default_model()
    t = np.linspace(0.0, 2000.0, 800)
    crossing = estimate_tau_b(bath_correlation(m, t, which="iz_mean"), t)
    est = engine.model_tau_b(m)
    assert crossing.reached and est.reached
    assert est.value == pytest.approx(crossing.value, rel=1e-12)


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


@pytest.mark.parametrize("t_max, n_points", [(-2000.0, 800), (0.0, 800), (math.nan, 800),
                                             (math.inf, 800), (2000.0, 1)])
def test_model_tau_b_rejects_a_bad_horizon(t_max, n_points):
    with pytest.raises(ContractError, match="t_max"):
        engine.model_tau_b(default_model(n_bath=3), t_max=t_max, n_points=n_points)


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
    dev0 = 2.0 / ops.dim * getattr(ops, "s" + spec.initial_axis)
    norm0 = np.real(np.trace(dev0 @ dev0))
    curves = []
    for k in range(spec.n_realizations):
        rng = realization_rng(spec.master_seed, k)
        rf_scale = sample_rf_scale(err, rng)
        rho = np.eye(ops.dim) / ops.dim + dev0
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
    # neither the model nor propagate builds a full-space operator
    assert not {"sx", "sy", "sz", "ix", "iy", "iz"} & set(m.ops.__dict__)


def _counted_pulse_builds(monkeypatch):
    shapes = []
    build = engine._pulse_blocks

    def counted(ev, *args, **kwargs):
        shapes.append(engine._shape(ev))
        return build(ev, *args, **kwargs)

    monkeypatch.setattr(engine, "_pulse_blocks", counted)
    return shapes


@pytest.mark.parametrize("n_bath", [0, 3, 7])
def test_free_table_halves_match_the_full_width_propagator(n_bath):
    # H_free conserves the system S_z, so exp(-i H_k t) is block-diagonal
    # in the system's up and down halves of each sector block
    m = default_model(seed=6, n_bath=n_bath)
    h_blocks = build_h_free(m, engine._sectors(n_bath))
    dts = (0.7, 12.0, 95.0)
    table = engine._free_table(h_blocks, dts)
    for dt in dts:
        assert len(table[dt]) == len(h_blocks)
        for h, halves in zip(h_blocks, table[dt]):
            c = len(h) // 2
            full = exp_propagators(h, (dt,))[dt]
            assert halves.shape == (2, c, c)
            assert np.max(np.abs(halves[0] - full[:c, :c])) < 1e-12
            assert np.max(np.abs(halves[1] - full[c:, c:])) < 1e-12
            assert max(np.max(np.abs(full[:c, c:])), np.max(np.abs(full[c:, :c]))) < 1e-14


def _counted_eigh(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


def test_runs_on_one_model_diagonalize_each_sector_once(monkeypatch):
    m = default_model(n_bath=7)
    shapes = _counted_eigh(monkeypatch)
    for tl in (compile_cpmg(10.0, 0.0, n_cycles=4), compile_hahn(25.0),
               compile_cdd(2, 7.0, 0.0, n_cycles=2)):
        propagate(RunSpec(model=m, timeline=tl, error_model=_STATIC))
    # one stacked eigh of both system halves per sector, C(7, k) wide
    assert shapes == [(2, math.comb(7, k), math.comb(7, k)) for k in range(8)]


def _runs(model, timelines):
    return [propagate(RunSpec(model=model, timeline=tl, error_model=_STATIC, n_realizations=2))
            for tl in timelines]


def test_cached_runs_equal_uncached_runs_alternating_two_models():
    models = [default_model(seed=37, n_bath=5), default_model(seed=11, n_bath=5)]
    timelines = [compile_cpmg(12.0, 0.0, n_cycles=20), compile_hahn(40.0),
                 compile_cdd(2, 9.0, 0.8, n_cycles=3)]
    uncached = []
    for m in models:
        runs = []
        for tl in timelines:
            engine._free_eigs = None
            runs += _runs(m, [tl])
        uncached.append(runs)
    for i in (0, 0, 1, 0, 1, 1):
        for cached, fresh in zip(_runs(models[i], timelines), uncached[i]):
            assert np.array_equal(cached.s, fresh.s)
            assert np.array_equal(cached.stderr, fresh.stderr)


def test_threads_sharing_the_cache_see_whole_entries():
    models = [default_model(seed=37, n_bath=3), default_model(seed=11, n_bath=3)]
    tl = compile_cpmg(12.0, 0.0, n_cycles=3)
    expected = []
    for m in models:
        engine._free_eigs = None
        expected.append(_runs(m, [tl])[0].s)

    def work(first):
        # alternating models, so threads keep replacing each other's entry
        for i in range(40):
            k = (first + i) % 2
            if not np.array_equal(_runs(models[k], [tl])[0].s, expected[k]):
                return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            results = [f.result(timeout=120) for f in
                       [pool.submit(work, first) for first in range(6)]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 6


def test_a_model_one_coupling_away_misses_the_cache(monkeypatch):
    m = default_model(seed=4, n_bath=4)
    d = m.d.copy()
    d[1, 2] = d[2, 1] = np.nextafter(d[1, 2], np.inf)
    near = build_model(m.b, d)
    tl = compile_cpmg(15.0, 0.0, n_cycles=3)
    engine._free_eigs = None
    (fresh,) = _runs(near, [tl])
    _runs(m, [tl])
    shapes = _counted_eigh(monkeypatch)
    (cached,) = _runs(near, [tl])
    assert len(shapes) == near.n_bath + 1
    assert np.array_equal(cached.s, fresh.s)


def test_static_runs_build_each_pulse_and_interval_shape_once(monkeypatch):
    shapes = _counted_pulse_builds(monkeypatch)
    m = default_model(seed=4, n_bath=3)
    tl = compile_cdd(2, 10.0, 0.0, n_cycles=3)
    propagate(RunSpec(model=m, timeline=tl, error_model=_STATIC, record="every_pulse"))
    assert sorted(shapes) == sorted({engine._shape(ev) for ev in tl.events})

    pieces = [iv.segments for iv in engine._recording_intervals(tl, "every_pulse")]
    h_blocks = build_h_free(m, engine._sectors(m.n_bath))
    free_us = engine._free_table(h_blocks, {p for segs in pieces
                                            for kind, p in segs if kind == "free"})
    products = list(engine._interval_products(pieces, h_blocks, free_us, _STATIC, 1.0))
    keys = [tuple(p if kind == "free" else engine._shape(p) for kind, p in segs)
            for segs in pieces]
    for key, product in zip(keys, products):
        assert product is products[keys.index(key)]
    assert len({id(p) for p in products}) == len(set(keys)) < len(pieces)


def test_jittered_runs_build_every_pulse_application(monkeypatch):
    shapes = _counted_pulse_builds(monkeypatch)
    tl = compile_cpmg(4.0, 0.0, n_cycles=7)
    propagate(RunSpec(model=dephasing_model(2), timeline=tl, error_model=_JITTER,
                      n_realizations=2, record="every_pulse"))
    assert len(shapes) == 2 * tl.n_cycles * tl.pulses_per_cycle


@pytest.mark.parametrize("n_bath", [1, 2, 5, 6])
def test_bath_correlations_diagonalize_one_sector_of_each_mirrored_pair(monkeypatch, n_bath):
    m = default_model(seed=9, n_bath=n_bath)
    t = np.linspace(0.0, 400.0, 9)
    shapes = _counted_eigh(monkeypatch)
    for which in ("ix_total", "iz_mean"):
        bath_correlation(m, t, which=which)
    assert shapes == 2 * [(math.comb(n_bath, k),) * 2 for k in range(n_bath // 2 + 1)]
