"""Propagation engine: exact oracles, determinism, and trace bookkeeping."""

import concurrent.futures
import io
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import kron_oracle as oracle
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
    magnus_defect,
    propagate,
    real_pulse,
    sample_couplings,
    sample_rf_scale,
)
from spinbath.analysis import compile_family
from spinbath.operators import _SPIN_HALF, exp_propagator
from spinbath.pulses import axis_vector, split_axis
from spinbath.util import realization_rng


def dephasing_model(n_bath, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-scale, scale, n_bath)
    return build_model(b, np.zeros((n_bath, n_bath)))


def _force(monkeypatch, path=None):
    """Make every static run take `path`, or with None the direct path the
    planner gives a powered run that fell back; a forced powered run that
    falls back is planned so too."""
    plan = engine._plan
    monkeypatch.setattr(engine, "_plan", lambda *counts, built=False:
                        path if path and not built else plan(*counts, built=True))


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


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", None])
def test_counts_and_seeds_must_be_integers(bad):
    m, tl = dephasing_model(2), compile_free(10.0)
    for field in ("n_realizations", "master_seed"):
        with pytest.raises(ContractError, match=f"{field} must be an integer"):
            RunSpec(model=m, timeline=tl, **{field: bad})


def test_numpy_integer_counts_and_seeds_run_as_python_ints():
    m, tl = default_model(seed=2, n_bath=3), compile_cpmg(10.0, 0.0, n_cycles=3)
    err = ErrorModel(rf=GaussianRf(sd=0.05))
    a = propagate(RunSpec(model=m, timeline=tl, error_model=err, n_realizations=2,
                          master_seed=5))
    b = propagate(RunSpec(model=m, timeline=tl, error_model=err, n_realizations=np.int64(2),
                          master_seed=np.uint32(5)))
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


def test_every_pulse_matches_cycle_boundaries(monkeypatch):
    # finite back-to-back pulses and static errors, both record modes on
    # each direct path: every_pulse records between the pulses of a cycle
    m = default_model(n_bath=3)
    err = ErrorModel(rf=GaussianRf(1.0, 0.10), flip_angle_fraction=0.03)
    tl = compile_cdd(2, 6.0, 2.0, n_cycles=3)
    spec = dict(model=m, timeline=tl, error_model=err, initial_axis="y",
                n_realizations=2, master_seed=4)
    for path in ("steps", "products"):
        _force(monkeypatch, path)
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


def test_eigenphase_powering_matches_direct_loop(monkeypatch):
    noisy = ErrorModel(rf=GaussianRf(1.0, 0.10), flip_angle_fraction=0.03)
    cases = [
        (default_model(n_bath=3), noisy, compile_cpmg(12.0, 2.0, n_cycles=40), "y", 3),
        # ideal pulses leave a fully degenerate cycle spectrum
        (default_model(n_bath=0), ErrorModel(), compile_cpmg(12.0, 0.0, n_cycles=20), "x", 1),
        (default_model(n_bath=1), ErrorModel(), compile_cpmg(12.0, 0.0, n_cycles=20), "y", 1),
        # 101 recorded points against dim 32: four blocks, the last one partial
        (default_model(n_bath=4), noisy, compile_cpmg(9.0, 0.0, n_cycles=100), "x", 2),
        # 1200 cycle counts: five chunks of phase tables built from products,
        # the last one partial
        (default_model(seed=5, n_bath=4), noisy, compile_cpmg(9.0, 0.0, n_cycles=1200), "y", 1),
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
        with monkeypatch.context() as powered_only:
            _force(powered_only, "powered")
            fast = propagate(spec)
        assert len(calls) == n_real
        calls.clear()
        with monkeypatch.context() as direct:
            _force(direct)
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


def _symmetric_with_eigenphases(theta, rng):
    """Q exp(i theta) Q^T for a random real orthogonal Q: a complex-symmetric unitary."""
    q, _ = np.linalg.qr(rng.normal(size=(len(theta), len(theta))))
    return (q * np.exp(1j * np.asarray(theta))) @ q.T


def _eigh_dtypes(monkeypatch):
    """The dtype of every matrix np.linalg.eigh receives from here on."""
    eigh, dtypes = np.linalg.eigh, []

    def spy(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return dtypes


@pytest.mark.parametrize("n", [2, 3, 6, 14, 40, 70, 140])
def test_unitary_eig_takes_real_arithmetic_on_symmetric_unitaries(n, monkeypatch):
    rng = np.random.default_rng(n)
    phi = engine._EIG_PHASE
    spectra = [rng.uniform(-np.pi, np.pi, n) for _ in range(2)]
    # the clustered spectra of test_unitary_eig_where_the_hermitian_part_is_degenerate
    spectra[0][:2] = phi + 0.3, phi - 0.3
    spectra[1][0], spectra[1][-1] = phi + 1e-9, phi + np.pi - 1e-9
    if n > 2:
        spectra[1][1] = phi - 1e-9
    spectra.append(np.zeros(n))
    dtypes = _eigh_dtypes(monkeypatch)
    for theta in spectra:
        u = _symmetric_with_eigenphases(theta, rng)
        _assert_unitary_eigenbasis(u)
        assert np.isrealobj(engine._unitary_eig(u)[1])
    assert dtypes and all(t == np.float64 for t in dtypes)


def test_unitary_eig_takes_a_diagonal_block_as_its_own_eigenbasis(monkeypatch):
    theta = np.random.default_rng(4).uniform(-np.pi, np.pi, 14)
    u = np.diag(np.exp(1j * theta))
    shapes = _counted_eigh(monkeypatch)
    phases, p = engine._unitary_eig(u)
    assert shapes == []
    assert np.array_equal(p, np.eye(14))
    assert np.max(np.abs(phases - theta)) < 1e-15
    # an off-diagonal entry above _EIG_RESIDUAL_MAX goes through eigh: a
    # rotation by 2e-13 between two states of different phase
    angle = 2e-13
    rotation = np.eye(14)
    rotation[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    tilted = rotation @ u @ rotation.T
    assert engine._EIG_RESIDUAL_MAX < np.max(np.abs(tilted - np.diag(np.diag(tilted))))
    _assert_unitary_eigenbasis(tilted)
    assert shapes


def test_sandwich_holds_two_products_at_a_time():
    # at n_bath 12 each more (2C, 2C) temporary of the powered path's weights
    # is 55 MB of peak memory
    rng = np.random.default_rng(1)
    v, u = (np.linalg.qr(rng.normal(size=(300, 300)))[0] for _ in range(2))
    a = rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))
    tracemalloc.start()
    try:
        out = engine._sandwich(v, a, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(out - v.T @ a @ u)) < 1e-12
    assert peak < 2.5 * a.nbytes


def _eig_bases(monkeypatch):
    """The eigenbasis of every block _unitary_eig returns from here on."""
    kernel, bases = engine._unitary_eig, []

    def recorded(u):
        eig = kernel(u)
        bases.append(eig[1])
        return eig

    monkeypatch.setattr(engine, "_unitary_eig", recorded)
    return bases


def _static_run(family, tau_p, n_bath):
    """A 20-cycle run of `family` (udd: 4 pulses) with static flip, tilt and RF errors."""
    return RunSpec(model=default_model(n_bath=n_bath),
                   timeline=compile_family(family, 10.0, tau_p, 20, udd_pulses=4),
                   error_model=ErrorModel(rf=GaussianRf(1.0, 0.05), flip_angle_fraction=0.03,
                                          axis_tilt=0.1),
                   initial_axis="y", master_seed=3)


@pytest.mark.parametrize("n_bath", [3, 6])
@pytest.mark.parametrize("family, tau_p", [("cpmg", 0.0), ("cp", 1.0), ("udd", 0.0), ("fid", 0.0)])
def test_time_symmetric_single_axis_cycles_take_the_real_path(family, tau_p, n_bath,
                                                              monkeypatch):
    # cycles that read the same backwards with every pulse on one line are
    # symmetric in the pulse-axis frame, so the free eigenvectors, their
    # mixings and every cycle block's eigenbasis are real
    spec = _static_run(family, tau_p, n_bath)
    bases = _eig_bases(monkeypatch)
    _force(monkeypatch, "powered")
    fast = propagate(spec)
    assert all(v.dtype == m.dtype == np.float64 for _, v, m in engine._frames[-1][1])
    # the kept sectors, the middle one as its two parity halves
    assert len(bases) == n_bath // 2 + 1 + (n_bath % 2 == 0)
    assert all(np.isrealobj(p) for p in bases)
    _force(monkeypatch)
    assert np.max(np.abs(fast.s - propagate(spec).s)) < 1e-12


@pytest.mark.parametrize("n_bath", [3, 6])
@pytest.mark.parametrize("family, tau_p", [("cpmg2", 0.0), ("udd", 0.5)])
def test_cycles_that_are_no_palindromes_take_the_complex_path(family, tau_p, n_bath,
                                                              monkeypatch):
    spec = _static_run(family, tau_p, n_bath)
    bases = _eig_bases(monkeypatch)
    _force(monkeypatch, "powered")
    fast = propagate(spec)
    assert bases and all(np.iscomplexobj(p) for p in bases)
    _force(monkeypatch)
    assert np.max(np.abs(fast.s - propagate(spec).s)) < 1e-12


@pytest.mark.parametrize("timeline, n_bath, full_blocks", [
    # two delta pulses per cycle on large sectors: stepping them costs less
    # than a product
    (compile_cpmg(9.0, 0.0, n_cycles=40), 8, 0),
    # 84 delta pulses per cycle: one product per sector (5 unpaired, x and y
    # pulses), cycle and realization
    (compile_cdd(3, 2.0, 0.0, n_cycles=40), 4, 40 * 5 * 2),
], ids=["cpmg", "cdd3"])
def test_unitary_eig_fallback_runs_the_direct_loop(monkeypatch, timeline, n_bath, full_blocks):
    spec = RunSpec(model=default_model(n_bath=n_bath), timeline=timeline,
                   error_model=ErrorModel(rf=GaussianRf(1.0, 0.10), flip_angle_fraction=0.03),
                   initial_axis="y", n_realizations=2, master_seed=4)
    with monkeypatch.context() as direct:
        _force(direct)
        slow = propagate(spec)
    powered, results = engine._powered_overlaps, []

    def recorded(*args):
        results.append(powered(*args))
        return results[-1]

    advance, steps = engine._advance, []

    def counted(u, w, out):
        # the products of a delta-pulse train are built from phase steps and
        # mixings, so only the direct loop applies a full (2C, 2C) block
        steps.append(u.shape == (2 * w.shape[-1],) * 2)
        return advance(u, w, out)

    monkeypatch.setattr(engine, "_powered_overlaps", recorded)
    monkeypatch.setattr(engine, "_advance", counted)
    monkeypatch.setattr(engine, "_EIG_RESIDUAL_MAX", 0.0)
    _force(monkeypatch, "powered")
    fell_back = propagate(spec)
    assert results == [None, None]
    assert len(steps) == sum(steps) == full_blocks
    assert np.array_equal(fell_back.s, slow.s)
    assert np.array_equal(fell_back.stderr, slow.stderr)


@pytest.mark.parametrize("timeline, n_bath", [
    (compile_cpmg(9.0, 0.0, n_cycles=40), 8),  # the fallback steps its segments
    (compile_cdd(3, 2.0, 0.5, n_cycles=40), 4),  # the fallback applies the cycle product
], ids=["cpmg", "cdd3"])
def test_a_powered_run_that_falls_back_builds_its_operators_once(monkeypatch, timeline, n_bath):
    spec = RunSpec(model=default_model(n_bath=n_bath), timeline=timeline,
                   error_model=ErrorModel(rf=GaussianRf(1.0, 0.10), flip_angle_fraction=0.03),
                   initial_axis="y", n_realizations=2, master_seed=4)
    with monkeypatch.context() as direct:
        _force(direct)
        slow = propagate(spec)
    _force(monkeypatch, "powered")
    shapes = _counted_pulse_builds(monkeypatch)
    propagate(spec)
    powered = list(shapes)
    products, built = engine._interval_products, []

    def recorded(*args):
        built.append(args)
        return products(*args)

    monkeypatch.setattr(engine, "_interval_products", recorded)
    monkeypatch.setattr(engine, "_EIG_RESIDUAL_MAX", 0.0)
    shapes.clear()
    fell_back = propagate(spec)
    # one build per pulse strength and realization, and one cycle product each
    assert shapes == powered and len(shapes) == 2 * len({engine._strength(ev)
                                                         for ev in timeline.events})
    assert len(built) == 2
    assert np.array_equal(fell_back.s, slow.s)
    assert np.array_equal(fell_back.stderr, slow.stderr)


@pytest.mark.parametrize("tau_p", [0.0, 1.5])
@pytest.mark.parametrize("family, record", [("hahn", "cycle_boundaries"),
                                            ("cpmg", "every_pulse")])
def test_short_static_runs_step_their_segments(monkeypatch, family, record, tau_p):
    # a one-cycle echo, and a train recorded after every pulse: building an
    # interval product costs more than applying its pulses directly
    monkeypatch.setattr(engine, "_interval_products", None)
    tl = compile_family(family, 17.0, tau_p, n_cycles=1 if family == "hahn" else 12)
    spec = RunSpec(model=default_model(seed=4, n_bath=4), timeline=tl, error_model=_STATIC,
                   n_realizations=2, record=record)
    assert np.all(np.isfinite(propagate(spec).s))


@pytest.mark.parametrize("steps", [True, False], ids=["steps", "products"])
@pytest.mark.parametrize("tau_p", [0.0, 1.5])
@pytest.mark.parametrize("family, n_cycles, record, axis", [
    ("hahn", 1, "cycle_boundaries", "x"),  # paired on a tilted line: two columns
    ("cpmg", 3, "every_pulse", "y"),  # two columns, several intervals
    ("cdd", 3, "cycle_boundaries", "x"),  # x and y pulses: unpaired, one column
    ("udd", 12, "every_pulse", "z"),  # paired, z is served by one column
])
def test_both_static_paths_match_dense_kron_reference(monkeypatch, steps, tau_p, family,
                                                      n_cycles, record, axis):
    tl = compile_family(family, 17.0, tau_p, n_cycles=n_cycles, order=2, udd_pulses=3)
    spec = RunSpec(model=default_model(seed=4, n_bath=4), timeline=tl, error_model=_STATIC,
                   initial_axis=axis, n_realizations=2, master_seed=8, record=record)
    columns, _ = engine._initial_columns(axis, engine._flip_phase(tl.events, _STATIC))
    assert columns.shape[1] == (2 if family in ("hahn", "cpmg") else 1)
    products, built = engine._interval_products, []

    def recorded(*args):
        built.append(args)
        return products(*args)

    monkeypatch.setattr(engine, "_interval_products", recorded)
    _force(monkeypatch, "steps" if steps else "products")
    trace = propagate(spec)
    assert len(built) == (0 if steps else 2)
    ref = _dense_kron_curves(spec).mean(axis=0)
    assert trace.s.shape == ref.shape
    assert np.max(np.abs(trace.s - ref)) < 1e-12


def _counts(timelines, n_bath, paired, columns=1, record="cycle_boundaries"):
    """What _plan reads of static runs of `timelines` (one, or one-cycle rows)
    on n_bath spins, from the counts alone: no model is built."""
    pairs = (engine._mirror_sectors(n_bath) if paired else
             [(k, 1) for k in range(n_bath + 1)])
    intervals = engine._row_intervals([engine._recording_intervals(t, record)
                                       for t in timelines])
    return (intervals, timelines[0].n_cycles, columns, len(timelines),
            [math.comb(n_bath, k) for k, _ in pairs], tuple(m for _, m in pairs))


def test_plan_counts_the_kept_sectors_of_a_run():
    # _counts stands for what propagate hands _plan
    seen = []
    plan = engine._plan

    def recorded(*counts, built=False):
        seen.append(counts)
        return plan(*counts, built=built)

    for family, paired in (("cpmg", True), ("cdd", False)):
        tl = compile_family(family, 20.0, 0.0, 3)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(engine, "_plan", recorded)
            propagate(RunSpec(model=default_model(n_bath=4), timeline=tl,
                              error_model=_STATIC, initial_axis="z"))
        (intervals, *rest), = seen
        (want, *expected) = _counts([tl], 4, paired)
        assert [iv.segments for iv in intervals] == [iv.segments for iv in want]
        assert rest == expected
        seen.clear()


def test_plan_picks_the_benchmark_paths():
    # the static runs perfbench makes, at seed 37: static_scaling's cpmg
    # over 100 cycles at n_bath 6, 7 and 8 (paired on the x line, axis x: one
    # column), echo_curve's 100-cycle FID, and its 15 echoes as 5 chunks of 3
    # one-cycle rows (noisy_sweep is jittered; avgham_corr runs no propagate)
    cpmg = compile_cpmg(30.0, 0.0, 100)
    for n in (6, 7, 8):
        assert engine._plan(*_counts([cpmg], n, True)) == "powered"
    assert engine._plan(*_counts([compile_free(4.0, 100)], 7, True)) == "powered"
    echoes = [compile_hahn(float(tau)) for tau in np.linspace(5.0, 300.0, 15)]
    for lo in range(0, 15, 3):
        assert engine._plan(*_counts(echoes[lo:lo + 3], 7, True)) == "steps"


def test_plan_powers_long_runs_and_applies_products_over_few_cycles():
    # large static cpmg runs power
    cpmg = compile_cpmg(30.0, 0.0, 100)
    for n in (11, 12):
        assert engine._plan(*_counts([cpmg], n, True)) == "powered"
    # a many-pulse cycle over few cycles applies its product
    assert engine._plan(*_counts([compile_cdd(3, 20.0, 0.0, 15)], 7, False)) == "products"
    # cdd2 over 16 cycles runs direct (x and y pulses: unpaired)
    for n in (7, 10):
        assert engine._plan(*_counts([compile_cdd(2, 20.0, 0.0, 16)], n, False)) != "powered"


def test_plan_powers_only_single_interval_runs_with_a_scalar_frame():
    cpmg, hahn = compile_cpmg(30.0, 0.0, 400), compile_hahn(30.0, 0.0, 400)
    assert engine._plan(*_counts([cpmg], 8, True)) == "powered"
    assert engine._plan(*_counts([cpmg], 8, True, record="every_pulse")) != "powered"
    # one pi pulse per cycle: the net frame is no scalar
    assert engine._plan(*_counts([hahn], 8, True)) != "powered"
    # a fallback has its products already: a few pulses per cycle step on
    # large sectors, many pulses apply the product
    assert engine._plan(*_counts([cpmg], 10, True), built=True) == "steps"
    cdd3 = compile_cdd(3, 20.0, 0.0, 40)
    assert engine._plan(*_counts([cdd3], 4, False), built=True) == "products"


def test_jittered_and_avgham_runs_never_plan(monkeypatch):
    def never(*counts, built=False):
        raise AssertionError("planned")

    monkeypatch.setattr(engine, "_plan", never)
    m = default_model(n_bath=3)
    propagate(RunSpec(model=m, timeline=compile_cpmg(20.0, 0.0, 20),
                      error_model=ErrorModel(rf=GaussianRf(1.0, 0.1), tilt_jitter_sd=0.15)))
    magnus_defect(compile_cdd(2, 5.0), build_h_free(m), m.ops)


def _frame_products(model, pieces, err, rf_scale=1.0):
    """(kept, products): the frame of every sector of the model's H_free,
    without the pairing (engine._Kept), and the interval products of the
    segment lists `pieces` under the static `err` in it."""
    h_blocks = build_h_free(model, engine._sectors(model.n_bath))
    kept = engine._Kept(h_blocks, h_blocks)
    phases = kept.phases({p for segments in pieces for kind, p in segments if kind == "free"})
    operators = engine._static_operators(pieces, kept, err, rf_scale, {})
    return kept, engine._interval_products(pieces, operators, kept, phases)


def _cycle_blocks(model, timeline, err, rf_scale=1.02):
    """The cycle product on every sector, built without the pairing and
    turned out of the free-evolution frame."""
    kept, (u,) = _frame_products(model, [timeline.segments()], err, rf_scale)
    return kept.back(u)


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
        # in the original basis the flip's K is J, the reversal itself
        middle = u[n_bath // 2]
        *_, pm, mp = engine._parity_blocks(middle, c, np.eye(len(middle) // 2)[::-1])
        assert max(np.max(np.abs(pm)), np.max(np.abs(mp))) < 1e-13


@pytest.mark.parametrize("events, err", [
    (compile_pdd(12.0).events, ErrorModel()),
    (compile_cdd(2, 12.0).events, ErrorModel()),
    (compile_cpmg(12.0).events, ErrorModel(tilt_jitter_sd=0.1)),
], ids=["pdd", "cdd2", "jitter"])
def test_runs_without_one_static_pulse_line_do_not_pair(events, err):
    assert engine._flip_phase(events, err) is None


def test_pulses_about_z_are_rejected():
    for axes in (["z"], ["y", "-z"]):
        events = [PulseEvent(5.0 + 4.0 * i, axis, np.pi, 0.0) for i, axis in enumerate(axes)]
        with pytest.raises(ContractError, match="PULSE_AXES"):
            engine._flip_phase(events, ErrorModel())


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
    # an echo has no scalar net frame, and every_pulse records within a cycle
    expect_powered = record == "cycle_boundaries" and family != "hahn"
    _force(monkeypatch, "powered" if expect_powered else None)
    trace = propagate(spec)
    assert len(results) == (2 if expect_powered else 0)
    assert all(r is not None for r in results)
    ref = _dense_kron_curves(spec).mean(axis=0)
    assert trace.s.shape == ref.shape
    assert np.max(np.abs(trace.s - ref)) < 1e-12


def _dense_free_curve(spec):
    """s of a pulseless run from one eigh of the dense H_free and the
    kron-embedded S_u: sum_ab |A_ab|^2 cos((w_a - w_b) t) / sum_ab |A_ab|^2,
    A = V^dag S_u V, at the cycle ends."""
    model, tl = spec.model, spec.timeline
    w, v = np.linalg.eigh(build_h_free(model))
    s_u = getattr(oracle.full_space(model.n_bath), "s" + spec.initial_axis)
    weights = np.abs(v.conj().T @ s_u @ v) ** 2
    gaps = w[:, None] - w[None, :]
    times = tl.cycle_time * np.arange(tl.n_cycles + 1)
    return np.array([np.sum(weights * np.cos(gaps * t)) for t in times]) / weights.sum()


@pytest.mark.parametrize("axis_tilt", [0.0, 0.05])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("n_bath", [0, 3, 4, 7, 8])
def test_pulseless_powered_runs_match_dense_references(monkeypatch, n_bath, axis, axis_tilt):
    # a pulseless cycle is diagonal in the free eigenframe, the middle
    # sector's parity halves (n_bath 0, 4, 8) to rounding; the reference is
    # one dense eigh of the full-space H_free, checked against the per-cycle
    # dense-kron one where that takes under a second (the tilt only moves
    # the spin flip the engine pairs sectors by)
    powered, results = engine._powered_overlaps, []

    def recorded(*args):
        results.append(powered(*args))
        return results[-1]

    monkeypatch.setattr(engine, "_powered_overlaps", recorded)
    _force(monkeypatch, "powered")
    spec = RunSpec(model=default_model(seed=4, n_bath=n_bath), timeline=compile_free(6.0, 16),
                   error_model=ErrorModel(axis_tilt=axis_tilt), initial_axis=axis)
    trace = propagate(spec)
    assert len(results) == 1 and results[0] is not None
    ref = _dense_free_curve(spec)
    if n_bath < 8 and axis_tilt == 0:
        assert np.max(np.abs(_dense_kron_curves(spec)[0] - ref)) < 1e-12
    assert trace.s.shape == ref.shape
    assert np.max(np.abs(trace.s - ref)) < 1e-12


@pytest.mark.parametrize("axis, middle", [("x", [1, 1]), ("z", [2])])
def test_the_middle_sector_reads_the_parity_blocks_of_the_nonzero_parts(monkeypatch, axis,
                                                                        middle):
    # S_x is even under the flip about x and S_z odd; in the frame the other
    # parity blocks are rounding, not zero, and are not read
    kernel, seen = engine._autocorrelation, []

    def recorded(blocks, times):
        seen.append([m for *_, m in blocks])
        return kernel(blocks, times)

    monkeypatch.setattr(engine, "_autocorrelation", recorded)
    _force(monkeypatch, "powered")
    propagate(RunSpec(model=default_model(seed=4, n_bath=4), timeline=compile_free(6.0, 16),
                      initial_axis=axis))
    # sectors 0 and 1 with their mirrors, then the middle one
    assert seen == [[2, 2] + middle]


def test_tilt_jitter_runs_are_deterministic_and_decay():
    m = dephasing_model(2, scale=0.0)
    err = ErrorModel(tilt_jitter_sd=0.2)
    tl = compile_cpmg(4.0, 0.0, n_cycles=60)
    spec = RunSpec(model=m, timeline=tl, error_model=err, initial_axis="y",
                   n_realizations=6, master_seed=3)
    a = propagate(spec)
    b = propagate(spec)
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

    ops = oracle.full_space(n_bath)
    iz = [direct(a) for a in ops.iz]
    cases = [("ix_total", 0, direct(np.sum(ops.ix, axis=0))),
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


def _conditional_survival(model, timeline):
    """Ideal delta-pulse survival from conditional bath evolution.

    The bath evolves in dimension 2^n under H_E + B/2 for the system's up
    branch and H_E - B/2 for the down branch, B = sum_j b_j I_z^j, and each
    pi pulse swaps the branches; s = Re Tr[U_-^dag U_+] / 2^n (Yao, Liu &
    Sham, PRB 74, 195301 (2006)). Returns s at every cycle boundary.
    """
    n = model.n_bath
    # H_E and S_z B restricted to the system spin up, on the bath space alone
    h_e = oracle.h_e(model)[:2**n, :2**n]
    field = 2.0 * oracle.h_se(model)[:2**n, :2**n]
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
    dev0 = 2.0 / ops.dim * getattr(oracle.full_space(model.n_bath), "s" + spec.initial_axis)
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


_LONG = ErrorModel(rf=GaussianRf(1.0, 0.05), flip_angle_fraction=0.03, axis_tilt=0.1)


@pytest.mark.parametrize("record", ["cycle_boundaries", "every_pulse"])
@pytest.mark.parametrize("axis", ["x", "z"])
@pytest.mark.parametrize("family, n_cycles", [("udd", 200), ("cpmg", 200), ("cdd", 50)])
def test_long_finite_pulse_runs_match_dense_kron_reference(family, n_cycles, axis, record):
    # each cycle applies the same pulses built in the free eigenframe, so
    # their rounding adds up over the run
    tl = compile_family(family, 17.0, 1.5, n_cycles=n_cycles, order=2, udd_pulses=4)
    spec = RunSpec(model=default_model(seed=4, n_bath=3), timeline=tl, error_model=_LONG,
                   initial_axis=axis, n_realizations=2, master_seed=8, record=record)
    assert np.max(np.abs(propagate(spec).s - _dense_kron_curves(spec).mean(axis=0))) < 1e-12


_PAIRED = ErrorModel(rf=BimodalRf(), flip_angle_fraction=0.03)


def _full_propagator_key(axis):
    """The detection key of the full W over the identity's two columns,
    kron(S_u^T, d), and under a spin flip its mean with the mirrored
    kron(S_u'^T, d'), S_u' = q S_u q and d' = q d q."""
    s_u = _SPIN_HALF[axis]

    def key(d, c, sign):
        full = np.kron(s_u.T, d)
        if c is None:
            return full
        q = engine._flip(c)
        return 0.5 * (full + np.kron((q @ s_u @ q).T, q @ d @ q))

    return key


@pytest.mark.parametrize("record", ["cycle_boundaries", "every_pulse"])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("n_bath", [0, 3, 5])
@pytest.mark.parametrize("family, tau_p, err, n_cycles", [
    ("cpmg", 0.0, _JITTER, 3),
    ("udd", 1.5, _JITTER, 2),
    ("pdd", 0.0, _STATIC, 3),
    ("cdd", 1.5, _STATIC, 2),
    ("cpmg", 1.5, _PAIRED, 3),  # paired on the x or y line: one column
    ("hahn", 0.0, _STATIC, 4),  # paired on a tilted line: two columns for x and y
    ("udd", 1.5, _STATIC, 2),
], ids=["jitter", "jitter-finite", "pdd", "cdd2", "paired", "paired-tilted",
        "paired-tilted-finite"])
def test_one_column_loop_matches_full_propagator_and_dense_kron(monkeypatch, family, tau_p,
                                                                 err, n_cycles, n_bath, axis,
                                                                 record):
    tl = compile_family(family, 17.0, tau_p, n_cycles=n_cycles, order=2, udd_pulses=3)
    spec = RunSpec(model=default_model(seed=4, n_bath=n_bath), timeline=tl, error_model=err,
                   initial_axis=axis, n_realizations=2, master_seed=8, record=record)
    c = engine._flip_phase(tl.events, err)
    columns, _ = engine._initial_columns(axis, c)
    tilted_pair = c is not None and err.axis_tilt != 0 and axis != "z"
    assert columns.shape == (2, 2 if tilted_pair else 1)
    one = propagate(spec).s
    monkeypatch.setattr(engine, "_initial_columns", lambda axis, c: (np.eye(2), None))
    monkeypatch.setattr(engine, "_detection_key", _full_propagator_key(axis))
    full = propagate(spec).s
    assert np.max(np.abs(one - full)) < 1e-12
    assert np.max(np.abs(one - _dense_kron_curves(spec).mean(axis=0))) < 1e-12


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_prepared_columns_are_the_plus_states(axis):
    s_u = _SPIN_HALF[axis]
    plus = engine._PLUS[axis]
    assert np.max(np.abs(s_u @ plus - 0.5 * plus)) < 1e-16
    assert abs(np.vdot(plus, plus) - 1.0) < 1e-15


def _per_pulse_cycles(pieces, kept, err, rf_scale, rng):
    """engine._jittered_cycles with one scalar tilt draw, one _pulse_blocks
    build and one turn per pulse, in time order, each turn taken from
    split_axis and axis_vector."""
    def pulse(ev):
        base, sign = split_axis(ev.axis)
        ux, uy = axis_vector(base, err.axis_tilt + rng.normal(0.0, err.tilt_jitter_sd))
        x = engine._pulse_blocks(ev, kept, err, rf_scale)
        return engine._turned(x, np.conj(sign * complex(ux, uy)))

    def cycle():
        return [[p if kind == "free" else pulse(p) for kind, p in segments]
                for segments in pieces]

    return cycle


@pytest.mark.parametrize("family, order, tau_p, record", [
    ("cdd", 3, 0.0, "cycle_boundaries"),
    ("pdd", 2, 0.0, "every_pulse"),
    ("udd", 2, 1.5, "cycle_boundaries"),
])
def test_jittered_cycles_equal_one_draw_and_one_build_per_pulse(monkeypatch, family, order,
                                                                tau_p, record):
    err = ErrorModel(rf=GaussianRf(1.0, 0.1), flip_angle_fraction=0.02, axis_tilt=-0.03,
                     tilt_jitter_sd=0.15)
    tl = compile_family(family, 9.0, tau_p, n_cycles=3, order=order, udd_pulses=5)
    spec = RunSpec(model=default_model(seed=4, n_bath=3), timeline=tl, error_model=err,
                   initial_axis="y", n_realizations=3, master_seed=5, record=record)
    vectorized = propagate(spec)
    monkeypatch.setattr(engine, "_jittered_cycles", _per_pulse_cycles)
    per_pulse = propagate(spec)
    assert np.array_equal(vectorized.s, per_pulse.s)
    assert np.array_equal(vectorized.stderr, per_pulse.stderr)


def test_jittered_runs_carry_one_system_column(monkeypatch):
    shapes = []

    class Spy(engine._Accumulated):
        def __init__(self, *args):
            super().__init__(*args)
            shapes.append(self._states[0][0].shape)

    monkeypatch.setattr(engine, "_Accumulated", Spy)
    propagate(RunSpec(model=default_model(seed=4, n_bath=3),
                      timeline=compile_cpmg(8.0, 0.0, n_cycles=3), error_model=_JITTER,
                      n_realizations=2))
    # one (1, 2, sum_k C_k^2) buffer per realization and no interval product
    assert shapes == 2 * [(1, 2, sum(math.comb(3, k) ** 2 for k in range(4)))]


@pytest.mark.parametrize("record", ["cycle_boundaries", "every_pulse"])
@pytest.mark.parametrize("n_bath", [0, 1, 4, 7])
@pytest.mark.parametrize("tau_p, err, axis", [
    (0.0, _JITTER, "y"),  # phase steps and mixings only
    (1.5, _JITTER, "x"),  # finite pulses turned into the frame
    (0.0, _STATIC, "x"),  # paired on a tilted line: two columns, interval products
], ids=["jitter-delta", "jitter-finite", "paired-tilted"])
def test_frame_loop_matches_dense_kron_reference(n_bath, tau_p, err, axis, record):
    # n_bath 0 is one sector of width 1, n_bath 1 two of them side by side,
    # and n_bath 4 has an unpaired middle sector when jittered
    tl = compile_cpmg(11.0, tau_p, n_cycles=3)
    spec = RunSpec(model=default_model(seed=5, n_bath=n_bath), timeline=tl, error_model=err,
                   initial_axis=axis, n_realizations=2, master_seed=6, record=record)
    if err is _STATIC:
        columns, _ = engine._initial_columns(axis, engine._flip_phase(tl.events, err))
        assert columns.shape == (2, 2)
    trace = propagate(spec)
    ref = _dense_kron_curves(spec).mean(axis=0)
    assert trace.s.shape == ref.shape
    assert np.max(np.abs(trace.s - ref)) < 1e-12


def test_jittered_delta_pulses_mix_once_per_width(monkeypatch):
    # a free step is one phase multiply and a delta pulse one real mixing
    # product per sector width; no (C, C) block product runs
    mixes, per_step = [], []
    mix = engine._mix

    def counted_mix(m, x, out):
        mixes.append((m.dtype, x.dtype, out.dtype))
        mix(m, x, out)

    class Spy(engine._Accumulated):
        def advance(self, op):
            before = len(mixes)
            super().advance(op)
            per_step.append((isinstance(op, float), len(mixes) - before))

    monkeypatch.setattr(engine, "_mix", counted_mix)
    monkeypatch.setattr(engine, "_Accumulated", Spy)
    monkeypatch.setattr(engine, "_advance", None)
    tl = compile_cpmg(8.0, 0.0, n_cycles=5)
    propagate(RunSpec(model=default_model(seed=4, n_bath=7), timeline=tl, error_model=_JITTER))
    # widths 1, 7, 21 and 35: sectors k and 7 - k share one product
    assert per_step == tl.n_cycles * [(True, 0), (False, 4), (True, 0), (False, 4), (True, 0)]
    # and one per width for each cycle's Gram
    assert len(mixes) == 4 * (tl.n_cycles * tl.pulses_per_cycle + tl.n_cycles)
    assert set(mixes) == {(np.dtype(np.float64),) * 3}


@pytest.mark.parametrize("family, tau_p, err, axis", [
    ("cpmg", 0.0, _JITTER, "y"),
    ("cpmg2", 1.5, _STATIC, "x"),
    ("cdd", 0.0, _STATIC, "z"),
    ("udd", 1.5, _JITTER, "x"),
])
def test_rows_equal_runs_of_their_own(family, tau_p, err, axis):
    # cycles whose free steps take several lengths, keyed per row
    timelines = [compile_family(family, tau, tau_p) for tau in (6.0, 9.0, 17.0)]
    spec = RunSpec(model=default_model(seed=8, n_bath=4), timeline=timelines[0],
                   error_model=err, initial_axis=axis, n_realizations=3, master_seed=4)
    trace = propagate(spec, rows=timelines[1:])
    runs = [propagate(RunSpec(model=spec.model, timeline=tl, error_model=err, initial_axis=axis,
                              n_realizations=3, master_seed=4)) for tl in timelines]
    for name in ("times", "n_pulses", "s", "stderr"):
        expected = np.concatenate([[getattr(runs[0], name)[0]],
                                   [getattr(run, name)[-1] for run in runs]])
        assert np.array_equal(getattr(trace, name), expected), name
    assert trace.label == timelines[0].label


@pytest.mark.parametrize("rows, record", [
    ([compile_hahn(8.0, n_cycles=2)], "cycle_boundaries"),
    ([compile_hahn(8.0)], "every_pulse"),
    ([compile_cpmg(8.0)], "cycle_boundaries"),
    ([compile_hahn(8.0, 0.5)], "cycle_boundaries"),
    ([compile_hahn(8.0), compile_hahn(7.0)], "cycle_boundaries"),
    ([compile_hahn(5.0)], "cycle_boundaries"),
], ids=["two-cycles", "every-pulse", "other-pulses", "longer-pulse", "shorter-cycle",
        "same-cycle"])
def test_rows_that_cannot_share_the_pulses_are_rejected(rows, record, monkeypatch):
    monkeypatch.setattr(engine, "build_h_free", None)
    spec = RunSpec(model=default_model(seed=8, n_bath=2), timeline=compile_hahn(5.0),
                   record=record)
    with pytest.raises(ContractError, match="rows need one-cycle timelines"):
        propagate(spec, rows=rows)


def _counted_pulse_builds(monkeypatch):
    strengths = []
    build = engine._pulse_blocks

    def counted(ev, *args, **kwargs):
        strengths.append(engine._strength(ev))
        return build(ev, *args, **kwargs)

    monkeypatch.setattr(engine, "_pulse_blocks", counted)
    return strengths


def _counted_turns(monkeypatch):
    """The number of pulses each engine._turned call turns."""
    counts = []
    turned = engine._turned

    def counted(x, turn):
        counts.append(np.size(turn))
        return turned(x, turn)

    monkeypatch.setattr(engine, "_turned", counted)
    return counts


@pytest.mark.parametrize("n_bath", [0, 3, 7])
def test_free_eigensystems_reproduce_the_full_width_propagator(n_bath):
    # H_free conserves the system S_z, so exp(-i H_k t) is block-diagonal in
    # the system's up and down halves s of each sector block, V_s
    # diag(exp(-i w_s t)) V_s^T on each, and M = V_+^T V_- mixes the halves
    m = default_model(seed=6, n_bath=n_bath)
    h_blocks = build_h_free(m, engine._sectors(n_bath))
    eigs = engine._free_eigensystems(h_blocks, h_blocks)
    assert len(eigs) == len(h_blocks)
    for h, (w, v, mix) in zip(h_blocks, eigs):
        c = len(h) // 2
        assert w.shape == (2, c) and v.shape == (2, c, c)
        assert np.array_equal(mix, v[0].T @ v[1])
        for dt in (0.7, 12.0, 95.0):
            full = exp_propagator(h, dt)
            halves = (v * np.exp(-1j * w[:, None, :] * dt)) @ v.swapaxes(1, 2)
            assert np.max(np.abs(halves[0] - full[:c, :c])) < 1e-13
            assert np.max(np.abs(halves[1] - full[c:, c:])) < 1e-13
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


@pytest.mark.parametrize("n_bath", [7, 8])
def test_a_pulseless_powered_run_on_a_slot_hit_makes_no_eigh(monkeypatch, n_bath):
    # the free eigenframe diagonalizes a pulseless cycle: every kept block,
    # and at even n_bath the middle sector's parity halves, is taken as its
    # own eigenbasis
    spec = RunSpec(model=default_model(seed=37, n_bath=n_bath),
                   timeline=compile_free(4.0, 100))
    first = propagate(spec)
    shapes = _counted_eigh(monkeypatch)
    again = propagate(spec)
    assert shapes == []
    assert np.array_equal(again.s, first.s)


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
            engine._frames = ()
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
        engine._frames = ()
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
    (fresh,) = _runs(near, [tl])
    # the cache now holds only m, one coupling away from near
    engine._frames = ()
    _runs(m, [tl])
    shapes = _counted_eigh(monkeypatch)
    (cached,) = _runs(near, [tl])
    assert len(shapes) == near.n_bath + 1
    assert np.array_equal(cached.s, fresh.s)


def test_the_cache_keys_on_a_copy_of_the_couplings(monkeypatch):
    m = default_model(seed=4, n_bath=4)
    tl = compile_cpmg(15.0, 0.0, n_cycles=3)
    (fresh,) = _runs(m, [tl])
    shapes = _counted_eigh(monkeypatch)
    # a new model object with equal couplings hits
    (cached,) = _runs(build_model(m.b.copy(), m.d.copy()), [tl])
    assert shapes == []
    assert np.array_equal(cached.s, fresh.s)
    # an edit in place of the model's couplings misses
    m.d.setflags(write=True)
    m.d[1, 2] = m.d[2, 1] = np.nextafter(m.d[1, 2], np.inf)
    (edited,) = _runs(m, [tl])
    assert len(shapes) == m.n_bath + 1
    engine._frames = ()
    (uncached,) = _runs(build_model(m.b, m.d), [tl])
    assert np.array_equal(edited.s, uncached.s)


def test_baths_run_in_turn_diagonalize_nothing_on_the_second_round(monkeypatch):
    models = [default_model(seed=4, n_bath=n) for n in (3, 4, 5)]
    tl = compile_cpmg(10.0, 0.0, n_cycles=4)
    shapes = _counted_eigh(monkeypatch)
    first = _runs(models[0], [tl]) + _runs(models[1], [tl]) + _runs(models[2], [tl])
    assert len(shapes) == 4 + 5 + 6
    del shapes[:]
    for m, fresh in zip(models, first):
        (again,) = _runs(m, [tl])
        assert np.array_equal(again.s, fresh.s)
    assert shapes == []


def test_paired_and_unpaired_runs_on_one_bath_share_one_entry(monkeypatch):
    m = default_model(seed=4, n_bath=4)
    shapes = _counted_eigh(monkeypatch)
    # cpmg keeps the mirror sectors under its spin flip, cdd2 keeps every one
    _runs(m, [compile_cpmg(10.0, 0.0, n_cycles=4), compile_cdd(2, 10.0, 0.0, n_cycles=2)])
    assert len(shapes) == m.n_bath + 1
    (key, eigs, layouts, _), = engine._frames
    assert set(layouts) == {False, True}
    for layout in layouts.values():
        assert all(e is eigs[k] for e, k in zip(layout["eigs"], layout["sectors"]))
    assert layouts[False]["sectors"] == tuple(range(m.n_bath + 1))
    assert layouts[True]["weights"] == (2, 2, 1)
    # the middle sector's reversal is formed once, on first use, into the entry
    h_blocks = build_h_free(m, engine._sectors(m.n_bath))
    k = engine._Kept(h_blocks, key, 1.0).reversal
    assert layouts[True]["reversal"] is k is engine._Kept(h_blocks, key, 1j).reversal
    assert np.allclose(k @ k.T, np.eye(len(k)), atol=1e-13)
    assert len(engine._frames) == 1 and len(shapes) == m.n_bath + 1


def _held_bytes(entry):
    """The bytes of an entry's arrays, with the middle sector's reversal of a
    paired layout whether it is formed yet or not."""
    key, eigs, layouts, _ = entry
    arrays = [*key, *(a for e in eigs for a in e)]
    for paired, layout in layouts.items():
        arrays += [layout["_w"], layout["_spread"], *(m for _, _, m in layout["groups"])]
        arrays += [v[0] for (_, v, _), m in zip(layout["eigs"], layout["weights"])
                   if paired and m == 1]
    return sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("budget", [0, 60_000])
def test_the_cache_stays_within_its_budget_and_keeps_the_newest(monkeypatch, budget):
    monkeypatch.setattr(engine, "_FRAME_BYTES", budget)
    # the bytes the cache holds while each eigh runs
    held = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        held.append(sum(f[3] for f in engine._frames))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cpmg, cdd2 = compile_cpmg(10.0, 0.0, n_cycles=4), compile_cdd(2, 10.0, 0.0, n_cycles=2)
    newest = []
    # the last run adds the unpaired layout of every sector to the n 6 entry
    for n, tl in [(3, cpmg), (4, cpmg), (5, cpmg), (6, cpmg), (3, cpmg), (4, cpmg), (6, cdd2)]:
        m = default_model(seed=4, n_bath=n)
        del held[:]
        _runs(m, [tl])
        frames = engine._frames
        assert all(f[3] == _held_bytes(f) for f in frames)
        assert len(frames) == 1 or sum(f[3] for f in frames) <= budget
        key = frames[-1][0]
        assert np.array_equal(key[0], m.b) and np.array_equal(key[1], m.d)
        # a miss drops what would not fit beside the new entry before it
        # diagonalizes
        assert len(held) in (0, n + 1)
        assert all(h == 0 or h + frames[-1][3] <= budget for h in held)
        newest.append([len(f[0][0]) for f in frames])
    # at 60 kB, n 6 (43 kB) dropped the least recently used n 3 and n 4,
    # and its second layout (about 30 kB) all the others
    assert newest[-2:] == ([[4], [6]] if budget == 0 else [[5, 6, 3, 4], [6]])


def test_phase_tables_from_products_match_the_exponentials():
    rng = np.random.default_rng(3)
    f, g = rng.uniform(-np.pi, np.pi, 40), rng.uniform(-np.pi, np.pi, 30)
    blocks = [((f, np.eye(40)), (g, rng.normal(size=(30, 30))), [rng.normal(size=(40, 30))], 1)]
    counts = np.arange(1, 700)
    products = engine._autocorrelation(blocks, counts)
    assert np.max(np.abs(products - engine._autocorrelation(blocks, counts.astype(float)))) < 1e-13
    # integer times that do not step by 1 take the exponentials
    steps = counts[::3]
    assert np.array_equal(engine._autocorrelation(blocks, steps),
                          engine._autocorrelation(blocks, steps.astype(float)))


def test_static_runs_build_each_pulse_and_interval_shape_once(monkeypatch):
    strengths, turns = _counted_pulse_builds(monkeypatch), _counted_turns(monkeypatch)
    m = default_model(seed=4, n_bath=3)
    tl = compile_cdd(2, 10.0, 0.0, n_cycles=3)
    propagate(RunSpec(model=m, timeline=tl, error_model=_STATIC, record="every_pulse"))
    # cdd's x and y pulses share one +x pulse, turned once per shape
    assert strengths == [(np.pi, 0.0)]
    assert turns == [1] * len({engine._shape(ev) for ev in tl.events}) == [1, 1]

    pieces = [iv.segments for iv in engine._recording_intervals(tl, "every_pulse")]
    _, products = _frame_products(m, pieces, _STATIC)
    keys = [tuple(p if kind == "free" else engine._shape(p) for kind, p in segs)
            for segs in pieces]
    for key, product in zip(keys, products):
        assert product is products[keys.index(key)]
    assert len({id(p) for p in products}) == len(set(keys)) < len(pieces)


@pytest.mark.parametrize("tau_p", [0.0, 1.5])
def test_interval_products_own_their_memory(monkeypatch, tau_p):
    # n_bath 3 has width-1 sectors, whose (2, 2) block could be a view into
    # the whole buffer of its product
    buffers = []

    class Spy(engine._Accumulated):
        def __init__(self, *args):
            super().__init__(*args)
            buffers.extend(state[0] for state in self._states)

    monkeypatch.setattr(engine, "_Accumulated", Spy)
    m = default_model(seed=4, n_bath=3)
    tl = compile_cdd(2, 10.0, tau_p)
    pieces = [iv.segments for iv in engine._recording_intervals(tl, "every_pulse")]
    kept, products = _frame_products(m, pieces, _STATIC)
    assert 1 in kept.widths and len(buffers) == 2 * len({id(p) for p in products})
    blocks = list({id(b): b for product in products for b in product}.values())
    for i, block in enumerate(blocks):
        assert not any(np.shares_memory(block, x) for x in buffers + blocks[i + 1:])


def test_a_run_holds_no_h_free_block(monkeypatch):
    # the frame holds all a run reads of H_free, finite pulses included, so
    # its blocks are freed before the first realization
    refs, alive = [], []
    build, curve = engine.build_h_free, engine._realization_curve

    def tracked(*args):
        blocks = build(*args)
        refs.extend(map(weakref.ref, blocks))
        return blocks

    def checked(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return curve(*args)

    monkeypatch.setattr(engine, "build_h_free", tracked)
    monkeypatch.setattr(engine, "_realization_curve", checked)
    m = default_model(seed=4, n_bath=4)
    for err in (_STATIC, _PAIRED, _JITTER):
        propagate(RunSpec(model=m, timeline=compile_cpmg(8.0, 1.5, n_cycles=3), error_model=err))
    assert len(refs) == 15 and alive == [0, 0, 0]


def test_jittered_runs_build_every_pulse_application(monkeypatch):
    strengths, turns = _counted_pulse_builds(monkeypatch), _counted_turns(monkeypatch)
    dtypes, eigh = [], np.linalg.eigh

    def spied(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spied)
    for tau_p in (0.0, 1.5):
        tl = compile_cpmg(4.0, tau_p, n_cycles=7)
        propagate(RunSpec(model=dephasing_model(2), timeline=tl, error_model=_JITTER,
                          n_realizations=2, record="every_pulse"))
    # each realization builds the +x pulse of each strength once, and turns
    # every application to its fresh tilt: delta pulses as one stack per
    # cycle, finite pulses one by one
    applications = tl.n_cycles * tl.pulses_per_cycle
    assert strengths == 2 * [(np.pi, 0.0)] + 2 * [(np.pi, 1.5)]
    assert turns == [tl.pulses_per_cycle] * (2 * tl.n_cycles) + [1] * (2 * applications)
    # the finite pulses' frame Hamiltonians, like the free halves, are real
    assert len(dtypes) > 2 and set(dtypes) == {np.dtype(np.float64)}


@pytest.mark.parametrize("n_bath", [1, 2, 5, 6])
def test_bath_correlations_diagonalize_one_sector_of_each_mirrored_pair(monkeypatch, n_bath):
    m = default_model(seed=9, n_bath=n_bath)
    t = np.linspace(0.0, 400.0, 9)
    shapes = _counted_eigh(monkeypatch)
    for which in ("ix_total", "iz_mean"):
        bath_correlation(m, t, which=which)
    assert shapes == 2 * [(math.comb(n_bath, k),) * 2 for k in range(n_bath // 2 + 1)]
