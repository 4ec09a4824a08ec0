"""Decay extraction, fair comparisons, delay sweeps, and the order fit."""

import math

import numpy as np
import pytest

import spinbath.analysis as analysis
import spinbath.engine as engine
import spinbath.frame as frame
import spinbath.plan as plan
from spinbath import (
    ContractError,
    ErrorModel,
    GaussianRf,
    RunSpec,
    SurvivalTrace,
    TimelineError,
    build_model,
    compile_family,
    compile_hahn,
    default_model,
    decay_time,
    envelope,
    fair_tau,
    fit_order_relation,
    hahn_decay_trace,
    propagate,
    sweep_tau,
)
from spinbath.util import first_crossing


def make_trace(t, s, axis="x", label="synthetic"):
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    return SurvivalTrace(times=t, n_pulses=np.zeros(t.size, dtype=int), s=s,
                         stderr=np.zeros(t.size), axis=axis, label=label)


def static_model(n_bath=3, scale=0.4, seed=0):
    rng = np.random.default_rng(seed)
    return build_model(rng.uniform(-scale, scale, n_bath),
                       np.zeros((n_bath, n_bath)))


class TestEnvelope:
    def test_monotone_trace_is_unchanged(self):
        t = np.linspace(0, 10, 40)
        y = np.exp(-t / 3)
        env = envelope(make_trace(t, y))
        assert np.allclose(env.s, y)

    def test_damped_cosine_tracks_peaks(self):
        t = np.linspace(0, 20, 801)
        y = np.exp(-t / 5) * np.cos(2 * np.pi * t)
        env = envelope(make_trace(t, y))
        assert np.all(env.s >= np.abs(y) - 1e-12)
        peaks = np.isclose(np.abs(np.cos(2 * np.pi * t)), 1.0, atol=1e-6)
        assert np.max(np.abs(env.s[peaks] - np.exp(-t[peaks] / 5))) < 1e-6

    def test_sign_is_dropped(self):
        t = np.linspace(0, 3, 10)
        env = envelope(make_trace(t, -np.ones(10)))
        assert np.allclose(env.s, 1.0)

    def test_too_few_samples(self):
        with pytest.raises(ContractError):
            envelope(make_trace([0, 1, 2], [1, 1, 1]))

    def test_a_later_peak_does_not_lift_the_first_sample(self):
        # the first sample is no anchor when a later |s| exceeds it; it is
        # anchored anyway, so the envelope starts at |s(0)|
        y = np.array([0.2, -0.9, 0.5, 0.3, 0.1])
        env = envelope(make_trace(np.arange(5.0), y))
        assert np.array_equal(env.s, np.abs(y))


class TestFirstCrossing:
    def test_a_series_that_starts_at_the_level_crosses_at_its_first_time(self):
        assert first_crossing([2.0, 3.0, 4.0], [0.5, 0.2, 0.1], 0.5) == 2.0
        assert first_crossing([2.0, 3.0, 4.0], [0.1, 0.9, 0.1], 0.5) == 2.0

    def test_an_exact_hit_is_that_sample_time(self):
        assert first_crossing([0.0, 1.0, 2.0], [1.0, 0.8, 0.5], 0.5) == 2.0

    def test_interpolates_between_samples(self):
        assert first_crossing([0.0, 1.0, 2.0], [1.0, 0.8, 0.4], 0.6) == pytest.approx(1.5)

    def test_a_series_that_stays_above_never_crosses(self):
        assert first_crossing([0.0, 1.0], [1.0, 0.9], 0.5) is None


class TestDecayTime:
    def test_one_over_e_on_pure_exponential(self):
        t = np.linspace(0, 12, 4001)
        summary = decay_time(make_trace(t, np.exp(-t / 2.5)))
        assert summary.reached
        assert summary.decay_time == pytest.approx(2.5, rel=1e-4)
        assert summary.method == "one_over_e"

    def test_exp_fit_recovers_rate(self):
        t = np.linspace(0, 4, 60)
        summary = decay_time(make_trace(t, np.exp(-t / 7.0)), method="exp_fit")
        assert summary.reached
        assert summary.decay_time == pytest.approx(7.0, rel=1e-9)

    def test_unreached_is_flagged(self):
        t = np.linspace(0, 5, 30)
        summary = decay_time(make_trace(t, np.full(30, 0.8)))
        assert not summary.reached
        assert math.isnan(summary.decay_time)

    def test_metadata_passthrough(self):
        t = np.linspace(0, 12, 100)
        summary = decay_time(make_trace(t, np.exp(-t), axis="y", label="cpmg"),
                             tau=3.0, tau_c=6.0, pulses_per_unit_time=1 / 3.0)
        assert summary.sequence_label == "cpmg"
        assert summary.initial_axis == "y"
        assert summary.tau == 3.0

    def test_unknown_method(self):
        t = np.linspace(0, 5, 30)
        with pytest.raises(ContractError):
            decay_time(make_trace(t, np.exp(-t)), method="gaussian")


class TestFamilies:
    def test_dispatch_covers_all_layouts(self):
        assert compile_family("fid", 15.0).cycle_time == pytest.approx(30.0)
        assert compile_family("fid", 15.0).pulses_per_cycle == 0
        assert compile_family("hahn", 10.0).pulses_per_cycle == 1
        assert [e.axis for e in compile_family("cp", 10.0).events] == ["x", "x"]
        assert [e.axis for e in compile_family("cpmg2", 10.0).events] == ["y", "-y"]
        assert compile_family("pdd", 10.0).pulses_per_cycle == 4
        assert compile_family("cdd", 10.0, order=2).pulses_per_cycle == 20
        udd = compile_family("udd", 10.0, udd_pulses=4)
        assert udd.pulses_per_cycle == 4
        assert udd.cycle_time == pytest.approx(40.0)

    def test_unknown_family(self):
        with pytest.raises(ContractError):
            compile_family("xy8", 10.0)

    def test_fair_tau_rules(self):
        assert fair_tau("cpmg", 12.0) == 12.0
        assert fair_tau("udd", 12.0) == 12.0
        assert fair_tau("hahn", 12.0) == 6.0
        # concatenation at order n packs N_n pulses into 4^n bare delays
        assert fair_tau("cdd", 16.0, order=1) == pytest.approx(16.0)
        assert fair_tau("cdd", 16.0, order=2) == pytest.approx(16.0 * 20 / 16)
        with pytest.raises(ContractError):
            fair_tau("fid", 12.0)


class TestSweep:
    def test_unreached_points_win_and_tie_to_smallest(self):
        # an ideal-pulse train on a static bath never decays, so every
        # grid point is unreached and the smallest delay is reported
        res = sweep_tau("cpmg", [4.0, 8.0, 16.0], static_model(),
                        ErrorModel(), "x", time_budget=200.0)
        assert all(not s.reached for s in res.summaries)
        assert res.tau_opt == 4.0
        assert res.failures == ()

    def test_ties_resolve_to_the_smallest_delay_in_any_grid_order(self):
        # the grid is not ascending, so the first point in grid order is
        # not the smallest delay
        model = build_model([0.0, 0.0], np.zeros((2, 2)))
        res = sweep_tau("cpmg", [20.0, 5.0, 10.0], model, ErrorModel(), "y", 200.0)
        assert all(not s.reached for s in res.summaries)
        assert res.tau_opt == 5.0

    def test_jitter_ranking_prefers_sparse_pulses(self):
        # with a bathless model and per-pulse axis noise each pulse costs a
        # fixed fidelity, so the decay time is proportional to the delay and
        # the largest grid point wins
        model = build_model(np.zeros(1), np.zeros((1, 1)))
        err = ErrorModel(tilt_jitter_sd=0.15)
        res = sweep_tau("cpmg", [2.0, 4.0, 8.0], model, err, "y",
                        time_budget=400.0, n_realizations=64, master_seed=0)
        assert all(s.reached for s in res.summaries)
        times = [s.decay_time for s in res.summaries]
        assert times[0] < times[1] < times[2]
        assert times[2] / times[0] == pytest.approx(4.0, rel=0.2)
        assert res.tau_opt == 8.0

    def test_bad_points_are_recorded_not_fatal(self):
        res = sweep_tau("cpmg", [-3.0, 6.0], static_model(), ErrorModel(),
                        "x", time_budget=100.0)
        assert len(res.failures) == 1
        assert res.failures[0][0] == -3.0
        assert res.tau_opt == 6.0

    def test_programming_errors_propagate(self):
        with pytest.raises(AttributeError):
            sweep_tau("cpmg", [6.0], None, ErrorModel(), "x", time_budget=100.0)

    def test_empty_grid_and_bad_budget(self):
        with pytest.raises(ContractError):
            sweep_tau("cpmg", [], static_model(), ErrorModel(), "x", 100.0)
        with pytest.raises(ContractError):
            sweep_tau("cpmg", [5.0], static_model(), ErrorModel(), "x", 0.0)

    @pytest.mark.parametrize("argument, bad", [
        ("axis", "w"), ("n_realizations", 2.5), ("n_realizations", 0),
        ("master_seed", -1), ("master_seed", 1.0), ("method", "median")])
    def test_bad_run_options_fail_before_any_point_runs(self, monkeypatch, argument, bad):
        def never(*args, **kwargs):
            raise AssertionError("propagate ran")

        monkeypatch.setattr(analysis, "propagate", never)
        kwargs = {"axis": "x", argument: bad}
        name = "initial_axis" if argument == "axis" else argument
        with pytest.raises(ContractError, match=name):
            sweep_tau("cpmg", [5.0, 10.0], static_model(), ErrorModel(),
                      time_budget=100.0, **kwargs)

    @pytest.mark.parametrize("family, fair, message", [
        ("cpmgx", False, "unknown family"), ("cpmgx", True, "unknown family"),
        ("fid", True, "no pulse rate")])
    def test_bad_family_fails_before_any_point_runs(self, monkeypatch, family, fair, message):
        def never(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(analysis, "propagate", never)
        monkeypatch.setattr(analysis, "compile_family", never)
        with pytest.raises(ContractError, match=message):
            sweep_tau(family, [5.0, 10.0], static_model(), ErrorModel(), "x",
                      time_budget=100.0, fair=fair)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget(self, budget):
        with pytest.raises(ContractError, match="time_budget"):
            sweep_tau("cpmg", [5.0], static_model(), ErrorModel(), "x", budget)


class TestOrderFit:
    def test_round_trip(self):
        c, b, tau_b = 0.9, -0.9, 30.0
        points = [(n, tau_b * math.exp((n - c) / b)) for n in (1, 2, 3, 4)]
        fit = fit_order_relation(points, tau_b)
        assert fit.c == pytest.approx(c, abs=1e-9)
        assert fit.b == pytest.approx(b, abs=1e-9)
        assert fit.n_points == 4

    def test_two_points_have_no_spread_estimate(self):
        fit = fit_order_relation([(1, 20.0), (2, 10.0)], 30.0)
        assert math.isnan(fit.b_sd) and math.isnan(fit.c_sd)

    def test_validation(self):
        with pytest.raises(ContractError):
            fit_order_relation([(1, 20.0)], 30.0)
        with pytest.raises(ContractError):
            fit_order_relation([(1, 20.0), (2, 10.0)], 0.0)
        with pytest.raises(ContractError):
            fit_order_relation([(1, 10.0), (2, 10.0)], 30.0)

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
    def test_non_finite_or_non_positive_delays(self, bad):
        with pytest.raises(ContractError, match="tau_b"):
            fit_order_relation([(1, 20.0), (2, 10.0)], bad)
        with pytest.raises(ContractError, match="tau_opt"):
            fit_order_relation([(1, 20.0), (2, bad)], 30.0)


def test_hahn_decay_trace_shape_and_label():
    grid = [5.0, 10.0, 20.0]
    trace = hahn_decay_trace(static_model(), grid)
    assert trace.label == "hahn-echo-curve"
    assert len(trace.times) == len(grid) + 1
    assert trace.times[0] == 0.0 and trace.s[0] == 1.0
    assert np.allclose(trace.times[1:], [2 * g for g in grid])
    # a static bath refocuses perfectly at every echo time
    assert np.allclose(trace.s, 1.0, atol=1e-12)


@pytest.mark.parametrize("grid", [[10.0, 5.0], [5.0, 5.0]])
def test_hahn_decay_trace_refuses_a_grid_that_does_not_increase(grid, monkeypatch):
    runs = []
    monkeypatch.setattr(analysis, "propagate", lambda spec: runs.append(spec))
    with pytest.raises(ContractError, match="tau_grid must be strictly increasing"):
        hahn_decay_trace(static_model(), grid)
    # the grid is checked before the first echo is run
    assert runs == []


@pytest.mark.parametrize("grid", [[], [[5.0, 6.0]], 5.0])
def test_hahn_decay_trace_refuses_an_empty_or_non_vector_grid(grid, monkeypatch):
    runs = []
    monkeypatch.setattr(analysis, "propagate", lambda spec: runs.append(spec))
    with pytest.raises(ContractError, match="tau_grid must be a non-empty 1-D grid"):
        hahn_decay_trace(static_model(), grid)
    assert runs == []


@pytest.mark.parametrize("bad", [{"tau_grid": [5.0, math.inf]}, {"tau_p": math.nan}])
def test_hahn_decay_trace_compiles_every_delay_before_any_echo_runs(bad, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an echo ran")

    monkeypatch.setattr(analysis, "propagate", never)
    # the compiler names a bad pulse length; an infinite delay fails the timeline
    with pytest.raises(ContractError if "tau_p" in bad else TimelineError):
        hahn_decay_trace(static_model(), **{"tau_grid": [5.0, 10.0], **bad})


_ECHO_ERRORS = {
    "ideal": None,
    "rf-flip": ErrorModel(rf=GaussianRf(1.0, 0.1), flip_angle_fraction=0.02),
    "jitter": ErrorModel(tilt_jitter_sd=0.15),
    "tilt": ErrorModel(axis_tilt=0.1),
}


@pytest.mark.parametrize("n_bath", [0, 3, 7])
@pytest.mark.parametrize("err", list(_ECHO_ERRORS), ids=list(_ECHO_ERRORS))
@pytest.mark.parametrize("tau_p", [0.0, 1.5])
@pytest.mark.parametrize("axis, n_realizations", [("x", 1), ("y", 4), ("z", 4), ("z", 1)])
def test_echo_curve_equals_one_run_per_delay(n_bath, err, tau_p, axis, n_realizations):
    # every delay is a row of one buffer, with each realization's pulses
    # shared by the rows; at n_bath 7 the rows also span several chunks
    grid = [4.0, 11.0, 23.0, 60.0, 140.0]
    model = default_model(seed=5, n_bath=n_bath)
    curve = hahn_decay_trace(model, grid, _ECHO_ERRORS[err], axis, tau_p, n_realizations, 9)
    runs = [propagate(RunSpec(model=model, timeline=compile_hahn(tau, tau_p),
                              error_model=_ECHO_ERRORS[err] or ErrorModel(), initial_axis=axis,
                              n_realizations=n_realizations, master_seed=9)) for tau in grid]
    for name in ("times", "s", "stderr", "n_pulses"):
        expected = np.concatenate([[getattr(runs[0], name)[0]],
                                   [getattr(run, name)[-1] for run in runs]])
        assert np.array_equal(getattr(curve, name), expected), name
    assert curve.label == "hahn-echo-curve" and curve.axis == axis


def test_echo_curve_is_one_propagate_and_one_h_free(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(analysis, "propagate", counted("propagate", analysis.propagate))
    monkeypatch.setattr(engine, "build_h_free", counted("build_h_free", engine.build_h_free))
    hahn_decay_trace(default_model(), np.linspace(5.0, 300.0, 15))
    assert calls == ["propagate", "build_h_free"]


def test_one_row_chunks_give_the_same_echo_curve(monkeypatch):
    model, grid = default_model(seed=3, n_bath=5), np.linspace(5.0, 120.0, 9)
    err = ErrorModel(rf=GaussianRf(1.0, 0.1), tilt_jitter_sd=0.1)
    chunked = hahn_decay_trace(model, grid, err, "y", 0.5, 3, 2)
    monkeypatch.setattr(engine, "_CHUNK_BYTES", 1)
    rows = []

    class Spy(frame._Accumulated):
        def __init__(self, *args):
            super().__init__(*args)
            rows.append(self._rows)

    monkeypatch.setattr(engine, "_Accumulated", Spy)
    single = hahn_decay_trace(model, grid, err, "y", 0.5, 3, 2)
    assert rows == 3 * len(grid) * [1]
    for name in ("times", "s", "stderr"):
        assert np.array_equal(getattr(single, name), getattr(chunked, name))


def test_echo_curve_chunks_build_each_realizations_pulses_once(monkeypatch):
    # at n_bath 7 a two-column 1.5 us pulse row takes more than half of a
    # 512 KB budget, so each of the 15 delays is a chunk of its own
    monkeypatch.setattr(engine, "_CHUNK_BYTES", 1 << 19)
    model, grid = default_model(), np.linspace(5.0, 300.0, 15)
    err = ErrorModel(axis_tilt=0.1)
    builds, build = [], frame._pulse_blocks

    def counted(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    chunks = []

    class Spy(frame._Accumulated):
        def __init__(self, *args):
            super().__init__(*args)
            chunks.append(self._rows)

    monkeypatch.setattr(frame, "_pulse_blocks", counted)
    monkeypatch.setattr(engine, "_Accumulated", Spy)
    curve = hahn_decay_trace(model, grid, err, "x", 1.5, 3, 2)
    assert chunks == 3 * len(grid) * [1]
    assert len(builds) == 3
    runs = [propagate(RunSpec(model=model, timeline=compile_hahn(tau, 1.5), error_model=err,
                              n_realizations=3, master_seed=2)) for tau in grid]
    for name in ("s", "stderr"):
        expected = np.concatenate([[getattr(runs[0], name)[0]],
                                   [getattr(run, name)[-1] for run in runs]])
        assert np.array_equal(getattr(curve, name), expected), name


def test_an_n_bath_7_echo_curve_of_15_delays_is_one_chunk(monkeypatch):
    # perfbench's echo_curve: all 15 rows share one buffer, and the curve is
    # the one that one-row chunks give
    model, grid = default_model(), np.linspace(5.0, 300.0, 15)
    chunks = []

    class Spy(frame._Accumulated):
        def __init__(self, *args):
            super().__init__(*args)
            chunks.append(self._rows)

    monkeypatch.setattr(engine, "_Accumulated", Spy)
    curve = hahn_decay_trace(model, grid)
    assert chunks == [15]
    monkeypatch.setattr(engine, "_CHUNK_BYTES", 1)
    single = hahn_decay_trace(model, grid)
    assert chunks[1:] == 15 * [1]
    for name in ("times", "n_pulses", "s", "stderr"):
        assert np.array_equal(getattr(single, name), getattr(curve, name)), name


def test_echo_curve_rows_read_one_net_frame(monkeypatch):
    # the rows share the pulses of the first delay, so only its recording
    # interval and net frame are formed, whatever the chunks
    frames, net_frame = [], plan._net_frame

    def counted(segments):
        frames.append(segments)
        return net_frame(segments)

    monkeypatch.setattr(plan, "_net_frame", counted)
    for budget in (engine._CHUNK_BYTES, 1):
        monkeypatch.setattr(engine, "_CHUNK_BYTES", budget)
        hahn_decay_trace(default_model(seed=3, n_bath=4), np.linspace(5.0, 120.0, 9))
    assert len(frames) == 2


def test_echo_curve_chunks_stay_within_the_budget(monkeypatch):
    chunks = []

    class Spy(frame._Accumulated):
        def __init__(self, *args):
            super().__init__(*args)
            tables = sum(p.nbytes for p in self._phases.values())
            chunks.append((self._rows, 2 * self._states[0][0].nbytes + tables))

    monkeypatch.setattr(engine, "_Accumulated", Spy)
    hahn_decay_trace(default_model(), np.linspace(5.0, 300.0, 60))
    assert sum(rows for rows, _ in chunks) == 60
    assert max(nbytes for _, nbytes in chunks) <= engine._CHUNK_BYTES
    # and a chunk is not a single row where several fit
    assert len(chunks) < 60
