"""Decay extraction, fair comparisons, delay sweeps, and the order fit."""

import math

import numpy as np
import pytest

import spinbath.analysis as analysis
from spinbath import (
    ContractError,
    ErrorModel,
    SurvivalTrace,
    build_model,
    compile_family,
    decay_time,
    envelope,
    fair_tau,
    fit_order_relation,
    hahn_decay_trace,
    sweep_tau,
)


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
        ("master_seed", -1), ("master_seed", 1.0), ("threads", 0), ("threads", "2"),
        ("method", "median")])
    def test_bad_run_options_fail_before_any_point_runs(self, monkeypatch, argument, bad):
        def never(*args, **kwargs):
            raise AssertionError("propagate ran")

        monkeypatch.setattr(analysis, "propagate", never)
        kwargs = {"axis": "x", argument: bad}
        name = "initial_axis" if argument == "axis" else argument
        with pytest.raises(ContractError, match=name):
            sweep_tau("cpmg", [5.0, 10.0], static_model(), ErrorModel(),
                      time_budget=100.0, **kwargs)

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
