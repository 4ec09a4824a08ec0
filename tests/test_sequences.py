"""Sequence compilation: timing bookkeeping for every pulse family."""

import numpy as np
import pytest

from spinbath import (
    ContractError,
    TimelineError,
    compile_cdd,
    compile_cpmg,
    compile_family,
    compile_free,
    compile_hahn,
    compile_pdd,
    compile_udd,
    cycle_stats,
    dump_timeline,
    validate_timeline,
)
from spinbath.sequences import TIME_ATOL, PulseEvent, Timeline

TAU_P = 10.4


def test_free_timeline_has_no_events():
    tl = compile_free(120.0, n_cycles=3)
    assert tl.events == ()
    assert tl.cycle_time == 120.0
    assert tl.n_cycles == 3
    assert validate_timeline(tl) == []


def test_hahn_layout():
    tl = compile_hahn(30.0, TAU_P)
    assert tl.cycle_time == pytest.approx(2 * 30.0 + TAU_P)
    assert tl.pulses_per_cycle == 1
    ev = tl.events[0]
    assert ev.axis == "y"
    assert ev.start_time == pytest.approx(30.0)
    assert ev.nominal_angle == pytest.approx(np.pi)
    assert validate_timeline(tl) == []


def test_cpmg_layout_and_variants():
    tl = compile_cpmg(30.0, TAU_P)
    assert tl.cycle_time == pytest.approx(2 * 30.0 + 2 * TAU_P)
    assert tl.pulses_per_cycle == 2
    # half delay, pulse, full delay, pulse, half delay
    assert tl.events[0].start_time == pytest.approx(15.0)
    assert tl.events[1].start_time == pytest.approx(15.0 + TAU_P + 30.0)
    assert [ev.axis for ev in tl.events] == ["y", "y"]

    assert [ev.axis for ev in compile_cpmg(30.0, variant="cp").events] == ["x", "x"]
    assert [ev.axis for ev in compile_cpmg(30.0, variant="cpmg2").events] == ["y", "-y"]
    with pytest.raises(ContractError):
        compile_cpmg(30.0, variant="carr")


def test_pdd_layout():
    tl = compile_pdd(40.0, TAU_P)
    assert tl.cycle_time == pytest.approx(4 * (40.0 + TAU_P))
    assert tl.pulses_per_cycle == 4
    assert [ev.axis for ev in tl.events] == ["x", "y", "x", "y"]
    pieces = tl.segments()
    assert [kind for kind, _ in pieces] == ["free", "pulse"] * 4
    assert all(dt == pytest.approx(40.0) for kind, dt in pieces if kind == "free")
    assert validate_timeline(tl) == []


def test_cdd_pulse_counts_follow_recursion():
    # N_n = 4 N_{n-1} + 4
    expected = {1: 4, 2: 20, 3: 84, 4: 340}
    for order, count in expected.items():
        tl = compile_cdd(order, 5.0, 0.0)
        assert tl.pulses_per_cycle == count


def test_cdd_order_one_is_pdd():
    a = compile_cdd(1, 17.0, TAU_P)
    b = compile_pdd(17.0, TAU_P)
    assert a.cycle_time == pytest.approx(b.cycle_time)
    assert [ev.axis for ev in a.events] == [ev.axis for ev in b.events]
    assert np.allclose([ev.start_time for ev in a.events],
                       [ev.start_time for ev in b.events])


def test_cdd_cycle_time_formulas():
    assert compile_cdd(2, 30.0, TAU_P).cycle_time == pytest.approx(16 * 30.0 + 20 * TAU_P)
    assert compile_cdd(3, 10.0, TAU_P).cycle_time == pytest.approx(64 * 10.0 + 84 * TAU_P)


def test_udd_fractional_times():
    # t_i = tau_c sin^2(pi i / (2N + 2))
    tl = compile_udd(4, 100.0)
    fracs = [ev.start_time / 100.0 for ev in tl.events]
    expected = [np.sin(np.pi * i / 10.0) ** 2 for i in range(1, 5)]
    assert np.allclose(fracs, expected, atol=1e-12)
    assert all(ev.axis == "y" for ev in tl.events)


def test_udd_low_orders_reduce_to_named_sequences():
    # one pulse: the Hahn echo layout
    u1 = compile_udd(1, 60.0)
    h = compile_hahn(30.0)
    assert u1.cycle_time == pytest.approx(h.cycle_time)
    assert u1.events[0].start_time == pytest.approx(h.events[0].start_time)
    # two pulses: CPMG spacing
    u2 = compile_udd(2, 80.0)
    c = compile_cpmg(40.0)
    assert u2.cycle_time == pytest.approx(c.cycle_time)
    assert np.allclose([ev.start_time for ev in u2.events],
                       [ev.start_time for ev in c.events], atol=1e-12)


def test_finite_pulse_udd_keeps_instants():
    # pulses begin at the ideal instants when widths are finite
    tl = compile_udd(3, 200.0, tau_p=4.0)
    starts = [ev.start_time for ev in tl.events]
    expected = [200.0 * np.sin(np.pi * i / 8.0) ** 2 for i in range(1, 4)]
    assert np.allclose(starts, expected, atol=1e-12)


def _compile_named(name, tau_p):
    if name[:3] in ("cdd", "udd"):
        n = int(name[3:])
        return compile_family(name[:3], 30.0, tau_p, order=n, udd_pulses=n)
    return compile_family(name, 30.0, tau_p)


@pytest.mark.parametrize("tau_p", [0.0, TAU_P])
@pytest.mark.parametrize("name", ["hahn", "cp", "cpmg", "cpmg2", "pdd", "cdd1", "cdd2",
                                  "cdd3", "udd1", "udd2", "udd3", "udd4"])
def test_segments_walk_one_cycle(name, tau_p):
    tl = _compile_named(name, tau_p)
    pieces = tl.segments()
    total = sum(p.duration if kind == "pulse" else p for kind, p in pieces)
    assert abs(total - tl.cycle_time) <= 1e-9
    assert [p for kind, p in pieces if kind == "pulse"] == list(tl.events)
    assert all(dt > TIME_ATOL for kind, dt in pieces if kind == "free")
    kinds = [kind for kind, _ in pieces]
    assert ("free", "free") not in zip(kinds, kinds[1:])
    # a free piece separates two pulses exactly when they do not touch
    touching = [b.start_time - a.end_time <= TIME_ATOL
                for a, b in zip(tl.events, tl.events[1:])]
    assert list(zip(kinds, kinds[1:])).count(("pulse", "pulse")) == sum(touching)
    if name.startswith("cdd"):
        order = int(name[3:])
        assert cycle_stats(tl).free_periods == 4**order
        assert any(touching) == (order > 1)


def test_cycle_stats():
    tl = compile_pdd(40.0, TAU_P)
    st = cycle_stats(tl)
    assert st.tau_c == pytest.approx(tl.cycle_time)
    assert st.pulses_per_cycle == 4
    assert st.avg_pulses_per_unit_time == pytest.approx(4 / tl.cycle_time)
    assert st.free_periods == 4


def test_rejects_unphysical_parameters():
    with pytest.raises(ContractError):
        compile_hahn(-1.0)
    with pytest.raises(TimelineError):
        compile_cpmg(10.0, tau_p=-0.5)
    with pytest.raises(ContractError):
        compile_cdd(0, 10.0)
    with pytest.raises(ContractError):
        compile_udd(0, 50.0)
    with pytest.raises(TimelineError):
        compile_free(0.0)
    # pulses that would not fit into the delays
    with pytest.raises((ContractError, TimelineError)):
        compile_udd(6, 10.0, tau_p=5.0)


@pytest.mark.parametrize("compile_with, name, expect", [
    (lambda n: compile_free(5.0, n_cycles=n), "n_cycles", (3, "fid")),
    (lambda n: compile_hahn(5.0, n_cycles=n), "n_cycles", (3, "hahn")),
    (lambda n: compile_cpmg(5.0, n_cycles=n), "n_cycles", (3, "cpmg")),
    (lambda n: compile_pdd(5.0, n_cycles=n), "n_cycles", (3, "pdd")),
    (lambda n: compile_cdd(n, 5.0), "order", (1, "cdd3")),
    (lambda n: compile_cdd(2, 5.0, n_cycles=n), "n_cycles", (3, "cdd2")),
    (lambda n: compile_udd(n, 50.0), "n_pulses", (1, "udd3")),
    (lambda n: compile_udd(4, 50.0, n_cycles=n), "n_cycles", (3, "udd4")),
], ids=["free", "hahn", "cpmg", "pdd", "cdd-order", "cdd", "udd-pulses", "udd"])
def test_compilers_reject_counts_that_are_no_integers(compile_with, name, expect):
    # a float count used to be truncated: 2.9 cycles ran 2, cdd2.5 was cdd2
    for bad in (2.9, 2.0, True, "3"):
        with pytest.raises(ContractError, match=f"{name} must be an integer"):
            compile_with(bad)
    tl = compile_with(np.int64(3))
    assert type(tl.n_cycles) is int
    assert (tl.n_cycles, tl.label) == expect


def test_rejects_non_finite_timelines():
    for bad in (np.nan, np.inf):
        with pytest.raises(TimelineError, match="cycle_time"):
            Timeline((), bad)
    with pytest.raises(TimelineError, match="cycle_time"):
        compile_cpmg(np.nan, 0.0, 3)
    with pytest.raises(TimelineError) as exc:
        Timeline((PulseEvent(np.nan, "y", np.pi, 0.0), PulseEvent(20.0, "y", np.pi, np.inf),
                  PulseEvent(40.0, "x", np.nan, 0.0)), 60.0, 3)
    assert str(exc.value) == ("event 0 has non-finite start_time; "
                              "event 1 has non-finite duration; "
                              "event 2 has non-finite nominal_angle")


@pytest.mark.parametrize("events, message", [
    ((PulseEvent(-1.0, "y", np.pi, 0.0),), "event 0 starts before 0 (t=-1.0)"),
    ((PulseEvent(1.0, "x", np.pi, 2.0), PulseEvent(2.0, "y", np.pi, 0.0)),
     "event 1 at t=2.0 overlaps the previous event ending at 3.0"),
    ((PulseEvent(9.0, "y", np.pi, 2.0),), "event 0 ends at 11.0, past the cycle time 10.0"),
], ids=["start-before-0", "overlap", "end-past-cycle"])
def test_rejects_events_outside_their_cycle(events, message):
    with pytest.raises(TimelineError) as exc:
        Timeline(events, 10.0)
    assert str(exc.value) == message


def test_rejects_a_timeline_of_no_cycles():
    with pytest.raises(TimelineError, match=r"^n_cycles must be >= 1, got 0$"):
        Timeline((), 10.0, n_cycles=0)


@pytest.mark.parametrize("compile_with, message", [
    (lambda: compile_pdd(0.0), "tau must be > 0, got 0.0"),
    (lambda: compile_cdd(2, -3.0), "tau must be > 0, got -3.0"),
    (lambda: compile_udd(4, 0.0), "cycle_time must be > 0, got 0.0"),
], ids=["pdd", "cdd", "udd"])
def test_compilers_reject_delays_that_are_not_positive(compile_with, message):
    with pytest.raises(ContractError) as exc:
        compile_with()
    assert str(exc.value) == message


def test_rejects_unknown_pulse_axes():
    for axis in ("z", "q"):
        with pytest.raises(TimelineError) as exc:
            Timeline((PulseEvent(5.0, axis, np.pi, 1.0),), 20.0)
        assert str(exc.value) == f"event 0 has unknown axis {axis!r}"


def test_dump_timeline_text():
    text = dump_timeline(compile_cpmg(30.0, TAU_P))
    lines = text.splitlines()
    assert lines[0] == "# timeline cpmg"
    assert any("tau_c_us=80.8" in line for line in lines)
    # one row per pulse with axis and start
    rows = [line for line in lines if not line.startswith("#")]
    assert len(rows) == 2
    assert rows[0].split()[1] == "y"
