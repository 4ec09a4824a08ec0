"""Decoupling sequence compiler: one cycle of timed pulse events.

A Timeline holds the events of a single cycle plus the cycle time tau_c and
a repetition count; repeating a cycle M times is exactly M time-translated
copies of the one-cycle event list. All start times are pulse onsets, so a
finite pulse occupies [start, start + duration] and the last event must
close at or before tau_c.

Families follow the standard conventions. Echo: f_tau Y f_tau. Equidistant
trains: f_{tau/2} Y f_tau Y f_{tau/2} per cycle, with the two-pulse phase
pattern selecting the plain train (both +y), the alternating variant
(+y, -y), or x pulses. The four-pulse block f X f Y f X f Y repeats as the
periodic train, and nesting that block into itself n times gives the
concatenated family with 4^n free periods and N_n = 4 N_{n-1} + 4 pulses.
The variable-spacing family places pulse i at tau_c sin^2(pi i / (2N + 2)).

Timeline.segments is the one walk of a cycle into free gaps and pulses. A
count (n_cycles, the concatenation order, the number of variable-spacing
pulses) must be an integer, numpy integers included (util.require_int).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, TimelineError
from .pulses import PULSE_AXES
from .util import fmt, require_int

TIME_ATOL = 1e-9
CPMG_VARIANTS = ("cp", "cpmg", "cpmg2")


@dataclass(frozen=True)
class PulseEvent:
    """One pulse: onset time within the cycle, axis, angle, duration (us)."""

    start_time: float
    axis: str
    nominal_angle: float
    duration: float

    @property
    def end_time(self):
        return self.start_time + self.duration


@dataclass(frozen=True, eq=False)
class Timeline:
    """One compiled cycle and its repetition count, valid once built: an
    unsound cycle (see validate_timeline) raises TimelineError, and an
    n_cycles that is no integer (util.require_int) a ContractError."""

    events: tuple
    cycle_time: float
    n_cycles: int = 1
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if not (math.isfinite(self.cycle_time) and self.cycle_time > 0):
            raise TimelineError(f"cycle_time must be finite and > 0, got {self.cycle_time}")
        object.__setattr__(self, "n_cycles", int(require_int(self.n_cycles, "n_cycles")))
        if self.n_cycles < 1:
            raise TimelineError(f"n_cycles must be >= 1, got {self.n_cycles}")
        problems = validate_timeline(self)
        if problems:
            raise TimelineError("; ".join(problems))

    @property
    def pulses_per_cycle(self):
        return len(self.events)

    def segments(self):
        """One cycle as ('free', dt) and ('pulse', event) pieces in time order.

        Free gaps of at most TIME_ATOL are dropped, so back-to-back pulses
        meet without a free piece between them.
        """
        pieces = []
        cursor = 0.0
        for ev in self.events:
            gap = ev.start_time - cursor
            if gap > TIME_ATOL:
                pieces.append(("free", gap))
            pieces.append(("pulse", ev))
            cursor = ev.end_time
        tail = self.cycle_time - cursor
        if tail > TIME_ATOL:
            pieces.append(("free", tail))
        return pieces


def validate_timeline(tl):
    """Return a list of violation strings; empty means the timeline is sound."""
    problems = []
    cursor = -math.inf  # the first event has no previous one to overlap
    for i, ev in enumerate(tl.events):
        if ev.axis not in PULSE_AXES:
            problems.append(f"event {i} has unknown axis {ev.axis!r}")
        bad = [name for name in ("start_time", "nominal_angle", "duration")
               if not math.isfinite(getattr(ev, name))]
        if bad:
            problems.append(f"event {i} has non-finite {', '.join(bad)}")
            continue
        if ev.start_time < -TIME_ATOL:
            problems.append(f"event {i} starts before 0 (t={ev.start_time})")
        if ev.duration < 0:
            problems.append(f"event {i} has negative duration {ev.duration}")
        if ev.start_time < cursor - TIME_ATOL:
            problems.append(
                f"event {i} at t={ev.start_time} overlaps the previous event ending at {cursor}"
            )
        cursor = max(cursor, ev.end_time)
        if ev.end_time > tl.cycle_time + TIME_ATOL:
            problems.append(
                f"event {i} ends at {ev.end_time}, past the cycle time {tl.cycle_time}"
            )
    return problems


def compile_free(cycle_time, n_cycles=1, label="fid"):
    """Free evolution: an empty cycle of the given duration."""
    return Timeline((), float(cycle_time), n_cycles, label)


def compile_hahn(tau, tau_p=0.0, n_cycles=1):
    """Single echo: delay tau, one pi pulse about y, delay tau.

    The cycle time is 2 tau + tau_p and the echo forms at the cycle end.
    """
    tau, tau_p = float(tau), float(tau_p)
    if tau <= 0:
        raise ContractError(f"tau must be > 0, got {tau}")
    events = (PulseEvent(tau, "y", np.pi, tau_p),)
    return Timeline(events, 2.0 * tau + tau_p, n_cycles, "hahn")


def compile_cpmg(tau, tau_p=0.0, n_cycles=1, variant="cpmg"):
    """Equidistant two-pulse cycle f_{tau/2} P2 f_tau P1 f_{tau/2}.

    variant 'cpmg' uses +y, +y pulses (train parallel to a y-prepared
    state); 'cpmg2' alternates +y, -y; 'cp' uses x pulses, i.e. the train
    perpendicular to a y-prepared state. Cycle time 2 tau + 2 tau_p.
    """
    tau, tau_p = float(tau), float(tau_p)
    if tau <= 0:
        raise ContractError(f"tau must be > 0, got {tau}")
    if variant not in CPMG_VARIANTS:
        raise ContractError(f"variant must be one of {CPMG_VARIANTS}, got {variant!r}")
    axes = {"cp": ("x", "x"), "cpmg": ("y", "y"), "cpmg2": ("y", "-y")}[variant]
    events = (
        PulseEvent(0.5 * tau, axes[0], np.pi, tau_p),
        PulseEvent(1.5 * tau + tau_p, axes[1], np.pi, tau_p),
    )
    return Timeline(events, 2.0 * tau + 2.0 * tau_p, n_cycles, variant)


def _four_block(symbols):
    """One nesting step: block + X + block + Y + block + X + block + Y."""
    return symbols + ["x"] + symbols + ["y"] + symbols + ["x"] + symbols + ["y"]


def _events_from_symbols(symbols, tau, tau_p):
    events = []
    t = 0.0
    for sym in symbols:
        if sym == "f":
            t += tau
        else:
            events.append(PulseEvent(t, sym, np.pi, tau_p))
            t += tau_p
    return tuple(events), t


def compile_pdd(tau, tau_p=0.0, n_cycles=1):
    """Periodic four-pulse cycle; pulse pattern in time order is X Y X Y.

    Cycle time 4 (tau + tau_p); the four free periods all have length tau.
    """
    tau, tau_p = float(tau), float(tau_p)
    if tau <= 0:
        raise ContractError(f"tau must be > 0, got {tau}")
    events, total = _events_from_symbols(_four_block(["f"]), tau, tau_p)
    return Timeline(events, total, n_cycles, "pdd")


def compile_cdd(order, tau, tau_p=0.0, n_cycles=1):
    """Concatenated sequence of the given nesting order (1 <= order <= 5).

    Order 1 coincides with the periodic four-pulse cycle. Each nesting
    multiplies the free periods by four and takes the pulse count through
    N_n = 4 N_{n-1} + 4, so tau_c = 4^n tau + N_n tau_p. Pulses meeting at
    block boundaries stay as separate back-to-back events.
    """
    order = int(require_int(order, "order"))
    if not 1 <= order <= 5:
        raise ContractError(f"concatenation order must be in 1..5, got {order}")
    tau, tau_p = float(tau), float(tau_p)
    if tau <= 0:
        raise ContractError(f"tau must be > 0, got {tau}")
    symbols = ["f"]
    for _ in range(order):
        symbols = _four_block(symbols)
    events, total = _events_from_symbols(symbols, tau, tau_p)
    return Timeline(events, total, n_cycles, f"cdd{order}")


def compile_udd(n_pulses, cycle_time, tau_p=0.0, n_cycles=1):
    """Variable-spacing cycle: pulse i starts at tau_c sin^2(pi i / (2N+2)).

    All pulses are pi rotations about y. For finite tau_p the onsets keep
    the closed form, so neighboring pulses must not overlap and the last
    pulse must end by tau_c; violations raise TimelineError.
    """
    n_pulses = int(require_int(n_pulses, "n_pulses"))
    if n_pulses < 1:
        raise ContractError(f"n_pulses must be >= 1, got {n_pulses}")
    cycle_time, tau_p = float(cycle_time), float(tau_p)
    if cycle_time <= 0:
        raise ContractError(f"cycle_time must be > 0, got {cycle_time}")
    if cycle_time <= n_pulses * tau_p:
        raise TimelineError(
            f"cycle_time {cycle_time} cannot hold {n_pulses} pulses of {tau_p} us"
        )
    i = np.arange(1, n_pulses + 1)
    starts = cycle_time * np.sin(np.pi * i / (2.0 * n_pulses + 2.0)) ** 2
    events = tuple(PulseEvent(float(t), "y", np.pi, tau_p) for t in starts)
    return Timeline(events, cycle_time, n_cycles, f"udd{n_pulses}")


@dataclass(frozen=True)
class CycleStats:
    """Bookkeeping for one cycle.

    avg_delay is the total free time divided by the number of positive
    free periods; avg_pulses_per_unit_time is pulses_per_cycle / tau_c.
    """

    tau_c: float
    pulses_per_cycle: int
    avg_pulses_per_unit_time: float
    avg_delay: float
    free_periods: int


def cycle_stats(tl):
    """Compute CycleStats for a timeline's single cycle."""
    gaps = [dt for kind, dt in tl.segments() if kind == "free"]
    free_total = sum(gaps)
    n_pulses = tl.pulses_per_cycle
    return CycleStats(
        tau_c=tl.cycle_time,
        pulses_per_cycle=n_pulses,
        avg_pulses_per_unit_time=n_pulses / tl.cycle_time,
        avg_delay=free_total / len(gaps) if gaps else 0.0,
        free_periods=len(gaps),
    )


def dump_timeline(tl):
    """Line-oriented text dump: header plus one `t_start axis angle duration` row."""
    lines = [
        f"# timeline {tl.label}",
        f"# tau_c_us={fmt(tl.cycle_time)} n_cycles={tl.n_cycles} pulses_per_cycle={tl.pulses_per_cycle}",
        "# t_start_us axis angle_rad duration_us",
    ]
    for ev in tl.events:
        lines.append(f"{fmt(ev.start_time)} {ev.axis} {fmt(ev.nominal_angle)} {fmt(ev.duration)}")
    return "\n".join(lines) + "\n"
