"""What a run will do, decided before it starts.

A run's cycle is cut into recording intervals (_recording_intervals), one
per recording instant, each with the net ideal frame of its pulses.
One-cycle runs with the same pulses, such as an echo curve's delays, may
run as rows of one buffer (_check_rows), sharing one interval whose free
steps are keyed by the rows' lengths (_row_intervals). A static run then
takes the path _plan picks by a count of multiply-adds: long cpmg runs and
the FID power, one-cycle echoes step, and many-pulse cycles over a few
cycles take interval products.
"""

from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .frame import _interval_key, _shape
from .pulses import ideal_frame

# _plan: what one numpy call costs beyond its arithmetic, in real
# multiply-adds, and a real eigh of width N, in N^3 multiply-adds (a
# complex one counts 4x); both fitted to forced-path timings (BENCH_28.json)
_CALL_COST = 2e4
_EIG_COST = 15

# pulse ends closer than this are one recording instant
_SAME_INSTANT = 1e-12


def _plan(intervals, n_cycles, columns, rows, widths, weights, built=False):
    """The path of a static run, "powered", "products" or "steps", whichever
    costs least by a count of real multiply-adds over the kept sectors
    (_Layout: their `widths` C and `weights`), plus _CALL_COST per numpy call
    and _EIG_COST N^3 per eigh of width N. It reads no array.

    Both direct paths carry B = D T columns (`rows` D, `columns` T) and pay,
    per interval and cycle, a Gram (2B sum C^3 and 4 D T^2 vdots) and the
    free steps (8B sum C^2 each). Stepping applies each delta pulse (4B sum
    C^3 in one product per width, and six scalar passes) and each finite
    pulse (16B sum C^3, one product per sector). Products build each
    distinct interval's product from the frame's identity (B = 2), unless
    `built`, and apply one full block per sector (16B sum C^3) per interval
    and cycle. Only a run of one row and one interval with a scalar net
    frame may power: it builds the cycle product, diagonalizes each block
    (none for a pulseless cycle), reads its weights, and sums a series of
    N^2 per cycle. The blocks are N = 2C wide; under a spin flip (a weight
    of 2) they count as real, as for the palindromes, and the middle
    sector's (weight 1) splits into two C wide. A powered run that falls
    back is planned again `built`.
    """
    c2, c3 = (sum(c ** p for c in widths) for p in (2, 3))
    b, sectors, groups, paired = rows * columns, len(widths), len(set(widths)), 2 in weights

    # numpy calls: a free step 1, a delta pulse 6 and one per width, a block
    # product 3 per sector, a Gram 4 and its vdots and mixings, a product's
    # buffer and copies 5 per sector, a powered block about 120 (BENCH_28)
    def applied(segments, b):
        return sum(8 * b * c2 + _CALL_COST if kind == "free" else
                   16 * b * c3 + 3 * sectors * _CALL_COST if p.duration > 0 else
                   4 * b * c3 + 24 * b * c2 + (groups + 6) * _CALL_COST
                   for kind, p in segments)

    gram = (2 * b * c3 + 16 * rows * columns ** 2 * c2
            + (4 * rows * columns ** 2 + groups + 4) * _CALL_COST)
    distinct = {_interval_key(iv.segments): iv.segments for iv in intervals}
    build = 0 if built else sum(applied(segments, 2) + 5 * sectors * _CALL_COST
                                for segments in distinct.values())
    costs = {"steps": n_cycles * sum(applied(iv.segments, b) + gram for iv in intervals),
             "products": build + n_cycles * len(intervals) * (
                 16 * b * c3 + 3 * sectors * _CALL_COST + gram)}
    if not built and rows == 1 and len(intervals) == 1 and intervals[0].frame is None:
        blocks = [n for c, m in zip(widths, weights)
                  for n in ([c, c] if paired and m == 1 else [2 * c])]
        pulsed = any(kind == "pulse" for kind, _ in intervals[0].segments)
        # _unitary_eig's eigh and its sandwiches, correction and Newton-Schulz
        # step, then the weights' sandwich: real products, or complex ones
        n3 = ((_EIG_COST + 11) * pulsed + 4 if paired else
              (4 * _EIG_COST + 28) * pulsed + 16)
        costs["powered"] = build + sum(n3 * n ** 3 + 2 * n_cycles * n * n + 120 * _CALL_COST
                                       for n in blocks)
    return min(costs, key=costs.get)


class _Interval(NamedTuple):
    """Segments of a cycle up to the recording instant `end`, the cycle's
    pulse count there, and the net ideal frame of its pulses (a 2x2 system
    rotation, or None when it is a scalar)."""

    segments: list
    end: float
    n_pulses: int
    frame: object


def _net_frame(segments):
    frame = ideal_frame(p for kind, p in segments if kind == "pulse")
    scalar = frame[0, 0]
    if abs(abs(scalar) - 1.0) < 1e-12 and \
            float(np.max(np.abs(frame - scalar * np.eye(2)))) < 1e-12:
        return None
    return frame


def _recording_intervals(timeline, record):
    """Timeline.segments() cut after each recording instant of the cycle.

    Both modes record at the cycle end; every_pulse also records at the
    end of each pulse. Pulses that end within 1e-12 of each other share
    the instant of the last one, and a pulse ending at the cycle start is
    no instant of its own, so s(0) stays the prepared state.
    """
    segments = timeline.segments()
    # (index of the segment that closes it, time) per candidate instant
    cuts = []
    if record == "every_pulse":
        cuts = [(i, p.end_time) for i, (kind, p) in enumerate(segments)
                if kind == "pulse" and p.end_time > _SAME_INSTANT]
    cuts.append((len(segments) - 1, timeline.cycle_time))
    intervals, first, n = [], 0, 0
    for (last, end), (_, next_end) in zip(cuts, cuts[1:] + [(None, np.inf)]):
        if next_end - end <= _SAME_INSTANT:
            continue
        pieces = segments[first:last + 1]
        n += sum(kind == "pulse" for kind, _ in pieces)
        intervals.append(_Interval(pieces, end, n, _net_frame(pieces)))
        first = last + 1
    return intervals


def _check_rows(spec, tl, rows, runs):
    """Raise a ContractError unless the one-cycle Timelines `rows` may run as
    rows of one buffer with spec's timeline `tl`: recorded at
    cycle_boundaries, with its pulses in order (`runs`, the segment lists of
    `tl` and each row) and ever longer cycles."""
    if rows and (spec.record != "cycle_boundaries" or {t.n_cycles for t in (tl, *rows)} != {1}
                 or any(a.cycle_time >= b.cycle_time for a, b in zip((tl, *rows), rows))
                 or len({tuple(kind if kind == "free" else _shape(p) for kind, p in segments)
                         for segments in runs}) > 1):
        raise ContractError("rows need one-cycle timelines recorded at cycle_boundaries, with "
                            "the pulses of spec.timeline in order and ever longer cycles")


def _row_intervals(intervals, rows):
    """A one-cycle run's one recording interval and net frame, for `rows` with its
    pulses (segment lists), with each free step keyed by the tuple of their lengths."""
    (first,) = intervals
    return [first._replace(segments=[
        (kind, tuple(segments[i][1] for segments in rows) if kind == "free" else p)
        for i, (kind, p) in enumerate(first.segments)])]
