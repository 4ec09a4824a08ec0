"""Correctness gate: per-op invariants and comparison with reference outputs.

An op passes when it did not raise, every invariant that holds for any
seed is met, and, when reference outputs exist for the seed, every value
matches them within its tolerance:

- survival values (`s`): 1e-8 absolute;
- times: 1e-9 absolute;
- every other float (decay times, tau_B, defect norms, claim norms and
  residuals, ratios): 1e-8 relative plus 1e-12 absolute, so values at the
  round-off floor compare equal;
- flags, counts, tau_opt and strings: exact.
"""

import math

S_ATOL = 1e-8
TIME_ATOL = 1e-9
REL_TOL = 1e-8
ABS_FLOOR = 1e-12
S_BOUND = 1.0 + 1e-9
CLAIM_TOL = 1e-10


def _tolerance(key, ref):
    if key == "s":
        return S_ATOL
    if key in ("time", "times"):
        return TIME_ATOL
    return REL_TOL * abs(ref) + ABS_FLOOR


def compare(got, ref, key="", path=""):
    """Yield (path, deviation, tolerance) for every number; raise on a
    structural or exact-value mismatch."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            raise ValueError(f"{path}: keys differ")
        for k in sorted(ref):
            yield from compare(got[k], ref[k], k, f"{path}.{k}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise ValueError(f"{path}: length differs")
        for i, (g, r) in enumerate(zip(got, ref)):
            yield from compare(g, r, key, f"{path}[{i}]")
    elif isinstance(ref, float) and key != "tau_opt" and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        yield path, abs(float(got) - ref), _tolerance(key, ref)
    elif got != ref or type(got) is not type(ref):
        raise ValueError(f"{path}: {got!r} != reference {ref!r}")


def _trace_ok(trace):
    s, t = trace["s"], trace["times"]
    return (abs(s[0] - 1.0) <= 1e-12 and max(abs(v) for v in s) <= S_BOUND
            and all(b > a for a, b in zip(t, t[1:])))


def invariant_problems(op_id, out, grid=()):
    """Violations of what must hold for every seed, as a list of strings."""
    problems = []
    for key, value in out.items():
        if isinstance(value, dict) and "s" in value and "times" in value:
            if not _trace_ok(value):
                problems.append(f"{key}: s(0) != 1, |s| > 1 + 1e-9 or times not increasing")
    if "s" in out and "times" in out and not _trace_ok(out):
        problems.append("s(0) != 1, |s| > 1 + 1e-9 or times not increasing")
    if op_id.startswith("echo.") and not (abs(out["s"]) <= S_BOUND and out["time"] > 0):
        problems.append("echo point out of range")
    if op_id.startswith("point."):
        reached = out["flag"] == "ok"
        if out["flag"] not in ("ok", "not_reached") or \
                reached != (out["decay_time"] is not None and out["decay_time"] > 0):
            problems.append(f"flag {out['flag']} does not match decay time {out['decay_time']}")
    if op_id == "cli":
        if out["exit_code"] != 0 or out["failures"] or out["n_points"] != len(grid):
            problems.append(f"sweep exit {out['exit_code']}, {out['failures']} failed points")
        if out["tau_opt"] not in grid:
            problems.append(f"tau_opt {out['tau_opt']} is not on the grid")
    if op_id.startswith("claim.") and not (out["pass"] and out["residual"] < CLAIM_TOL):
        problems.append(f"claim residual {out['residual']:.3e} >= {CLAIM_TOL}")
    if op_id.startswith("magnus.") and not (math.isfinite(out["defect"]) and out["defect"] >= 0):
        problems.append(f"defect {out['defect']} is not a finite norm")
    if op_id == "tau_b" and not (math.isfinite(out["value"]) and out["value"] > 0):
        problems.append(f"tau_B {out['value']} is not positive")
    return problems


class Gate:
    """Counts attempted and failed ops over a run and the largest deviation.

    `reference` maps op ids to stored outputs, or is None when the seed has
    no stored reference, in which case only the invariants are checked.
    """

    def __init__(self, op_ids, reference=None, grid=()):
        self.op_ids = tuple(op_ids)
        self.reference = reference
        self.grid = tuple(grid)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.worst = None  # (deviation / tolerance, deviation, tolerance, where)

    def _fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def record_error(self, exc):
        """A pass that raised fails every op it would have produced."""
        self.attempted += len(self.op_ids)
        for op_id in self.op_ids:
            self._fail(f"{op_id}: raised {type(exc).__name__}: {exc}")

    def record(self, outputs):
        for op_id in self.op_ids:
            self.attempted += 1
            out = outputs.get(op_id)
            if out is None:
                self._fail(f"{op_id}: missing from the outputs")
                continue
            problems = invariant_problems(op_id, out, self.grid)
            if self.reference is not None and op_id not in self.reference:
                problems.append("no reference value stored")
            elif self.reference is not None:
                try:
                    for where, dev, tol in compare(out, self.reference[op_id], path=op_id):
                        if self.worst is None or dev / tol > self.worst[0]:
                            self.worst = (dev / tol, dev, tol, where)
                        if not dev <= tol:
                            problems.append(f"{where}: off by {dev:.3e} (tolerance {tol:.1e})")
                except ValueError as exc:
                    problems.append(str(exc))
            if problems:
                self._fail(f"{op_id}: {'; '.join(problems)}")
