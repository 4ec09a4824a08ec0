"""The benchmark's four workloads: set-up, one timed pass, and its ops.

Every workload is a closed loop: one caller issues its calls back to back
in one process with threads=1. `setup` builds the models and timelines the
calls consume (importing this module imports spinbath); `run_pass` makes
the timed calls and returns their outputs as plain Python data, grouped
into ops (one sweep point, echo point, run or analysis call each), so a
result can be compared against stored reference values op by op.

The workload seed sets every coupling_seed and master_seed the calls use.
Sizes are chosen so that one pass takes a few seconds on a 2-core machine
and costs about the same for every seed; only avgham_corr varies, by a few
percent, because the size of bath_correlation's phase table depends on the
couplings.
"""

import contextlib
import csv
import io
import json
import os

import numpy as np

import spinbath as sb
import spinbath.cli  # noqa: F401 - bound as sb.cli, looked up at call time

# CLI sweep in the shape of the noisy-CPMG acceptance sweep: tilt jitter
# rebuilds every pulse and every cycle propagator, so the work sits in the
# engine's dense per-cycle products, Propagator checks and real_pulse.
SWEEP_CONFIG = """\
[bath]
n_bath = 7
coupling_seed = {seed}

[errors]
rf_distribution = gaussian
rf_mean = 1.0
rf_sd = 0.10
tilt_jitter_rad = 0.15

[sequence]
family = cpmg
tau_grid_us = 5..80:15
time_budget_us = 1000

[run]
initial_axis = y
n_realizations = 1
master_seed = {seed}
"""
SWEEP_GRID = tuple(5.0 + 15.0 * i for i in range(6))

# Static errors take the powered path: build_h_e and eig/inv of the cycle
# propagator dominate and grow with the dense dimension 2^(n+1).
STATIC_N_BATH = (6, 7, 8)
STATIC_TAU_US = 30.0
STATIC_CYCLES = 100
STATIC_REALIZATIONS = 2

# Many short one-cycle runs on one model: per-call set-up dominates.
ECHO_DELAYS_US = tuple(np.linspace(5.0, 300.0, 15))
FID_STEP_US = 4.0
FID_CYCLES = 100

# The only workload through avgham and engine.bath_correlation.
AVGHAM_CDD_ORDERS = (1, 2)
AVGHAM_TAU_US = 5.0

NAMES = ("noisy_sweep", "static_scaling", "echo_curve", "avgham_corr")


def work_dir(root):
    path = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def setup(name, seed, root):
    """Build what the timed calls of workload `name` consume.

    Raises ValueError for an unknown workload name.
    """
    if name == "noisy_sweep":
        base = os.path.join(work_dir(root), f"noisy_sweep-{os.getpid()}")
        with open(base + ".cfg", "w", encoding="utf-8") as fh:
            fh.write(SWEEP_CONFIG.format(seed=seed))
        return {"name": name, "config": base + ".cfg", "csv": base + ".csv",
                "json": base + ".json", "n_bath": 7, "dim": 2**8}
    if name == "static_scaling":
        err = sb.ErrorModel(rf=sb.GaussianRf(1.0, 0.10), flip_angle_fraction=0.02)
        specs = []
        for n in STATIC_N_BATH:
            model = sb.default_model(seed=seed, n_bath=n)
            tl = sb.compile_cpmg(STATIC_TAU_US, 0.0, STATIC_CYCLES)
            specs.append(sb.RunSpec(model=model, timeline=tl, error_model=err,
                                    initial_axis="x",
                                    n_realizations=STATIC_REALIZATIONS,
                                    master_seed=seed))
        return {"name": name, "specs": specs, "n_bath": max(STATIC_N_BATH),
                "dim": 2 ** (max(STATIC_N_BATH) + 1)}
    if name == "echo_curve":
        model = sb.default_model(seed=seed)
        fid = sb.RunSpec(model=model, timeline=sb.compile_free(FID_STEP_US, FID_CYCLES))
        return {"name": name, "model": model, "fid": fid,
                "n_bath": model.n_bath, "dim": model.ops.dim}
    if name == "avgham_corr":
        model = sb.default_model(seed=seed)
        timelines = [sb.compile_cdd(order, AVGHAM_TAU_US) for order in AVGHAM_CDD_ORDERS]
        return {"name": name, "model": model, "timelines": timelines, "seed": seed,
                "n_bath": model.n_bath, "dim": model.ops.dim}
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def _num(x):
    """Float, or None for NaN, so outputs stay strict JSON."""
    x = float(x)
    return None if np.isnan(x) else x


def _trace(trace):
    return {"times": trace.times.tolist(), "s": trace.s.tolist()}


def _decay(summary):
    return {"decay_time": _num(summary.decay_time), "reached": summary.reached}


def _noisy_sweep(state):
    argv = ["sweep", "--config", state["config"], "--csv", state["csv"],
            "--json", state["json"]]
    with contextlib.redirect_stdout(io.StringIO()):
        code = sb.cli.main(argv)
    with open(state["json"], encoding="utf-8") as fh:
        summary = json.load(fh)["families"]["cpmg"]
    with open(state["csv"], encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    ops = {f"point.tau{float(r['tau_us']):g}": {
        "decay_time": _num(r["decay_time_us"]), "flag": r["flag"]} for r in rows}
    ops["cli"] = {"exit_code": code, "tau_opt": summary["tau_opt_us"],
                  "n_points": summary["n_points"], "failures": len(summary["failures"])}
    return ops


def _static_scaling(state):
    return {f"run.n{spec.model.n_bath}": _trace(sb.propagate(spec))
            for spec in state["specs"]}


def _echo_curve(state):
    model = state["model"]
    echo = sb.hahn_decay_trace(model, ECHO_DELAYS_US)
    fid = sb.propagate(state["fid"])
    echo_decay, fid_decay = sb.decay_time(echo), sb.decay_time(fid)
    points = zip(echo.times.tolist()[1:], echo.s.tolist()[1:])
    ops = {f"echo.{i:02d}": {"time": t, "s": s} for i, (t, s) in enumerate(points, 1)}
    ops["fid"] = _trace(fid)
    ops["decay"] = {"echo_trace": _trace(echo), "echo": _decay(echo_decay),
                    "fid": _decay(fid_decay),
                    "ratio": _num(echo_decay.decay_time / fid_decay.decay_time)}
    return ops


def _avgham_corr(state):
    model = state["model"]
    h_free = sb.build_h_free(model)
    ops = {}
    for tl in state["timelines"]:
        ops[f"magnus.{tl.label}"] = {"defect": sb.magnus_defect(tl, h_free, model.ops)}
    for claim in sb.CLAIM_IDS:
        report = sb.verify_claim(claim, {"seed": state["seed"]})
        ops[f"claim.{claim}"] = {"residual": report["residual"], "pass": report["pass"],
                                 "norms": report["norms"]}
    tau_b = sb.model_tau_b(model)
    ops["tau_b"] = {"value": tau_b.value, "reached": tau_b.reached}
    return ops


_PASSES = {"noisy_sweep": _noisy_sweep, "static_scaling": _static_scaling,
           "echo_curve": _echo_curve, "avgham_corr": _avgham_corr}

def op_ids(name):
    """Ids of the ops one pass of workload `name` produces, in order."""
    return {
        "noisy_sweep": [f"point.tau{t:g}" for t in SWEEP_GRID] + ["cli"],
        "static_scaling": [f"run.n{n}" for n in STATIC_N_BATH],
        "echo_curve": [f"echo.{i:02d}" for i in range(1, len(ECHO_DELAYS_US) + 1)]
                      + ["fid", "decay"],
        "avgham_corr": [f"magnus.cdd{o}" for o in AVGHAM_CDD_ORDERS]
                       + [f"claim.{c}" for c in sb.CLAIM_IDS] + ["tau_b"],
    }[name]


def run_pass(state):
    """Make the workload's timed calls; return {op id: output}."""
    return _PASSES[state["name"]](state)


def cleanup(state):
    for key in ("config", "csv", "json"):
        if key in state:
            with contextlib.suppress(FileNotFoundError):
                os.remove(state[key])
