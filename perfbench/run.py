"""spinbath benchmark: time to solution, set-up time and peak memory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for sizes and why each was chosen):
noisy_sweep, static_scaling, echo_curve, avgham_corr.

With --trace 0 the run repeats the workload's timed calls back to back for
S seconds and reports the end-to-end metrics:

- wall_s: median wall seconds of one pass of the workload's timed calls;
- setup_s: median seconds to import spinbath and build the models and
  timelines the calls consume, over seven fresh processes (this one and
  six children);
- peak_rss_mb: peak resident memory of this process.

With --trace 1 it spends half of S untraced and half with spans wrapped
around spinbath's public functions from outside the package (spans.py),
and reports per-layer metrics plus trace.overhead_ratio. Every pass, traced
or not, goes through the correctness gate (checks.py); ops that raise or
miss the stored reference (reference.json) count as failed. Seeds without
a stored reference are checked against the invariants only.

The BLAS thread count is pinned before numpy loads. Provenance goes to
stdout and, with the spans of a traced run, to .bench_build/perfbench/.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# Two BLAS threads (capped at the CPUs this process may use): on the 2-core
# machine the benchmark was tuned on, one thread ran about 1.5x slower on
# static_scaling and its wall_s varied more from run to run.
BLAS_THREADS = 2
SETUP_SAMPLES = 7

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def pin_blas_threads():
    try:
        ncpu = len(os.sched_getaffinity(0))
    except AttributeError:
        ncpu = os.cpu_count() or 1
    threads = max(1, min(BLAS_THREADS, ncpu))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, ncpu


def import_package():
    """Put the checkout's src/ first on sys.path; fail when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "spinbath", "__init__.py")):
        sys.stderr.write(f"perfbench: no spinbath package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


def fresh_state(name, seed):
    import workloads
    return dict(workloads.setup(name, seed, ROOT), seed=seed)


def timed_setup(name, seed):
    """Import spinbath and set up the workload; return (state, seconds)."""
    t0 = time.perf_counter()
    state = fresh_state(name, seed)
    return state, time.perf_counter() - t0


def setup_samples(name, seed, first):
    samples = [first]
    probe = os.path.join(HERE, "setup_probe.py")
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run([sys.executable, probe, name, str(seed)], check=True,
                             capture_output=True, text=True, timeout=120, cwd=ROOT)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def one_pass(state, gate):
    """Make the workload's timed calls once, check them; return seconds."""
    import workloads
    t0 = time.perf_counter()
    try:
        outputs = workloads.run_pass(state)
    except Exception as exc:  # noqa: BLE001 - a failed pass is a result
        wall = time.perf_counter() - t0
        traceback.print_exc()
        gate.record_error(exc)
        return wall
    wall = time.perf_counter() - t0
    gate.record(outputs)
    return wall


def run_passes(state, gate, seconds, tracer=None):
    """Repeat passes for `seconds`; return pass times and, when traced, the
    spans of each pass, whose set-up is then redone and traced too."""
    walls, span_sets = [], []
    t_end = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            state = fresh_state(state["name"], state["seed"])
        walls.append(one_pass(state, gate))
        if tracer is not None:
            span_sets.append(tracer.take())
        if time.perf_counter() >= t_end:
            return walls, span_sets


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def blas_info():
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"vendor": deps.get("name"), "version": deps.get("version")}
    except Exception:  # noqa: BLE001 - provenance is best effort
        return {"vendor": None, "version": None}


def provenance(args, threads, ncpu, state):
    import numpy as np
    import spinbath
    return {"spinbath": spinbath.__version__, "git_commit": git_commit(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": dict(blas_info(), threads=threads), "nproc": ncpu,
            "workload": args.workload, "seed": args.seed,
            "n_bath": state["n_bath"], "dense_dim": state["dim"],
            "closed_loop": "one caller, threads=1"}


# "<layer>.<calls|s|self_s>", read straight from the span totals.
SPAN_METRICS = (
    "operators.Propagator.calls", "operators.Propagator.s",
    "operators.evolve.calls", "operators.evolve.s",
    "operators.build_operator_set.s", "hamiltonians.default_model.s",
    "hamiltonians.build_h_free.calls", "hamiltonians.build_h_free.s",
    "hamiltonians.build_h_e.calls", "hamiltonians.build_h_e.s",
    "pulses.real_pulse.calls", "pulses.real_pulse.s",
    "pulses.ideal_pulse.calls", "pulses.ideal_pulse.s",
    "sequences.compile.calls", "sequences.compile.s",
    "engine.propagate.calls", "engine.propagate.s", "engine.propagate.self_s",
    "engine.bath_correlation.self_s",
    "linalg.eigh.calls", "linalg.eigh.s", "linalg.eig.calls", "linalg.eig.s",
    "linalg.inv.calls", "linalg.inv.s",
    "analysis.sweep_tau.self_s", "analysis.hahn_decay_trace.self_s",
    "analysis.decay_time.calls", "analysis.decay_time.s",
    "avgham.toggling_frames.calls", "avgham.toggling_frames.self_s",
    "avgham.average_hamiltonian.s", "avgham.magnus_defect.self_s",
    "avgham.verify_claim.s",
    "config.load_config.s", "config.model_from_config.s", "cli.main.self_s",
)


def layer_metrics(span_sets, untraced_wall, traced_walls):
    """Per-layer metrics (median over traced passes of per-pass values)
    and the number of pulse applications in one pass."""
    import spans as sp
    per_pass = []
    for spans in span_sets:
        totals = sp.layer_totals(spans)
        counts = sp.engine_counts(spans)
        values = {}
        for name in SPAN_METRICS:
            layer, field = name.rsplit(".", 1)
            values[name] = totals.get(layer, {}).get(field, 0)
        apps = counts["pulse_applications"]
        values.update({
            "pulses.builds_per_application":
                counts["real_pulse_builds"] / apps if apps else 0.0,
            "engine.realization_cycles": counts["realization_cycles"],
            "engine.realization_cycles_per_s": counts["realization_cycles"] / untraced_wall,
            "engine.dense_dim_max": counts["dense_dim_max"],
            "linalg.eigh.dim3_sum": counts["dim3"].get("linalg.eigh", 0),
            "linalg.eig.dim3_sum": counts["dim3"].get("linalg.eig", 0),
        })
        per_pass.append(values)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / untraced_wall
    return metrics, apps


def unit_of(name):
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("ratio", "per_application")):
        return "ratio"
    return "count"


def write_result(name, payload):
    import workloads
    path = os.path.join(workloads.work_dir(ROOT), name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=37)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    threads, ncpu = pin_blas_threads()
    import_package()
    try:
        state, first_setup = timed_setup(args.workload, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    import checks
    import workloads

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    ref_ops = reference["seeds"].get(str(args.seed), {}).get(args.workload)
    gate = checks.Gate(workloads.op_ids(args.workload), ref_ops, workloads.SWEEP_GRID)
    prov = provenance(args, threads, ncpu, state)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if ref_ops is None:
        print(f"reference comparison skipped: no stored reference for seed {args.seed} "
              f"(stored: {', '.join(sorted(reference['seeds']))}); invariants only")

    try:
        # The first pass grows the heap and faults in pages; it is checked
        # but not timed.
        warmup = one_pass(state, gate)
        if args.trace == 0:
            walls, _ = run_passes(state, gate, args.seconds)
            setups = setup_samples(args.workload, args.seed, first_setup)
            wall = statistics.median(walls)
            metrics = {
                "wall_s": {"value": wall, "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
            detail = {"warmup_s": warmup, "pass_walls_s": walls, "setup_samples_s": setups}
        else:
            import spans
            walls, _ = run_passes(state, gate, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_walls, span_sets = run_passes(state, gate, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            wall = statistics.median(walls)
            layers, applications = layer_metrics(span_sets, wall, traced_walls)
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
            print(f"pulses.builds_per_application base: {applications} pulse "
                  f"applications per pass")
            detail = {"warmup_s": warmup, "pass_walls_s": walls,
                      "traced_pass_walls_s": traced_walls}
            write_result(f"spans-{args.workload}-seed{args.seed}.json",
                         [spans.to_records(s) for s in span_sets])
    finally:
        workloads.cleanup(state)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"passes: {len(walls)}; ops attempted {gate.attempted}, failed {gate.failed} "
          f"(failed_ops_ratio {gate.failed / max(gate.attempted, 1):.3g})")
    if gate.worst is not None:
        ratio, dev, tol, where = gate.worst
        print(f"largest deviation from reference: {dev:.3e} at {where} "
              f"(tolerance {tol:.1e}, {ratio:.2g} of it)")
    for problem in gate.problems:
        print(f"FAILED {problem}")
    write_result(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
                 {"provenance": prov, "metrics": metrics, "attempted": gate.attempted,
                  "failed": gate.failed, "problems": gate.problems, **detail})
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
