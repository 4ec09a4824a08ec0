"""Time one perfbench workload in a parent tree and a change tree, in pairs.

Each pair runs perfbench/run.py once in each tree, every run in a fresh
process; odd pairs run the parent first and even pairs the change, so a
drift of the host's speed falls on both sides alike. Run from anywhere:

    python bench/pairs.py PARENT_DIR CHANGE_DIR --workload avgham_corr \\
        [--seed 37] [--pairs 10] [--seconds 3]

Both trees need perfbench/run.py; the bounds of the end-to-end metrics are
read from the change tree's BENCHMARK.json. It prints one JSON object in
the layout of the BENCH_*.json records:

- "workloads": {"W/seedS": {metric: stats}} for each lower-is-better
  end-to-end metric the runs report, where stats holds the parent's and
  the change's medians and runs, their ratio, the parent's quartile spread
  (linear quartiles) and that spread over its median, change_lower_in
  ("k of n" pairs), within_bound (the change's median at most 1 + bound
  times the parent's), resolved (the parent's spread at most bound times
  its median) and beyond_spread (the medians differ by more than the
  parent's spread);
- "failed_ops": {"W/seedS": {"parent": n, "change": n}}, summed over runs;
- "host": the BLAS, numpy, Python and CPU count the change tree's runs
  report, and "command", "order" and "method" for the record.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(tree, workload, seed, seconds):
    """One perfbench run in a fresh process: (metric values, failed ops,
    the run's provenance or None)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, env=env, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    prov = next((json.loads(line[len("provenance "):]) for line in lines
                 if line.startswith("provenance ")), None)
    return {name: m["value"] for name, m in result["metrics"].items()}, result["failed"], prov


def stats(parent, change, bound):
    """The BENCH record of one lower-is-better metric from the runs of both
    sides, pair by pair."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    out = {"parent_median": p_med, "change_median": c_med,
           "ratio": c_med / p_med if p_med else None,
           "parent_quartile_spread": q3 - q1,
           "spread_over_median": (q3 - q1) / p_med if p_med else None,
           "change_lower_in": f"{sum(map(float.__lt__, change, parent))} of {len(parent)}",
           "beyond_spread": abs(c_med - p_med) > q3 - q1}
    if bound is not None:
        out["within_bound"] = c_med <= p_med * (1 + bound)
        out["resolved"] = q3 - q1 <= bound * p_med
    return dict(out, parent_runs=list(parent), change_runs=list(change))


def host(prov):
    """The host block of a BENCH record from one run's provenance."""
    blas = prov.get("blas", {})
    return {"blas_vendor": blas.get("vendor"), "blas_version": blas.get("version"),
            "blas_threads": blas.get("threads"), "nproc": prov.get("nproc"),
            "numpy": prov.get("numpy"), "python": prov.get("python")}


def pairs(trees, workload, seed, n_pairs, seconds):
    """Run the pairs; return the record (module notes)."""
    runs = {side: [] for side in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    order, prov = [], None
    for i in range(n_pairs):
        first = SIDES[i % 2]
        order.append(f"{first} first")
        for side in (first, SIDES[1 - i % 2]):
            values, n_failed, p = run_once(trees[side], workload, seed, seconds)
            runs[side].append(values)
            failed[side] += n_failed
            if side == "change" and prov is None:
                prov = p
    spec = json.loads((pathlib.Path(trees["change"]) / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    key = f"{workload}/seed{seed}"
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if m.get("better") == "lower" and all(name in r for side in SIDES for r in runs[side]):
            metrics[name] = stats([float(r[name]) for r in runs["parent"]],
                                  [float(r[name]) for r in runs["change"]], m.get("bound"))
    return {"command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                       f"--seconds {seconds:g} --trace 0",
            "method": f"{n_pairs} pairs, each run a fresh process with "
                      f"PYTHONDONTWRITEBYTECODE=1; odd pairs run the parent first",
            "host": host(prov) if prov else None, "order": order,
            "workloads": {key: metrics}, "failed_ops": {key: failed}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=37)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0:
        parser.error("--pairs must be >= 2 (for quartiles) and --seconds > 0")
    record = pairs({"parent": args.parent, "change": args.change}, args.workload, args.seed,
                   args.pairs, args.seconds)
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
