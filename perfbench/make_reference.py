"""Record reference outputs of every workload for the stored seeds.

    python3 perfbench/make_reference.py

Runs one pass of each workload per seed with the benchmark's pinned BLAS
thread count and writes perfbench/reference.json. Run it only when the
physics is meant to change; the benchmark compares every pass against it.
"""

import json
import os
import sys

import run

# 37 is the calibrated default bath (and --seed's default); 11 is held out.
SEEDS = (37, 11)

if __name__ == "__main__":
    threads, _ = run.pin_blas_threads()
    run.import_package()
    import spinbath
    import workloads
    seeds = {}
    for seed in SEEDS:
        seeds[str(seed)] = {}
        for name in workloads.NAMES:
            state = run.fresh_state(name, seed)
            try:
                seeds[str(seed)][name] = workloads.run_pass(state)
            finally:
                workloads.cleanup(state)
            print(f"seed {seed} {name}: {len(seeds[str(seed)][name])} ops", file=sys.stderr)
    payload = {"spinbath": spinbath.__version__, "git_commit": run.git_commit(),
               "blas_threads": threads, "seeds": seeds}
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
