"""Time one fresh set-up of a workload and print the seconds it took.

    python3 perfbench/setup_probe.py WORKLOAD SEED

run.py starts this several times per run, so that importing spinbath is
timed in a fresh process each time, and reports the median.
"""

import sys

import run

if __name__ == "__main__":
    run.pin_blas_threads()
    run.import_package()
    state, seconds = run.timed_setup(sys.argv[1], int(sys.argv[2]))
    import workloads
    workloads.cleanup(state)
    print(repr(seconds))
