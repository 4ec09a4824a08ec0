"""bench/pairs.py, the parent/change pair runner, driven with stub runners."""

import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "bench" / "pairs.py"

# a stand-in for perfbench/run.py: it logs its tree and process id, then
# prints a provenance line and the result line as the real runner does
STUB = '''import json, os, sys
with open({log!r}, "a", encoding="utf-8") as fh:
    fh.write(f"{side} {{os.getpid()}} {{' '.join(sys.argv[1:])}}\\n")
print("provenance " + json.dumps({{"blas": {{"vendor": "stub", "version": "0", "threads": 1}},
                                  "nproc": 1, "numpy": "2", "python": "3"}}))
print(json.dumps({{"correct": True, "attempted": 3, "failed": {failed}, "metrics": {{
    "wall_s": {{"value": {wall}, "unit": "s"}},
    "peak_rss_mb": {{"value": 40.0, "unit": "MB"}}}}}}))
'''


def _tree(root, side, log, wall, failed):
    tree = root / side
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(
        STUB.format(log=str(log), side=side, wall=wall, failed=failed), encoding="utf-8")
    bench = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.24},
                            {"name": "setup_s", "better": "lower", "bound": 0.25},
                            {"name": "peak_rss_mb", "better": "lower", "bound": 0.2}]}
    (tree / "BENCHMARK.json").write_text(json.dumps(bench), encoding="utf-8")
    return tree


def test_pairs_alternate_fresh_runs_and_summarize_them(tmp_path):
    log = tmp_path / "runs.log"
    parent = _tree(tmp_path, "parent", log, 0.02, 0)
    change = _tree(tmp_path, "change", log, 0.015, 1)
    out = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change),
                          "--workload", "avgham_corr", "--seed", "11", "--pairs", "3",
                          "--seconds", "0.5"], check=True, capture_output=True, text=True).stdout
    record = json.loads(out)
    runs = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    # which tree runs first alternates, and every run is its own process
    assert [side for side, *_ in runs] == ["parent", "change", "change", "parent",
                                          "parent", "change"]
    assert len({pid for _, pid, *_ in runs}) == 6
    assert all(args == ["--workload", "avgham_corr", "--seed", "11", "--seconds", "0.5",
                        "--trace", "0"] for _, _, *args in runs)
    assert record["order"] == ["parent first", "change first", "parent first"]
    wall = record["workloads"]["avgham_corr/seed11"]["wall_s"]
    assert wall["parent_runs"] == [0.02] * 3 and wall["change_runs"] == [0.015] * 3
    assert (wall["parent_median"], wall["change_median"]) == (0.02, 0.015)
    assert wall["ratio"] == 0.75 and wall["change_lower_in"] == "3 of 3"
    assert wall["parent_quartile_spread"] == 0.0
    assert wall["within_bound"] and wall["resolved"] and wall["beyond_spread"]
    # a metric the runner does not report is left out; a tie is no win
    rss = record["workloads"]["avgham_corr/seed11"]["peak_rss_mb"]
    assert "setup_s" not in record["workloads"]["avgham_corr/seed11"]
    assert rss["change_lower_in"] == "0 of 3" and not rss["beyond_spread"]
    assert record["failed_ops"] == {"avgham_corr/seed11": {"parent": 0, "change": 3}}
    assert record["host"] == {"blas_vendor": "stub", "blas_version": "0", "blas_threads": 1,
                              "nproc": 1, "numpy": "2", "python": "3"}
