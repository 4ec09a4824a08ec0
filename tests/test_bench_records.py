"""Every committed benchmark record states what it measured, against which
commit and on which host: no number, no claim."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
HOST_KEYS = ("blas_vendor", "blas_version", "blas_threads", "nproc", "numpy", "python")


def test_the_repo_commits_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_benchmark_record_states_change_parent_claim_and_host(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("change", "parent_commit"):
        assert record.get(key) not in (None, ""), key
    # a record that claims no gain says so, as "nothing" or null
    assert "claimed" in record
    host = record.get("host")
    assert isinstance(host, dict)
    assert [key for key in HOST_KEYS if host.get(key) in (None, "")] == []
