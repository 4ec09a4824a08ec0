"""Command-line front end: outputs, determinism, exit codes."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

from spinbath.cli import build_parser, main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SMALL_BATH = """\
[bath]
n_bath = 3
b_scale_khz = 2.0
d_scale_khz = 2.0
coupling_seed = 5
"""

SIM = SMALL_BATH + """
[sequence]
family = cpmg
tau_us = 20.0
n_cycles = 5

[run]
initial_axis = y
"""

SWEEP = SMALL_BATH + """
[sequence]
family = cpmg
tau_grid_us = 10, 20
time_budget_us = 400

[errors]
rf_distribution = gaussian
rf_sd = 0.1

[run]
n_realizations = 4
master_seed = 3
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_simulate_writes_csv_and_json(tmp_path):
    cfg = write_cfg(tmp_path, SIM)
    csv = tmp_path / "out.csv"
    js = tmp_path / "out.json"
    assert main(["simulate", "--config", cfg, "--csv", str(csv),
                 "--json", str(js)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "# tool=spinbath"
    assert any(line.startswith("# fingerprint=") for line in lines)
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "time_us,n_pulses,s,stderr"
    data = [line for line in lines if not line.startswith("#")][1:]
    assert len(data) == 6  # t=0 plus five cycle boundaries
    report = json.loads(js.read_text())
    assert report["command"] == "simulate"
    assert report["pulses_per_cycle"] == 2
    assert -1.0 <= report["final_s"] <= 1.0


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, SIM)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--csv", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_override_changes_noisy_runs(tmp_path):
    noisy = SIM + "\n[errors]\nrf_distribution = gaussian\nrf_sd = 0.1\n"
    cfg = write_cfg(tmp_path, noisy)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--csv", str(a), "--seed", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--csv", str(b), "--seed", "2"]) == 0
    strip = lambda p: [l for l in p.read_text().splitlines()
                       if not l.startswith("#")]
    assert strip(a) != strip(b)


def test_dump_timeline(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM)
    assert main(["simulate", "--config", cfg, "--dump-timeline"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# timeline cpmg")
    assert "tau_c_us=40" in out


def test_sweep_per_family_files_and_summary(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP)
    csv = tmp_path / "sweep.csv"
    js = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--families", "cpmg,pdd",
                 "--csv", str(csv), "--json", str(js)]) == 0
    summary = json.loads(js.read_text())
    assert set(summary["families"]) == {"cpmg", "pdd"}
    for family in ("cpmg", "pdd"):
        per = tmp_path / f"sweep.{family}.csv"
        lines = per.read_text().splitlines()
        assert f"# family={family}" in lines
        assert "tau_us,tau_c_us,decay_time_us,method,flag" in lines
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 2
        info = summary["families"][family]
        assert info["tau_opt_us"] in (10.0, 20.0)
        assert info["failures"] == []


def test_sweep_checks_family_names_before_running(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP)
    assert main(["sweep", "--config", cfg, "--families", "cpmg,xy8",
                 "--csv", str(tmp_path / "x.csv"), "--json", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "'xy8'" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_sweep_requires_grid_and_budget(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM)
    assert main(["sweep", "--config", cfg]) == 2
    assert "tau_grid_us" in capsys.readouterr().err


def test_corr_outputs_tau_b(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BATH + "\n[sequence]\ntime_budget_us = 500\n")
    csv = tmp_path / "corr.csv"
    js = tmp_path / "corr.json"
    assert main(["corr", "--config", cfg, "--csv", str(csv),
                 "--json", str(js)]) == 0
    lines = csv.read_text().splitlines()
    assert any(line.startswith("# tau_b_us=") for line in lines)
    assert "time_us,ix_total,iz_mean" in lines
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 800
    first = rows[0].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0)
    report = json.loads(js.read_text())
    assert report["tau_b_us"] > 0


def test_avgham_reports_norms(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_BATH + "\n[sequence]\nfamily = pdd\ntau_us = 10\n")
    js = tmp_path / "avg.json"
    assert main(["avgham", "--config", cfg, "--json", str(js)]) == 0
    out = capsys.readouterr().out
    assert "h0_minus_bath_norm" in out
    report = json.loads(js.read_text())
    # an ideal four-pulse block removes the coupling at leading order
    assert report["h0_minus_bath_norm"] < 1e-10
    assert report["pulse_model"] == "ideal"


def test_avgham_refuses_finite_pulses(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_BATH + "\n[pulses]\ntau_p_us = 1.0\n")
    assert main(["avgham", "--config", cfg]) == 2
    assert "delta pulses" in capsys.readouterr().err


def test_verify_passes_and_reports(tmp_path, capsys):
    js = tmp_path / "verify.json"
    assert main(["verify", "--json", str(js)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "cdd-pulse-counts" in out
    report = json.loads(js.read_text())
    assert report["all_pass"] is True
    assert len(report["checks"]) >= 6


def test_verify_fails_on_wrong_pdd_cycle_time(monkeypatch, capsys):
    import spinbath.cli as cli
    from spinbath import Timeline

    monkeypatch.setattr(cli, "compile_pdd",
                        lambda tau, tau_p: Timeline((), 4 * (tau + tau_p) + 1.0))
    assert main(["verify"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL")]
    assert len(fails) == 1 and "cycle-time-anchors" in fails[0]


def test_fit_round_trip(tmp_path, capsys):
    import math
    points = tmp_path / "points.csv"
    rows = ["order,tau_opt_us"]
    for n in (1, 2, 3):
        rows.append(f"{n},{30.0 * math.exp((n - 0.9) / -0.9)}")
    points.write_text("\n".join(rows) + "\n", encoding="utf-8")
    js = tmp_path / "fit.json"
    assert main(["fit", "--points", str(points), "--tau-b", "30",
                 "--json", str(js)]) == 0
    report = json.loads(js.read_text())
    assert report["c"] == pytest.approx(0.9, abs=1e-9)
    assert report["b"] == pytest.approx(-0.9, abs=1e-9)
    assert "c =" in capsys.readouterr().out


def test_fit_usage_errors(tmp_path, capsys):
    assert main(["fit", "--tau-b", "30"]) == 2
    assert main(["fit", "--points", "nowhere.csv"]) == 2
    capsys.readouterr()


def test_bad_config_path_is_io_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("simulate", {"--config", "--seed", "--threads", "--csv", "--json", "--dump-timeline"}),
    ("sweep", {"--config", "--seed", "--threads", "--csv", "--json", "--fair", "--families"}),
    ("corr", {"--config", "--csv", "--json"}),
    ("avgham", {"--config", "--json"}),
    ("verify", {"--json"}),
    ("fit", {"--points", "--tau-b", "--json"}),
])
def test_each_subcommand_declares_only_the_flags_it_reads(command, flags):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    declared = {s for a in subparsers.choices[command]._actions for s in a.option_strings}
    assert declared - {"-h", "--help"} == flags


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "1"],
    ["corr", "--config", "run.cfg", "--threads", "2"],
    ["avgham", "--config", "run.cfg", "--csv", "x"],
    ["fit", "--seed", "1"],
])
def test_flags_a_subcommand_ignores_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_negative_seed_is_usage_error(tmp_path, command, capsys):
    cfg = write_cfg(tmp_path, SWEEP)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--seed", "-4"])
    assert exc.value.code == 2
    assert "--seed: must be >= 0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_module_entry_point_help():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "spinbath.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    for name in ("simulate", "sweep", "corr", "avgham", "verify", "fit"):
        assert name in proc.stdout
