"""Command-line front end: outputs, determinism, exit codes."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import kron_oracle as oracle
from spinbath import CLAIM_IDS, average_hamiltonian, build_h_e, estimate_tau_b, evolve
from spinbath.analysis import compile_family
from spinbath.cli import _family_path, build_parser, main
from spinbath.config import load_config, model_from_config

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


def test_sweep_bytes_do_not_depend_on_thread_count(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP.replace("rf_sd = 0.1", "rf_sd = 0.1\ntilt_jitter_rad = 0.15"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--csv", str(a), "--threads", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--csv", str(b), "--threads", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.parametrize("path, expected", [
    ("sweep.csv", "sweep.cpmg.csv"),
    ("./sweep", "./sweep.cpmg"),
    ("out/run.v2/sweep", "out/run.v2/sweep.cpmg"),
    ("out/run.v2/sweep.csv", "out/run.v2/sweep.cpmg.csv"),
])
def test_family_path_tags_the_file_name_only(path, expected):
    assert _family_path(path, "cpmg", True) == expected
    assert _family_path(path, "cpmg", False) == path


def test_sweep_checks_family_names_before_running(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP)
    assert main(["sweep", "--config", cfg, "--families", "cpmg,xy8",
                 "--csv", str(tmp_path / "x.csv"), "--json", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "'xy8'" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_bad_error_channels_are_errors(tmp_path, capsys):
    for line in ("tilt_jitter_rad = -0.15", "rf_sd = -0.1"):
        cfg = write_cfg(tmp_path, SIM + "\n[errors]\nrf_distribution = gaussian\n"
                        + line + "\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_sweep_requires_grid_and_budget(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM)
    assert main(["sweep", "--config", cfg]) == 2
    assert "tau_grid_us" in capsys.readouterr().err
    for budget in ("0", "-5"):
        cfg = write_cfg(tmp_path, SWEEP.replace("time_budget_us = 400",
                                                f"time_budget_us = {budget}"))
        assert main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err == ("config error: sweep needs "
                                           "sequence.time_budget_us > 0\n")


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


@pytest.mark.parametrize("command, text", [
    ("simulate", SIM), ("corr", SMALL_BATH + "\n[sequence]\ntime_budget_us = 500\n"),
    ("sweep", SWEEP)])
def test_a_csv_without_a_path_goes_to_stdout_with_no_summary(tmp_path, capsys, command, text):
    cfg = write_cfg(tmp_path, text)
    csv = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--csv", str(csv)]) == 0
    summary = capsys.readouterr().out
    assert summary.startswith(f"{command}: ") and summary.count("\n") == 1
    assert main([command, "--config", cfg]) == 0
    assert capsys.readouterr().out == csv.read_text(encoding="utf-8")


def test_corr_matches_the_dense_oracle(tmp_path):
    # Tr{A U^dag A U} / Tr{A^2} with U = exp(-i H_E t) from evolve on the
    # full space; corr's grid is also model_tau_b's first grid
    cfg = write_cfg(tmp_path, SMALL_BATH.replace("n_bath = 3", "n_bath = 4"))
    csv = tmp_path / "corr.csv"
    assert main(["corr", "--config", cfg, "--csv", str(csv),
                 "--json", str(tmp_path / "corr.json")]) == 0
    lines = csv.read_text().splitlines()
    tau_b = float(next(l for l in lines if l.startswith("# tau_b_us=")).split("=")[1])
    rows = np.array([[float(x) for x in l.split(",")] for l in lines if l[0].isdigit()])
    m = model_from_config(load_config(cfg))
    h_e, ops = build_h_e(m), oracle.full_space(m.n_bath)
    observables = [np.sum(ops.ix, axis=0), *ops.iz]
    direct = np.empty((rows.shape[0], len(observables)))
    for row, t in zip(direct, rows[:, 0]):
        u = evolve(h_e, t).matrix
        row[:] = [np.real(np.trace(a @ u.conj().T @ a @ u) / np.trace(a @ a))
                  for a in observables]
    iz_mean = direct[:, 1:].mean(axis=1)
    assert np.max(np.abs(rows[:, 1] - direct[:, 0])) < 1e-12
    assert np.max(np.abs(rows[:, 2] - iz_mean)) < 1e-12
    est = estimate_tau_b(iz_mean, rows[:, 0])
    assert est.reached and "# tau_b_reached=True" in lines
    assert tau_b == pytest.approx(est.value, rel=1e-12)


@pytest.mark.parametrize("family, errors", [
    ("pdd", ""), ("cpmg", ""),
    ("cpmg", "[errors]\nflip_angle_fraction = 0.04\naxis_tilt_rad = 0.03\n"),
], ids=["pdd", "cpmg", "cpmg-errored"])
def test_avgham_norms_match_the_dense_oracle(tmp_path, capsys, family, errors):
    sequence = f"[sequence]\nfamily = {family}\ntau_us = 13\n"
    cfg = write_cfg(tmp_path, SMALL_BATH + sequence + errors)
    js = tmp_path / "avg.json"
    assert main(["avgham", "--config", cfg, "--json", str(js)]) == 0
    assert "h0_minus_bath_norm" in capsys.readouterr().out
    report = json.loads(js.read_text())
    assert report["pulse_model"] == ("errored" if errors else "ideal")
    # the cycle toggled on the full space, with kron-embedded frames and kicks
    c = load_config(cfg)
    m, tl = model_from_config(c), compile_family(family, 13.0, 0.0, 1, 2, 4)
    h_e, h_se = oracle.h_e(m), oracle.h_se(m)
    err = c.error_model if errors else None
    h0, h1 = average_hamiltonian(oracle.toggling_frames(tl, h_se + h_e, err))
    expected = {"h0_norm": h0, "h1_norm": h1, "h0_minus_bath_norm": h0 - h_e,
                "h_free_norm": h_se + h_e}
    # an ideal cpmg or four-pulse cycle leaves H0 - H_E at round-off, compared
    # relative to the largest norm of the report
    scale = max(float(np.linalg.norm(a)) for a in expected.values())
    for key, a in expected.items():
        assert report[key] == pytest.approx(np.linalg.norm(a), rel=1e-12, abs=1e-12 * scale)


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
    # every claim residual sits at round-off and prints as the bound
    claims = [c for c in report["checks"] if c["check"] in CLAIM_IDS]
    assert [c["detail"] for c in claims] == ["residual<1e-13 (tol=1e-10)"] * 3


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


@pytest.mark.parametrize("row, tau_b", [("2,0", "30"), ("2,nan", "30"), ("2,5", "nan"),
                                        ("2,5", "inf"), ("2,5", "-1")])
def test_fit_rejects_bad_delays(tmp_path, capsys, row, tau_b):
    points = tmp_path / "points.csv"
    points.write_text(f"order,tau_opt_us\n1,20\n{row}\n", encoding="utf-8")
    assert main(["fit", "--points", str(points), "--tau-b", tau_b]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_thread_count_below_one_is_usage_error(tmp_path, command, threads, capsys):
    cfg = write_cfg(tmp_path, SWEEP)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--threads", threads])
    assert exc.value.code == 2
    assert "--threads: must be >= 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_module_entry_point_help():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "spinbath.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    for name in ("simulate", "sweep", "corr", "avgham", "verify", "fit"):
        assert name in proc.stdout
