"""Batch command-line front-end.

Subcommands: simulate (one survival run), sweep (decay time vs delay),
corr (bath correlation and its 1/e time), avgham (leading average-
Hamiltonian terms), verify (claims and bookkeeping checks), fit (decay
order against normalized optimal delay). Results go to CSV and JSON files
named in the config [output] section or by --csv/--json flags; every
output embeds the config fingerprint.

Exit codes: 0 success, 1 a verified claim or check failed, 2 usage or
configuration error.
"""

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .analysis import SEQUENCE_FAMILIES, compile_family, fit_order_relation, sweep_tau
from .avgham import CLAIM_IDS, _cycle_norms, residual_text, verify_claim
from .config import load_config, model_from_config
from .engine import RunSpec, bath_correlation, model_tau_b, propagate
from .errors import ConfigError, ContractError, SpinBathError
from .sequences import (compile_cdd, compile_cpmg, compile_hahn, compile_pdd, compile_udd,
                        dump_timeline)
from .util import fmt, write_csv


def _write_json(path, command, payload, cfg=None):
    """Write `payload` with its `command`, and the fingerprint of `cfg` when
    one is given, to `path`; an empty path writes nothing."""
    if not path:
        return
    payload = dict(payload, command=command)
    if cfg is not None:
        payload["fingerprint"] = cfg.fingerprint()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_target(path):
    """A context manager giving the file at `path` opened for writing, closed
    on exit, or stdout, left open, when the path is empty."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _resolved_seed(cfg, args):
    return cfg.master_seed if args.seed is None else args.seed


def _compile_from_config(cfg, n_cycles=None):
    return compile_family(cfg.family, cfg.tau, cfg.tau_p,
                          cfg.n_cycles if n_cycles is None else n_cycles,
                          cfg.order, cfg.udd_pulses)


def cmd_simulate(args):
    cfg = load_config(args.config)
    tl = _compile_from_config(cfg)
    if args.dump_timeline:
        sys.stdout.write(dump_timeline(tl))
        return 0
    model = model_from_config(cfg)
    seed = _resolved_seed(cfg, args)
    spec = RunSpec(model=model, timeline=tl, error_model=cfg.error_model,
                   initial_axis=cfg.initial_axis, n_realizations=cfg.n_realizations,
                   master_seed=seed, record=cfg.record)
    trace = propagate(spec)
    meta = {
        "tool": "spinbath", "command": "simulate", "fingerprint": cfg.fingerprint(),
        "label": tl.label, "axis": cfg.initial_axis, "tau_c_us": fmt(tl.cycle_time),
        "n_realizations": cfg.n_realizations, "master_seed": seed,
    }
    csv_path = args.csv or cfg.csv_path
    with _csv_target(csv_path) as fh:
        trace.to_csv(fh, meta)
    _write_json(args.json or cfg.json_path, "simulate", {
        "label": tl.label, "axis": cfg.initial_axis,
        "tau_c_us": tl.cycle_time, "n_cycles": tl.n_cycles,
        "pulses_per_cycle": tl.pulses_per_cycle, "master_seed": seed,
        "final_time_us": float(trace.times[-1]), "final_s": float(trace.s[-1]),
    }, cfg)
    if csv_path:
        print(f"simulate: {tl.label} axis={cfg.initial_axis} "
              f"final s={trace.s[-1]:.6f} at t={trace.times[-1]:.3f} us")
    return 0


def _sweep_one(cfg, family, seed, fair):
    model = model_from_config(cfg)
    return sweep_tau(
        family, cfg.tau_grid, model, cfg.error_model, cfg.initial_axis,
        cfg.time_budget, tau_p=cfg.tau_p, order=cfg.order,
        udd_pulses=cfg.udd_pulses, n_realizations=cfg.n_realizations,
        master_seed=seed, method=cfg.method, fair=fair)


def _family_path(path, family, many):
    if not (path and many):
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}.{family}{ext}"


def cmd_sweep(args):
    cfg = load_config(args.config)
    if not cfg.tau_grid:
        raise ConfigError("sweep needs sequence.tau_grid_us")
    if cfg.time_budget <= 0:
        raise ConfigError("sweep needs sequence.time_budget_us > 0")
    families = [f.strip() for f in args.families.split(",")] if args.families \
        else [cfg.family]
    unknown = [f for f in families if f not in SEQUENCE_FAMILIES]
    if unknown:
        raise ContractError(
            f"--families: unknown {', '.join(map(repr, unknown))}; "
            f"expected names from {', '.join(SEQUENCE_FAMILIES)}")
    fair = args.fair or cfg.fair
    seed = _resolved_seed(cfg, args)
    many = len(families) > 1
    summary = {"fair": fair, "master_seed": seed, "families": {}}
    for family in families:
        result = _sweep_one(cfg, family, seed, fair)
        csv_path = _family_path(args.csv or cfg.csv_path, family, many)
        with _csv_target(csv_path) as fh:
            write_csv(fh, {"tool": "spinbath", "command": "sweep", "family": family,
                           "fingerprint": cfg.fingerprint(), "master_seed": seed,
                           "fair": str(fair).lower()},
                      "tau_us,tau_c_us,decay_time_us,method,flag",
                      ((fmt(s.tau), fmt(s.tau_c), fmt(s.decay_time), s.method,
                        "ok" if s.reached else "not_reached") for s in result.summaries))
        summary["families"][family] = {
            "tau_opt_us": result.tau_opt,
            "n_points": len(result.summaries),
            "failures": [{"tau_us": t, "error": msg} for t, msg in result.failures],
        }
        if csv_path:
            print(f"sweep: {family} tau_opt={result.tau_opt:g} us "
                  f"({len(result.failures)} failed points)")
    _write_json(args.json or cfg.json_path, "sweep", summary, cfg)
    return 0


def cmd_corr(args):
    cfg = load_config(args.config)
    model = model_from_config(cfg)
    horizon = cfg.time_budget if cfg.time_budget > 0 else 2000.0
    t_grid = np.linspace(0.0, horizon, 800)
    ix = bath_correlation(model, t_grid, which="ix_total")
    iz = bath_correlation(model, t_grid, which="iz_mean")
    est = model_tau_b(model)
    csv_path = args.csv or cfg.csv_path
    with _csv_target(csv_path) as fh:
        write_csv(fh, {"tool": "spinbath", "command": "corr", "fingerprint": cfg.fingerprint(),
                       "tau_b_us": fmt(est.value), "tau_b_reached": est.reached},
                  "time_us,ix_total,iz_mean", (map(fmt, row) for row in zip(t_grid, ix, iz)))
    _write_json(args.json or cfg.json_path, "corr", {
        "tau_b_us": est.value, "tau_b_reached": est.reached, "horizon_us": horizon,
    }, cfg)
    if csv_path:
        print(f"corr: tau_B={est.value:.3f} us (reached={est.reached})")
    return 0


def cmd_avgham(args):
    cfg = load_config(args.config)
    if cfg.tau_p > 0:
        raise ConfigError("avgham needs delta pulses; set pulses.tau_p_us=0")
    model = model_from_config(cfg)
    tl = _compile_from_config(cfg, n_cycles=1)
    err = None if cfg.error_model.is_trivial else cfg.error_model
    report = {
        "label": tl.label, "tau_c_us": tl.cycle_time,
        "pulse_model": "ideal" if err is None else "errored",
        **_cycle_norms(tl, model, err),
    }
    for key in ("h0_norm", "h1_norm", "h0_minus_bath_norm", "h_free_norm"):
        print(f"{key} = {report[key]:.6e}")
    _write_json(args.json or cfg.json_path, "avgham", report, cfg)
    return 0


def _bookkeeping_checks():
    """Structural checks on compiled timelines (counts and layouts)."""
    checks = []

    counts = {n: compile_cdd(n, 10.0, 0.0).pulses_per_cycle for n in (1, 2, 3, 4)}
    checks.append(("cdd-pulse-counts",
                   counts == {1: 4, 2: 20, 3: 84, 4: 340},
                   f"N1..N4 = {counts[1]}, {counts[2]}, {counts[3]}, {counts[4]}"))

    anchors = (
        ("cpmg", compile_cpmg(30.0, 10.4).cycle_time, 80.8),
        ("pdd", compile_pdd(40.0, 10.4).cycle_time, 201.6),
        ("pdd", compile_pdd(70.0, 10.4).cycle_time, 321.6),
        ("cdd2", compile_cdd(2, 30.0, 10.4).cycle_time, 688.0),
        ("cdd3", compile_cdd(3, 10.0, 10.4).cycle_time, 1513.6),
    )
    ok = all(abs(got - want) <= 0.1 for _, got, want in anchors)
    checks.append(("cycle-time-anchors", ok,
                   "; ".join(f"{name} {got:.1f}/{want:.1f}" for name, got, want in anchors)))

    tau = 17.0
    udd1 = compile_udd(1, 2 * tau, 0.0)
    hahn = compile_hahn(tau, 0.0)
    ok1 = (abs(udd1.cycle_time - hahn.cycle_time) < 1e-9
           and abs(udd1.events[0].start_time - hahn.events[0].start_time) < 1e-9)
    udd2 = compile_udd(2, 2 * tau, 0.0)
    cpmg = compile_cpmg(tau, 0.0)
    ok2 = (abs(udd2.cycle_time - cpmg.cycle_time) < 1e-9 and all(
        abs(a.start_time - b.start_time) < 1e-9 and a.axis == b.axis
        for a, b in zip(udd2.events, cpmg.events)))
    checks.append(("udd1-is-hahn", ok1, f"pulse at {udd1.events[0].start_time:g}"))
    checks.append(("udd2-is-cpmg", ok2,
                   f"pulses at {', '.join(f'{e.start_time:g}' for e in udd2.events)}"))
    return checks


def cmd_verify(args):
    rows, all_ok = [], True
    for claim_id in CLAIM_IDS:
        report = verify_claim(claim_id)
        rows.append({"check": claim_id, "pass": report["pass"],
                     "detail": f"{residual_text(report['residual'], '.3e')} "
                               f"(tol={report['tolerance']:g})"})
        all_ok &= report["pass"]
    for name, ok, detail in _bookkeeping_checks():
        rows.append({"check": name, "pass": ok, "detail": detail})
        all_ok &= ok
    width = max(len(r["check"]) for r in rows)
    for r in rows:
        mark = "PASS" if r["pass"] else "FAIL"
        print(f"{mark}  {r['check']:<{width}}  {r['detail']}")
    _write_json(args.json, "verify", {"all_pass": all_ok, "checks": rows})
    return 0 if all_ok else 1


def _read_points(path):
    points = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ConfigError(f"points file needs two columns, got {raw!r}")
            try:
                points.append((float(parts[0]), float(parts[1])))
            except ValueError:
                if points:
                    raise ConfigError(f"bad points row {raw!r}") from None
                continue  # header row
    return points


def cmd_fit(args):
    if not args.points:
        raise ConfigError("fit needs --points CSV (columns: order,tau_opt_us)")
    if args.tau_b is None:
        raise ConfigError("fit needs --tau-b")
    points = _read_points(args.points)
    fit = fit_order_relation(points, args.tau_b)
    print(f"n = c + b ln(tau_opt / tau_B)")
    print(f"c = {fit.c:.6g} +- {fit.c_sd:.3g}")
    print(f"b = {fit.b:.6g} +- {fit.b_sd:.3g}")
    _write_json(args.json, "fit", {
        "c": fit.c, "b": fit.b, "c_sd": fit.c_sd, "b_sd": fit.b_sd,
        "n_points": fit.n_points, "tau_b_us": args.tau_b,
    })
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Exact decoupling simulations of one spin-1/2 in a spin bath.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "config": dict(required=True, help="experiment config file"),
        "seed": dict(type=int, default=None, help="override run.master_seed"),
        "threads": dict(type=int, default=1,
                        help="accepted for compatibility (an integer >= 1); it "
                             "changes nothing, as realizations run in index order"),
        "csv": dict(default="",
                    help="CSV output path (default: config [output], else stdout)"),
        "json": dict(default="", help="JSON output path (default: config [output])"),
        "dump-timeline": dict(action="store_true",
                              help="print the compiled timeline and exit"),
        "fair": dict(action="store_true",
                     help="equalize the average number of pulses per unit time"),
        "families": dict(default="",
                         help="comma list of sequence families (default: config family)"),
        "points": dict(default="", help="CSV of order,tau_opt_us rows"),
        "tau-b": dict(type=float, default=None, help="bath correlation time in us"),
    }

    def add(name, fn, help_text, names):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flag in names.split():
            p.add_argument(f"--{flag}", **flags[flag])

    add("simulate", cmd_simulate, "run one sequence and record s(t)",
        "config seed threads csv json dump-timeline")
    add("sweep", cmd_sweep, "decay time against inter-pulse delay",
        "config seed threads csv json fair families")
    add("corr", cmd_corr, "bath correlation function and its 1/e time", "config csv json")
    add("avgham", cmd_avgham, "leading average-Hamiltonian terms for the config cycle",
        "config json")
    add("verify", cmd_verify, "check closed-form claims and bookkeeping", "json")
    add("fit", cmd_fit, "fit decay order against ln(tau_opt/tau_B)", "points tau-b json")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.seed < 0:
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    if getattr(args, "threads", 1) < 1:
        parser.error(f"argument --threads: must be >= 1, got {args.threads}")
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpinBathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
