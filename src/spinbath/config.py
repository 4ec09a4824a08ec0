"""Experiment configuration files.

The format is a small INI dialect: `[section]` headers, `key = value`
lines, `#` comments, blank lines ignored. Keys carry their unit as a
suffix (tau_us, rf_khz, axis_tilt_rad) and are converted on load, so an
ExperimentConfig holds only rad/us and us quantities. Unknown sections or
keys, and enumerated values outside their choices, are reported with
their line number rather than silently dropped.

Couplings come either from the sampling recipe ([bath] scales, seed,
distribution) or as explicit lists: `b_khz` is a comma list, `d_khz` a
semicolon-separated list of comma rows. Explicit lists win when present.
"""

import math
from dataclasses import dataclass, field

from .analysis import DECAY_METHODS, SEQUENCE_FAMILIES
from .engine import INITIAL_AXES, RECORD_MODES
from .errors import ConfigError
from .hamiltonians import (COUPLING_DISTRIBUTIONS, CouplingSpec, build_model,
                           sample_couplings)
from .pulses import BimodalRf, ErrorModel, FixedRf, GaussianRf
from .util import KHZ_TO_RAD_PER_US, text_digest

# Every section and key with its default; a key's type is its default's type.
_DEFAULTS = {
    "bath": {"n_bath": 7, "b_scale_khz": 2.6, "d_scale_khz": 2.6,
             "distribution": "uniform_symmetric", "coupling_seed": 37,
             "b_khz": "", "d_khz": ""},
    "pulses": {"tau_p_us": 0.0, "rf_khz": 0.0},
    "errors": {"rf_distribution": "fixed", "rf_s1": 0.95, "rf_s2": 1.05,
               "rf_weight": 0.5, "rf_mean": 1.0, "rf_sd": 0.10,
               "flip_angle_fraction": 0.0, "axis_tilt_rad": 0.0,
               "tilt_jitter_rad": 0.0},
    "sequence": {"family": "cpmg", "tau_us": 30.0, "order": 2,
                 "udd_pulses": 4, "n_cycles": 1, "tau_grid_us": "",
                 "time_budget_us": 0.0},
    "run": {"initial_axis": "y", "n_realizations": 1, "master_seed": 0,
            "record": "cycle_boundaries", "fair": "false",
            "method": "one_over_e"},
    "output": {"csv": "", "json": ""},
}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed configuration with all unit suffixes resolved.

    Couplings are rad/us, times are us. raw holds the canonical string
    table the fingerprint is computed from; explicit_b and explicit_d are
    None unless the file listed couplings directly.
    """

    n_bath: int
    b_scale: float
    d_scale: float
    distribution: str
    coupling_seed: int
    explicit_b: tuple
    explicit_d: tuple
    tau_p: float
    error_model: ErrorModel
    family: str
    tau: float
    order: int
    udd_pulses: int
    n_cycles: int
    tau_grid: tuple
    time_budget: float
    initial_axis: str
    n_realizations: int
    master_seed: int
    record: str
    fair: bool
    method: str
    csv_path: str
    json_path: str
    raw: dict = field(repr=False, default_factory=dict)

    def fingerprint(self):
        """Hex digest of the canonical key=value listing.

        Stable across reordering and comment changes in the source file;
        two configs agree iff every resolved setting agrees.
        """
        lines = []
        for section in sorted(self.raw):
            for key in sorted(self.raw[section]):
                lines.append(f"{section}.{key}={self.raw[section][key]}")
        return text_digest("\n".join(lines))


def _parse_lines(text):
    """Raw pass: text -> {section: {key: (value, line_no)}} with diagnostics."""
    table = {}
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _DEFAULTS:
                raise ConfigError(
                    f"line {line_no}: unknown section [{section}]; "
                    f"expected one of {sorted(_DEFAULTS)}")
            table.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in _DEFAULTS[section]:
            raise ConfigError(
                f"line {line_no}: unknown key {key!r} in [{section}]; "
                f"expected one of {sorted(_DEFAULTS[section])}")
        if key in table[section]:
            raise ConfigError(f"line {line_no}: duplicate key {key!r} in [{section}]")
        table[section][key] = (value, line_no)
    return table


def _finite(x, what, line_no):
    """x, unless it is nan or infinite, which no setting accepts."""
    if not math.isfinite(x):
        raise ConfigError(f"line {line_no}: {what} must be finite, got {x!r}")
    return x


def _coerce(section, key, value, line_no):
    target = type(_DEFAULTS[section][key])
    try:
        coerced = target(value)
    except ValueError:
        raise ConfigError(
            f"line {line_no}: {section}.{key} needs a {target.__name__}, "
            f"got {value!r}") from None
    if target is float:
        _finite(coerced, f"{section}.{key}", line_no)
    if key.endswith("_seed") and coerced < 0:
        raise ConfigError(f"line {line_no}: {section}.{key} must be >= 0, got {coerced}")
    return coerced


def _choice(value, choices, section, key, line_of):
    """value if it is one of choices, else a ConfigError at its line."""
    if value not in choices:
        raise ConfigError(
            f"line {line_of[section].get(key, '?')}: {section}.{key} must be one of "
            f"{', '.join(choices)}, got {value!r}")
    return value


def _parse_floats(text, what, line_no):
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(
            f"line {line_no}: {what} must be comma-separated numbers, "
            f"got {text!r}") from None
    return tuple(_finite(x, what, line_no) for x in values)


def _parse_grid(text, line_no):
    """Comma list, or inclusive range `start..stop:step`."""
    text = text.strip()
    if ".." in text:
        head, _, step_text = text.partition(":")
        start_text, _, stop_text = head.partition("..")
        try:
            start, stop = float(start_text), float(stop_text)
            step = float(step_text) if step_text else 0.0
        except ValueError:
            raise ConfigError(
                f"line {line_no}: tau_grid_us range must look like "
                f"start..stop:step, got {text!r}") from None
        for x in (start, stop, step):
            _finite(x, "tau_grid_us", line_no)
        if step <= 0 or stop < start:
            raise ConfigError(
                f"line {line_no}: tau_grid_us range needs stop >= start "
                f"and step > 0, got {text!r}")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(n))
    return _parse_floats(text, "tau_grid_us", line_no)


def _build_error_model(settings, line_of):
    dist = _choice(settings["rf_distribution"].lower(), ("fixed", "bimodal", "gaussian"),
                   "errors", "rf_distribution", line_of)
    if dist == "fixed":
        rf = FixedRf()
    elif dist == "bimodal":
        rf = BimodalRf(s1=settings["rf_s1"], s2=settings["rf_s2"],
                       weight=settings["rf_weight"])
    else:
        rf = GaussianRf(mean=settings["rf_mean"], sd=settings["rf_sd"])
    return ErrorModel(rf=rf, flip_angle_fraction=settings["flip_angle_fraction"],
                      axis_tilt=settings["axis_tilt_rad"],
                      tilt_jitter_sd=settings["tilt_jitter_rad"])


def parse_config(text):
    """Parse config text into an ExperimentConfig.

    Raises ConfigError with a line number on any unknown section or key,
    type mismatch, enumerated value outside its choices, or inconsistent
    setting.
    """
    table = _parse_lines(text)
    resolved, raw, line_of = {}, {}, {}
    for section, defaults in _DEFAULTS.items():
        resolved[section] = dict(defaults)
        raw[section] = {}
        line_of[section] = {}
        for key in defaults:
            if section in table and key in table[section]:
                value, line_no = table[section][key]
                resolved[section][key] = _coerce(section, key, value, line_no)
                line_of[section][key] = line_no
            raw[section][key] = str(resolved[section][key])

    bath, pulses, errors = resolved["bath"], resolved["pulses"], resolved["errors"]
    seq, run, output = resolved["sequence"], resolved["run"], resolved["output"]

    explicit_b = explicit_d = None
    if bath["b_khz"].strip():
        line_no = line_of["bath"].get("b_khz", "?")
        vals = _parse_floats(bath["b_khz"], "b_khz", line_no)
        if len(vals) != bath["n_bath"]:
            raise ConfigError(
                f"line {line_no}: b_khz lists {len(vals)} couplings but "
                f"n_bath={bath['n_bath']}")
        explicit_b = tuple(v * KHZ_TO_RAD_PER_US for v in vals)
    if bath["d_khz"].strip():
        line_no = line_of["bath"].get("d_khz", "?")
        rows = [r for r in bath["d_khz"].split(";") if r.strip()]
        matrix = tuple(_parse_floats(r, "d_khz", line_no) for r in rows)
        n = bath["n_bath"]
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ConfigError(
                f"line {line_no}: d_khz must be {n} rows of {n} values "
                f"separated by ';'")
        explicit_d = tuple(tuple(v * KHZ_TO_RAD_PER_US for v in row) for row in matrix)
    if (explicit_b is None) != (explicit_d is None):
        line_no = line_of["bath"].get("b_khz") or line_of["bath"].get("d_khz", "?")
        raise ConfigError(
            f"line {line_no}: explicit couplings need both b_khz and d_khz")

    tau_p = pulses["tau_p_us"]
    rf_khz = pulses["rf_khz"]
    if tau_p < 0:
        line_no = line_of["pulses"].get("tau_p_us", "?")
        raise ConfigError(f"line {line_no}: tau_p_us must be >= 0")
    # Resolution order for the pulse shape: an explicit duration wins;
    # rf_khz alone derives the duration of a pi pulse; neither means delta
    # pulses.
    if tau_p == 0 and rf_khz > 0:
        tau_p = math.pi / (rf_khz * KHZ_TO_RAD_PER_US)

    fair_text = run["fair"].lower()
    if fair_text not in _BOOL:
        line_no = line_of["run"].get("fair", "?")
        raise ConfigError(f"line {line_no}: fair must be a boolean, got {run['fair']!r}")

    grid_line = line_of["sequence"].get("tau_grid_us", "?")
    grid_text = seq["tau_grid_us"].strip()
    tau_grid = _parse_grid(grid_text, grid_line) if grid_text else ()

    return ExperimentConfig(
        n_bath=bath["n_bath"],
        b_scale=bath["b_scale_khz"] * KHZ_TO_RAD_PER_US,
        d_scale=bath["d_scale_khz"] * KHZ_TO_RAD_PER_US,
        distribution=_choice(bath["distribution"], COUPLING_DISTRIBUTIONS,
                             "bath", "distribution", line_of),
        coupling_seed=bath["coupling_seed"],
        explicit_b=explicit_b,
        explicit_d=explicit_d,
        tau_p=tau_p,
        error_model=_build_error_model(errors, line_of),
        family=_choice(seq["family"].lower(), SEQUENCE_FAMILIES, "sequence", "family",
                       line_of),
        tau=seq["tau_us"],
        order=seq["order"],
        udd_pulses=seq["udd_pulses"],
        n_cycles=seq["n_cycles"],
        tau_grid=tau_grid,
        time_budget=seq["time_budget_us"],
        initial_axis=_choice(run["initial_axis"].lower(), INITIAL_AXES, "run",
                             "initial_axis", line_of),
        n_realizations=run["n_realizations"],
        master_seed=run["master_seed"],
        record=_choice(run["record"], RECORD_MODES, "run", "record", line_of),
        fair=_BOOL[fair_text],
        method=_choice(run["method"], DECAY_METHODS, "run", "method", line_of),
        csv_path=output["csv"],
        json_path=output["json"],
        raw=raw,
    )


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def model_from_config(cfg):
    """Build the SpinBathModel a config describes.

    Explicit coupling lists take precedence; otherwise couplings are drawn
    from the configured scales, distribution, and seed.
    """
    if cfg.explicit_b is not None:
        return build_model(cfg.explicit_b, cfg.explicit_d)
    spec = CouplingSpec(b_scale=cfg.b_scale, d_scale=cfg.d_scale,
                        distribution=cfg.distribution, seed=cfg.coupling_seed)
    b, d = sample_couplings(spec, cfg.n_bath)
    return build_model(b, d)
