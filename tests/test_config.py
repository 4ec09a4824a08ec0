"""Config file parsing: units, defaults, diagnostics, fingerprints."""

import math

import numpy as np
import pytest

from spinbath import (
    BimodalRf,
    ConfigError,
    GaussianRf,
    load_config,
    model_from_config,
    parse_config,
)
from spinbath.util import KHZ_TO_RAD_PER_US

FULL = """\
[bath]
n_bath = 4
b_scale_khz = 1.5
d_scale_khz = 0.5
distribution = gaussian
coupling_seed = 12

[pulses]
tau_p_us = 2.0

[errors]
rf_distribution = gaussian
rf_mean = 1.0
rf_sd = 0.05
tilt_jitter_rad = 0.12

[sequence]
family = udd
tau_us = 18.0
udd_pulses = 6
n_cycles = 3

[run]
initial_axis = z
n_realizations = 16
master_seed = 99
fair = yes

[output]
csv = out.csv
"""


# The benchmark's noisy CPMG sweep at seed 37.
NOISY_SWEEP = """\
[bath]
n_bath = 7
coupling_seed = 37

[errors]
rf_distribution = gaussian
rf_mean = 1.0
rf_sd = 0.10
tilt_jitter_rad = 0.15

[sequence]
family = cpmg
tau_grid_us = 5..80:15
time_budget_us = 1000

[run]
initial_axis = y
n_realizations = 1
master_seed = 37
"""


def test_empty_text_gives_documented_defaults():
    cfg = parse_config("")
    assert cfg.n_bath == 7
    assert cfg.b_scale == pytest.approx(2.6 * KHZ_TO_RAD_PER_US)
    assert cfg.d_scale == pytest.approx(2.6 * KHZ_TO_RAD_PER_US)
    assert cfg.coupling_seed == 37
    assert cfg.distribution == "uniform_symmetric"
    assert cfg.family == "cpmg" and cfg.tau == 30.0
    assert cfg.tau_p == 0.0  # delta pulses
    assert cfg.initial_axis == "y" and not cfg.fair
    assert cfg.error_model.is_trivial
    assert cfg.tau_grid == ()


def test_full_file_round_trip():
    cfg = parse_config(FULL)
    assert cfg.n_bath == 4
    assert cfg.b_scale == pytest.approx(1.5 * KHZ_TO_RAD_PER_US)
    assert cfg.distribution == "gaussian"
    assert cfg.tau_p == 2.0
    assert isinstance(cfg.error_model.rf, GaussianRf)
    assert cfg.error_model.rf.sd == 0.05
    assert cfg.error_model.tilt_jitter_sd == 0.12
    assert cfg.family == "udd" and cfg.udd_pulses == 6 and cfg.n_cycles == 3
    assert cfg.initial_axis == "z" and cfg.n_realizations == 16
    assert cfg.fair is True
    assert cfg.csv_path == "out.csv" and cfg.json_path == ""


def test_comments_and_case_are_cosmetic():
    a = parse_config("[bath]\nn_bath = 3\n")
    b = parse_config("# header\n[BATH]\n  N_BATH = 3   # trailing\n\n")
    assert a.fingerprint() == b.fingerprint()


class TestDiagnostics:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown section \[spam\]"):
            parse_config("\n[spam]\n")

    def test_unknown_key_names_offender(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'n_spins'"):
            parse_config("[bath]\nn_spins = 3\n")

    def test_type_mismatch_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: sequence.tau_us needs a float"):
            parse_config("[sequence]\ntau_us = 30 ms\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key 'tau_us'"):
            parse_config("[sequence]\ntau_us = 10\ntau_us = 20\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1: key outside"):
            parse_config("tau_us = 10\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2: expected key = value"):
            parse_config("[run]\nmaster_seed\n")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="fair must be a boolean"):
            parse_config("[run]\nfair = maybe\n")

    def test_bad_rf_distribution(self):
        with pytest.raises(ConfigError, match="rf_distribution must be"):
            parse_config("[errors]\nrf_distribution = lorentzian\n")

    @pytest.mark.parametrize("section, key, value", [
        ("sequence", "family", "xy8"),
        ("run", "initial_axis", "w"),
        ("run", "record", "sometimes"),
        ("run", "method", "fit"),
        ("bath", "distribution", "lorentzian"),
    ])
    def test_bad_enumerated_value_reports_line(self, section, key, value):
        with pytest.raises(ConfigError,
                           match=rf"line 3: {section}\.{key} must be one of .*'{value}'"):
            parse_config(f"# bad value\n[{section}]\n{key} = {value}\n")

    def test_enumerated_values_checked_after_lowercasing(self):
        cfg = parse_config("[sequence]\nfamily = PDD\n[run]\ninitial_axis = X\n")
        assert cfg.family == "pdd" and cfg.initial_axis == "x"


    @pytest.mark.parametrize("section, key, value", [
        ("pulses", "tau_p_us", "nan"),
        ("pulses", "tau_p_us", "inf"),
        ("pulses", "rf_khz", "-inf"),
        ("bath", "b_scale_khz", "NaN"),
        ("errors", "rf_sd", "Infinity"),
        ("sequence", "time_budget_us", "nan"),
    ])
    def test_non_finite_float_reports_line(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"line 3: {section}\.{key} must be finite"):
            parse_config(f"# bad value\n[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("section, key", [("bath", "coupling_seed"),
                                              ("run", "master_seed")])
    def test_negative_seed_reports_line(self, section, key):
        with pytest.raises(ConfigError,
                           match=rf"line 3: {section}\.{key} must be >= 0, got -3"):
            parse_config(f"# bad seed\n[{section}]\n{key} = -3\n")

    @pytest.mark.parametrize("line", [
        "tau_grid_us = 5, nan", "tau_grid_us = 5..inf:5", "tau_grid_us = 5..50:nan",
    ])
    def test_non_finite_grid_reports_line(self, line):
        with pytest.raises(ConfigError, match="line 2: tau_grid_us must be finite"):
            parse_config(f"[sequence]\n{line}\n")


class TestGrid:
    def test_comma_list(self):
        cfg = parse_config("[sequence]\ntau_grid_us = 5, 10, 22.5\n")
        assert cfg.tau_grid == (5.0, 10.0, 22.5)

    def test_inclusive_range(self):
        cfg = parse_config("[sequence]\ntau_grid_us = 10..50:10\n")
        assert cfg.tau_grid == (10.0, 20.0, 30.0, 40.0, 50.0)

    def test_range_includes_uneven_endpoint_floor(self):
        cfg = parse_config("[sequence]\ntau_grid_us = 1..2:0.4\n")
        assert np.allclose(cfg.tau_grid, (1.0, 1.4, 1.8))

    def test_bad_ranges(self):
        with pytest.raises(ConfigError, match="step > 0"):
            parse_config("[sequence]\ntau_grid_us = 10..50\n")
        with pytest.raises(ConfigError, match="stop >= start"):
            parse_config("[sequence]\ntau_grid_us = 50..10:5\n")
        with pytest.raises(ConfigError, match="comma-separated numbers"):
            parse_config("[sequence]\ntau_grid_us = 5, ten\n")


class TestExplicitCouplings:
    TEXT = """\
[bath]
n_bath = 2
b_khz = 1.0, -2.0
d_khz = 0, 0.5; 0.5, 0
"""

    def test_values_and_units(self):
        cfg = parse_config(self.TEXT)
        assert cfg.explicit_b == pytest.approx(
            (1.0 * KHZ_TO_RAD_PER_US, -2.0 * KHZ_TO_RAD_PER_US))
        model = model_from_config(cfg)
        assert model.b == pytest.approx(cfg.explicit_b)
        assert model.d[0, 1] == pytest.approx(0.5 * KHZ_TO_RAD_PER_US)

    def test_count_mismatch(self):
        with pytest.raises(ConfigError, match="lists 3 couplings but n_bath=2"):
            parse_config("[bath]\nn_bath = 2\nb_khz = 1,2,3\nd_khz = 0,0;0,0\n")

    def test_matrix_shape(self):
        with pytest.raises(ConfigError, match="2 rows of 2 values"):
            parse_config("[bath]\nn_bath = 2\nb_khz = 1,2\nd_khz = 0,0\n")

    def test_half_given(self):
        with pytest.raises(ConfigError, match="need both b_khz and d_khz"):
            parse_config("[bath]\nn_bath = 2\nb_khz = 1,2\n")


class TestPulseResolution:
    def test_duration_wins_over_rf(self):
        cfg = parse_config("[pulses]\ntau_p_us = 4.0\nrf_khz = 999\n")
        assert cfg.tau_p == 4.0

    def test_rf_alone_derives_duration(self):
        cfg = parse_config("[pulses]\nrf_khz = 25\n")
        assert cfg.tau_p == pytest.approx(math.pi / (25 * KHZ_TO_RAD_PER_US))
        assert cfg.tau_p == pytest.approx(20.0)  # a pi pulse at 25 kHz takes 20 us

    def test_negative_duration(self):
        with pytest.raises(ConfigError, match="tau_p_us must be >= 0"):
            parse_config("[pulses]\ntau_p_us = -1\n")


def test_fingerprint_tracks_resolved_values():
    base = parse_config("[sequence]\ntau_us = 30\n")
    same = parse_config("")  # 30 is the default
    other = parse_config("[sequence]\ntau_us = 31\n")
    assert base.fingerprint() == same.fingerprint()
    assert base.fingerprint() != other.fingerprint()
    assert len(base.fingerprint()) == 16


@pytest.mark.parametrize("text, digest", [
    ("", "6c4d54c5b07b7ac1"),
    (FULL, "e05dd378fecafd13"),
    (NOISY_SWEEP, "5d80db6d77175fd0"),
])
def test_fingerprints_are_pinned(text, digest):
    assert parse_config(text).fingerprint() == digest


def test_bimodal_error_model():
    cfg = parse_config(
        "[errors]\nrf_distribution = bimodal\nrf_s1 = 0.9\nrf_s2 = 1.1\nrf_weight = 0.25\n")
    assert isinstance(cfg.error_model.rf, BimodalRf)
    assert cfg.error_model.rf.weight == 0.25


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL, encoding="utf-8")
    assert load_config(path).fingerprint() == parse_config(FULL).fingerprint()


def test_model_from_config_matches_seeded_sampling():
    cfg = parse_config("[bath]\nn_bath = 3\ncoupling_seed = 5\n")
    m1 = model_from_config(cfg)
    m2 = model_from_config(cfg)
    assert np.array_equal(m1.b, m2.b)
    assert np.array_equal(m1.d, m2.d)
    assert m1.ops.dim == 16
