"""Tests for configuration loading, overrides and validation."""

import math

import pytest

from morn.config import ConfigError, RunConfig, apply_overrides, load_config


class TestDefaults:
    def test_defaults_validate(self):
        load_config()

    def test_published_controller_values(self):
        cfg = load_config()
        assert cfg.thresholds.abort == 0.30
        assert cfg.thresholds.switch == 0.20
        assert cfg.thresholds.commit_distance == 3.0
        assert cfg.thresholds.grace == 20
        assert cfg.signal.window == 5
        assert cfg.weights.pot_v == 0.4
        assert cfg.weights.gate_gain == 0.5
        assert cfg.weights.acc_stab == 0.4
        assert cfg.weights.prox_scale == 5.0
        assert cfg.bench.budget_k2 == 500
        assert cfg.bench.budget_k3 == 650
        assert cfg.bench.count_k2 == 300
        assert cfg.bench.count_k3 == 200

    def test_commit_threshold_clears_calibration_floor(self):
        cfg = load_config()
        w = cfg.weights
        floor = (w.acc_e * cfg.perception.base_noise_mean
                 + w.acc_stab * 1.0
                 + w.acc_prox * math.exp(-cfg.thresholds.commit_distance / w.prox_scale))
        assert cfg.thresholds.commit > floor


class TestOverrides:
    def test_dotted_key_override(self):
        cfg = load_config(overrides={"thresholds.commit": "0.65",
                                     "bench.count_k2": "10",
                                     "signal.sigma_norm": "0.002"})
        assert cfg.thresholds.commit == 0.65
        assert cfg.bench.count_k2 == 10
        assert cfg.signal.sigma_norm == 0.002
        with pytest.raises(ConfigError, match="signal.ema_alpha"):
            load_config(overrides={"signal.ema_alpha": "0.9"})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"nothing.commit": "0.5"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"thresholds.banana": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"thresholds.grace": "soon"})

    @pytest.mark.parametrize("raw", ["none", "", "nan", "inf", "-inf"])
    def test_float_must_be_finite(self, raw):
        with pytest.raises(ConfigError, match="thresholds.abort"):
            load_config(overrides={"thresholds.abort": raw})

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# controller\n"
            "thresholds.commit = 0.62\n"
            "bench.master_seed = 99  # inline comment\n"
        )
        cfg = load_config(path)
        assert cfg.thresholds.commit == 0.62
        assert cfg.bench.master_seed == 99

    def test_malformed_file_line(self, tmp_path):
        # blank and comment-only lines count in the line number
        path = tmp_path / "run.cfg"
        path.write_text("# controller\n\nthresholds.abort = 0.2\nthresholds.commit 0.62  # x\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:4: expected KEY=VALUE, "
                                              r"got 'thresholds\.commit 0\.62'$"):
            load_config(path)

    def test_cli_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bench.master_seed = 1\n")
        cfg = load_config(path, overrides={"bench.master_seed": "2"})
        assert cfg.bench.master_seed == 2

    def test_repeated_file_key_rejected(self, tmp_path):
        # the second value used to win without a word
        path = tmp_path / "run.cfg"
        path.write_text("thresholds.abort = 0.2\n"
                        "# a comment line\n"
                        "thresholds.abort = 0.4\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:3: key 'thresholds\.abort' "
                                              r"is set again \(first set at .*run\.cfg:1\)"):
            load_config(path)

    def test_override_of_a_file_key_is_not_a_repeat(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("thresholds.abort = 0.2\n")
        cfg = load_config(path, overrides={"thresholds.abort": "0.25"})
        assert cfg.thresholds.abort == 0.25


class TestValidation:
    def test_commit_below_floor_rejected(self):
        # a flat fully-stable baseline must not clear the commit threshold
        with pytest.raises(ConfigError):
            load_config(overrides={"thresholds.commit": "0.55"})

    def test_bad_weight_sum_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"weights.acc_e": "0.9"})

    def test_negative_accumulation_weight_rejected(self):
        # the weights sum to 1, yet sufficiency(1, 0, 0) would be 1.1
        with pytest.raises(ConfigError, match="acc_stab must be nonnegative"):
            load_config(overrides={"weights.acc_e": "0.6", "weights.acc_stab": "-0.1",
                                   "weights.acc_prox": "0.5"})

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"bench.infeasible_fraction": "1.5"})

    @pytest.mark.parametrize("key", ["world.cell_size", "signal.step_length"])
    def test_step_length_must_equal_cell_size(self, key):
        with pytest.raises(ConfigError, match=r"signal.step_length .* world.cell_size"):
            load_config(overrides={key: "0.25"})
        both = load_config(overrides={"world.cell_size": "0.25", "signal.step_length": "0.25"})
        assert both.signal.step_length == both.world.cell_size == 0.25

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"bench.master_seed = 1  # \xe9\n")
        with pytest.raises(ConfigError, match="cannot read config file .*latin1.cfg"):
            load_config(path)

    def test_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfthresholds.abort = 0.25\n")
        assert load_config(path).thresholds.abort == 0.25

    def test_apply_overrides_returns_same_object(self):
        cfg = RunConfig()
        assert apply_overrides(cfg, {"thresholds.grace": "10"}) is cfg
        assert cfg.thresholds.grace == 10
