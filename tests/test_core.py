import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efm.core import (LIMIT_EPSILON_FRACTION, CapacitorConfig, ConfigError, seeded_stream,
                      validate_config)
from efm.transport import map_batch


def toy_config(**kw):
    base = dict(dim_d=2, plate_gap=6.0, noise_sigma=0.001, seed=0)
    base.update(kw)
    return CapacitorConfig(**base)


class TestValidateConfig:
    def test_toy_settings_ok(self):
        validate_config(toy_config())

    def test_zero_gap_rejected(self):
        with pytest.raises(ConfigError, match="plate_gap must be positive"):
            validate_config(toy_config(plate_gap=0.0, limit_epsilon=1e-3))

    def test_zero_dim_rejected(self):
        with pytest.raises(ConfigError, match="dim_d must be >= 1"):
            validate_config(toy_config(dim_d=0))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError, match="noise_sigma"):
            validate_config(toy_config(noise_sigma=-1.0))

    def test_zero_field_epsilon_is_the_exact_mode(self):
        validate_config(toy_config(field_epsilon=0.0))

    @pytest.mark.parametrize("eps", [-1e-4, float("nan"), float("inf")])
    def test_bad_field_epsilon_rejected(self, eps):
        with pytest.raises(ConfigError, match="field_epsilon must be nonnegative"):
            validate_config(toy_config(field_epsilon=eps))

    def test_limit_epsilon_range(self):
        with pytest.raises(ConfigError, match="limit_epsilon"):
            validate_config(toy_config(limit_epsilon=1.0))  # >= plate_gap/10

    def test_limit_epsilon_default(self):
        assert toy_config().limit_epsilon is None

    def test_replace_rederives_limit_epsilon(self):
        # the default is resolved by map_batch from the gap it transports with
        up = lambda pts: np.tile([0.0, 0.0, 1.0], (len(pts), 1))
        for gap in (600.0, 0.05):
            cfg = dataclasses.replace(CapacitorConfig(dim_d=2, plate_gap=6.0), plate_gap=gap)
            result = map_batch(np.zeros((1, 2)), up, "adaptive", plate_gap=cfg.plate_gap,
                               limit_epsilon=cfg.limit_epsilon)
            assert result.trajectories[0].points[0, -1] == gap * LIMIT_EPSILON_FRACTION
            assert result.ok.all()

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError, match="plate_gap must be positive"):
            dataclasses.replace(toy_config(), plate_gap=-1.0)

    def test_bad_modes_rejected(self):
        with pytest.raises(ConfigError, match="noise_mean_mode"):
            validate_config(toy_config(noise_mean_mode="nope"))
        with pytest.raises(ConfigError, match="volume_mode"):
            validate_config(toy_config(volume_mode="nope"))


class TestConfigJson:
    def test_round_trip_lossless(self, tmp_path):
        cfg = toy_config(field_epsilon=3e-5, limit_epsilon=1.25e-3, seed=17)
        path = tmp_path / "cfg.json"
        cfg.to_json_file(path)
        assert CapacitorConfig.from_json_file(path) == cfg

    def test_field_names_exact(self, tmp_path):
        cfg = toy_config()
        path = tmp_path / "cfg.json"
        cfg.to_json_file(path)
        keys = set(json.loads(path.read_text()))
        assert keys == {"dim_d", "plate_gap", "noise_sigma", "noise_mean_mode",
                        "volume_mode", "field_epsilon", "limit_epsilon", "seed"}

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"dim_d": 2, "plate_gap": 6.0, "voltage": 3}')
        with pytest.raises(ConfigError, match="unknown config field"):
            CapacitorConfig.from_json_file(path)

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(1, 12), gap=st.floats(0.1, 100.0),
           sigma=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_any_valid_config_round_trips(self, tmp_path_factory, dim, gap, sigma, seed):
        cfg = CapacitorConfig(dim_d=dim, plate_gap=gap, noise_sigma=sigma, seed=seed)
        validate_config(cfg)
        assert CapacitorConfig.from_dict(cfg.to_dict()) == cfg


class TestSeededStream:
    def test_same_pair_same_sequence(self):
        a = seeded_stream(42, "train").standard_normal(32)
        b = seeded_stream(42, "train").standard_normal(32)
        np.testing.assert_array_equal(a, b)

    def test_distinct_labels_diverge(self):
        a = seeded_stream(42, "train").standard_normal(32)
        b = seeded_stream(42, "transport").standard_normal(32)
        assert not np.allclose(a, b)

    def test_distinct_seeds_diverge(self):
        a = seeded_stream(42, "x").standard_normal(32)
        b = seeded_stream(43, "x").standard_normal(32)
        assert not np.allclose(a, b)
