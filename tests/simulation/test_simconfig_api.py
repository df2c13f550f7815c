"""The simulation API: SimConfig in, one world out.

``build_world(SimConfig(...))`` is the only entry point; keyword overrides
such as ``build_world(seed=..., scale=...)`` are refused.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import ConfigError
from repro.simulation import SimConfig, build_world


class TestConfigValidation:
    def test_default_config_validates(self):
        SimConfig().validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"scale": 0.0}, "scale"),
            ({"scale": -0.5}, "scale"),
            ({"lurker_fraction": 1.5}, "lurker_fraction"),
            ({"verified_fraction": -0.1}, "verified_fraction"),
            ({"tweet_rate_mean": -1.0}, "rates"),
            ({"twitter_median_followees": 0}, "twitter_median_followees"),
            ({"choice_social_weight": 0.9}, "weights"),
        ],
    )
    def test_invalid_fields_raise_config_error(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            SimConfig(**overrides).validate()

    def test_window_must_be_ordered(self):
        config = SimConfig(start=SimConfig().end, end=SimConfig().start)
        with pytest.raises(ConfigError, match="precedes"):
            config.validate()

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            SimConfig().scale = 0.5

    def test_build_world_rejects_non_config_positional(self):
        with pytest.raises(TypeError, match="SimConfig"):
            build_world({"seed": 7})


class TestLegacyShim:
    """The keyword-override form of ``build_world`` was removed."""

    def test_keyword_overrides_are_refused(self):
        with pytest.raises(TypeError):
            build_world(seed=3, scale=0.0002)

    def test_config_form_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            build_world(SimConfig(seed=3, scale=0.0002))
