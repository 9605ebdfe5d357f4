"""The dataclass defaults are a valid configuration."""

from anchorft.benchgen import GenConfig
from anchorft.training import TrainConfig


class TestFrozenDefaults:
    def test_default_configs_validate(self):
        GenConfig().validate()
        TrainConfig().validate()
