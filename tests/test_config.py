"""Run configuration: config-file fields and the overflow budget."""
import json

import pytest

from auditfl import ConfigError, RunConfig
from auditfl.config import check_overflow_budget, from_dict, from_file


class TestConfigFields:
    @pytest.mark.parametrize("name", ["rn_lo", "rn_hi", "timestamp", "mask_bits"])
    def test_removed_field_rejected(self, name):
        # the mask bounds are randomness.RN_LO/RN_HI and the ledger timestamp
        # is 0; a config naming them must not look as if it set them
        with pytest.raises(ConfigError, match="bad config field"):
            from_dict({"participants": 3, name: 1})

    def test_config_file_goes_through_the_same_check(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"timestamp": 5}))
        with pytest.raises(ConfigError, match="bad config field"):
            from_file(path)


class TestOverflowBudget:
    def test_wide_scale_and_dimension_pass(self):
        # inner products are exact at any length, so only per-entry int64
        # bounds apply: 2^(34+8) * 2^15 = 2^57 for the masked gradient
        check_overflow_budget(RunConfig(scale=34, rounds=1), 50890)

    def test_masked_gradient_past_int64_rejected(self):
        # 2^(40+8) * 2^15 = 2^63 no longer fits a signed 64-bit raw
        with pytest.raises(ConfigError, match="masked gradient mg1 raw"):
            check_overflow_budget(RunConfig(scale=40, rounds=1), 10)
