"""Run configuration: config-file fields, validity rules and the overflow budget."""
import json
from dataclasses import replace

import pytest

from auditfl import ConfigError, RunConfig
from auditfl.config import (
    check_overflow_budget,
    from_dict,
    from_file,
    parse_malicious,
    with_overrides,
)
from auditfl.training import AdversarySpec

# one config per validity rule, each breaking only that rule
INVALID = [
    ({"participants": 0}, "at least 1 participant"),
    ({"rounds": 0}, "at least 1 round"),
    ({"batch_size": 0}, "batch size must be positive"),
    ({"scale": 41}, "scale must be in 1..40"),
    ({"eta": "0.3"}, "not dyadic"),
    ({"eta": "abc"}, "not a number"),
    ({"eta": "1/0"}, "not a number"),
    ({"eta": "-1/2"}, "must be positive"),
    ({"eta": "1/64", "scale": 5}, "exceeds fixed-point scale"),
    ({"malicious": {4: AdversarySpec("label_flip")}, "participants": 3},
     "outside participant ids"),
    ({"eta": f"1/{1 << 40}", "scale": 40}, "mask bits"),
    ({"clipping": True, "clip_factor": 0}, "clip factor"),
    ({"scale": 40}, "masked gradient mg1 raw"),
    ({"hidden": -1}, "hidden must be >= 0"),
    ({"pretrain_steps": -1}, "pretrain_steps must be >= 0"),
    ({"metrics_every": -1}, "metrics_every must be >= 0"),
    ({"master_seed": -1}, "master seed must be in"),
    ({"master_seed": 1 << 128}, "master seed must be in"),
]


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

    def test_mistyped_field_rejected(self):
        with pytest.raises(ConfigError, match="bad config field"):
            from_dict({"participants": "3"})

    def test_unknown_dataset_field_rejected(self):
        with pytest.raises(ConfigError, match="bad config field"):
            from_dict({"dataset": {"kind": "synthetic", "size": 5}})

    def test_malicious_id_declared_twice_rejected(self):
        # the later declaration would silently replace the earlier one
        with pytest.raises(ConfigError, match="declared twice"):
            parse_malicious(["3:label_flip", "3:sign_flip"])


class TestValidByConstruction:
    """No RunConfig that breaks a rule can be built, by any route."""

    @pytest.mark.parametrize("fields,reason", INVALID)
    def test_constructor_rejects(self, fields, reason):
        with pytest.raises(ConfigError, match=reason):
            RunConfig(**fields)

    @pytest.mark.parametrize("fields,reason", INVALID)
    def test_replace_rejects(self, fields, reason):
        with pytest.raises(ConfigError, match=reason):
            replace(RunConfig(), **fields)

    @pytest.mark.parametrize("fields,reason", INVALID)
    def test_with_overrides_rejects(self, fields, reason):
        with pytest.raises(ConfigError, match=reason):
            with_overrides(RunConfig(), **fields)


class TestOverflowBudget:
    def test_wide_scale_and_dimension_pass(self):
        # inner products are exact at any length, so only per-entry int64
        # bounds apply: 2^(34+8) * 2^15 = 2^57 for the masked gradient
        check_overflow_budget(RunConfig(scale=34, rounds=1))

    def test_masked_gradient_past_int64_rejected(self):
        # 2^(40+8) * 2^15 = 2^63 no longer fits a signed 64-bit raw
        with pytest.raises(ConfigError, match="masked gradient mg1 raw"):
            check_overflow_budget(RunConfig(scale=40, rounds=1))
