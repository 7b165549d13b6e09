import os
import re
from dataclasses import is_dataclass
from typing import get_args, get_type_hints

import pytest
import yaml

from uavclass.config import ConfigError, RunConfig, parse_feature_key
from uavclass.features import _EULER_TAGS, BASELINE_SUBSET, FeatureError, FeatureKey
from uavclass.resample import ResampleError

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "docs", "example-config.yaml")


class TestParseFeatureKey:
    def test_plain(self):
        assert parse_feature_key("topic/field") == FeatureKey("topic", "field")

    def test_derived(self):
        key = parse_feature_key("vehicle_attitude/q#roll")
        assert key == FeatureKey("vehicle_attitude", "q", "roll")

    def test_missing_slash(self):
        with pytest.raises(ConfigError):
            parse_feature_key("no-separator")


class TestFromDict:
    def test_empty_gives_defaults(self):
        cfg = RunConfig.from_dict({})
        assert cfg.data.source == "synth"
        assert cfg.features.feature_subset().keys == BASELINE_SUBSET.keys
        assert cfg.sampling.method == "average"
        assert cfg.sampling.n_intervals == 50
        assert cfg.balance.method == "none"
        assert cfg.train.hidden == 128
        assert cfg.evaluation.k == 10

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"trian": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"train": {"epochz": 3}})
        # every epoch draws a fresh permutation; there is no shuffle to switch off
        with pytest.raises(ConfigError, match=r"unknown keys in 'train': \['shuffle'\]"):
            RunConfig.from_dict({"train": {"shuffle": True}})

    def test_random_subset_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"features": {"n_random": 3, "k": 2, "seed": 1}})

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="'train' must be a mapping"):
            RunConfig.from_dict({"train": [1, 2]})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"balance": {"augment": {"crop_max": 1.0}}})

    def test_non_synth_source_needs_path(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"data": {"source": "cache"}})

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"data": {"source": "ftp"}})

    def test_synth_source_rejects_a_path(self):
        with pytest.raises(ConfigError, match="data source 'synth' reads no path"):
            RunConfig.from_dict({"data": {"path": "corpus.cache"}})
        assert RunConfig.from_dict({"data": {"path": None}}) == RunConfig()

    def test_null_path_and_window_stay_accepted(self):
        # a resolved config spells the path and window a run does not use as null
        raw = {"data": {"source": "synth", "path": None},
               "sampling": {"method": "average", "window_s": None}}
        assert RunConfig.from_dict(raw) == RunConfig()

    def test_average_sampling_rejects_a_window(self):
        with pytest.raises(ResampleError, match="average sampling takes no window_s"):
            RunConfig.from_dict({"sampling": {"method": "average", "window_s": 2.0}})

    def test_custom_feature_keys(self):
        cfg = RunConfig.from_dict({"features": {"keys": ["a/x", "b/y#euler_roll"]}})
        subset = cfg.features.feature_subset()
        assert subset.keys == (FeatureKey("a", "x"), FeatureKey("b", "y", "euler_roll"))

    def test_subset_name_is_no_longer_a_key(self):
        # no run read the name; a resolved config with a subset line fails at load
        with pytest.raises(ConfigError, match=r"unknown keys in 'features': \['subset'\]"):
            RunConfig.from_dict({"features": {"keys": ["a/x"], "subset": "mine"}})

    def test_unknown_derivation_tag_fails_at_load(self):
        with pytest.raises(FeatureError, match="unknown derivation 'roll'"):
            RunConfig.from_dict({"features": {"keys": ["vehicle_attitude/q#roll"]}})

    def test_sections_applied(self):
        cfg = RunConfig.from_dict(
            {
                "sampling": {"method": "fixed_window", "n_intervals": 9, "window_s": 3.0},
                "balance": {"method": "smote", "minority_factor": 2.0, "smote_k": 4},
                "train": {"epochs": 7, "hidden": 16},
                "evaluation": {"k": 5, "seed": 11},
                "output": {"dir": "results"},
            }
        )
        assert cfg.sampling.method == "fixed_window"
        assert cfg.sampling.window_s == 3.0
        assert cfg.balance.smote_k == 4
        assert cfg.train.epochs == 7
        assert cfg.evaluation.k == 5 and cfg.evaluation.seed == 11
        assert cfg.output.dir == "results"


def _float_fields(cls, prefix=""):
    """The dotted path of every float field under the dataclass ``cls``."""
    paths = []
    for name, hint in get_type_hints(cls).items():
        if is_dataclass(hint):
            paths += _float_fields(hint, f"{prefix}{name}.")
        elif float in (hint, *get_args(hint)):
            paths.append(prefix + name)
    return paths


class TestValueTypes:
    """Each section built from a dataclass checks its values' types."""

    def test_sampling(self):
        with pytest.raises(ConfigError, match="sampling.n_intervals must be int, got '5'"):
            RunConfig.from_dict({"sampling": {"n_intervals": "5"}})
        with pytest.raises(ConfigError, match="sampling.window_s must be float or null"):
            RunConfig.from_dict({"sampling": {"method": "fixed_window", "window_s": "2"}})

    def test_balance(self):
        with pytest.raises(ConfigError, match="balance.minority_factor must be float"):
            RunConfig.from_dict({"balance": {"minority_factor": "2.0"}})
        with pytest.raises(ConfigError, match="balance.smote_k must be int, got 4.5"):
            RunConfig.from_dict({"balance": {"smote_k": 4.5}})

    def test_balance_augment(self):
        # the augmentation method reads minority_factor and seed
        with pytest.raises(ConfigError, match="balance.seed must be int, got '3'"):
            RunConfig.from_dict({"balance": {"method": "augmentation", "seed": "3"}})

    def test_train(self):
        with pytest.raises(ConfigError, match="train.epochs must be int, got '2'"):
            RunConfig.from_dict({"train": {"epochs": "2"}})

    @pytest.mark.parametrize(
        "raw",
        [{"train": {"epochs": True}}, {"train": {"learning_rate": False}},
         {"balance": {"seed": True}}],
    )
    def test_bool_is_not_a_number(self, raw):
        with pytest.raises(ConfigError, match="got (True|False)"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("text", [".nan", ".inf", "-.inf", "1" + "0" * 400])
    def test_float_fields_take_only_finite_values(self, tmp_path, text):
        paths = _float_fields(RunConfig)
        assert "train.learning_rate" in paths and "data.synth.duration_s" in paths
        for path in paths:
            *sections, key = path.split(".")
            doc = f"{key}: {text}"
            for section in reversed(sections):
                doc = f"{section}: {{{doc}}}"
            config = tmp_path / "run.yaml"
            config.write_text(doc + "\n")
            with pytest.raises(ConfigError, match=rf"^{re.escape(path)} must be float"):
                RunConfig.load(config)

    def test_int_for_float_and_null_for_optional(self):
        cfg = RunConfig.from_dict(
            {"train": {"learning_rate": 1}, "sampling": {"window_s": None},
             "balance": {"minority_factor": 2}}
        )
        assert cfg.train.learning_rate == 1 and cfg.sampling.window_s is None
        assert cfg.balance.minority_factor == 2


class TestLoadDump:
    def test_yaml_roundtrip(self, tmp_path):
        # a run writes cfg.dump() as resolved-config.yaml; it must load back as the same run
        for raw in (
            {},
            {
                "data": {"synth": {"n_quadrotor": 5, "seed": 3}},
                "sampling": {"n_intervals": 25},
                "train": {"epochs": 2, "hidden": 8},
            },
            {
                "data": {"source": "cache", "path": "corpus.cache"},
                "sampling": {"method": "fixed_window", "n_intervals": 20, "window_s": 5.0},
                "balance": {"method": "smote", "minority_factor": 2.5, "smote_k": 3},
            },
        ):
            cfg = RunConfig.from_dict(raw)
            path = tmp_path / "resolved-config.yaml"
            cfg.dump(path)
            assert RunConfig.load(path) == cfg, raw

    def test_dumped_file_is_plain_yaml(self, tmp_path):
        path = tmp_path / "run.yaml"
        RunConfig().dump(path)
        raw = yaml.safe_load(path.read_text())
        assert set(raw) == {
            "data",
            "features",
            "sampling",
            "balance",
            "train",
            "evaluation",
            "output",
        }

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = RunConfig.load(path)
        assert cfg == RunConfig()


class TestExampleConfig:
    def test_example_is_the_defaults(self):
        assert RunConfig.load(EXAMPLE) == RunConfig()

    def test_every_derivation_tag_in_the_example_exists(self):
        with open(EXAMPLE) as fh:
            tags = re.findall(r"\w/\w+#(\w+)", fh.read())
        assert tags and set(tags) <= set(_EULER_TAGS)
