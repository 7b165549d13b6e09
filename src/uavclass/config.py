"""Run configuration: one YAML file drives the whole pipeline.

Unknown keys are rejected so typos fail loudly, and every run writes its
resolved configuration next to its outputs for provenance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import get_args, get_type_hints

import yaml

from .balance import AugmentSpec, BalanceConfig
from .errors import UavclassError
from .features import BASELINE_SUBSET, FeatureKey, FeatureSubset
from .lstm import TrainConfig
from .resample import SamplingConfig


class ConfigError(UavclassError):
    pass


def _fields(cls) -> set:
    return {f.name for f in fields(cls)}


_SECTIONS = {
    "data": {"source", "path", "synth"},
    "features": {"subset", "keys", "exclusions"},
    "sampling": _fields(SamplingConfig),
    "balance": _fields(BalanceConfig),
    "train": _fields(TrainConfig),
    "evaluation": {"k", "seed"},
    "output": {"dir", "reference_trial"},
}
_SYNTH_KEYS = {"n_quadrotor", "n_hexarotor", "n_fixed_wing", "seed", "duration_s", "waypoints"}


def parse_feature_key(text: str) -> FeatureKey:
    """Parse 'topic/field' or 'topic/field#derivation'."""
    topic, sep, rest = text.partition("/")
    if not sep:
        raise ConfigError(f"feature key {text!r} must be topic/field")
    fieldname, _, derived = rest.partition("#")
    return FeatureKey(topic, fieldname, derived)


def _check_keys(path, mapping, allowed):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {path!r}: {sorted(unknown)}")


def _section(raw: dict, name: str, allowed: set, parent: str = "") -> dict:
    """The mapping under raw[name] (empty if absent), checked for unknown keys."""
    section = raw.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{parent + name!r} must be a mapping")
    _check_keys(parent + name, section, allowed)
    return section


def _matches(value, hint) -> bool:
    """Whether a YAML value fits a field type: int, float, bool, str or X | None."""
    if get_args(hint):
        return any(_matches(value, arg) for arg in get_args(hint))
    if isinstance(value, bool):
        return hint is bool  # a bool is an int to isinstance, not to a config
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _build(cls, path: str, section: dict):
    """``cls(**section)`` once every value has its field's type."""
    hints = get_type_hints(cls)
    for key, value in section.items():
        hint = hints[key]
        if not _matches(value, hint):
            names = " or ".join(
                "null" if arg is type(None) else arg.__name__ for arg in get_args(hint) or (hint,)
            )
            raise ConfigError(f"{path}.{key} must be {names}, got {value!r}")
    return cls(**section)


@dataclass
class RunConfig:
    data_source: str = "synth"
    data_path: str | None = None
    synth: dict = field(
        default_factory=lambda: {
            "n_quadrotor": 400,
            "n_hexarotor": 40,
            "n_fixed_wing": 40,
            "seed": 7,
        }
    )
    subset: FeatureSubset = field(default_factory=lambda: BASELINE_SUBSET)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    balance: BalanceConfig = field(default_factory=BalanceConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval_k: int = 10
    eval_seed: int = 0
    output_dir: str = "out"
    reference_trial: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        _check_keys("config", raw, set(_SECTIONS))
        cfg = cls()

        data = _section(raw, "data", _SECTIONS["data"])
        cfg.data_source = data.get("source", cfg.data_source)
        if cfg.data_source not in ("synth", "ulog_dir", "cache"):
            raise ConfigError(f"unknown data source {cfg.data_source!r}")
        cfg.data_path = data.get("path", cfg.data_path)
        if cfg.data_source != "synth" and not cfg.data_path:
            raise ConfigError(f"data source {cfg.data_source!r} needs a path")
        cfg.synth.update(_section(data, "synth", _SYNTH_KEYS, "data."))

        feats = _section(raw, "features", _SECTIONS["features"])
        if "keys" in feats:
            keys = tuple(parse_feature_key(k) for k in feats["keys"])
            cfg.subset = FeatureSubset(name=feats.get("subset", "custom"), keys=keys)
        exclusions = [parse_feature_key(k) for k in feats.get("exclusions", [])]
        if exclusions:
            kept = tuple(k for k in cfg.subset.keys if k not in exclusions)
            cfg.subset = FeatureSubset(name=cfg.subset.name, keys=kept)

        sampling = _section(raw, "sampling", _SECTIONS["sampling"])
        cfg.sampling = _build(SamplingConfig, "sampling", sampling)
        balance = _section(raw, "balance", _SECTIONS["balance"])
        augment = _section(balance, "augment", _fields(AugmentSpec), "balance.")
        augment = _build(AugmentSpec, "balance.augment", augment)
        cfg.balance = _build(BalanceConfig, "balance", {**balance, "augment": augment})
        cfg.train = _build(TrainConfig, "train", _section(raw, "train", _SECTIONS["train"]))

        evaluation = _section(raw, "evaluation", _SECTIONS["evaluation"])
        cfg.eval_k = evaluation.get("k", cfg.eval_k)
        cfg.eval_seed = evaluation.get("seed", cfg.eval_seed)

        output = _section(raw, "output", _SECTIONS["output"])
        cfg.output_dir = output.get("dir", cfg.output_dir)
        cfg.reference_trial = output.get("reference_trial", cfg.reference_trial)
        return cfg

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {
            "data": {
                "source": self.data_source,
                "path": self.data_path,
                "synth": dict(self.synth),
            },
            "features": {
                "subset": self.subset.name,
                "keys": [str(k) for k in self.subset.keys],
            },
            "sampling": asdict(self.sampling),
            "balance": asdict(self.balance),
            "train": asdict(self.train),
            "evaluation": {"k": self.eval_k, "seed": self.eval_seed},
            "output": {"dir": self.output_dir, "reference_trial": self.reference_trial},
        }

    def dump(self, path):
        with open(path, "w") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=True)
