"""Run configuration: one YAML file drives the whole pipeline.

Each YAML section is a dataclass built by one recursive ``_build``: unknown
keys and wrong types are rejected so typos fail loudly, and each dataclass
checks its own ranges. Every run writes its resolved configuration, every
key included, next to its outputs for provenance.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import get_args, get_origin, get_type_hints

import yaml

from .balance import BalanceConfig
from .errors import UavclassError
from .features import BASELINE_SUBSET, FeatureKey, FeatureSubset
from .lstm import TrainConfig
from .resample import SamplingConfig
from .synth import SynthSpec
from .ulog import VehicleType


class ConfigError(UavclassError):
    pass


def parse_feature_key(text: str) -> FeatureKey:
    """Parse 'topic/field' or 'topic/field#derivation'."""
    topic, sep, rest = text.partition("/")
    if not sep:
        raise ConfigError(f"feature key {text!r} must be topic/field")
    fieldname, _, derived = rest.partition("#")
    return FeatureKey(topic, fieldname, derived)


@dataclass
class CorpusConfig:  # the synthetic corpus
    n_quadrotor: int = 400
    n_hexarotor: int = 40
    n_fixed_wing: int = 40
    seed: int = 7
    duration_s: float | None = SynthSpec.duration_s  # None: drawn per class

    def __post_init__(self):
        for name in ("n_quadrotor", "n_hexarotor", "n_fixed_wing"):
            if getattr(self, name) < 0:
                raise ConfigError(f"data.synth.{name} must be >= 0")
        # the spec's own range checks, at load rather than at the first flight
        SynthSpec(VehicleType.QUADROTOR, self.duration_s, seed=self.seed)


@dataclass
class DataConfig:
    source: str = "synth"
    path: str | None = None
    synth: CorpusConfig = field(default_factory=CorpusConfig)

    def __post_init__(self):
        if self.source not in ("synth", "ulog_dir", "cache"):
            raise ConfigError(f"unknown data source {self.source!r}")
        if self.source != "synth" and not self.path:
            raise ConfigError(f"data source {self.source!r} needs a path")
        if self.source == "synth" and self.path is not None:
            raise ConfigError("data source 'synth' reads no path; use 'cache' or 'ulog_dir'")


@dataclass
class FeaturesConfig:
    keys: list[str] = field(default_factory=lambda: [str(k) for k in BASELINE_SUBSET.keys])

    def __post_init__(self):
        if not self.keys:
            raise ConfigError("features.keys is empty")
        self.feature_subset()  # duplicate keys and unknown tags fail at load, not at assembly

    def feature_subset(self) -> FeatureSubset:
        return FeatureSubset("features", tuple(map(parse_feature_key, self.keys)))


@dataclass
class EvalConfig:
    k: int = 10  # stratified folds
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError("evaluation.k must be >= 2")
        if self.seed < 0:
            raise ConfigError("evaluation.seed must be >= 0")


@dataclass
class OutputConfig:
    dir: str = "out"


def _matches(value, hint) -> bool:
    """Whether a YAML value fits a field type: int, float, str, list[X] or X | None."""
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_matches(v, get_args(hint)[0]) for v in value)
    if get_args(hint):
        return any(_matches(value, arg) for arg in get_args(hint))
    if isinstance(value, bool):
        return False  # a bool is an int to isinstance, not to a config
    if hint is float:  # finite only: NaN fails the comparison and an int compares exactly
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _type_name(hint) -> str:
    if get_origin(hint) is list:
        return f"list of {_type_name(get_args(hint)[0])}"
    return " or ".join("null" if a is type(None) else a.__name__ for a in get_args(hint) or (hint,))


def _build(cls, path: str, mapping):
    """``cls`` built from the YAML mapping at ``path`` ("" for the root).

    Each value is checked against its field's type, and a field whose type is
    a dataclass is built from its own mapping. An empty or null section means
    every default.
    """
    where = path or "config"
    mapping = mapping or {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where!r} must be a mapping")
    hints = get_type_hints(cls)
    unknown = set(mapping) - hints.keys()
    if unknown:
        raise ConfigError(f"unknown keys in {where!r}: {sorted(unknown, key=str)}")
    values = {}
    for key, value in mapping.items():
        hint, key_path = hints[key], f"{path}.{key}" if path else key
        if is_dataclass(hint):
            value = _build(hint, key_path, value)
        elif not _matches(value, hint):
            raise ConfigError(f"{key_path} must be {_type_name(hint)}, got {value!r}")
        values[key] = value
    return cls(**values)


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    features: FeaturesConfig = field(default_factory=FeaturesConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    balance: BalanceConfig = field(default_factory=BalanceConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    @classmethod
    def from_dict(cls, raw) -> "RunConfig":
        return _build(cls, "", raw)

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path, "rb") as fh:  # PyYAML decodes, so bad bytes are a YAMLError
                raw = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
            where = f"{path}, line {mark.line + 1}" if mark else str(path)
            raise ConfigError(f"{where}: {problem}") from None
        return cls.from_dict(raw)

    def dump(self, path):
        with open(path, "w") as fh:
            yaml.safe_dump(asdict(self), fh, sort_keys=True)
