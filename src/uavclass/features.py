"""Feature catalog: corpus coverage, pruning, subsets, assembly.

A feature is addressed by (topic, field) plus an optional derivation tag for
quantities computed from raw columns, currently the Euler angles derived
from the attitude quaternion.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import UavclassError


class FeatureError(UavclassError):
    pass


class EmptyCorpus(FeatureError):
    pass


class ZeroQuaternion(FeatureError):
    pass


@dataclass(frozen=True, order=True)
class FeatureKey:
    topic: str
    field: str
    derived: str = ""  # e.g. "euler_roll"; empty for raw columns

    def __str__(self):
        if self.derived:
            return f"{self.topic}/{self.field}#{self.derived}"
        return f"{self.topic}/{self.field}"


# Euler derivation tag -> index into (roll, pitch, yaw)
_EULER_TAGS = {"euler_roll": 0, "euler_pitch": 1, "euler_yaw": 2}


@dataclass
class FeatureSubset:
    """Ordered feature list; the order defines instance column order."""

    name: str
    keys: tuple

    def __post_init__(self):
        self.keys = tuple(self.keys)
        if len(set(self.keys)) != len(self.keys):
            raise FeatureError(f"duplicate keys in subset {self.name!r}")
        for key in self.keys:
            if key.derived and key.derived not in _EULER_TAGS:
                raise FeatureError(f"unknown derivation {key.derived!r} in {key}")

    def __len__(self):
        return len(self.keys)


# The nine features the experiments settled on, mapped to concrete PX4
# topics. Roll/pitch/yaw are derived from the attitude quaternion q[0..3].
BASELINE_SUBSET = FeatureSubset(
    name="baseline",
    keys=(
        FeatureKey("vehicle_local_position", "x"),
        FeatureKey("vehicle_local_position", "y"),
        FeatureKey("vehicle_local_position", "z"),
        FeatureKey("vehicle_attitude", "q", "euler_roll"),
        FeatureKey("vehicle_attitude", "q", "euler_pitch"),
        FeatureKey("vehicle_attitude", "q", "euler_yaw"),
        FeatureKey("manual_control_setpoint", "z"),  # throttle stick
        FeatureKey("vehicle_air_data", "baro_alt_meter"),
        FeatureKey("battery_status", "temperature"),
    ),
)


@dataclass
class CoverageTable:
    """Fraction of corpus logs containing each raw (topic, field) column."""

    fractions: dict  # FeatureKey -> float in [0, 1]
    corpus_size: int


def _log_raw_keys(log):
    keys = set()
    for (topic, instance_id), series in log.topics.items():
        if instance_id != 0:
            continue  # primary sensor instance only
        for col in series.columns:
            keys.add(FeatureKey(topic, col))
    return keys


def compute_coverage(corpus) -> CoverageTable:
    """Count, for every raw column seen anywhere, the fraction of logs with it.

    ``corpus`` may be any iterable, such as ``cache.iter_logs``; it is read once.
    """
    counts = {}
    n = 0
    for log in corpus:
        n += 1
        for key in _log_raw_keys(log):
            counts[key] = counts.get(key, 0) + 1
        del log  # so that a streamed corpus holds one log at a time
    if not n:
        raise EmptyCorpus("coverage needs at least one log")
    return CoverageTable({k: c / n for k, c in counts.items()}, n)


def prune_by_coverage(table: CoverageTable, threshold: float = 0.6):
    """Keep keys with coverage >= threshold ("at least"), sorted lexicographically."""
    if not 0.0 < threshold <= 1.0:
        raise FeatureError(f"threshold must be in (0, 1], got {threshold}")
    return sorted(k for k, frac in table.fractions.items() if frac >= threshold)


def write_coverage_csv(table: CoverageTable, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "fraction"])
        for key in sorted(table.fractions):
            writer.writerow([str(key), f"{table.fractions[key]:.6f}"])


def quaternion_to_euler(q):
    """Convert unit quaternion(s) (w, x, y, z) to aerospace ZYX (roll, pitch, yaw).

    Accepts a single quaternion or an array of shape (..., 4). The input is
    renormalized; the pitch argument is clamped into [-1, 1] so gimbal-lock
    inputs land exactly on +-pi/2.
    """
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    # added left to right, as numpy sums a 4-element last axis
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    if np.any(norm < 1e-8):
        raise ZeroQuaternion("quaternion norm too small to normalize")
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    roll = np.arctan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    pitch = np.arcsin(np.clip(2.0 * (w * y - z * x), -1.0, 1.0))
    yaw = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return roll, pitch, yaw


def euler_to_quaternion(roll, pitch, yaw):
    """Inverse of quaternion_to_euler; returns array of shape (..., 4)."""
    roll = np.asarray(roll, dtype=np.float64)
    cr, sr = np.cos(roll / 2), np.sin(roll / 2)
    cp, sp = np.cos(np.asarray(pitch) / 2), np.sin(np.asarray(pitch) / 2)
    cy, sy = np.cos(np.asarray(yaw) / 2), np.sin(np.asarray(yaw) / 2)
    w = cr * cp * cy + sr * sp * sy
    x = sr * cp * cy - cr * sp * sy
    y = cr * sp * cy + sr * cp * sy
    z = cr * cp * sy - sr * sp * cy
    return np.stack([w, x, y, z], axis=-1)


def _quaternion_columns(series, base_field):
    names = [f"{base_field}[{i}]" for i in range(4)]
    if not all(n in series.columns for n in names):
        return None
    return np.stack([series.columns[n] for n in names], axis=-1)


def assemble_features(log, subset: FeatureSubset):
    """Extract one (timestamps, values) series per subset key, in subset order.

    Returns None ("missing") if any key is absent, so the log is excluded
    from that subset's dataset.
    """
    out = []
    euler = {}  # (topic, field) -> (roll, pitch, yaw), converted once per call
    for key in subset.keys:
        series = log.series(key.topic)
        if series is None:
            return None
        if key.derived:  # a known tag: FeatureSubset checks them
            angles = euler.get((key.topic, key.field))
            if angles is None:
                quats = _quaternion_columns(series, key.field)
                if quats is None:
                    return None
                angles = euler[key.topic, key.field] = quaternion_to_euler(quats)
            values = angles[_EULER_TAGS[key.derived]]
        else:
            values = series.columns.get(key.field)
            if values is None:
                return None
        out.append((series.timestamps, values))
    return out
