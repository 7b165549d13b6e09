"""Fixed-length resampling of variable-length, asynchronous flight series.

``resample_flight`` bins a flight's own [t_min, t_max] envelope into n
equal intervals. Average sampling uses every point in a bin; fixed-window
average sampling only uses points within window_s seconds of the bin start.
Empty bins become 0 and are flagged so standardization can skip them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UavclassError
from .ulog import US_PER_S, VehicleType

AVERAGE = "average"
FIXED_WINDOW = "fixed_window"


class ResampleError(UavclassError):
    pass


class AllEmpty(ResampleError):
    pass


class DegenerateRange(ResampleError):
    """Flight spans a single instant; excluded at dataset assembly."""


class EmptySplit(ResampleError):
    pass


@dataclass
class SamplingConfig:
    method: str = AVERAGE
    n_intervals: int = 50
    window_s: float | None = None

    def __post_init__(self):
        if self.method not in (AVERAGE, FIXED_WINDOW):
            raise ResampleError(f"unknown sampling method {self.method!r}")
        if self.n_intervals < 1:
            raise ResampleError("n_intervals must be >= 1")
        if self.method == FIXED_WINDOW and (self.window_s is None or self.window_s <= 0):
            raise ResampleError("fixed_window sampling needs window_s > 0")
        if self.method == AVERAGE and self.window_s is not None:
            raise ResampleError("average sampling takes no window_s; use fixed_window")

    def describe(self) -> str:
        if self.method == AVERAGE:
            return f"{self.n_intervals}"
        return f"{self.n_intervals}, {self.window_s:g}"


@dataclass
class SampledInstance:
    """Fixed-length [n_intervals x n_features] matrix with its class label.

    Nothing writes ``values`` or ``mask`` in place: ``Scaler.fit`` keeps their
    ``moments`` on the instance, and a ``dataclasses.replace`` copy starts without.
    """

    values: np.ndarray
    mask: np.ndarray  # True where the bin contained data
    label: VehicleType
    source_id: str = ""
    synthetic: bool = False
    moments: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class Dataset:
    """Labeled instances sharing one sampling configuration."""

    instances: list
    config: SamplingConfig
    feature_names: tuple = ()

    def __len__(self):
        return len(self.instances)

    def labels(self) -> np.ndarray:
        return np.array([inst.label.class_index for inst in self.instances])


def _bin_means(series_list, n_intervals, window_us=None):
    """Mean of each feature per bin of the flight's envelope, and which bins held data.

    With ``window_us``, a bin averages only its points within window_us of
    its start. A window at least as wide as a bin is dropped, so it bins as
    average sampling does, bit for bit.
    """
    non_empty = [ts for ts, _ in series_list if len(ts) > 0]
    if not non_empty:
        raise AllEmpty("no samples in any series")
    t_min = min(int(ts[0]) for ts in non_empty)
    t_max = max(int(ts[-1]) for ts in non_empty)
    if t_max == t_min:
        raise DegenerateRange("flight spans a single instant")
    width = (t_max - t_min) / n_intervals
    if window_us is not None and window_us >= width:
        window_us = None
    edges = t_min + width * np.arange(n_intervals + 1)
    values = np.zeros((n_intervals, len(series_list)))
    mask = np.zeros((n_intervals, len(series_list)), dtype=bool)
    last_ts = None
    for f, (ts, vs) in enumerate(series_list):
        v = np.asarray(vs, dtype=np.float64)
        if ts is not last_ts:
            # features of one topic share their timestamp array: bin it once
            last_ts = ts
            t = np.asarray(ts, dtype=np.float64)
            bins = np.searchsorted(edges, t, side="right")
            bins -= 1
            np.maximum(bins, 0, out=bins)
            np.minimum(bins, n_intervals - 1, out=bins)
            keep = None
            if window_us is not None:
                keep = (t - edges[bins]) <= window_us
                bins = bins[keep]
            counts = np.bincount(bins, minlength=n_intervals)
            filled = counts > 0
        if keep is not None:
            v = v[keep]
        sums = np.bincount(bins, weights=v, minlength=n_intervals)
        np.divide(sums, counts, out=values[:, f], where=filled)
        mask[:, f] = filled
    return values, mask


def resample_flight(series_list, config: SamplingConfig):
    """A flight's [n_intervals, n_features] bin means and mask under ``config``."""
    window_us = config.window_s * US_PER_S if config.method == FIXED_WINDOW else None
    return _bin_means(series_list, config.n_intervals, window_us)


class Scaler:
    """Per-feature standardization fitted on training folds only.

    Zero-padded cells (mask False) neither contribute to the statistics nor
    get transformed. Near-constant features are left unscaled.

    ``fit`` reads three [F] rows per instance: its masked column sums over T
    in time order, their sums of squares and its mask counts. An instance's
    first fit keeps them on it as ``moments`` (threads that fill one instance
    at once write equal rows), so the folds and trials of a grid only add
    rows into the totals, in instance order, which keeps the statistics' bits.
    ``transform_all`` subtracts and divides [T, F] tiles of the mean and
    scale, so its elementwise loops run over whole instances rather than F
    cells at a time.
    """

    def __init__(self):
        self.mean = None
        self.scale = None

    def fit(self, instances):
        if not instances:
            raise EmptySplit("cannot fit scaler on an empty split")
        shape = instances[0].values.shape
        totals = np.zeros((3, shape[1]))
        for inst in instances:
            if inst.values.shape != shape:
                raise ResampleError("cannot fit scaler on a split of mixed shapes")
            if inst.moments is None:
                masked = np.where(inst.mask, inst.values, 0.0)
                inst.moments = np.array([masked.sum(axis=0), (masked * masked).sum(axis=0),
                                         inst.mask.sum(axis=0)])
            totals += inst.moments
        total, total_sq, count = totals
        safe = np.maximum(count, 1)
        mean = total / safe
        var = np.maximum(total_sq / safe - mean * mean, 0.0)
        std = np.sqrt(var)
        degenerate = (std < 1e-12) | (count == 0)
        self.mean = np.where(degenerate, 0.0, mean)
        self.scale = np.where(degenerate, 1.0, std)
        return self

    def transform_all(self, instances):
        if self.mean is None:
            raise EmptySplit("scaler not fitted")
        out, mean, scale = [], None, None
        for inst in instances:
            if mean is None or mean.shape != inst.values.shape:
                mean, scale = (np.tile(a, (len(inst.values), 1)) for a in (self.mean, self.scale))
            values = inst.values - mean
            values /= scale
            np.copyto(values, inst.values, where=~inst.mask)
            out.append(SampledInstance(values, inst.mask, inst.label, inst.source_id,
                                       inst.synthetic))
        return out
