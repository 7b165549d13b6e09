import numpy as np
import pytest

from uavclass.synth import SynthSpec, generate_flight
from uavclass.ulog import US_PER_S, VehicleType


def brute_force_bins(series_list, n_intervals, window_s=None):
    """Independent O(points x bins) reference for both sampling methods."""
    non_empty = [(ts, vs) for ts, vs in series_list if len(ts) > 0]
    t_min = min(float(ts[0]) for ts, _ in non_empty)
    t_max = max(float(ts[-1]) for ts, _ in non_empty)
    width = (t_max - t_min) / n_intervals
    edges = t_min + width * np.arange(n_intervals + 1)
    window_us = None
    if window_s is not None:
        window_us = window_s * US_PER_S
        if window_us >= width:
            window_us = None  # window fills the bin: plain averaging
    out = np.zeros((n_intervals, len(series_list)))
    for f, (ts, vs) in enumerate(series_list):
        for b in range(n_intervals):
            chosen = []
            for t, v in zip(ts, vs):
                t = float(t)
                if b < n_intervals - 1:
                    in_bin = edges[b] <= t < edges[b + 1]
                else:
                    in_bin = t >= edges[b]
                if in_bin and window_us is not None and (t - edges[b]) > window_us:
                    in_bin = False
                if in_bin:
                    chosen.append(v)
            if chosen:
                out[b, f] = sum(chosen) / len(chosen)
    return out


def time_envelope(series_list):
    """A flight's (t_min, t_max) in microseconds over its non-empty series."""
    non_empty = [ts for ts, _ in series_list if len(ts) > 0]
    return min(int(ts[0]) for ts in non_empty), max(int(ts[-1]) for ts in non_empty)


def random_small_flight(rng, n_features=3):
    """A handful of asynchronous series with irregular timestamps."""
    series = []
    base = rng.uniform(0, 5.0)
    for _ in range(n_features):
        n = rng.integers(5, 60)
        start = base + rng.uniform(0, 3.0)
        gaps = rng.uniform(0.05, 1.5, size=n)
        t = ((start + np.cumsum(gaps)) * US_PER_S).astype(np.uint64)
        v = rng.normal(0, 10, size=n)
        series.append((t, v))
    return series


def assert_same_topics(a, b):
    """Bit-for-bit equality of two flights' timestamps and columns, -0.0 and NaN included."""
    assert a.topics.keys() == b.topics.keys()
    for key, sa in a.topics.items():
        sb = b.topics[key]
        assert sa.timestamps.tobytes() == sb.timestamps.tobytes(), key
        assert sa.columns.keys() == sb.columns.keys(), key
        for name, col in sa.columns.items():
            other = sb.columns[name]
            assert np.array_equal(col.view(np.int64), other.view(np.int64)), (key, name)


@pytest.fixture(scope="session")
def small_quad_flight():
    return generate_flight(SynthSpec(VehicleType.QUADROTOR, duration_s=60.0, seed=11))


@pytest.fixture(scope="session")
def small_corpus():
    from uavclass.synth import generate_corpus

    return generate_corpus(12, 4, 4, seed=5, duration_s=45.0)


class NumpyProxy:
    """Stands in for a module's `np`: the given functions replace numpy's,
    every other name is numpy's own. Tests count calls through it."""

    def __init__(self, **functions):
        self.__dict__.update(functions)

    def __getattr__(self, name):
        return getattr(np, name)
