import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import uavclass.resample as resample
from conftest import NumpyProxy, brute_force_bins, random_small_flight, time_envelope
from uavclass.resample import (
    AVERAGE,
    FIXED_WINDOW,
    AllEmpty,
    DegenerateRange,
    EmptySplit,
    ResampleError,
    SampledInstance,
    SamplingConfig,
    Scaler,
    resample_flight,
)
from uavclass.ulog import US_PER_S, VehicleType


def _series(ts_s, values):
    ts = (np.asarray(ts_s, dtype=float) * US_PER_S).astype(np.uint64)
    return ts, np.asarray(values, dtype=float)


class TestGlobalRange:
    def test_single_series(self):
        # the envelope [3, 9] s makes three 2 s bins: the samples fill the outer two
        _, mask = resample_flight([_series([3, 9], [0, 0])], SamplingConfig(AVERAGE, 3))
        assert list(mask[:, 0]) == [True, False, True]

    def test_envelope(self):
        # the envelope [0, 10] s spans both series: five 2 s bins
        series = [_series([2, 8], [0, 0]), _series([0, 10], [0, 0])]
        _, mask = resample_flight(series, SamplingConfig(AVERAGE, 5))
        assert list(mask[:, 0]) == [False, True, False, False, True]
        assert list(mask[:, 1]) == [True, False, False, False, True]

    def test_all_empty(self):
        empty = (np.array([], dtype=np.uint64), np.array([]))
        with pytest.raises(AllEmpty):
            resample_flight([empty], SamplingConfig(AVERAGE, 4))

    def test_degenerate_rejected_at_sampling(self):
        series = [_series([5], [1.0])]
        with pytest.raises(DegenerateRange):
            resample_flight(series, SamplingConfig(AVERAGE, 4))


class TestAverageSample:
    def test_constant_series(self):
        series = [_series(np.arange(11), np.full(11, 7.0))]
        values, mask = resample_flight(series, SamplingConfig(AVERAGE, 5))
        assert np.all(values == 7.0)
        assert mask.all()

    def test_ramp_two_bins(self):
        # v(t) = t at t = 0..10 s: bin 0 holds 0..4, bin 1 holds 5..10
        series = [_series(np.arange(11), np.arange(11, dtype=float))]
        values, _ = resample_flight(series, SamplingConfig(AVERAGE, 2))
        assert values[0, 0] == 2.0
        assert values[1, 0] == 7.5

    def test_zero_padding_outside_feature_span(self):
        # feature only in [4, 6) of a [0, 10] flight: bin 2 of 5 is populated
        envelope = _series([0, 10], [0.0, 0.0])
        short = _series([4.0, 4.5, 5.0, 5.5], [1.0, 2.0, 3.0, 4.0])
        values, mask = resample_flight([envelope, short], SamplingConfig(AVERAGE, 5))
        assert values[2, 1] == 2.5
        assert list(mask[:, 1]) == [False, False, True, False, False]
        assert np.all(values[[0, 1, 3, 4], 1] == 0.0)

    def test_mass_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            series = random_small_flight(rng)
            n = int(rng.integers(2, 17))
            values, mask = resample_flight(series, SamplingConfig(AVERAGE, n))
            t_min, t_max = time_envelope(series)
            edges = t_min + (t_max - t_min) / n * np.arange(n + 1)
            for f, (ts, vs) in enumerate(series):
                bins = np.clip(
                    np.searchsorted(edges, ts.astype(float), side="right") - 1, 0, n - 1
                )
                counts = np.bincount(bins, minlength=n)
                recon = float(np.sum(values[:, f] * counts))
                assert abs(recon - float(np.sum(vs))) <= 1e-9 * max(1.0, abs(np.sum(vs)))

    def test_monotone_signal_monotone_bins(self):
        t = np.linspace(0, 30, 200)
        series = [_series(t, t)]
        values, _ = resample_flight(series, SamplingConfig(AVERAGE, 10))
        assert np.all(np.diff(values[:, 0]) >= 0)

    def test_matches_brute_force_on_random_flights(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            series = random_small_flight(rng)
            n = int(rng.integers(1, 13))
            values, _ = resample_flight(series, SamplingConfig(AVERAGE, n))
            assert np.array_equal(values, brute_force_bins(series, n))


class TestFixedWindowSample:
    def test_window_at_least_bin_width_equals_average(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            series = random_small_flight(rng)
            n = int(rng.integers(1, 10))
            t_min, t_max = time_envelope(series)
            bin_width_s = (t_max - t_min) / n / US_PER_S
            avg, _ = resample_flight(series, SamplingConfig(AVERAGE, n))
            win, _ = resample_flight(series, SamplingConfig(FIXED_WINDOW, n, bin_width_s))
            assert np.array_equal(avg, win)
            win2, _ = resample_flight(series, SamplingConfig(FIXED_WINDOW, n, bin_width_s * 3))
            assert np.array_equal(avg, win2)

    def test_two_second_window_example(self):
        # v(t) = t at 0..20 s, 2 bins of 10 s, 2 s window: first three samples
        series = [_series(np.arange(21), np.arange(21, dtype=float))]
        values, _ = resample_flight(series, SamplingConfig(FIXED_WINDOW, 2, 2.0))
        assert values[0, 0] == 1.0  # mean(0, 1, 2)
        assert values[1, 0] == 11.0  # mean(10, 11, 12)

    def test_constant_series_any_window(self):
        series = [_series(np.arange(11), np.full(11, 4.5))]
        for window in (0.5, 2.0, 20.0):
            values, _ = resample_flight(series, SamplingConfig(FIXED_WINDOW, 5, window))
            assert np.all(values == 4.5)

    def test_monotone_signal_monotone_bins(self):
        t = np.linspace(0, 30, 300)
        series = [_series(t, t)]
        values, _ = resample_flight(series, SamplingConfig(FIXED_WINDOW, 10, 1.0))
        assert np.all(np.diff(values[:, 0]) >= 0)

    def test_matches_brute_force_on_random_flights(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            series = random_small_flight(rng)
            n = int(rng.integers(1, 13))
            window_s = float(rng.uniform(0.1, 8.0))
            values, _ = resample_flight(series, SamplingConfig(FIXED_WINDOW, n, window_s))
            assert np.array_equal(values, brute_force_bins(series, n, window_s))

    def test_shape_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n_features = int(rng.integers(1, 6))
            series = random_small_flight(rng, n_features=n_features)
            n = int(rng.integers(1, 20))
            values, mask = resample_flight(series, SamplingConfig(FIXED_WINDOW, n, 1.0))
            assert values.shape == (n, n_features)
            assert mask.shape == (n, n_features)


def _instance(values, mask=None, label=VehicleType.QUADROTOR):
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.ones_like(values, dtype=bool)
    return SampledInstance(values, mask, label)


class TestScaler:
    def test_constant_feature_unchanged(self):
        insts = [_instance(np.full((4, 2), [3.0, 5.0])) for _ in range(3)]
        scaler = Scaler().fit(insts)
        (out,) = scaler.transform_all([insts[0]])
        assert np.array_equal(out.values, insts[0].values)

    def test_training_columns_standardized(self):
        rng = np.random.default_rng(2)
        insts = [_instance(rng.normal(3.0, 2.0, size=(10, 3))) for _ in range(20)]
        scaler = Scaler().fit(insts)
        out = scaler.transform_all(insts)
        stacked = np.concatenate([inst.values for inst in out], axis=0)
        assert np.max(np.abs(stacked.mean(axis=0))) < 1e-9
        assert np.max(np.abs(stacked.std(axis=0) - 1.0)) < 1e-9

    def test_test_instance_uses_training_stats(self):
        train = [_instance(np.full((5, 1), 10.0) + i) for i in range(5)]
        test = _instance(np.full((5, 1), 100.0))
        scaler = Scaler().fit(train)
        (out,) = scaler.transform_all([test])
        # held-out oracle: recompute the training mean/std independently
        values = np.concatenate([inst.values for inst in train]).ravel()
        mu, sigma = values.mean(), values.std()
        assert np.allclose(out.values, (100.0 - mu) / sigma)

    def test_masked_cells_skipped(self):
        values = np.array([[1.0, 5.0], [0.0, 7.0]])
        mask = np.array([[True, True], [False, True]])
        inst = _instance(values, mask)
        scaler = Scaler().fit([inst])
        (out,) = scaler.transform_all([inst])
        assert out.values[1, 0] == 0.0  # padding stays zero

    def test_empty_split(self):
        with pytest.raises(EmptySplit):
            Scaler().fit([])


class TestSamplingConfig:
    def test_window_required(self):
        with pytest.raises(Exception):
            SamplingConfig("fixed_window", 50)

    def test_bad_interval_count(self):
        with pytest.raises(Exception):
            SamplingConfig("average", 0)


def _per_feature_bin_means(series_list, n_intervals, window_us=None):
    """_bin_means as it was: every feature bins its own timestamps."""
    t_min, t_max = time_envelope(series_list)
    width = (t_max - t_min) / n_intervals
    edges = t_min + width * np.arange(n_intervals + 1)
    values = np.zeros((n_intervals, len(series_list)))
    mask = np.zeros((n_intervals, len(series_list)), dtype=bool)
    for f, (ts, vs) in enumerate(series_list):
        t = np.asarray(ts, dtype=np.float64)
        v = np.asarray(vs, dtype=np.float64)
        bins = np.searchsorted(edges, t, side="right") - 1
        bins = np.clip(bins, 0, n_intervals - 1)
        if window_us is not None:
            keep = (t - edges[bins]) <= window_us
            bins, v = bins[keep], v[keep]
        sums = np.bincount(bins, weights=v, minlength=n_intervals)
        counts = np.bincount(bins, minlength=n_intervals)
        filled = counts > 0
        values[filled, f] = sums[filled] / counts[filled]
        mask[:, f] = filled
    return values, mask


def _topics(rng, sizes):
    """One timestamp array per topic and 1-3 value columns sharing it."""
    series = []
    for size in sizes:
        ts = np.sort(rng.integers(0, 60 * US_PER_S, size=size)).astype(np.uint64)
        for _ in range(int(rng.integers(1, 4))):
            series.append((ts, rng.normal(0, 10, size=size)))
    return series


class TestSharedTimestamps:
    @pytest.fixture
    def searchsorted_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return np.searchsorted(*args, **kwargs)

        monkeypatch.setattr(resample, "np", NumpyProxy(searchsorted=counted))
        return calls

    @staticmethod
    def _runs(series):
        # consecutive features with one timestamp object form one run
        return sum(1 for f, (ts, _) in enumerate(series) if f == 0 or ts is not series[f - 1][0])

    def _assert_matches(self, series, searchsorted_calls):
        for n in (1, 7, 50):
            for window_us in (None, 0.0, 2.0 * US_PER_S, 1e-3 * US_PER_S):
                ref_values, ref_mask = _per_feature_bin_means(series, n, window_us)
                searchsorted_calls.clear()
                values, mask = resample._bin_means(series, n, window_us)
                assert len(searchsorted_calls) == self._runs(series)
                assert np.array_equal(values.view(np.int64), ref_values.view(np.int64))
                assert np.array_equal(mask, ref_mask)

    def test_features_sharing_timestamp_objects(self, searchsorted_calls):
        rng = np.random.default_rng(60)
        for _ in range(20):
            series = _topics(rng, rng.integers(2, 400, size=int(rng.integers(1, 6))))
            self._assert_matches(series, searchsorted_calls)

    def test_equal_but_distinct_timestamp_arrays(self, searchsorted_calls):
        rng = np.random.default_rng(61)
        series = _topics(rng, (300, 120))
        series = [(ts.copy(), vs) for ts, vs in series]
        series += [(series[0][0], series[0][1])]  # the first object again, not adjacent
        self._assert_matches(series, searchsorted_calls)

    def test_empty_topics(self, searchsorted_calls):
        rng = np.random.default_rng(62)
        empty = np.array([], dtype=np.uint64)
        none = np.array([])
        series = _topics(rng, (200,))
        series = [(empty, none), (empty, none)] + series + [(empty.copy(), none)]
        series += _topics(rng, (50,))
        self._assert_matches(series, searchsorted_calls)

    def test_baseline_flight(self, small_quad_flight, searchsorted_calls):
        from uavclass.features import BASELINE_SUBSET, assemble_features

        series = assemble_features(small_quad_flight, BASELINE_SUBSET)
        assert self._runs(series) == 5  # 9 features from 5 topics
        self._assert_matches(series, searchsorted_calls)


def _reference_bin_means(series_list, n_intervals, window_us=None):
    """_bin_means as it was before it clipped in place and wrote each column
    with one masked divide."""
    t_min, t_max = time_envelope(series_list)
    width = (t_max - t_min) / n_intervals
    edges = t_min + width * np.arange(n_intervals + 1)
    values = np.zeros((n_intervals, len(series_list)))
    mask = np.zeros((n_intervals, len(series_list)), dtype=bool)
    last_ts = None
    for f, (ts, vs) in enumerate(series_list):
        v = np.asarray(vs, dtype=np.float64)
        if ts is not last_ts:
            last_ts = ts
            t = np.asarray(ts, dtype=np.float64)
            bins = np.searchsorted(edges, t, side="right") - 1
            bins = np.clip(bins, 0, n_intervals - 1)
            keep = None
            if window_us is not None:
                keep = (t - edges[bins]) <= window_us
                bins = bins[keep]
            counts = np.bincount(bins, minlength=n_intervals)
            filled = counts > 0
        if keep is not None:
            v = v[keep]
        sums = np.bincount(bins, weights=v, minlength=n_intervals)
        values[filled, f] = sums[filled] / counts[filled]
        mask[:, f] = filled
    return values, mask


def _with_negative_zeros(rng, series):
    out = []
    for ts, vs in series:
        vs = vs.copy()
        vs[rng.random(len(vs)) < 0.3] = -0.0
        out.append((ts, vs))
    return out


class TestBinMeansEqualsReference:
    @staticmethod
    def _assert_matches(series):
        for n in (1, 7, 50, 500):
            for window_us in (None, 0.0, 2.0 * US_PER_S):
                ref_values, ref_mask = _reference_bin_means(series, n, window_us)
                values, mask = resample._bin_means(series, n, window_us)
                assert np.array_equal(values.view(np.int64), ref_values.view(np.int64))
                assert np.array_equal(mask, ref_mask)

    @pytest.mark.parametrize("n_features", [1, 9])
    def test_random_flights_with_negative_zeros(self, n_features):
        rng = np.random.default_rng(63)
        for _ in range(15):
            self._assert_matches(_with_negative_zeros(rng, random_small_flight(rng, n_features)))

    def test_baseline_flight(self, small_quad_flight):
        from uavclass.features import BASELINE_SUBSET, assemble_features

        series = assemble_features(small_quad_flight, BASELINE_SUBSET)
        self._assert_matches(_with_negative_zeros(np.random.default_rng(64), series))


def _reference_scaler_fit(instances):
    """Scaler.fit as it was: a where, a squares array and a mask sum per instance.
    Returns (mean, scale)."""
    n_features = instances[0].values.shape[1]
    total = np.zeros(n_features)
    total_sq = np.zeros(n_features)
    count = np.zeros(n_features)
    for inst in instances:
        masked = np.where(inst.mask, inst.values, 0.0)
        total += masked.sum(axis=0)
        total_sq += (masked * masked).sum(axis=0)
        count += inst.mask.sum(axis=0)
    safe = np.maximum(count, 1)
    mean = total / safe
    var = np.maximum(total_sq / safe - mean * mean, 0.0)
    std = np.sqrt(var)
    degenerate = (std < 1e-12) | (count == 0)
    return np.where(degenerate, 0.0, mean), np.where(degenerate, 1.0, std)


def _reference_transform_all(instances, mean, scale):
    """Scaler.transform_all as it was: the F-vectors broadcast over each instance."""
    return [np.where(inst.mask, (inst.values - mean) / scale, inst.values) for inst in instances]


def _split(rng, n, shape, masked_column=None):
    out = []
    for i in range(n):
        values = rng.normal(3.0, 2.0, size=shape) * 10.0 ** rng.integers(-3, 4, size=shape[1])
        mask = rng.random(size=shape) > 0.2
        values[~mask] = 0.0
        values[rng.random(size=shape) < 0.1] = -0.0
        if masked_column is not None:
            mask[:, masked_column] = False
            values[:, masked_column] = 0.0
        out.append(SampledInstance(values, mask, VehicleType.HEXAROTOR, f"s{i}", synthetic=bool(i % 2)))
    return out


class TestScalerEqualsReference:
    @pytest.mark.parametrize(
        "shape,masked_column",
        [((50, 9), None), ((500, 9), None), ((50, 9), 4), ((500, 1), None), ((7, 1), None),
         ((20, 1), 0), ((1, 9), None)],
        ids=["50x9", "500x9", "50x9-masked-column", "500x1", "7x1", "20x1-all-masked", "1x9"],
    )
    def test_bit_identical(self, shape, masked_column):
        rng = np.random.default_rng(65)
        # splits of 1 to 70 instances, each fitted once with no moments cached
        for n in (1, 3, 33, 40, 70):
            train = _split(rng, n, shape, masked_column)
            test = _split(rng, 5, shape, masked_column)
            scaler = Scaler().fit(train)
            mean, scale = _reference_scaler_fit(train)
            assert np.array_equal(scaler.mean.view(np.int64), mean.view(np.int64))
            assert np.array_equal(scaler.scale.view(np.int64), scale.view(np.int64))
            for split in (train, test):
                out = scaler.transform_all(split)
                for inst, got, want in zip(split, out, _reference_transform_all(split, mean, scale)):
                    assert np.array_equal(got.values.view(np.int64), want.view(np.int64))
                    assert got.mask is inst.mask
                    assert (got.label, got.source_id, got.synthetic) == (
                        inst.label, inst.source_id, inst.synthetic)
                (one,) = scaler.transform_all(split[:1])
                assert np.array_equal(one.values.view(np.int64), out[0].values.view(np.int64))

    @pytest.mark.parametrize(
        "shapes",
        [((50, 9), (20, 9)), ((50, 9), (50, 18)), ((50, 1), (20, 1))],
        ids=["lengths", "feature-counts", "lengths-F1"],
    )
    @pytest.mark.parametrize("first", [1, 32, 40])
    def test_mixed_shapes_rejected(self, shapes, first):
        # the odd-shaped instances follow 1, 32 or 40 of the first shape
        rng = np.random.default_rng(67)
        train = _split(rng, first, shapes[0]) + _split(rng, 3, shapes[1])
        with pytest.raises(ResampleError):
            Scaler().fit(train)

    def test_transform_before_fit(self):
        with pytest.raises(EmptySplit):
            Scaler().transform_all(_split(np.random.default_rng(66), 1, (5, 2)))

    # A fit keeps each instance's moments on it; the cases below fit
    # instances that already hold them, and copies that must not.

    @staticmethod
    def _assert_reference_bits(scaler, instances):
        mean, scale = _reference_scaler_fit(instances)
        assert np.array_equal(scaler.mean.view(np.int64), mean.view(np.int64))
        assert np.array_equal(scaler.scale.view(np.int64), scale.view(np.int64))

    @pytest.mark.parametrize("shape", [(50, 9), (500, 1)], ids=["50x9", "500x1"])
    def test_second_fit_over_cached_instances(self, shape):
        train = _split(np.random.default_rng(68), 40, shape)
        first = Scaler().fit(train)
        assert all(inst.moments is not None for inst in train)
        # a fold of the same instances in another order, then the whole split
        fold = train[25:] + train[:10]
        self._assert_reference_bits(Scaler().fit(fold), fold)
        second = Scaler().fit(train)
        self._assert_reference_bits(second, train)
        assert np.array_equal(second.mean.view(np.int64), first.mean.view(np.int64))
        assert np.array_equal(second.scale.view(np.int64), first.scale.view(np.int64))

    def test_replaced_values_fit_without_a_stale_row(self):
        rng = np.random.default_rng(69)
        train = _split(rng, 40, (50, 9))
        Scaler().fit(train)
        moved = [replace(inst, values=inst.values * 3.0 + 7.0) for inst in train]
        assert all(inst.moments is None for inst in moved)
        self._assert_reference_bits(Scaler().fit(moved), moved)
        # a copy with the same arrays also starts empty, then fills its own row
        copy = replace(train[0], source_id="copy")
        assert copy.moments is None
        Scaler().fit([copy])
        assert copy.moments is not train[0].moments
        assert np.array_equal(copy.moments, train[0].moments)

    def test_moments_in_neither_repr_nor_eq(self):
        (inst,) = _split(np.random.default_rng(70), 1, (5, 2))
        copy = replace(inst)
        Scaler().fit([inst])
        assert inst.moments is not None and copy.moments is None
        assert "moments" not in repr(inst)
        assert repr(inst) == repr(copy)
        assert inst == copy

    def test_threads_fitting_overlapping_splits(self):
        rng = np.random.default_rng(71)
        shared = _split(rng, 120, (50, 9))
        splits = [shared[i : i + 60] for i in range(0, 61, 12)] * 2
        want = [_reference_scaler_fit(split) for split in splits]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda split: Scaler().fit(split), splits))
        finally:
            sys.setswitchinterval(interval)
        for scaler, (mean, scale) in zip(got, want):
            assert np.array_equal(scaler.mean.view(np.int64), mean.view(np.int64))
            assert np.array_equal(scaler.scale.view(np.int64), scale.view(np.int64))
