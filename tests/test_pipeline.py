import ctypes
import io
import os
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import single_instant
from uavclass import lstm, pipeline
from uavclass.balance import BalanceConfig, assert_test_fold_purity, rebalance
from uavclass.cache import CacheError
from uavclass.evaluate import TrialReport
from uavclass.features import BASELINE_SUBSET
from uavclass.lstm import TrainConfig
from uavclass.pipeline import (
    build_dataset,
    imbalance_grid,
    read_dataset,
    run_trial,
    sampling_grid,
    write_dataset,
)
from uavclass.resample import Dataset, SamplingConfig, Scaler
from uavclass.synth import SynthSpec, generate_flight
from uavclass.ulog import FlightLog, VehicleType


@pytest.fixture(scope="module")
def tiny_dataset(small_corpus):
    dataset, _ = build_dataset(small_corpus, BASELINE_SUBSET, SamplingConfig("average", 20))
    assert len(dataset) == len(small_corpus)
    return dataset


class TestBuildDataset:
    def test_all_synthetic_logs_usable(self, tiny_dataset, small_corpus):
        assert len(tiny_dataset.instances) == len(small_corpus)
        assert all(inst.values.shape == (20, 9) for inst in tiny_dataset.instances)

    def test_unlabeled_logs_excluded(self, small_corpus):
        other = FlightLog(
            topics=dict(small_corpus[0].topics),
            vehicle_type=VehicleType.OTHER,
            source_id="mystery",
        )
        dataset, report = build_dataset(
            small_corpus + [other], BASELINE_SUBSET, SamplingConfig("average", 10)
        )
        assert report.unlabeled == ["mystery"]
        assert len(dataset.instances) == len(small_corpus)

    def test_missing_feature_logged(self, small_corpus):
        partial = FlightLog(
            topics={
                k: v
                for k, v in small_corpus[0].topics.items()
                if k[0] != "vehicle_attitude"
            },
            vehicle_type=VehicleType.QUADROTOR,
            source_id="partial",
        )
        dataset, report = build_dataset(
            [partial] + list(small_corpus), BASELINE_SUBSET, SamplingConfig("average", 10)
        )
        assert report.missing_features == ["partial"]
        assert len(dataset) == len(small_corpus)

    def test_single_instant_flight_listed_as_degenerate(self, small_corpus):
        dataset, report = build_dataset([single_instant(small_corpus[0])] + list(small_corpus),
                                        BASELINE_SUBSET, SamplingConfig("average", 10))
        assert report.degenerate == ["instant"]
        assert report.missing_features == report.unlabeled == []
        assert len(dataset) == len(small_corpus)

    def test_class_counts(self, tiny_dataset):
        counts = Counter(inst.label for inst in tiny_dataset.instances)
        assert counts[VehicleType.QUADROTOR] == 12
        assert counts[VehicleType.HEXAROTOR] == 4
        assert counts[VehicleType.FIXED_WING] == 4


class TestTrialGrids:
    def test_sampling_grid_layout(self):
        grid = sampling_grid()
        assert len(grid) == 12
        assert [t[0] for t in grid] == list(range(1, 13))
        assert all(cfg.method == "average" for _, _, _, cfg in grid[:3])
        assert all(cfg.method == "fixed_window" for _, _, _, cfg in grid[3:])
        windows = {cfg.window_s for _, _, _, cfg in grid[3:]}
        assert windows == {2.0, 5.0, 10.0}

    def test_imbalance_grid_layout(self):
        grid = imbalance_grid()
        assert len(grid) == 15
        assert [t[0] for t in grid] == list(range(13, 28))
        methods = [cfg.method for _, _, _, cfg in grid]
        assert methods.count("augmentation") == 3
        assert methods.count("random_oversample") == 3
        assert methods.count("random_undersample") == 3
        assert methods.count("smote") == 3
        assert methods.count("cluster_centroid") == 3

    def test_oversample_levels(self):
        grid = imbalance_grid()
        factors = [
            cfg.minority_factor for _, _, _, cfg in grid if cfg.method == "smote"
        ]
        assert factors == [1.5, 2.0, 2.5]


class TestRunTrial:
    def test_small_run_produces_complete_report(self, tiny_dataset):
        folds = run_trial(
            tiny_dataset,
            BalanceConfig(method="none"),
            TrainConfig(epochs=2, batch_size=8, hidden=4),
            k=4,
            seed=0,
        )
        assert folds.shape == (4, 3, 3) and folds.dtype == np.int64
        report = TrialReport(99, "average_sampling", "20", folds)
        assert len(report.fold_confusions) == 4
        assert report.pooled_confusion.sum() == len(tiny_dataset.instances)
        mean, std = report.macro_f_mean_std()
        assert 0.0 <= mean <= 1.0 and std >= 0.0

    def test_rebalanced_run_keeps_test_instances(self, tiny_dataset):
        folds = run_trial(
            tiny_dataset,
            BalanceConfig(method="random_oversample", minority_factor=2.0),
            TrainConfig(epochs=1, batch_size=8, hidden=4),
            k=4,
        )
        # every original instance is tested exactly once across folds
        assert folds.sum() == len(tiny_dataset.instances)

    def test_determinism(self, tiny_dataset):
        kwargs = dict(
            balance_config=BalanceConfig(method="smote", minority_factor=1.5),
            train_config=TrainConfig(epochs=1, batch_size=8, hidden=4),
            k=4,
            seed=3,
        )
        a = run_trial(tiny_dataset, **kwargs)
        b = run_trial(tiny_dataset, **kwargs)
        # every metric derives from the fold confusions
        assert np.array_equal(a, b)

    def test_folds_train_and_score_in_float32(self, tiny_dataset, monkeypatch):
        seen = []  # (function, dtype of X, dtypes of the parameters)
        real_train, real_predict = lstm.train, lstm.predict_batch

        def train(X, labels, config):
            params, history = real_train(X, labels, config)
            seen.append(("train", X.dtype, frozenset(t.dtype for t in params.tensors())))
            return params, history

        def predict_batch(params, X, batch_size):
            seen.append(("predict", X.dtype, frozenset(t.dtype for t in params.tensors())))
            return real_predict(params, X, batch_size)

        monkeypatch.setattr(lstm, "train", train)
        monkeypatch.setattr(lstm, "predict_batch", predict_batch)
        run_trial(tiny_dataset, BalanceConfig(method="smote", minority_factor=1.5),
                  TrainConfig(epochs=1, batch_size=8, hidden=4), k=4)
        f32 = np.dtype(np.float32)
        assert Counter(seen) == {("train", f32, frozenset({f32})): 4,
                                 ("predict", f32, frozenset({f32})): 4}


    def test_folds_leave_shared_instances_unchanged(self, tiny_dataset, monkeypatch):
        # the folds read one list of instances; scaling and rebalancing must
        # copy, never write into a shared instance
        before = [
            (inst.values.copy(), inst.mask.copy(), inst.label, inst.source_id, inst.synthetic)
            for inst in tiny_dataset.instances
        ]
        kwargs = dict(
            balance_config=BalanceConfig(method="augmentation", minority_factor=2.0),
            train_config=TrainConfig(epochs=1, batch_size=8, hidden=4),
            k=4,
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = run_trial(tiny_dataset, **kwargs)
        # more threads than this machine's cores, switching as often as possible
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_trial(tiny_dataset, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert len(tiny_dataset.instances) == len(before)
        for inst, (values, mask, label, source_id, synthetic) in zip(
            tiny_dataset.instances, before
        ):
            assert np.array_equal(inst.values.view(np.int64), values.view(np.int64))
            assert np.array_equal(inst.mask, mask)
            assert (inst.label, inst.source_id, inst.synthetic) == (label, source_id, synthetic)
        assert np.array_equal(serial, threaded)

    @pytest.mark.parametrize("threaded", [True, False])
    def test_fold_path_never_writes_instance_arrays(self, tiny_dataset, monkeypatch, threaded):
        # scaled instances share masks, and random duplicates share arrays:
        # read-only arrays make any in-place write on the fold path raise,
        # on one thread or on several
        cpus = set(range(4)) if threaded else {0}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        instances = []
        for inst in tiny_dataset.instances:
            values, mask = inst.values.copy(), inst.mask.copy()
            values.setflags(write=False)
            mask.setflags(write=False)
            instances.append(replace(inst, values=values, mask=mask))
        dataset = Dataset(instances, tiny_dataset.config, tiny_dataset.feature_names)
        folds = run_trial(
            dataset, BalanceConfig(method="random_oversample", minority_factor=2.0),
            TrainConfig(epochs=1, batch_size=8, hidden=4), k=4,
        )
        assert int(np.sum(folds)) == len(instances)

    @pytest.mark.parametrize("method", ["random_oversample", "random_undersample", "smote",
                                        "cluster_centroid", "augmentation"])
    def test_no_step_writes_read_only_instances(self, tiny_dataset, method):
        # Scaler.fit keeps each instance's moments, which holds only while
        # nothing writes an instance's arrays in place
        def read_only(instances):
            out = [replace(inst, values=inst.values.copy(), mask=inst.mask.copy())
                   for inst in instances]
            for inst in out:
                inst.values.flags.writeable = False
                inst.mask.flags.writeable = False
            return out

        instances = read_only(tiny_dataset.instances)
        train, test = instances[::2], instances[1::2]
        scaler = Scaler().fit(train)
        scaled = read_only(scaler.transform_all(train))
        scaler.transform_all(test)
        config = BalanceConfig(method=method, minority_factor=2.0, smote_k=1)
        for split in (train, scaled):
            balanced = rebalance(split, config)
            assert_test_fold_purity(balanced + test, [-1] * len(balanced) + [1] * len(test),
                                    test_fold=1, expected_count=len(test))
        dataset = Dataset(instances, tiny_dataset.config, tiny_dataset.feature_names)
        folds = run_trial(dataset, config, TrainConfig(epochs=1, batch_size=8, hidden=4), k=2)
        assert int(np.sum(folds)) == len(instances)

    def test_folds_run_with_one_blas_thread(self, tiny_dataset, monkeypatch):
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("loaded libraries are not listed on this platform")
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        getters = [
            getattr(ctypes.CDLL(path), get)
            for path in paths
            for get, _ in pipeline._OPENBLAS_THREADS
            if hasattr(ctypes.CDLL(path), get)
        ]
        if not getters:
            pytest.skip("no OpenBLAS loaded")
        count = getters[0]
        count.restype = ctypes.c_int
        before = count()
        seen = []
        real_train = lstm.train

        def train(*args, **kwargs):
            seen.append(count())
            return real_train(*args, **kwargs)

        monkeypatch.setattr(lstm, "train", train)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        run_trial(tiny_dataset, BalanceConfig(method="none"),
                  TrainConfig(epochs=1, batch_size=8, hidden=4), k=4)
        assert seen == [1] * 4
        assert count() == before


class _StandInOpenblas:
    """An ILP64 OpenBLAS as numpy 1.x wheels bundle it: its thread functions
    carry the 64_ suffix and no prefix."""

    def __init__(self, threads):
        self.threads = threads

        def set_threads(n):
            self.threads = n

        # plain functions, so the hold can set their ctypes restype and argtypes
        self.openblas_get_num_threads64_ = lambda: self.threads
        self.openblas_set_num_threads64_ = set_threads


@pytest.fixture
def stand_in_openblas(monkeypatch):
    """The one mapped OpenBLAS, whatever numpy loaded, is the stand-in, on 2 threads."""
    lib = _StandInOpenblas(threads=2)
    maps = "7f0000000000-7f0000001000 r-xp 00000000 00:00 0 /wheel/libopenblas64_p-r0.so\n"
    monkeypatch.setattr(pipeline, "open", lambda path: io.StringIO(maps), raising=False)
    monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda path: lib)
    return lib


class TestBlasHold:
    def test_names_every_openblas_build(self):
        assert set(pipeline._OPENBLAS_THREADS) == {
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"),
        }

    def test_holds_an_ilp64_openblas_without_prefix(self, stand_in_openblas):
        with pipeline._one_blas_thread():
            assert stand_in_openblas.threads == 1
        assert stand_in_openblas.threads == 2

    def test_holds_with_one_usable_cpu(self, tiny_dataset, stand_in_openblas, monkeypatch):
        seen = []
        real_train = lstm.train

        def train(*args, **kwargs):
            seen.append(stand_in_openblas.threads)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(lstm, "train", train)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        run_trial(tiny_dataset, BalanceConfig(method="none"),
                  TrainConfig(epochs=1, batch_size=8, hidden=4), k=2)
        assert seen == [1, 1]
        assert stand_in_openblas.threads == 2


class TestDatasetSerialization:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.bin"
        write_dataset(tiny_dataset, path)
        back = read_dataset(path)
        assert back.config.method == tiny_dataset.config.method
        assert back.config.n_intervals == tiny_dataset.config.n_intervals
        assert back.feature_names == tiny_dataset.feature_names
        assert len(back.instances) == len(tiny_dataset.instances)
        for a, b in zip(tiny_dataset.instances, back.instances):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.mask, b.mask)
            assert a.label is b.label
            assert a.source_id == b.source_id
            assert a.synthetic == b.synthetic

    def test_fixed_window_config_roundtrip(self, tmp_path):
        log = generate_flight(SynthSpec(VehicleType.QUADROTOR, duration_s=40.0, seed=1))
        dataset, _ = build_dataset(
            [log], BASELINE_SUBSET, SamplingConfig("fixed_window", 8, window_s=2.0)
        )
        path = tmp_path / "dataset.bin"
        write_dataset(dataset, path)
        back = read_dataset(path)
        assert back.config.method == "fixed_window"
        assert back.config.window_s == 2.0

    def test_corruption_detected(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.bin"
        write_dataset(tiny_dataset, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheError):
            read_dataset(path)


def _flight_statistics(values):
    """[N, 27] rows: the mean, std and mean |diff| of each feature over a flight's bins."""
    return np.concatenate([values.mean(axis=1), values.std(axis=1),
                           np.abs(np.diff(values, axis=1)).mean(axis=1)], axis=1)


def _logistic_logits(X_train, y_train, X_test, steps=2000, lr=0.5, l2=1e-3):
    """Multinomial logistic regression by plain gradient descent on the
    standardized training rows; the test rows' logits."""
    mean, std = X_train.mean(axis=0), X_train.std(axis=0)
    std[std == 0] = 1.0
    X_train, X_test = (X_train - mean) / std, (X_test - mean) / std
    onehot = np.eye(3)[y_train]
    W, b = np.zeros((X_train.shape[1], 3)), np.zeros(3)
    for _ in range(steps):
        z = X_train @ W + b
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / len(X_train)
        W -= lr * (X_train.T @ g + l2 * W)
        b -= lr * g.sum(axis=0)
    return X_test @ W + b


class TestHexarotorSignal:
    def test_per_flight_statistics_rank_hexarotors_above_quadrotors(self):
        """The acceptance dataset separates hexarotors from quadrotors: a linear
        probe on 27 per-flight statistics, on the evaluation's 10 folds, ranks
        them with AUC 0.795 (0.715-0.840 over nine corpus seeds). The LSTM's
        failure to find them is then the model's, not the data's."""
        from uavclass.evaluate import stratified_kfold
        from uavclass.synth import iter_corpus
        from uavclass.ulog import CLASS_ORDER

        dataset, _ = build_dataset(iter_corpus(400, 40, 40, seed=7), BASELINE_SUBSET,
                                   SamplingConfig("average", 50))
        X = _flight_statistics(np.stack([inst.values for inst in dataset.instances]))
        labels = dataset.labels()
        folds = stratified_kfold(labels, k=10, seed=0)
        quad = CLASS_ORDER.index(VehicleType.QUADROTOR)
        hexa = CLASS_ORDER.index(VehicleType.HEXAROTOR)
        score = np.zeros(len(labels))
        for fold in range(10):
            test = folds == fold
            logits = _logistic_logits(X[~test], labels[~test], X[test])
            score[test] = logits[:, hexa] - logits[:, quad]
        pairs = score[labels == hexa][:, None] - score[labels == quad][None, :]
        auc = np.mean((pairs > 0) + 0.5 * (pairs == 0))
        assert auc >= 0.65, auc
