"""End-to-end orchestration: logs -> instances -> folds -> trained model -> report."""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import balance as bal
from . import evaluate as ev
from . import lstm
from .cache import MalformedPayload, Reader, Writer
from .features import FeatureSubset, assemble_features
from .resample import (
    AVERAGE,
    FIXED_WINDOW,
    Dataset,
    DegenerateRange,
    ResampleError,
    SampledInstance,
    SamplingConfig,
    Scaler,
    resample_flight,
)


@dataclass
class AssemblyReport:
    """Which logs made it into the dataset and why the rest did not."""

    used: int = 0
    missing_features: list = field(default_factory=list)
    unlabeled: list = field(default_factory=list)
    degenerate: list = field(default_factory=list)


def build_dataset(logs, subset: FeatureSubset, config: SamplingConfig):
    """Resample every eligible log into a fixed-length instance.

    Logs with an unusable label, a missing feature, or a single-instant time
    range are excluded and listed in the assembly report.
    """
    instances = []
    report = AssemblyReport()
    for log in logs:
        if log.vehicle_type.class_index is None:
            report.unlabeled.append(log.source_id)
            continue
        series = assemble_features(log, subset)
        if series is None:
            report.missing_features.append(log.source_id)
            continue
        try:
            values, mask = resample_flight(series, config)
        except DegenerateRange:
            report.degenerate.append(log.source_id)
            continue
        instances.append(
            SampledInstance(values, mask, log.vehicle_type, source_id=log.source_id)
        )
    report.used = len(instances)
    names = tuple(str(k) for k in subset.keys)
    return Dataset(instances, config, feature_names=names), report


def to_arrays(instances):
    """The [N, T, F] values and [N] class indices of a list of instances, for the LSTM."""
    X = np.stack([inst.values for inst in instances])
    y = np.array([inst.label.class_index for inst in instances])
    return X, y


def run_trial(
    dataset: Dataset,
    balance_config: bal.BalanceConfig,
    train_config: lstm.TrainConfig,
    k: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """Full k-fold run: rebalance and standardize training folds, train, score.

    Returns the int64 [k, class, class] confusion matrices of the test folds.
    Folds are independent and seeded by their index, so they run on one
    thread per CPU this process may use and are collected in fold order:
    the result is the same for any number of threads.
    """
    folds = ev.stratified_kfold(dataset.labels(), k=k, seed=seed)
    workers = min(k, _usable_cpus())
    with _one_blas_thread(workers > 1), ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_fold, dataset, folds, test_fold, balance_config, train_config)
            for test_fold in range(k)
        ]
        try:
            return np.stack([future.result() for future in futures])
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


# (get, set) thread-count functions of OpenBLAS; numpy's wheels bundle a copy
# whose symbols carry a prefix and a suffix
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@contextmanager
def _one_blas_thread(active: bool):
    """Run the block with every loaded OpenBLAS on one thread, then restore it.

    Folds on parallel threads each take a core; a multi-threaded GEMM inside
    each fold would only make the threads compete for the same cores. Only
    OpenBLAS libraries listed in /proc/self/maps are found; elsewhere, and
    for other BLAS libraries, nothing changes.
    """
    restore = []
    if active:
        try:
            with open("/proc/self/maps") as fh:
                paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        except OSError:
            paths = []
        for path in paths:
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # a mapped file that is not a loadable library
                continue
            for get, set_ in _OPENBLAS_THREADS:
                if hasattr(lib, get) and hasattr(lib, set_):
                    getter, setter = getattr(lib, get), getattr(lib, set_)
                    getter.restype, setter.argtypes = ctypes.c_int, [ctypes.c_int]
                    restore.append((setter, getter()))
                    setter(1)
                    break
    try:
        yield
    finally:
        for setter, threads in restore:
            setter(threads)


def _run_fold(dataset, folds, test_fold, balance_config, train_config):
    """Train on every fold but ``test_fold`` and return its confusion matrix."""
    train_insts = [inst for inst, f in zip(dataset.instances, folds) if f != test_fold]
    test_insts = [inst for inst, f in zip(dataset.instances, folds) if f == test_fold]

    scaler = Scaler().fit(train_insts)
    train_insts = scaler.transform_all(train_insts)
    test_insts = scaler.transform_all(test_insts)

    balanced = bal.rebalance(train_insts, balance_config)
    # rebalanced instances live outside any fold (-1); the test fold must
    # come through count-identical and free of synthetics
    combined = balanced + test_insts
    fold_of = [-1] * len(balanced) + [test_fold] * len(test_insts)
    bal.assert_test_fold_purity(
        combined, fold_of, test_fold, expected_count=int(np.sum(folds == test_fold))
    )

    X_test, y_test = to_arrays(test_insts)
    X_train, y_train = to_arrays(balanced)
    # training holds only the stacked arrays, not the scaled instances
    del train_insts, test_insts, balanced, combined
    fold_train = replace(train_config, seed=train_config.seed + test_fold)
    params, _ = lstm.train(X_train, y_train, fold_train)
    return ev.confusion(lstm.predict_batch(params, X_test), y_test)


# Trial grids in the standard numbering: 1-12 sampling, 13-27 imbalance.
# One row per trial: (method label, config method, level).
_N_INTERVALS = (50, 200, 500)
_SAMPLING_LEVELS = [("average_sampling", AVERAGE, (n, None)) for n in _N_INTERVALS] + [
    ("fixed_window_average", FIXED_WINDOW, (n, w)) for n in _N_INTERVALS for w in (2.0, 5.0, 10.0)
]
_FACTORS, _REDUCTIONS = (1.5, 2.0, 2.5), (0.25, 0.5, 0.75)
_IMBALANCE_LEVELS = [
    (label, method, level)
    for label, method, levels in (
        ("data_augmentation", bal.METHOD_AUGMENTATION, _FACTORS),
        ("random_oversampling", bal.METHOD_RANDOM_OVERSAMPLE, _FACTORS),
        ("random_undersampling", bal.METHOD_RANDOM_UNDERSAMPLE, _REDUCTIONS),
        ("smote_oversampling", bal.METHOD_SMOTE, _FACTORS),
        ("cluster_centroid", bal.METHOD_CLUSTER_CENTROID, _REDUCTIONS),
    )
    for level in levels
]


def _numbered(first_trial, labelled_configs):
    """(trial id, method label, parameters, config), ids counted from ``first_trial``."""
    return [(first_trial + i, label, config.describe(), config)
            for i, (label, config) in enumerate(labelled_configs)]


def sampling_grid():
    return _numbered(1, [(label, SamplingConfig(method, n, window_s=w))
                         for label, method, (n, w) in _SAMPLING_LEVELS])


def imbalance_grid(smote_k=5, seed=0):
    def config(method, level):
        if method in bal.OVERSAMPLE_METHODS:
            return bal.BalanceConfig(method, minority_factor=level, smote_k=smote_k, seed=seed)
        return bal.BalanceConfig(method, majority_reduction=level, seed=seed)

    return _numbered(13, [(label, config(method, level))
                          for label, method, level in _IMBALANCE_LEVELS])


# --- sampled-dataset serialization (layout in the cache module docstring) ----

DATASET_MAGIC = b"UAVDATA1"
DATASET_VERSION = 1


def write_dataset(dataset: Dataset, path):
    """Persist sampled instances with their SamplingConfig for reproducible runs."""
    config = dataset.config
    with Writer(path, DATASET_MAGIC, DATASET_VERSION) as w:
        w.str(config.method)
        has_window = config.window_s is not None
        # the standardize byte is always 1: training folds are always standardized
        w.pack("<I?dB", config.n_intervals, has_window, config.window_s if has_window else 0.0, 1)
        w.pack("<I", len(dataset.feature_names))
        for name in dataset.feature_names:
            w.str(name)
        w.pack("<I", len(dataset.instances))
        for inst in dataset.instances:
            w.str(inst.source_id)
            w.vehicle_type(inst.label)
            w.pack("<?II", inst.synthetic, *inst.values.shape)
            w.array(inst.values, "<f8")
            w.array(np.packbits(inst.mask.ravel()), "u1")


def read_dataset(path) -> Dataset:
    with Reader(path, DATASET_MAGIC, DATASET_VERSION) as r:
        method = r.str()
        n_intervals, has_window, window_s, standardize = r.unpack("<I?dB")
        if standardize != 1:
            raise MalformedPayload(f"dataset standardize byte is {standardize}, not 1")
        try:
            config = SamplingConfig(method, n_intervals, window_s if has_window else None)
        except ResampleError as exc:
            raise MalformedPayload(f"dataset sampling config: {exc}") from None
        feature_names = tuple(r.str() for _ in range(r.unpack("<I")[0]))
        instances = []
        for _ in range(r.unpack("<I")[0]):
            source_id = r.str()
            label = r.vehicle_type()
            synthetic, rows, cols = r.unpack("<?II")
            if (rows, cols) != (config.n_intervals, len(feature_names)):
                raise MalformedPayload(f"instance {source_id!r} is {rows}x{cols}")
            values = r.array("<f8", (rows, cols))
            n_bits = rows * cols
            mask = np.unpackbits(r.array("u1", (n_bits + 7) // 8), count=n_bits)
            instances.append(
                SampledInstance(
                    values,
                    mask.reshape(rows, cols).astype(bool),
                    label,
                    source_id=source_id,
                    synthetic=synthetic,
                )
            )
        r.done()
    return Dataset(instances, config, feature_names=feature_names)
