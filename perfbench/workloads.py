"""The three benchmark workloads: set-up, one job, and output checks.

Every workload is a closed loop with one client: the runner calls ``job``
again only after the previous call returned. Jobs call the package through
its public entry points, looked up on the module at call time so the tracer
can see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import sys
import traceback
from time import perf_counter

import numpy as np
import yaml

import uavclass.balance as bal
import uavclass.cache as cachemod
import uavclass.cli as cli
import uavclass.evaluate as ev
import uavclass.pipeline as pipeline
import uavclass.resample as resample
import uavclass.synth as synth
from uavclass.features import BASELINE_SUBSET

import px4log

# the acceptance corpus shape: quadrotor / hexarotor / fixed-wing flights
CORPUS_SHAPE = (400, 40, 40)
MACRO_F3_FLOOR = 0.60
MACRO_F2_FLOOR = 0.90


@dataclasses.dataclass
class Job:
    wall: float  # seconds in the timed body
    attempted: int
    failed: int
    detail: dict = dataclasses.field(default_factory=dict)
    items: int = 0  # units of work done correctly, set by the workload's finish


def _report_failure(what):
    print(f"{what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _two_class_macro_f(cm):
    """Macro-F with hexarotor merged into quadrotor: multirotor vs fixed-wing."""
    m = np.array([
        [cm[0, 0] + cm[0, 2] + cm[2, 0] + cm[2, 2], cm[0, 1] + cm[2, 1]],
        [cm[1, 0] + cm[1, 2], cm[1, 1]],
    ])
    fs = []
    for c in range(2):
        p = m[c, c] / m[:, c].sum() if m[:, c].sum() else 0.0
        r = m[c, c] / m[c].sum() if m[c].sum() else 0.0
        fs.append(2 * p * r / (p + r) if p + r else 0.0)
    return float(np.mean(fs))


def _tree_digest(directory, suffixes):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(suffixes):
            h.update(name.encode())
            with open(os.path.join(directory, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def code_digest(root):
    """Hash of the package and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    for sub in ("src/uavclass", "perfbench"):
        directory = os.path.join(root, sub)
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()


class KfoldDesk:
    """`uavclass evaluate` on the acceptance corpus, read from a cache file."""

    name = "kfold-desk"
    epochs = 2  # sized so one job fits the run length; 15 in the acceptance run
    folds = 10
    def __init__(self, work, seed, code):
        self.work, self.seed, self.code = work, seed, code
        self.cache_path = os.path.join(work, "corpus.cache")
        self.config_path = os.path.join(work, "run.yaml")
        self.out_dir = os.path.join(work, "out")
        self.n_flights = 0

    def setup(self):
        logs = synth.generate_corpus(*CORPUS_SHAPE, seed=self.seed)
        cachemod.write_cache(logs, self.cache_path)
        self.n_flights = sum(1 for log in logs if log.vehicle_type.class_index is not None)
        config = {
            "data": {"source": "cache", "path": self.cache_path},
            "sampling": {"method": "average", "n_intervals": 50},
            "balance": {"method": "none"},
            "train": {"epochs": self.epochs, "batch_size": 64, "hidden": 128, "seed": 0},
            "evaluation": {"k": self.folds, "seed": 0},
            "output": {"dir": self.out_dir},
        }
        with open(self.config_path, "w") as fh:
            yaml.safe_dump(config, fh)

    def job(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        rc = None
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                rc = cli.main(["evaluate", "--config", self.config_path])
            except Exception:
                _report_failure("evaluate")
            wall = perf_counter() - start
        if rc != 0:
            return Job(wall, self.folds, self.folds, {"ok": False})
        with open(os.path.join(self.out_dir, "trial01.json")) as fh:
            report = ev.report_from_dict(json.load(fh))
        cm = np.asarray(report.pooled_confusion)
        return Job(wall, self.folds, 0, {
            "ok": True,
            "pooled": int(cm.sum()),
            "macro_f3": report.macro_f_mean_std()[0],
            "macro_f2": _two_class_macro_f(cm),
            "digest": _tree_digest(self.out_dir, (".csv", ".dat")),
        })

    def finish(self, jobs):
        """Output checks; sets each job's items and returns (correct, notes, info).

        info holds figures printed for the reader that are not metrics.
        """
        notes = []
        good = [j for j in jobs if j.detail["ok"]]
        if len(good) != len(jobs):
            notes.append("evaluate failed")
        if not good:
            return False, notes, {}
        first = good[0].detail
        if any(j.detail["pooled"] != self.n_flights for j in good):
            notes.append(f"pooled confusion does not sum to {self.n_flights}")
        if first["macro_f3"] < MACRO_F3_FLOOR or first["macro_f2"] < MACRO_F2_FLOOR:
            notes.append("macro-F below the acceptance floor")
        if len({j.detail["digest"] for j in good}) != 1:
            notes.append("CSV/DAT outputs differ between jobs")
        key = f"{self.name} seed={self.seed} epochs={self.epochs} code={self.code}"
        if not _same_as_recorded(os.path.dirname(self.work), key, first["digest"]):
            notes.append("CSV/DAT outputs differ from an earlier run of the same code and seed")
        # an item is one training sequence in one epoch; every instance sits
        # in the training split of k - 1 folds
        for job in good:
            job.items = self.n_flights * (self.folds - 1) * self.epochs
        return not notes, notes, {"macro_f3": first["macro_f3"], "macro_f2": first["macro_f2"]}

    def messages_by_source(self):
        return {}


def _same_as_recorded(work_root, key, digest):
    """Compare with the digest an earlier run recorded under key; record if new."""
    path = os.path.join(work_root, "digests.json")
    records = {}
    if os.path.exists(path):
        with open(path) as fh:
            records = json.load(fh)
    if key in records:
        return records[key] == digest
    records[key] = digest
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    return True


class IngestPx4:
    """`uavclass ingest` then `uavclass catalog` over PX4-shaped ULog files."""

    name = "ingest-px4"
    threshold = 0.6

    def __init__(self, work, seed, code):
        self.work, self.seed = work, seed
        self.log_dir = os.path.join(work, "logs")
        self.cache_path = os.path.join(work, "ingested.cache")
        self.coverage_path = os.path.join(work, "coverage.csv")
        self.planned = []

    def setup(self):
        shutil.rmtree(self.log_dir, ignore_errors=True)
        os.makedirs(self.log_dir)
        self.planned = px4log.write_directory(self.log_dir, self.seed)

    def job(self):
        for path in (self.cache_path, self.coverage_path):
            if os.path.exists(path):
                os.remove(path)
        out = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(out):
            start = perf_counter()
            try:
                codes.append(cli.main(["ingest", "--dir", self.log_dir, "--out", self.cache_path]))
                codes.append(cli.main(["catalog", "--cache", self.cache_path,
                                       "--out", self.coverage_path,
                                       "--threshold", str(self.threshold)]))
            except Exception:
                _report_failure("ingest")
            wall = perf_counter() - start
        n = len(self.planned)
        if codes != [0, 0]:
            return Job(wall, n, n, {"ok": False})
        return Job(wall, n, 0, {"ok": True, "stdout": out.getvalue()})

    def _skipped(self, stdout):
        """File name -> error class, from the `skipped PATH: Class: message` lines."""
        skipped = {}
        for line in stdout.splitlines():
            if line.startswith("skipped "):
                path, _, reason = line[len("skipped "):].partition(": ")
                skipped[os.path.basename(path)] = reason.partition(":")[0]
        return skipped

    def finish(self, jobs):
        notes = []
        good = [j for j in jobs if j.detail["ok"]]
        if len(good) != len(jobs):
            notes.append("ingest or catalog failed")
        if not good:
            return False, notes, {}
        if len({j.detail["stdout"] for j in good}) != 1:
            notes.append("ingest output differs between jobs")
        skipped = self._skipped(good[0].detail["stdout"])
        cached = cachemod.read_cache(self.cache_path)
        kept = {log.source_id: log for log in cached}

        # the cache must hold exactly what the parser produced
        parsed, reparse_skipped = cli.ingest_directory(self.log_dir)
        if {os.path.basename(p) for p, _ in reparse_skipped} != set(skipped):
            notes.append("re-parse skipped other files")
        expect_cached = [log for log in parsed if log.vehicle_type.class_index is not None]
        if len(expect_cached) != len(cached) or not all(
                _same_log(a, b) for a, b in zip(expect_cached, cached)):
            notes.append("cache round trip differs from the parsed logs")

        unsupported, failed_files, ok_msgs = [], 0, 0
        for planned in self.planned:
            if planned.name in skipped:
                outcome = "rejected"
            elif planned.name in kept:
                outcome = "kept"
            else:
                outcome = "excluded"
            expected = {"unmapped": "excluded", "bad_magic": "rejected"}.get(planned.kind, "kept")
            if (planned.kind == "nested" and outcome == "rejected"
                    and skipped[planned.name] == "UnknownFieldKind"):
                # the parser does not decode nested formats yet: a typed,
                # documented refusal, reported but not an incorrect output
                unsupported.append(planned.name)
                continue
            if outcome != expected:
                failed_files += 1
                notes.append(f"{planned.name}: {expected} file was {outcome}")
                continue
            if outcome == "rejected":
                continue
            ok_msgs += planned.messages
            if outcome == "kept":
                log = kept[planned.name]
                if log.truncated != (planned.kind == "truncated"):
                    notes.append(f"{planned.name}: truncated flag is {log.truncated}")
                if log.vehicle_type is not planned.label:
                    notes.append(f"{planned.name}: label {log.vehicle_type}")
                feature_log = dataclasses.replace(log, topics={
                    key: s for key, s in log.topics.items() if key[0] in px4log.FEATURE_RATES_HZ})
                if px4log.feature_digest(feature_log) != planned.feature_digest:
                    notes.append(f"{planned.name}: feature topics differ from the generated flight")
        notes += self._check_coverage()

        # an item is one ULog message of a file ingested as planned (kept or
        # excluded); once nested formats decode, their messages count too
        for job in good:
            job.items = ok_msgs
            job.failed = failed_files
        return not notes, notes, {
            "files": len(self.planned),
            "nested_rejected_unknown_field_kind": len(unsupported),
            "unsupported_ratio": len(unsupported) / len(self.planned),
        }

    def _check_coverage(self):
        with open(self.coverage_path) as fh:
            rows = dict(line.strip().split(",") for line in fh.readlines()[1:])
        missing = []
        for key in BASELINE_SUBSET.keys:
            cols = [f"{key.field}[{i}]" for i in range(4)] if key.derived else [key.field]
            for col in cols:
                if rows.get(f"{key.topic}/{col}") != "1.000000":
                    missing.append(f"{key.topic}/{col}")
        return [f"coverage below 1 for {', '.join(sorted(set(missing)))}"] if missing else []

    def messages_by_source(self):
        return {p.name: p.messages for p in self.planned}


def _same_log(a, b):
    if (a.source_id, a.vehicle_type, a.truncated, a.params) != (
            b.source_id, b.vehicle_type, b.truncated, b.params):
        return False
    if list(a.topics) != list(b.topics):
        return False
    for key, sa in a.topics.items():
        sb = b.topics[key]
        if sa.resorted != sb.resorted or not np.array_equal(sa.timestamps, sb.timestamps):
            return False
        if list(sa.columns) != list(sb.columns):
            return False
        if not all(np.array_equal(sa.columns[c], sb.columns[c]) for c in sa.columns):
            return False
    return True


def _same_dataset(a, b):
    if a.config != b.config or tuple(a.feature_names) != tuple(b.feature_names):
        return False
    return len(a) == len(b) and all(
        x.label is y.label and x.source_id == y.source_id and x.synthetic == y.synthetic
        and np.array_equal(x.values, y.values) and np.array_equal(x.mask, y.mask)
        for x, y in zip(a.instances, b.instances))


def _expected_counts(before, config):
    after = dict(before)
    if config.method in bal.OVERSAMPLE_METHODS:
        for cls in bal.MINORITY_CLASSES:
            after[cls] = bal.oversampled_count(before[cls], config.minority_factor)
    elif config.method in bal.UNDERSAMPLE_METHODS:
        target = bal.undersampled_count(before[bal.MAJORITY_CLASS], config.majority_reduction)
        if config.method == bal.METHOD_CLUSTER_CENTROID:
            target = max(target, 1)
        after[bal.MAJORITY_CLASS] = target
    return after


def _class_counts(instances):
    counts = {}
    for inst in instances:
        counts[inst.label] = counts.get(inst.label, 0) + 1
    return counts


class PrepGrid:
    """The data side of both experiment grids, with training left out."""

    name = "prep-grid"
    folds = 10
    imbalance_n = 500

    def __init__(self, work, seed, code):
        self.work, self.seed = work, seed
        self.dataset_path = os.path.join(work, "dataset.bin")
        self.logs = None

    def setup(self):
        self.logs = None  # drop the previous set-up's corpus before building the next
        self.logs = synth.generate_corpus(*CORPUS_SHAPE, seed=self.seed)

    def job(self):
        notes = []
        checks = 0.0  # seconds spent in output checks, left out of the wall time
        attempted = failed = items = 0
        start = perf_counter()
        grid_dataset = None
        for _, _, _, sampling in pipeline.sampling_grid():
            dataset, _ = pipeline.build_dataset(self.logs, BASELINE_SUBSET, sampling)
            pipeline.write_dataset(dataset, self.dataset_path)
            back = pipeline.read_dataset(self.dataset_path)
            items += len(dataset)
            mark = perf_counter()
            if not _same_dataset(dataset, back):
                notes.append(f"dataset round trip differs for {sampling}")
            if sampling.method == resample.AVERAGE and sampling.n_intervals == self.imbalance_n:
                grid_dataset = back
            del dataset
            checks += perf_counter() - mark

        labels = grid_dataset.labels()
        folds = ev.stratified_kfold(labels, k=self.folds, seed=0)
        for _, _, _, config in pipeline.imbalance_grid():
            for test_fold in range(self.folds):
                # the data preparation run_trial performs for one fold
                train = [i for i, f in zip(grid_dataset.instances, folds) if f != test_fold]
                test = [i for i, f in zip(grid_dataset.instances, folds) if f == test_fold]
                scaler = resample.Scaler().fit(train)
                train = scaler.transform_all(train)
                test = scaler.transform_all(test)
                attempted += 1
                try:
                    balanced = bal.rebalance(train, config)
                    bal.assert_test_fold_purity(
                        balanced + test, [-1] * len(balanced) + [test_fold] * len(test),
                        test_fold, expected_count=int(np.sum(folds == test_fold)))
                except Exception as exc:
                    _report_failure(f"{config.method} fold {test_fold}")
                    failed += 1
                    notes.append(f"{config.method} fold {test_fold}: {type(exc).__name__}")
                    continue
                items += len(balanced) + len(test)
                mark = perf_counter()
                if _class_counts(balanced) != _expected_counts(_class_counts(train), config):
                    notes.append(f"{config.method} fold {test_fold}: class counts")
                if not all(np.isfinite(inst.values).all() for inst in balanced):
                    notes.append(f"{config.method} fold {test_fold}: non-finite values")
                checks += perf_counter() - mark
        wall = perf_counter() - start - checks
        return Job(wall, attempted, failed, {"notes": notes, "items": items})

    def finish(self, jobs):
        notes = [n for j in jobs for n in j.detail["notes"]]
        # an item is one instance built into a dataset, or one instance of a
        # fold after scaling and rebalancing
        for job in jobs:
            job.items = job.detail["items"]
        return not notes, notes, {}

    def messages_by_source(self):
        return {}


WORKLOADS = {w.name: w for w in (KfoldDesk, IngestPx4, PrepGrid)}
