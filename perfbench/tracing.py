"""Spans around the package's public functions, recorded from outside it.

The tracer replaces a function attribute on its module (or class) with a
wrapper that records one span per call: name, start, end, parent span and
run id, plus optional attributes taken from the arguments and the result.
Callers inside the package look these attributes up at call time, so the
wrappers see every call without any change to the package. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from time import perf_counter

import uavclass.balance as bal
import uavclass.cache as cachemod
import uavclass.cli as cli
import uavclass.evaluate as ev
import uavclass.lstm as lstm
import uavclass.pipeline as pipeline
import uavclass.resample as resample
import uavclass.synth as synth

NAME, START, END, PARENT, RUN, ATTRS = range(6)

REBALANCE_METHODS = (
    bal.METHOD_RANDOM_OVERSAMPLE,
    bal.METHOD_RANDOM_UNDERSAMPLE,
    bal.METHOD_SMOTE,
    bal.METHOD_CLUSTER_CENTROID,
    bal.METHOD_AUGMENTATION,
)
LAYERS = ("lstm", "pipeline", "ulog", "cache", "features", "resample", "balance",
          "evaluate", "synth", "cli")
REJECT_CLASSES = ("BadMagic", "UnknownFieldKind")


def _file_bytes(args, kwargs, result, path_index):
    path = args[path_index] if len(args) > path_index else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _parse_attrs(args, kwargs, result=None):
    source = args[1] if len(args) > 1 else kwargs.get("source_id", "")
    attrs = {"bytes": len(args[0]), "source": source}
    if result is not None:
        attrs["truncated"] = bool(result.truncated)
    return attrs


def _rebalance_attrs(args, kwargs, result):
    return {"method": args[1].method, "synthetic": sum(1 for inst in result if inst.synthetic)}


def _train_attrs(args, kwargs, result):
    return {"epochs": args[2].epochs}


# (owner, attribute, span name, attribute extractor). The owner is the module
# whose namespace the callers resolve the name in: cli and pipeline import
# some functions by name, so those are patched where they are looked up.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "ingest_directory", "cli.ingest_directory", None),
    (cli, "parse_ulog", "ulog.parse_ulog", _parse_attrs),
    (cli, "compute_coverage", "features.compute_coverage", None),
    (cli, "prune_by_coverage", "features.prune_by_coverage", None),
    (cachemod, "write_cache", "cache.write_cache",
     lambda a, k, r: _file_bytes(a, k, r, 1)),
    (cachemod, "read_cache", "cache.read_cache", lambda a, k, r: _file_bytes(a, k, r, 0)),
    (pipeline, "build_dataset", "pipeline.build_dataset", None),
    (pipeline, "write_dataset", "pipeline.write_dataset", None),
    (pipeline, "read_dataset", "pipeline.read_dataset", None),
    (pipeline, "run_trial", "pipeline.run_trial", None),
    (pipeline, "assemble_features", "features.assemble_features", None),
    (pipeline, "resample_flight", "resample.resample_flight", None),
    (resample.Scaler, "fit", "resample.Scaler.fit", None),
    (resample.Scaler, "transform_all", "resample.Scaler.transform_all", None),
    (bal, "rebalance", "balance.rebalance", _rebalance_attrs),
    (bal, "assert_test_fold_purity", "balance.assert_test_fold_purity", None),
    (lstm, "train", "lstm.train", _train_attrs),
    (lstm, "forward_batch", "lstm.forward_batch", None),
    (lstm, "backward", "lstm.backward", None),
    (lstm, "adam_step", "lstm.adam_step", None),
    (lstm, "predict_batch", "lstm.predict_batch", None),
    (ev, "stratified_kfold", "evaluate.stratified_kfold", None),
    (ev, "confusion", "evaluate.confusion", None),
    (ev, "class_metrics", "evaluate.class_metrics", None),
    (ev, "render_report", "evaluate.render_report", None),
    (synth, "generate_corpus", "synth.generate_corpus", None),
    (synth, "generate_flight", "synth.generate_flight", None),
    (synth, "write_ulog", "synth.write_ulog", None),
)


class Tracer:
    """Records spans while installed; restores the original functions on exit."""

    def __init__(self):
        self.spans = []
        self.runs = []  # run id -> label
        self._stack = []
        self._saved = []
        self._run = -1

    def __enter__(self):
        for owner, attr, name, describe in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, describe))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def begin_run(self, label):
        """Start a new run id; spans opened from now on carry it."""
        self._run = len(self.runs)
        self.runs.append(label)
        return self._run

    def _wrap(self, fn, name, describe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer._run, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter()
                span[ATTRS] = {"error": type(exc).__name__}
                if describe is _parse_attrs:  # rejected files still count their bytes
                    span[ATTRS].update(_parse_attrs(args, kwargs))
                raise
            finally:
                tracer._stack.pop()
            span[END] = perf_counter()
            if describe is not None:
                span[ATTRS] = describe(args, kwargs, result)
            return result

        return wrapper

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, run, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": start, "end": end,
                    "parent": parent, "run_id": run, "run": self.runs[run],
                    "attrs": attrs or {},
                }) + "\n")


def _self_times(spans, ids):
    """Duration of each span minus the part covered by its direct children."""
    child_time = {}
    for idx in ids:
        parent = spans[idx][PARENT]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + spans[idx][END] - spans[idx][START]
    return {idx: spans[idx][END] - spans[idx][START] - child_time.get(idx, 0.0) for idx in ids}


def _median(values):
    return statistics.median(values) if values else 0.0


def _fold_times(spans, ids):
    """Per-fold wall time inside each run_trial span.

    A fold ends when run_trial scores it (class_metrics); the first fold
    starts when the fold assignment is done.
    """
    folds = []
    for trial in (i for i in ids if spans[i][NAME] == "pipeline.run_trial"):
        children = sorted((i for i in ids if spans[i][PARENT] == trial),
                          key=lambda i: spans[i][START])
        mark = spans[trial][START]
        for child in children:
            if spans[child][NAME] == "evaluate.stratified_kfold":
                mark = spans[child][END]
            elif spans[child][NAME] == "evaluate.class_metrics":
                folds.append(spans[child][END] - mark)
                mark = spans[child][END]
    return folds


def job_layer_metrics(spans, ids, msgs_by_source):
    """Per-layer numbers for the spans of one job (ids index into spans)."""
    by_name = {}
    for idx in ids:
        by_name.setdefault(spans[idx][NAME], []).append(idx)

    def dur(idx):
        return spans[idx][END] - spans[idx][START]

    def total(*names):
        return sum(dur(i) for n in names for i in by_name.get(n, ()))

    train_ids = set(by_name.get("lstm.train", ()))
    fwd_train = [i for i in by_name.get("lstm.forward_batch", ()) if spans[i][PARENT] in train_ids]
    folds = _fold_times(spans, ids)

    parses = by_name.get("ulog.parse_ulog", ())
    parsed_ok = [i for i in parses if "error" not in spans[i][ATTRS]]
    ok_time = sum(dur(i) for i in parsed_ok)
    ok_bytes = sum(spans[i][ATTRS]["bytes"] for i in parsed_ok)
    ok_msgs = sum(msgs_by_source.get(spans[i][ATTRS]["source"], 0) for i in parsed_ok)
    errors = [spans[i][ATTRS]["error"] for i in parses if "error" in spans[i][ATTRS]]

    resample_calls = by_name.get("resample.resample_flight", ())
    resample_s = total("resample.resample_flight")
    rebalances = by_name.get("balance.rebalance", ())

    m = {
        "lstm.forward_s": _median([dur(i) for i in fwd_train]),
        "lstm.backward_s": _median([dur(i) for i in by_name.get("lstm.backward", ())]),
        "lstm.adam_s": _median([dur(i) for i in by_name.get("lstm.adam_step", ())]),
        "lstm.batches": len(fwd_train),
        "lstm.epoch_s": _median([dur(i) / spans[i][ATTRS]["epochs"] for i in train_ids]),
        "lstm.train_s": total("lstm.train"),
        "lstm.predict_s": total("lstm.predict_batch"),
        "pipeline.fold_s.median": _median(folds),
        "pipeline.fold_s.max": max(folds, default=0.0),
        "pipeline.run_trial_s": total("pipeline.run_trial"),
        "pipeline.build_dataset_s": total("pipeline.build_dataset"),
        "pipeline.write_dataset_s": total("pipeline.write_dataset"),
        "pipeline.read_dataset_s": total("pipeline.read_dataset"),
        "ulog.parse_s": total("ulog.parse_ulog"),
        "ulog.parse_mb_per_s": ok_bytes / 1e6 / ok_time if ok_time else 0.0,
        "ulog.msgs_per_s": ok_msgs / ok_time if ok_time else 0.0,
        "ulog.files_truncated": sum(1 for i in parsed_ok if spans[i][ATTRS]["truncated"]),
        "cache.write_s": total("cache.write_cache"),
        "cache.read_s": total("cache.read_cache"),
        "cache.bytes": sum(spans[i][ATTRS]["bytes"]
                           for n in ("cache.write_cache", "cache.read_cache")
                           for i in by_name.get(n, ()) if "bytes" in spans[i][ATTRS]),
        "features.assemble_s": total("features.assemble_features"),
        "features.coverage_s": total("features.compute_coverage", "features.prune_by_coverage"),
        "resample.resample_s": resample_s,
        "resample.scaler_s": total("resample.Scaler.fit", "resample.Scaler.transform_all"),
        "resample.flights_per_s": len(resample_calls) / resample_s if resample_s else 0.0,
        "balance.synthetic_count": sum(spans[i][ATTRS].get("synthetic", 0) for i in rebalances),
        "balance.purity_s": total("balance.assert_test_fold_purity"),
        "evaluate.kfold_s": total("evaluate.stratified_kfold"),
        "evaluate.metrics_s": total("evaluate.confusion", "evaluate.class_metrics"),
        "evaluate.render_s": total("evaluate.render_report"),
    }
    for cls in REJECT_CLASSES:
        m[f"ulog.files_rejected.{cls}"] = errors.count(cls)
    m["ulog.files_rejected.other"] = sum(1 for e in errors if e not in REJECT_CLASSES)
    for method in REBALANCE_METHODS:
        m[f"balance.rebalance_s.{method}"] = sum(
            dur(i) for i in rebalances if spans[i][ATTRS].get("method") == method)
    self_times = _self_times(spans, ids)
    for layer in LAYERS:
        if layer != "synth":
            m[f"{layer}.self_s"] = sum(t for i, t in self_times.items()
                                       if spans[i][NAME].split(".", 1)[0] == layer)
    return m


def setup_layer_metrics(spans, ids):
    """Generator numbers for the spans of one set-up."""
    self_times = _self_times(spans, ids)
    return {
        "synth.generate_s": sum(spans[i][END] - spans[i][START] for i in ids
                                if spans[i][NAME] == "synth.generate_corpus"
                                or (spans[i][NAME] == "synth.generate_flight"
                                    and spans[i][PARENT] < 0)),
        "synth.write_ulog_s": sum(spans[i][END] - spans[i][START] for i in ids
                                  if spans[i][NAME] == "synth.write_ulog"),
        "synth.self_s": sum(t for i, t in self_times.items()
                            if spans[i][NAME].startswith("synth.")),
    }


def spans_of_run(spans, run):
    return [i for i, s in enumerate(spans) if s[RUN] == run]


def median_metrics(dicts):
    return {key: _median([d[key] for d in dicts]) for key in dicts[0]} if dicts else {}
