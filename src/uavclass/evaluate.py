"""Fold assignment, classification metrics, baselines, and report rendering.

A trial is stored as the confusion matrix of each test fold (the trial JSON
holds the same). Every metric and baseline derives from confusion matrices,
and render_report writes every output file of a trial.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import UavclassError
from .ulog import N_CLASSES

CLASS_NAMES = ("Quadrotor", "Fixed-Wing", "Hexarotor")  # display names, in CLASS_ORDER


class EvalError(UavclassError):
    pass


def stratified_kfold(labels, k: int = 10, seed: int = 0) -> np.ndarray:
    """Deterministic stratified fold ids; per-fold class counts differ by <= 1."""
    labels = np.asarray(labels)
    if not len(labels):
        raise EvalError("no instances to split into folds")
    folds = np.full(len(labels), -1, dtype=int)
    rng = np.random.default_rng(seed)
    for offset, cls in enumerate(np.unique(labels)):
        idx = np.where(labels == cls)[0]
        if len(idx) < k:
            raise EvalError(f"class {cls} has {len(idx)} members, need >= {k}")
        rng.shuffle(idx)
        # rotate which fold gets the larger chunks so sizes stay balanced
        for j, chunk in enumerate(np.array_split(idx, k)):
            folds[chunk] = (j + offset) % k
    return folds


def confusion(preds, truth) -> np.ndarray:
    """3x3 count matrix, rows = true class, columns = predicted."""
    preds = np.asarray(preds)
    truth = np.asarray(truth)
    if len(preds) != len(truth):
        raise EvalError(f"{len(preds)} predictions vs {len(truth)} labels")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (truth, preds), 1)
    return cm


METRICS = ("precision", "recall", "f_score")


def _ratio(num, den) -> np.ndarray:
    """num / den elementwise as float64; a zero denominator gives 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0)


def class_metrics(cm) -> np.recarray:
    """Per-class precision/recall/F of one confusion matrix or a stack of them.

    Returns a record array shaped [..., class] with the fields of METRICS;
    0/0 counts as 0, so a class never predicted has precision 0.
    """
    cm = np.asarray(cm)
    tp = np.diagonal(cm, axis1=-2, axis2=-1)
    precision = _ratio(tp, cm.sum(axis=-2))
    recall = _ratio(tp, cm.sum(axis=-1))
    f_score = _ratio(2 * precision * recall, precision + recall)
    return np.rec.fromarrays([precision, recall, f_score], names=METRICS)


def macro_f(f_scores) -> float:
    """Unweighted mean of the per-class F-scores."""
    return float(np.mean(f_scores))


def aggregate_folds(values) -> tuple:
    """Mean and sample standard deviation (ddof=1) over folds."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        raise EvalError("aggregation needs at least 2 folds")
    return float(values.mean()), float(values.std(ddof=1))


def baseline_scores(class_counts) -> tuple:
    """Macro-F of the always-majority and uniform-guess baselines.

    class_counts follows the classifier output order. Each baseline is the
    confusion matrix it would produce: every flight predicted as the
    majority class, or each class spread evenly over the outputs.
    """
    counts = np.asarray(class_counts, dtype=np.int64)
    majority = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    majority[:, np.argmax(counts)] = counts
    uniform = np.repeat(counts[:, None], N_CLASSES, axis=1)
    return tuple(macro_f(class_metrics(cm).f_score) for cm in (majority, uniform))


@dataclass
class TrialReport:
    """One (sampling, balance) trial: the confusion matrix of each test fold.

    fold_confusions is int64 [k, class, class], rows = true class; every
    metric, table and file of the trial derives from it.
    """

    trial_id: int
    method: str
    parameters: str
    fold_confusions: np.ndarray

    @property
    def pooled_confusion(self) -> np.ndarray:
        return self.fold_confusions.sum(axis=0)

    def metric_matrix(self, attr: str) -> np.ndarray:
        """[n_folds x n_classes] array of one metric."""
        return class_metrics(self.fold_confusions)[attr]

    def fold_macro_fs(self) -> np.ndarray:
        return self.metric_matrix("f_score").mean(axis=1)

    def mean_std(self, attr: str, cls: int) -> tuple:
        return aggregate_folds(self.metric_matrix(attr)[:, cls])

    def macro_f_mean_std(self) -> tuple:
        return aggregate_folds(self.fold_macro_fs())


def report_to_dict(report: TrialReport) -> dict:
    return {
        "trial_id": report.trial_id,
        "method": report.method,
        "parameters": report.parameters,
        "fold_confusions": report.fold_confusions.tolist(),
    }


def report_from_dict(data: dict) -> TrialReport:
    """The TrialReport of a trial file; EvalError unless its fields have their types
    and its folds are valid counts."""
    trial_id, method, parameters = data["trial_id"], data["method"], data["parameters"]
    for name, value, kind in (("trial_id", trial_id, int), ("method", method, str),
                              ("parameters", parameters, str)):
        if type(value) is not kind:  # exact, so that a bool is no trial id
            raise EvalError(f"{name} must be {kind.__name__}, got {value!r}")
    if "fold_confusions" not in data:
        raise EvalError("no fold_confusions: written by an older version, rerun the trial")
    try:
        folds = np.array(data["fold_confusions"])
    except ValueError:
        raise EvalError("fold_confusions is not a stack of equal-sized matrices") from None
    if folds.ndim != 3 or len(folds) < 2 or folds.shape[1:] != (N_CLASSES, N_CLASSES):
        raise EvalError(f"fold_confusions is {folds.shape}, need (k >= 2, 3, 3)")
    if folds.dtype.kind != "i" or (folds < 0).any():
        raise EvalError("fold_confusions must hold non-negative integer counts")
    return TrialReport(trial_id, method, parameters, folds.astype(np.int64))


# the columns of trial_row, in its order; f_score is headed 'f', as macro_f is
CSV_COLUMNS = ["trial_id", "method", "parameters"] + [
    f"{name}_{metric.removesuffix('_score')}_{stat}"
    for name in CLASS_NAMES for metric in METRICS for stat in ("mean", "std")
] + ["macro_f_mean", "macro_f_std"]


def _fmt(x: float) -> str:
    return f"{100 * x:.4f}"


def trial_row(report: TrialReport) -> list:
    row = [str(report.trial_id), report.method, report.parameters]
    for cls in range(N_CLASSES):
        for attr in METRICS:
            mean, std = report.mean_std(attr, cls)
            row += [_fmt(mean), _fmt(std)]
    mean, std = report.macro_f_mean_std()
    row += [_fmt(mean), _fmt(std)]
    return row


def write_trials_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(trial_row(report))


def write_confusion_csv(cm, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\predicted"] + list(CLASS_NAMES))
        for c, name in enumerate(CLASS_NAMES):
            writer.writerow([name] + [str(int(v)) for v in np.asarray(cm)[c]])


def tradeoff_rows(reference: TrialReport, others) -> list:
    """Precision/recall deltas of each trial against a reference, per class."""
    attrs = ("precision", "recall")
    ref = {(c, attr): reference.mean_std(attr, c)[0] for c in range(N_CLASSES) for attr in attrs}
    return [
        [str(report.trial_id), name]
        + [f"{100 * (report.mean_std(attr, c)[0] - ref[(c, attr)]):+.2f}" for attr in attrs]
        for report in others
        for c, name in enumerate(CLASS_NAMES)
    ]


def render_report(reports, metadata, out_dir):
    """Write every output file of the trials: tables, summary, confusions, plot data.

    The tradeoff table compares each trial with the one of lowest id, which
    is the first trial of each grid. The summary also gives each trial's
    baselines on its pooled class counts and the classes no fold predicts.
    """
    if not reports:
        raise EvalError("no trial reports to render")
    os.makedirs(out_dir, exist_ok=True)
    write_trials_csv(reports, os.path.join(out_dir, "trials.csv"))

    macro = [report.macro_f_mean_std() for report in reports]
    best = max(range(len(reports)), key=lambda i: macro[i][0])
    lines = [f"# {key}: {value}" for key, value in sorted(metadata.items())]
    lines.append(f"{'trial':>5} {'method':<22} {'parameters':<14} {'macro-F':>9} {'std':>7}")
    for i, (report, (mean, std)) in enumerate(zip(reports, macro)):
        marker = " *" if i == best else ""
        lines.append(
            f"{report.trial_id:>5} {report.method:<22} {report.parameters:<14} "
            f"{100 * mean:>8.2f} {100 * std:>7.2f}{marker}"
        )
    lines.append("(* best macro F-score)")
    for report in reports:
        pooled = report.pooled_confusion
        majority, uniform = baseline_scores(pooled.sum(axis=1))
        lines.append(f"trial {report.trial_id} baseline macro-F: "
                     f"majority {100 * majority:.2f}, uniform {100 * uniform:.2f}")
        never = [name for c, name in enumerate(CLASS_NAMES) if not pooled[:, c].any()]
        if never:
            lines.append(f"trial {report.trial_id} never predicts: {', '.join(never)}")

    reference = min(reports, key=lambda r: r.trial_id)
    others = [r for r in reports if r is not reference]
    if others:
        with open(os.path.join(out_dir, "tradeoff.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial_id", "class", "delta_precision", "delta_recall"])
            writer.writerows(tradeoff_rows(reference, others))
    else:
        lines.append("tradeoff table omitted: needs a reference trial plus at least one other")

    # the pooled confusion tables, and plain numeric files for external plotting tools
    with open(os.path.join(out_dir, "macro_f_bars.dat"), "w") as bars:
        bars.write("# trial_id macro_f_mean macro_f_std\n")
        for report, (mean, std) in zip(reports, macro):
            bars.write(f"{report.trial_id} {100 * mean:.4f} {100 * std:.4f}\n")
            pooled, tid = report.pooled_confusion, report.trial_id
            write_confusion_csv(pooled, os.path.join(out_dir, f"confusion_trial{tid}.csv"))
            heatmap = os.path.join(out_dir, f"confusion_heatmap_trial{tid:02d}.dat")
            np.savetxt(heatmap, pooled, fmt="%d")

    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
