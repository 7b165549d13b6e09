"""Fold assignment, classification metrics, baselines, and report rendering."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import UavclassError
from .ulog import CLASS_ORDER

CLASS_NAMES = ("Quadrotor", "Fixed-Wing", "Hexarotor")  # display names, in CLASS_ORDER
N_CLASSES = len(CLASS_ORDER)


class EvalError(UavclassError):
    pass


class ClassTooSmall(EvalError):
    pass


class LengthMismatch(EvalError):
    pass


class TooFewFolds(EvalError):
    pass


def stratified_kfold(labels, k: int = 10, seed: int = 0) -> np.ndarray:
    """Deterministic stratified fold ids; per-fold class counts differ by <= 1."""
    labels = np.asarray(labels)
    folds = np.full(len(labels), -1, dtype=int)
    rng = np.random.default_rng(seed)
    for offset, cls in enumerate(np.unique(labels)):
        idx = np.where(labels == cls)[0]
        if len(idx) < k:
            raise ClassTooSmall(f"class {cls} has {len(idx)} members, need >= {k}")
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
        raise LengthMismatch(f"{len(preds)} predictions vs {len(truth)} labels")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (truth, preds), 1)
    return cm


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f_score: float
    zero_denominator: bool = False


def _prf(tp, pred_total, true_total):
    flag = pred_total == 0 or true_total == 0
    precision = tp / pred_total if pred_total else 0.0
    recall = tp / true_total if true_total else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ClassMetrics(precision, recall, f, zero_denominator=flag)


def class_metrics(cm) -> list:
    """Per-class precision/recall/F from a confusion matrix; 0/0 counts as 0."""
    cm = np.asarray(cm)
    out = []
    for c in range(N_CLASSES):
        out.append(_prf(int(cm[c, c]), int(cm[:, c].sum()), int(cm[c, :].sum())))
    return out


def macro_f(f_scores) -> float:
    """Unweighted mean of the per-class F-scores."""
    return float(np.mean(f_scores))


def aggregate_folds(values) -> tuple:
    """Mean and sample standard deviation (ddof=1) over folds."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        raise TooFewFolds("aggregation needs at least 2 folds")
    return float(values.mean()), float(values.std(ddof=1))


def baseline_scores(class_counts) -> tuple:
    """Macro-F of the always-majority and uniform-guess baselines.

    class_counts follows the classifier output order. For the uniform guess,
    each class's precision is its prevalence and its recall is 1/3.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    total = counts.sum()
    majority = int(np.argmax(counts))

    majority_fs = []
    for c in range(N_CLASSES):
        if c == majority:
            precision = counts[c] / total
            recall = 1.0
            majority_fs.append(2 * precision * recall / (precision + recall))
        else:
            majority_fs.append(0.0)

    uniform_fs = []
    for c in range(N_CLASSES):
        precision = counts[c] / total
        recall = 1.0 / N_CLASSES
        denom = precision + recall
        uniform_fs.append(2 * precision * recall / denom if denom else 0.0)

    return macro_f(majority_fs), macro_f(uniform_fs)


@dataclass
class TrialReport:
    """Per-fold and aggregated metrics for one (sampling, balance) trial."""

    trial_id: int
    method: str
    parameters: str
    fold_metrics: list  # per fold: list of ClassMetrics (one per class)
    pooled_confusion: np.ndarray

    def metric_matrix(self, attr: str) -> np.ndarray:
        """[n_folds x n_classes] array of one metric."""
        return np.array(
            [[getattr(m, attr) for m in fold] for fold in self.fold_metrics]
        )

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
        "fold_metrics": [
            [
                [m.precision, m.recall, m.f_score, m.zero_denominator]
                for m in fold
            ]
            for fold in report.fold_metrics
        ],
        "pooled_confusion": np.asarray(report.pooled_confusion).tolist(),
    }


def report_from_dict(data: dict) -> TrialReport:
    return TrialReport(
        trial_id=data["trial_id"],
        method=data["method"],
        parameters=data["parameters"],
        fold_metrics=[
            [ClassMetrics(p, r, f, bool(z)) for p, r, f, z in fold]
            for fold in data["fold_metrics"]
        ],
        pooled_confusion=np.array(data["pooled_confusion"], dtype=np.int64),
    )


CSV_COLUMNS = ["trial_id", "method", "parameters"]
for _name in CLASS_NAMES:
    for _metric in ("precision", "recall", "f"):
        CSV_COLUMNS += [f"{_name}_{_metric}_mean", f"{_name}_{_metric}_std"]
CSV_COLUMNS += ["macro_f_mean", "macro_f_std"]


def _fmt(x: float) -> str:
    return f"{100 * x:.4f}"


def trial_row(report: TrialReport) -> list:
    row = [str(report.trial_id), report.method, report.parameters]
    for cls in range(N_CLASSES):
        for attr in ("precision", "recall", "f_score"):
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
    rows = []
    ref = {
        (cls, attr): reference.mean_std(attr, cls)[0]
        for cls in range(N_CLASSES)
        for attr in ("precision", "recall")
    }
    for report in others:
        for cls, name in enumerate(CLASS_NAMES):
            d_prec = report.mean_std("precision", cls)[0] - ref[(cls, "precision")]
            d_rec = report.mean_std("recall", cls)[0] - ref[(cls, "recall")]
            rows.append(
                [
                    str(report.trial_id),
                    name,
                    f"{100 * d_prec:+.2f}",
                    f"{100 * d_rec:+.2f}",
                ]
            )
    return rows


def render_report(reports, metadata, out_dir, reference_trial=None):
    """Emit trial CSV, readable summary, tradeoff table, and pooled confusions."""
    if not reports:
        raise EvalError("no trial reports to render")
    os.makedirs(out_dir, exist_ok=True)
    write_trials_csv(reports, os.path.join(out_dir, "trials.csv"))

    lines = []
    for key, value in sorted(metadata.items()):
        lines.append(f"# {key}: {value}")
    best = max(range(len(reports)), key=lambda i: reports[i].macro_f_mean_std()[0])
    header = f"{'trial':>5} {'method':<22} {'parameters':<14} {'macro-F':>9} {'std':>7}"
    lines.append(header)
    for i, report in enumerate(reports):
        mean, std = report.macro_f_mean_std()
        marker = " *" if i == best else ""
        lines.append(
            f"{report.trial_id:>5} {report.method:<22} {report.parameters:<14} "
            f"{100 * mean:>8.2f} {100 * std:>7.2f}{marker}"
        )
    lines.append("(* best macro F-score)")

    reference = None
    if reference_trial is not None:
        for report in reports:
            if report.trial_id == reference_trial:
                reference = report
    others = [r for r in reports if reference is not None and r is not reference]
    if reference is not None and others:
        rows = tradeoff_rows(reference, others)
        with open(os.path.join(out_dir, "tradeoff.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial_id", "class", "delta_precision", "delta_recall"])
            writer.writerows(rows)
    else:
        lines.append("tradeoff table omitted: needs a reference trial plus at least one other")

    for report in reports:
        write_confusion_csv(
            report.pooled_confusion,
            os.path.join(out_dir, f"confusion_trial{report.trial_id}.csv"),
        )

    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
