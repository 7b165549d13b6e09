import csv
from dataclasses import dataclass

import numpy as np
import pytest

from uavclass.evaluate import (
    CLASS_NAMES,
    CSV_COLUMNS,
    EvalError,
    TrialReport,
    aggregate_folds,
    baseline_scores,
    class_metrics,
    confusion,
    macro_f,
    render_report,
    report_from_dict,
    report_to_dict,
    stratified_kfold,
    trial_row,
    tradeoff_rows,
    write_trials_csv,
)

# Frozen pooled confusion matrix for the reference configuration
# (rows = true Quadrotor, Fixed-Wing, Hexarotor; columns = predicted).
REFERENCE_CONFUSION = np.array(
    [
        [12742, 56, 83],
        [124, 278, 10],
        [214, 15, 118],
    ]
)


class TestStratifiedKfold:
    def test_fold_sizes_balanced_per_class(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=300)
        folds = stratified_kfold(labels, k=10, seed=1)
        for cls in range(3):
            per_fold = np.bincount(folds[labels == cls], minlength=10)
            assert per_fold.max() - per_fold.min() <= 1

    def test_every_instance_assigned(self):
        labels = np.array([0] * 50 + [1] * 30 + [2] * 20)
        folds = stratified_kfold(labels, k=10, seed=0)
        assert np.all(folds >= 0) and np.all(folds < 10)

    def test_reference_distribution_fold_sizes(self):
        # 26706 / 1332 / 1324 split across 10 folds: the smallest class
        # yields folds of 132 or 133, the middle one 133 or 134
        labels = np.array([0] * 26706 + [1] * 1332 + [2] * 1324)
        folds = stratified_kfold(labels, k=10, seed=3)
        mid = np.bincount(folds[labels == 1], minlength=10)
        small = np.bincount(folds[labels == 2], minlength=10)
        assert set(mid) <= {133, 134}
        assert set(small) <= {132, 133}
        assert mid.sum() == 1332 and small.sum() == 1324

    def test_determinism(self):
        labels = np.array([0] * 40 + [1] * 25 + [2] * 25)
        a = stratified_kfold(labels, k=5, seed=7)
        b = stratified_kfold(labels, k=5, seed=7)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        labels = np.array([0] * 40 + [1] * 25 + [2] * 25)
        a = stratified_kfold(labels, k=5, seed=7)
        b = stratified_kfold(labels, k=5, seed=8)
        assert not np.array_equal(a, b)

    def test_class_too_small(self):
        labels = np.array([0] * 50 + [1] * 4)
        with pytest.raises(EvalError, match="^class 1 has 4 members, need >= 10$"):
            stratified_kfold(labels, k=10)


class TestConfusion:
    def test_hand_counted(self):
        preds = [0, 0, 1, 2, 2, 0]
        truth = [0, 1, 1, 2, 0, 0]
        cm = confusion(preds, truth)
        assert np.array_equal(cm, [[2, 0, 1], [1, 1, 0], [0, 0, 1]])

    def test_trace_counts_correct(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 3, size=200)
        preds = rng.integers(0, 3, size=200)
        cm = confusion(preds, truth)
        assert cm.sum() == 200
        assert np.trace(cm) == int(np.sum(preds == truth))
        for c in range(3):
            assert cm[c].sum() == int(np.sum(truth == c))

    def test_length_mismatch(self):
        with pytest.raises(EvalError, match="^2 predictions vs 1 labels$"):
            confusion([0, 1], [0])


class TestClassMetrics:
    def test_reference_confusion_quadrotor(self):
        m = class_metrics(REFERENCE_CONFUSION)[0]
        assert abs(100 * m.precision - 97.4159) < 5e-4
        assert abs(100 * m.recall - 98.9209) < 5e-4
        assert abs(100 * m.f_score - 98.1626) < 5e-4

    def test_reference_confusion_minorities(self):
        metrics = class_metrics(REFERENCE_CONFUSION)
        assert abs(100 * metrics[1].precision - 79.6562) < 5e-4
        assert abs(100 * metrics[1].recall - 67.4757) < 5e-4
        assert abs(100 * metrics[2].precision - 55.9242) < 5e-4
        assert abs(100 * metrics[2].recall - 34.0058) < 5e-4

    def test_perfect_classifier(self):
        for m in class_metrics(np.diag([10, 20, 30])):
            assert m.precision == m.recall == m.f_score == 1.0

    def test_zero_denominator_reads_zero(self):
        # classes 1 and 2 are never predicted: their columns are empty, and 0/0 reads 0
        cm = np.array([[5, 0, 0], [2, 0, 0], [1, 0, 0]])
        metrics = class_metrics(cm)
        assert not cm[:, 1:].any()
        for m in metrics[1:]:
            assert m.precision == m.recall == m.f_score == 0.0
        assert metrics[0].recall == 1.0 and metrics[0].precision == 5 / 8

    def test_stack_matches_each_matrix(self):
        stack = np.random.default_rng(4).integers(0, 9, size=(5, 3, 3))
        stacked = class_metrics(stack)
        assert stacked.shape == (5, 3)
        for fold, cm in enumerate(stack):
            for attr in ("precision", "recall", "f_score"):
                assert np.array_equal(stacked[attr][fold], class_metrics(cm)[attr])

    def test_macro_of_reference_class_fs(self):
        # the reference row reports per-class F of 98.16 / 73.15 / 42.15,
        # whose unweighted mean rounds to 71.15
        assert round(100 * macro_f([0.9816, 0.7315, 0.4215]), 2) == 71.15


class TestAggregation:
    def test_two_folds(self):
        mean, std = aggregate_folds([0.6, 0.8])
        assert abs(mean - 0.7) < 1e-12
        assert abs(std - 0.1414213562) < 1e-9  # ddof=1: sqrt(0.02)

    def test_constant_folds(self):
        mean, std = aggregate_folds([0.5] * 10)
        assert mean == 0.5 and std == 0.0

    def test_too_few(self):
        with pytest.raises(EvalError, match="^aggregation needs at least 2 folds$"):
            aggregate_folds([0.5])


class TestBaselines:
    def test_reference_distribution(self):
        majority, uniform = baseline_scores([26706, 1332, 1324])
        assert abs(100 * majority - 31.7543) < 5e-4
        assert abs(100 * uniform - 21.5723) < 5e-4
        assert 0.30 <= majority <= 0.33
        assert 0.20 <= uniform <= 0.23

    def test_balanced_distribution(self):
        majority, uniform = baseline_scores([100, 100, 100])
        # majority: one class with precision 1/3, recall 1 -> F = 0.5
        assert abs(majority - 0.5 / 3) < 1e-12
        # uniform: every class has precision = recall = 1/3 -> F = 1/3
        assert abs(uniform - 1.0 / 3) < 1e-12

    def test_majority_beats_uniform_under_imbalance(self):
        majority, uniform = baseline_scores([1000, 10, 10])
        assert majority > uniform


def _report(trial_id=1, seed=0, n_folds=4):
    """A report whose fold confusions split REFERENCE_CONFUSION at random, cell by cell."""
    rng = np.random.default_rng(seed)
    shares = [1 / n_folds] * n_folds
    cells = [rng.multinomial(n, shares) for n in REFERENCE_CONFUSION.ravel()]
    folds = np.stack(cells, axis=1).reshape(n_folds, 3, 3)
    return TrialReport(trial_id=trial_id, method="average", parameters="50", fold_confusions=folds)


class TestTrialReport:
    def test_macro_is_mean_of_class_fs(self):
        report = _report()
        matrix = report.metric_matrix("f_score")
        assert np.allclose(report.fold_macro_fs(), matrix.mean(axis=1))

    def test_pooled_is_the_sum_of_the_folds(self):
        report = _report(seed=6)
        assert np.array_equal(report.pooled_confusion, REFERENCE_CONFUSION)
        assert len(report.fold_confusions) == 4

    def test_dict_roundtrip(self):
        report = _report(trial_id=5)
        back = report_from_dict(report_to_dict(report))
        assert back.trial_id == 5
        assert back.method == report.method
        assert back.fold_confusions.dtype == np.int64
        assert np.array_equal(back.fold_confusions, report.fold_confusions)
        assert np.array_equal(back.pooled_confusion, report.pooled_confusion)

    def test_csv_roundtrip_values(self, tmp_path):
        reports = [_report(trial_id=i, seed=i) for i in (1, 2, 3)]
        path = tmp_path / "trials.csv"
        write_trials_csv(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 4
        # spot-check the macro-F column against the report object
        for row, report in zip(rows[1:], reports):
            mean, std = report.macro_f_mean_std()
            assert float(row[-2]) == pytest.approx(100 * mean, abs=5e-5)
            assert float(row[-1]) == pytest.approx(100 * std, abs=5e-5)


class TestTradeoff:
    def test_deltas_match_hand_computation(self):
        ref = _report(trial_id=1, seed=1)
        other = _report(trial_id=2, seed=2)
        rows = tradeoff_rows(ref, [other])
        assert len(rows) == 3
        for cls, row in enumerate(rows):
            assert row[0] == "2" and row[1] == CLASS_NAMES[cls]
            expected_p = 100 * (
                other.mean_std("precision", cls)[0] - ref.mean_std("precision", cls)[0]
            )
            expected_r = 100 * (
                other.mean_std("recall", cls)[0] - ref.mean_std("recall", cls)[0]
            )
            assert float(row[2]) == pytest.approx(expected_p, abs=5e-3)
            assert float(row[3]) == pytest.approx(expected_r, abs=5e-3)

    def test_signs_rendered(self):
        ref = _report(trial_id=1, seed=3)
        rows = tradeoff_rows(ref, [_report(trial_id=2, seed=4)])
        for row in rows:
            assert row[2][0] in "+-" and row[3][0] in "+-"


class TestRenderReport:
    def test_outputs_written(self, tmp_path):
        reports = [_report(trial_id=i, seed=i) for i in (1, 2)]
        render_report(reports, {"k": 10}, tmp_path)
        assert (tmp_path / "trials.csv").exists()
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "tradeoff.csv").exists()
        assert (tmp_path / "confusion_trial1.csv").exists()
        assert (tmp_path / "confusion_trial2.csv").exists()

    def test_best_trial_marked(self, tmp_path):
        reports = [_report(trial_id=i, seed=i) for i in (1, 2, 3)]
        render_report(reports, {}, tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert text.count("*") >= 1

    def test_no_reports_rejected(self, tmp_path):
        with pytest.raises(EvalError, match="^no trial reports to render$"):
            render_report([], {}, tmp_path)

    def test_baselines_and_never_predicted_class_in_summary(self, tmp_path):
        # 400/40/40 flights; every hexarotor predicted as a quadrotor, as on the acceptance run
        fold = np.array([[200, 0, 0], [0, 20, 0], [20, 0, 0]])
        render_report([TrialReport(1, "average", "50", np.stack([fold, fold]))], {}, tmp_path)
        lines = (tmp_path / "report.txt").read_text().splitlines()
        majority, uniform = baseline_scores([400, 40, 40])
        assert (f"trial 1 baseline macro-F: majority {100 * majority:.2f}, "
                f"uniform {100 * uniform:.2f}") in lines
        assert "trial 1 never predicts: Hexarotor" in lines

    def test_every_class_predicted_names_none(self, tmp_path):
        render_report([_report(trial_id=1)], {}, tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert "trial 1 baseline macro-F: " in text and "never predicts" not in text

    def test_confusion_csv_contents(self, tmp_path):
        render_report([_report(trial_id=1)], {}, tmp_path)
        with open(tmp_path / "confusion_trial1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][1:] == list(CLASS_NAMES)
        body = np.array([[int(v) for v in row[1:]] for row in rows[1:]])
        assert np.array_equal(body, REFERENCE_CONFUSION)


# --- bit identity with the per-fold metric path that TrialReport replaced ----
# Before, each fold stored a ClassMetrics per class, computed by _prf, and the
# baselines had a formula of their own. Both are kept here as references.


@dataclass
class _ReferenceMetrics:
    precision: float
    recall: float
    f_score: float


def _reference_prf(tp, pred_total, true_total):
    precision = tp / pred_total if pred_total else 0.0
    recall = tp / true_total if true_total else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return _ReferenceMetrics(precision, recall, f)


def _reference_class_metrics(cm):
    return [_reference_prf(int(cm[c, c]), int(cm[:, c].sum()), int(cm[c, :].sum()))
            for c in range(3)]


class _ReferenceReport:
    """A trial stored as per-fold metric objects, read the way TrialReport read them."""

    def __init__(self, report):
        self.trial_id, self.method, self.parameters = (
            report.trial_id, report.method, report.parameters)
        self.fold_metrics = [_reference_class_metrics(cm) for cm in report.fold_confusions]

    def metric_matrix(self, attr):
        return np.array([[getattr(m, attr) for m in fold] for fold in self.fold_metrics])

    def fold_macro_fs(self):
        return self.metric_matrix("f_score").mean(axis=1)

    def mean_std(self, attr, cls):
        return aggregate_folds(self.metric_matrix(attr)[:, cls])

    def macro_f_mean_std(self):
        return aggregate_folds(self.fold_macro_fs())


def _reference_baseline_scores(class_counts):
    counts = np.asarray(class_counts, dtype=np.float64)
    total = counts.sum()
    majority = int(np.argmax(counts))
    majority_fs = []
    for c in range(3):
        if c == majority:
            precision = counts[c] / total
            recall = 1.0
            majority_fs.append(2 * precision * recall / (precision + recall))
        else:
            majority_fs.append(0.0)
    uniform_fs = []
    for c in range(3):
        precision = counts[c] / total
        recall = 1.0 / 3
        denom = precision + recall
        uniform_fs.append(2 * precision * recall / denom if denom else 0.0)
    return macro_f(majority_fs), macro_f(uniform_fs)


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def _random_fold_stack(rng):
    """k in 2..11 folds; some folds have a class absent (empty row) or never predicted."""
    k = int(rng.integers(2, 12))
    stack = rng.integers(0, 7, size=(k, 3, 3))
    for fold in stack:
        if rng.random() < 0.3:
            fold[rng.integers(3), :] = 0
        if rng.random() < 0.3:
            fold[:, rng.integers(3)] = 0
    return stack


class TestBitIdentity:
    def test_metrics_match_the_per_fold_path(self):
        rng = np.random.default_rng(2024)
        empty_rows = empty_columns = 0
        for trial in range(1000):
            report = TrialReport(trial, "average", "50", _random_fold_stack(rng))
            reference = _ReferenceReport(report)
            for attr in ("precision", "recall", "f_score"):
                assert np.array_equal(
                    _bits(report.metric_matrix(attr)), _bits(reference.metric_matrix(attr))
                )
                for cls in range(3):
                    assert np.array_equal(
                        _bits(report.mean_std(attr, cls)), _bits(reference.mean_std(attr, cls))
                    )
            assert np.array_equal(
                _bits(report.macro_f_mean_std()), _bits(reference.macro_f_mean_std())
            )
            assert trial_row(report) == trial_row(reference)
            empty_rows += int((report.fold_confusions.sum(axis=2) == 0).any())
            empty_columns += int((report.fold_confusions.sum(axis=1) == 0).any())
        assert empty_rows > 100 and empty_columns > 100

    @pytest.mark.parametrize(
        "counts",
        [[26706, 1332, 1324], [26706, 1324, 1332], [100, 100, 100], [1000, 10, 10],
         [12, 0, 4], [0, 3, 9]],
    )
    def test_baselines_match_the_per_class_formula(self, counts):
        assert np.array_equal(_bits(baseline_scores(counts)),
                              _bits(_reference_baseline_scores(counts)))

    def test_baselines_match_on_random_counts(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            counts = rng.integers(1, 30000, size=3)
            assert np.array_equal(_bits(baseline_scores(counts)),
                                  _bits(_reference_baseline_scores(counts)))
