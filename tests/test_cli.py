import argparse
import csv
import dataclasses
import errno
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import yaml

import uavclass
from conftest import assert_same_topics, single_instant, with_sample
from uavclass import balance
from uavclass import cache as cachemod
from uavclass import cli, evaluate, lstm, pipeline
from uavclass import synth as synthmod
from uavclass.cli import ingest_directory, main
from uavclass.config import RunConfig
from uavclass.errors import UavclassError
from uavclass.features import BASELINE_SUBSET
from uavclass.resample import SamplingConfig
from uavclass.synth import SynthSpec, generate_corpus, generate_flight, write_ulog
from uavclass.ulog import VehicleType


README = os.path.join(os.path.dirname(__file__), "..", "README.md")

TINY_SYNTH = {"n_quadrotor": 12, "n_hexarotor": 4, "n_fixed_wing": 4, "seed": 5, "duration_s": 45.0}


def _tiny_config(out_dir):
    return {
        "data": {
            "source": "synth",
            "synth": TINY_SYNTH,
        },
        "sampling": {"method": "average", "n_intervals": 10},
        "train": {"epochs": 1, "batch_size": 8, "hidden": 4},
        "evaluation": {"k": 4, "seed": 0},
        "output": {"dir": out_dir},
    }


def _write_config(tmp_path, **overrides):
    raw = _tiny_config(str(tmp_path / "out"))
    for section, values in overrides.items():
        raw.setdefault(section, {}).update(values)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def _tables(directory):
    """The CSV and DAT files under ``directory``: name -> bytes."""
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.suffix in (".csv", ".dat")}


def _subcommands():
    """The subcommand names the parser accepts, in the order it lists them."""
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def _trial_json(folds, key="fold_confusions", **fields):
    trial = {"trial_id": 1, "method": "average", "parameters": "10", key: folds}
    return json.dumps(trial | fields)


EYE = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _fixed_trials(monkeypatch, k):
    """Make every trial return k identity fold confusions without training."""
    monkeypatch.setattr(pipeline, "run_trial",
                        lambda *a, **kw: np.tile(np.array(EYE, dtype=np.int64), (k, 1, 1)))


def _write_ulog_dir(tmp_path, with_corrupt=True):
    d = tmp_path / "ulogs"
    d.mkdir()
    specs = [
        SynthSpec(VehicleType.QUADROTOR, duration_s=30.0, seed=1),
        SynthSpec(VehicleType.HEXAROTOR, duration_s=30.0, seed=2),
        SynthSpec(VehicleType.FIXED_WING, duration_s=30.0, seed=3),
    ]
    for i, spec in enumerate(specs):
        (d / f"flight{i}.ulg").write_bytes(write_ulog(generate_flight(spec)))
    if with_corrupt:
        (d / "broken.ulg").write_bytes(b"this is not a flight log")
        (d / "notes.txt").write_bytes(b"ignored entirely")
    return str(d)


# Each error class is a module's base, which names the layer in the error
# line, or something outside its raise sites tells it apart from its base.
ERROR_CLASSES = {
    "UavclassError", "BalanceError", "CacheError", "CliError", "ConfigError", "EvalError",
    "FeatureError", "ModelError", "ResampleError", "SynthError", "UlogError",
    "VersionMismatch",  # cache.iter_logs re-raises it with a rebuild hint
    "DegenerateRange",  # build_dataset excludes the log and goes on
    "BadMagic", "UnknownFieldKind",  # the benchmark counts the files each rejects
    "ContaminatedTestFold",  # the purity criterion imports it: a package bug, not bad input
}


def _package_modules():
    return [importlib.import_module(f"uavclass.{info.name}")
            for info in pkgutil.iter_modules(uavclass.__path__)]


class TestErrorRoot:
    def test_an_error_class_exists_only_where_something_tells_it_apart(self):
        _package_modules()

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        names = {c.__name__ for c in subclasses(UavclassError)
                 if c.__module__.startswith("uavclass.")}
        assert names | {UavclassError.__name__} == ERROR_CLASSES

    def test_every_package_exception_derives_from_the_root(self):
        classes = []
        for module in _package_modules():
            for _, obj in inspect.getmembers(module, inspect.isclass):
                if issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                    classes.append(obj)
        assert len(classes) == len(ERROR_CLASSES)
        strays = [c.__qualname__ for c in classes if not issubclass(c, UavclassError)]
        assert strays == []

    def test_main_reports_a_new_subclass_in_one_line(self, monkeypatch, capsys):
        class Unlisted(UavclassError):
            pass

        def fail(_):
            raise Unlisted("raised by a command")

        monkeypatch.setattr("uavclass.cli.cmd_report", fail)
        assert main(["report", "nowhere"]) == 1
        assert capsys.readouterr().err == "error: Unlisted: raised by a command\n"


class TestIngestDirectory:
    def test_corrupt_files_skipped_with_reason(self, tmp_path):
        directory = _write_ulog_dir(tmp_path)
        logs, skipped = ingest_directory(directory)
        assert len(logs) == 3
        assert len(skipped) == 1
        path, reason = skipped[0]
        assert path.endswith("broken.ulg")
        assert "BadMagic" in reason

    def test_unreadable_entry_skipped_with_reason(self, tmp_path):
        directory = _write_ulog_dir(tmp_path, with_corrupt=False)
        os.mkdir(os.path.join(directory, "sub.ulg"))
        logs, skipped = ingest_directory(directory)
        assert len(logs) == 3
        assert skipped == [(os.path.join(directory, "sub.ulg"), "IsADirectoryError: Is a directory")]

    def test_no_parsable_logs(self, tmp_path):
        d = tmp_path / "junk"
        d.mkdir()
        (d / "a.ulg").write_bytes(b"garbage")
        with pytest.raises(cli.CliError, match="^no parsable logs in "):
            ingest_directory(str(d))

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(cli.CliError, match="' is not a directory$"):
            ingest_directory(str(tmp_path / "missing"))


class TestCommands:
    def test_synth_writes_cache(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = str(tmp_path / "corpus.cache")
        assert main(["synth", "--config", config, "--out", out]) == 0
        assert os.path.exists(out)
        text = capsys.readouterr().out
        assert "20 flights" in text

    def test_ingest_then_catalog(self, tmp_path, capsys):
        directory = _write_ulog_dir(tmp_path)
        cache = str(tmp_path / "corpus.cache")
        assert main(["ingest", "--dir", directory, "--out", cache]) == 0
        text = capsys.readouterr().out
        assert "kept 3" in text and "broken.ulg" in text
        coverage = str(tmp_path / "coverage.csv")
        assert main(["catalog", "--cache", cache, "--out", coverage]) == 0
        assert os.path.exists(coverage)

    def test_ingest_lists_a_directory_named_like_a_log_and_writes_the_cache(self, tmp_path, capsys):
        directory = _write_ulog_dir(tmp_path)
        os.mkdir(os.path.join(directory, "sub.ulg"))
        cache = tmp_path / "x.cache"
        assert main(["ingest", "--dir", directory, "--out", str(cache)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "kept 3" in captured.out
        sub = os.path.join(directory, "sub.ulg")
        assert f"skipped {sub}: IsADirectoryError: Is a directory\n" in captured.out
        assert len(cachemod.read_cache(cache)) == 3

    def test_ingest_needs_dir_and_reads_no_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UAVCLASS_DATA_DIR", _write_ulog_dir(tmp_path))
        out = tmp_path / "x.cache"
        with pytest.raises(SystemExit) as exited:
            main(["ingest", "--out", str(out)])
        assert exited.value.code == 2
        assert "the following arguments are required: --dir" in capsys.readouterr().err
        assert not out.exists()

    def test_ingest_missing_dir_returns_error(self, tmp_path, capsys):
        code = main(["ingest", "--dir", str(tmp_path / "nope"), "--out", "x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_evaluate_writes_outputs(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["evaluate", "--config", config]) == 0
        out = tmp_path / "out"
        for name in (
            "trials.csv",
            "report.txt",
            "resolved-config.yaml",
            "trial01.json",
            "macro_f_bars.dat",
            "confusion_heatmap_trial01.dat",
            "confusion_trial1.csv",
        ):
            assert (out / name).exists(), name

    def test_evaluate_rerun_byte_identical(self, tmp_path):
        # the rerun reads the resolved config the first run wrote next to its outputs
        config = _write_config(tmp_path)
        assert main(["evaluate", "--config", config]) == 0
        out = tmp_path / "out"
        resolved = out / "resolved-config.yaml"
        assert RunConfig.load(resolved) == RunConfig.load(config)
        written = _tables(out)
        for name in written:
            (out / name).unlink()
        assert main(["evaluate", "--config", str(resolved)]) == 0
        assert _tables(out) == written

    def test_evaluate_rerun_from_a_cache_byte_identical(self, tmp_path):
        # fixed_window sampling, SMOTE and a cache source all survive the resolved config
        cache = str(tmp_path / "corpus.cache")
        assert main(["synth", "--config", _write_config(tmp_path), "--out", cache]) == 0
        config = _write_config(
            tmp_path,
            data={"source": "cache", "path": cache},
            sampling={"method": "fixed_window", "n_intervals": 10, "window_s": 5.0},
            balance={"method": "smote", "minority_factor": 2.0, "smote_k": 2},
        )
        assert main(["evaluate", "--config", config]) == 0
        out = tmp_path / "out"
        resolved = out / "resolved-config.yaml"
        assert RunConfig.load(resolved) == RunConfig.load(config)
        written = _tables(out)
        for name in written:
            (out / name).unlink()
        assert main(["evaluate", "--config", str(resolved)]) == 0
        assert _tables(out) == written

    def test_evaluate_counts_a_single_instant_flight_as_degenerate(
        self, tmp_path, capsys, monkeypatch
    ):
        _fixed_trials(monkeypatch, 4)
        corpus = generate_corpus(**TINY_SYNTH)
        cache = str(tmp_path / "tiny.cache")
        cachemod.write_cache([single_instant(corpus[0])] + corpus[1:], cache)
        config = _write_config(tmp_path, data={"source": "cache", "path": cache})
        assert main(["evaluate", "--config", config]) == 0
        assert ("sampled 19 instances at average 10 (0 missing features, 0 unlabeled, "
                "1 degenerate)") in capsys.readouterr().out.splitlines()

    def test_train_is_no_longer_a_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", _write_config(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'train'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["sample", "--out", "dataset.bin"],
                                      ["balance", "--dataset", "dataset.bin"]])
    def test_dataset_file_commands_are_gone(self, tmp_path, capsys, argv):
        # every trial builds its dataset from the corpus; nothing reads a dataset file
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", _write_config(tmp_path)])
        assert exc.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    def test_docstring_names_every_subcommand(self):
        listed = re.search(r"Subcommands: (.*?)\.", cli.__doc__, re.DOTALL).group(1)
        assert [name.strip() for name in listed.split(",")] == _subcommands()

    def test_readme_shows_every_subcommand(self):
        with open(README) as fh:
            shown = {line.split()[1] for line in fh if line.startswith("uavclass ")}
        assert shown == set(_subcommands())

    def test_package_error_is_one_line_not_traceback(self, tmp_path, capsys):
        config = _write_config(tmp_path, train={"epochs": 0})
        assert main(["evaluate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ModelError: ")
        assert err.count("\n") == 1

    def test_config_type_error_is_one_line(self, tmp_path, capsys):
        config = _write_config(tmp_path, train={"epochs": "2"})
        assert main(["evaluate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err == "error: ConfigError: train.epochs must be int, got '2'\n"

    def test_report_rerenders_from_json(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["evaluate", "--config", config]) == 0
        rendered = tmp_path / "rendered"
        assert main(["report", str(tmp_path / "out"), "--out", str(rendered)]) == 0
        written = _tables(tmp_path / "out")
        assert sorted(written) == ["confusion_heatmap_trial01.dat", "confusion_trial1.csv",
                                   "macro_f_bars.dat", "trials.csv"]
        assert _tables(rendered) == written
        assert (rendered / "report.txt").read_text()

    def test_evaluate_names_each_class_f_and_a_class_never_predicted(
        self, tmp_path, monkeypatch, capsys
    ):
        # four equal folds in which no flight is predicted as a hexarotor
        fold = np.array([[3, 0, 0], [0, 1, 0], [1, 0, 0]], dtype=np.int64)
        monkeypatch.setattr(pipeline, "run_trial", lambda *a, **kw: np.stack([fold] * 4))
        assert main(["evaluate", "--config", _write_config(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "macro F-score: 61.90 +- 0.00",
            "per-class F: Quadrotor 85.71, Fixed-Wing 100.00, Hexarotor 0.00 (never predicted)",
        ]

    def test_evaluate_with_rebalancing_describes_the_balance_config(self, tmp_path):
        config = _write_config(
            tmp_path, balance={"method": "random_oversample", "minority_factor": 2.5}
        )
        assert main(["evaluate", "--config", config]) == 0
        with open(tmp_path / "out" / "trials.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert (row["method"], row["parameters"]) == ("random_oversample", "250")

    def test_evaluate_without_rebalancing_describes_the_sampling(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["evaluate", "--config", config]) == 0
        with open(tmp_path / "out" / "trials.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert (row["method"], row["parameters"]) == ("average", "10")

    def test_report_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_report_missing_dir_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["report", str(missing)]) == 1
        assert capsys.readouterr().err == f"error: CliError: {str(missing)!r} is not a directory\n"

    @pytest.mark.parametrize(
        "text, cause",
        [
            ("{", "JSONDecodeError: Expecting property name"),
            ("{}", "KeyError: 'trial_id'"),
            (_trial_json([[[1, 2], [3, 4]]] * 2), "EvalError: fold_confusions is (2, 2, 2)"),
            (_trial_json([EYE, [[1, 0, 0], [0, -1, 0], [0, 0, 1]]]),
             "EvalError: fold_confusions must hold non-negative integer counts"),
            (_trial_json([EYE, [[1, 0, 0], [0, 2.5, 0], [0, 0, 1]]]),
             "EvalError: fold_confusions must hold non-negative integer counts"),
            (_trial_json([EYE]), "EvalError: fold_confusions is (1, 3, 3)"),
            (_trial_json([EYE, [[1, 0], [0, 1]]]),
             "EvalError: fold_confusions is not a stack of equal-sized matrices"),
            (_trial_json([[[0.5, 0.5, 0.5, False]] * 3] * 4, key="fold_metrics"),
             "EvalError: no fold_confusions"),
            (_trial_json([EYE, EYE], parameters=None),
             "EvalError: parameters must be str, got None"),
            (_trial_json([EYE, EYE], method=["average"]),
             "EvalError: method must be str, got ['average']"),
            (_trial_json([EYE, EYE], trial_id="x"), "EvalError: trial_id must be int, got 'x'"),
            (_trial_json([EYE, EYE], trial_id=True),
             "EvalError: trial_id must be int, got True"),
            (_trial_json([EYE, EYE], trial_id=1.0), "EvalError: trial_id must be int, got 1.0"),
        ],
        ids=["json", "empty", "wrong-shape", "negative", "float", "single-fold", "ragged",
             "old-format", "null-parameters", "list-method", "string-id", "bool-id", "float-id"],
    )
    def test_report_malformed_trial_file_is_one_error_line(self, tmp_path, capsys, text, cause):
        trial, out = tmp_path / "trial01.json", tmp_path / "out"
        trial.write_text(text)
        out.mkdir()
        assert main(["report", str(tmp_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: CliError: malformed trial file {str(trial)!r}: {cause}"), err
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("second", ["trial1.json", "trial02.json"],
                             ids=["renumbered-name", "copied-file"])
    def test_report_refuses_two_files_with_one_trial_id(self, tmp_path, capsys, second):
        trials, out = tmp_path / "trials", tmp_path / "out"
        trials.mkdir()
        out.mkdir()
        for name in ("trial01.json", second):
            (trials / name).write_text(_trial_json([EYE, EYE]))
        assert main(["report", str(trials), "--out", str(out)]) == 1
        paths = sorted([str(trials / "trial01.json"), str(trials / second)])
        assert capsys.readouterr().err == (
            f"error: CliError: trial id 1 is in both {paths[0]!r} and {paths[1]!r}\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["report", "evaluate", "experiment"])
    def test_an_output_file_that_cannot_be_written_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, command
    ):
        _fixed_trials(monkeypatch, 4)
        out = tmp_path / "out"
        (out / "trials.csv").mkdir(parents=True)
        config, trials = _write_config(tmp_path), tmp_path / "trials"
        trials.mkdir()
        (trials / "trial01.json").write_text(_trial_json([EYE, EYE]))
        argv = {"report": ["report", str(trials), "--out", str(out)],
                "evaluate": ["evaluate", "--config", config],
                "experiment": ["experiment", "imbalance", "--config", config]}[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IsADirectoryError: ") and err.count("\n") == 1, err
        assert str(out / "trials.csv") in err
        if command == "report":
            assert [p.name for p in out.iterdir()] == ["trials.csv"]
            assert list((out / "trials.csv").iterdir()) == []
        if command == "evaluate":  # the trained trial is kept for a later report
            assert evaluate.report_from_dict(json.loads((out / "trial01.json").read_text()))

    @staticmethod
    def _third_trial(monkeypatch, real, third):
        """Train the first two trials with ``real``; the third and each later one
        returns ``third()``."""
        calls = []

        def run_trial(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs) if len(calls) <= 2 else third()

        monkeypatch.setattr(pipeline, "run_trial", run_trial)

    def test_a_failed_trial_keeps_the_trials_before_it(self, tmp_path, capsys, monkeypatch):
        def disk_full():
            raise OSError(errno.ENOSPC, "No space left on device")

        whole, real = tmp_path / "whole", pipeline.run_trial
        whole.mkdir()
        self._third_trial(monkeypatch, real,
                          lambda: np.tile(np.array(EYE, dtype=np.int64), (4, 1, 1)))
        assert main(["experiment", "imbalance", "--config", _write_config(whole)]) == 0
        self._third_trial(monkeypatch, real, disk_full)
        capsys.readouterr()
        assert main(["experiment", "imbalance", "--config", _write_config(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: OSError: [Errno 28] No space left on device\n"
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["trial13.json", "trial14.json"]
        for name in ("trial13.json", "trial14.json"):
            assert (out / name).read_bytes() == (whole / "out" / name).read_bytes()
        assert main(["report", str(out), "--out", str(tmp_path / "rendered")]) == 0
        assert capsys.readouterr().out == f"rendered 2 trials to {tmp_path / 'rendered'}\n"

    def test_ctrl_c_is_one_line_and_keeps_the_finished_trials(self, tmp_path, capsys, monkeypatch):
        calls = []

        def run_trial(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return np.tile(np.array(EYE, dtype=np.int64), (4, 1, 1))

        monkeypatch.setattr(pipeline, "run_trial", run_trial)
        assert main(["experiment", "imbalance", "--config", _write_config(tmp_path)]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        # the first trial's file stays; no trialNN.json.tmp is left behind
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["trial13.json"]

    def test_a_trial_file_that_cannot_be_renamed_leaves_no_temporary(
        self, tmp_path, capsys, monkeypatch
    ):
        def replace(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        _fixed_trials(monkeypatch, 4)
        monkeypatch.setattr(os, "replace", replace)
        (tmp_path / "out").mkdir()  # kept after the failure, so a leftover would show
        assert main(["evaluate", "--config", _write_config(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: OSError: [Errno 18] Invalid cross-device link\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_a_cluster_centroid_split_past_the_row_bound_is_one_error_line(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(balance, "KMEANS_MAX_ROWS", 5)
        config = _write_config(tmp_path, balance={"method": "cluster_centroid"})
        assert main(["evaluate", "--config", config]) == 1
        assert capsys.readouterr().err == (
            "error: BalanceError: cluster_centroid: 9 majority rows exceed the k-means bound of 5\n")


class TestFailsBeforeWork:
    """Errors a run can see in its config stop it before any corpus or model."""

    @pytest.fixture
    def work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_load_corpus", lambda cfg: calls.append("corpus"))
        monkeypatch.setattr(pipeline, "run_trial", lambda *a, **kw: calls.append("trial"))
        return calls

    @staticmethod
    def _one_error_line(capsys, start):
        err = capsys.readouterr().err
        assert err.startswith(start), err
        assert err.count("\n") == 1

    def test_output_dir_naming_a_file(self, tmp_path, capsys, work):
        afile = tmp_path / "afile"
        afile.write_text("not a directory")
        config = _write_config(tmp_path, output={"dir": str(afile)})
        assert main(["evaluate", "--config", config]) == 1
        self._one_error_line(capsys, f"error: CliError: cannot create output directory '{afile}'")
        assert work == []
        assert afile.read_text() == "not a directory"

    def test_report_out_naming_a_file(self, tmp_path, capsys):
        assert main(["evaluate", "--config", _write_config(tmp_path)]) == 0
        capsys.readouterr()
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["report", str(tmp_path / "out"), "--out", str(afile)]) == 1
        self._one_error_line(capsys, "error: CliError: cannot create output directory")

    @pytest.mark.parametrize("command", [["evaluate"], ["experiment", "sampling"]])
    def test_ulog_dir_source_is_gone(self, tmp_path, capsys, work, command):
        # real logs enter through `ingest` and a cache source
        config = _write_config(tmp_path, data={"source": "ulog_dir", "path": str(tmp_path)})
        assert main([*command, "--config", config]) == 1
        assert capsys.readouterr().err == "error: ConfigError: unknown data source 'ulog_dir'\n"
        assert work == []
        assert not (tmp_path / "out").exists()

    def test_unknown_derivation_tag(self, tmp_path, capsys, work):
        config = _write_config(tmp_path, features={"keys": ["vehicle_attitude/q#roll"]})
        assert main(["evaluate", "--config", config]) == 1
        self._one_error_line(capsys, "error: FeatureError: unknown derivation 'roll'")
        assert work == []

    @pytest.mark.parametrize(
        "section, values, start",
        [
            ("data", {"path": "corpus.cache"},
             "error: ConfigError: data source 'synth' reads no path"),
            ("sampling", {"window_s": 5.0},
             "error: ResampleError: average sampling takes no window_s"),
            ("train", {"shuffle": True},
             "error: ConfigError: unknown keys in 'train': ['shuffle']"),
            ("features", {"subset": "custom"},
             "error: ConfigError: unknown keys in 'features': ['subset']"),
            ("sampling", {"standardize": False},
             "error: ConfigError: unknown keys in 'sampling': ['standardize']"),
            ("features", {"exclusions": ["vehicle_local_position/x"]},
             "error: ConfigError: unknown keys in 'features': ['exclusions']"),
            ("data", {"synth": {**TINY_SYNTH, "waypoints": 6}},
             "error: ConfigError: unknown keys in 'data.synth': ['waypoints']"),
            ("balance", {"augment": {"crop_min": 2}},
             "error: ConfigError: unknown keys in 'balance': ['augment']"),
            ("output", {"reference_trial": "x"},
             "error: ConfigError: unknown keys in 'output': ['reference_trial']"),
        ],
        ids=["path-with-synth", "window-with-average", "old-shuffle-line", "old-subset-line",
             "old-standardize-line", "old-exclusions-line", "old-waypoints-line",
             "old-augment-section", "old-reference-trial-line"],
    )
    def test_key_a_run_would_ignore_is_one_error_line(
        self, tmp_path, capsys, work, section, values, start
    ):
        config = _write_config(tmp_path, **{section: values})
        assert main(["evaluate", "--config", config]) == 1
        self._one_error_line(capsys, start)
        assert work == []

    @pytest.mark.parametrize(
        "section, values, start",
        [
            ("balance", {"method": "smote", "minority_factor": 1.0e300},
             "error: BalanceError: minority_factor must be in [1, 100]"),
            ("data", {"synth": {**TINY_SYNTH, "duration_s": 1.0e300}},
             "error: SynthError: duration_s must be in (0, 86400]"),
            ("train", {"learning_rate": 1.0e300},
             "error: ModelError: learning_rate must be in (0, 1]"),
            ("data", {"synth": {**TINY_SYNTH, "seed": -1}},
             "error: SynthError: seed must be >= 0"),
            ("train", {"seed": -1}, "error: ModelError: seed must be >= 0"),
            ("evaluation", {"seed": -1}, "error: ConfigError: evaluation.seed must be >= 0"),
            ("balance", {"method": "smote", "seed": -1}, "error: BalanceError: seed must be >= 0"),
            ("balance", {"method": "augmentation", "seed": -1},
             "error: BalanceError: seed must be >= 0"),
            ("features", {"keys": []}, "error: ConfigError: features.keys is empty"),
            ("data", {"synth": {**TINY_SYNTH, "n_quadrotor": -1}},
             "error: ConfigError: data.synth.n_quadrotor must be >= 0"),
            ("data", {"synth": {**TINY_SYNTH, "n_hexarotor": -1}},
             "error: ConfigError: data.synth.n_hexarotor must be >= 0"),
            ("data", {"synth": {**TINY_SYNTH, "n_fixed_wing": -1}},
             "error: ConfigError: data.synth.n_fixed_wing must be >= 0"),
        ],
        ids=["huge-minority-factor", "huge-duration", "huge-learning-rate",
             "negative-synth-seed", "negative-train-seed", "negative-evaluation-seed",
             "negative-smote-seed", "negative-augmentation-seed", "no-feature-keys",
             "negative-quadrotor-count", "negative-hexarotor-count",
             "negative-fixed-wing-count"],
    )
    def test_value_past_its_range_is_one_error_line(
        self, tmp_path, capsys, work, section, values, start
    ):
        # finite values the YAML types accept, refused at load rather than
        # by a MemoryError or a traceback in the corpus pass
        config = _write_config(tmp_path, **{section: values})
        assert main(["evaluate", "--config", config]) == 1
        self._one_error_line(capsys, start)
        assert work == []
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def never(self, monkeypatch):
        """Make each stage that builds a corpus or a dataset fail the test."""

        def called(*args, **kwargs):
            pytest.fail("the work started before the output path was checked")

        for module, name in ((synthmod, "generate_flight"), (pipeline, "build_dataset"),
                             (cli, "_parse_directory"), (cachemod, "iter_logs")):
            monkeypatch.setattr(module, name, called)

    @staticmethod
    def _argv(command, tmp_path, out):
        inputs = {
            "synth": ["--config", _write_config(tmp_path)],
            "ingest": ["--dir", str(tmp_path)],
            "catalog": ["--cache", str(tmp_path / "corpus.cache")],
        }
        return [command, *inputs[command], "--out", str(out)]

    COMMANDS = ["synth", "ingest", "catalog"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_in_a_missing_directory(self, tmp_path, capsys, never, command):
        out = tmp_path / "missing" / "x.out"
        assert main(self._argv(command, tmp_path, out)) == 1
        cause = f"{str(out.parent)!r} is not a directory"
        self._one_error_line(capsys, f"error: CliError: cannot write {str(out)!r}: {cause}")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_naming_a_directory(self, tmp_path, capsys, never, command):
        assert main(self._argv(command, tmp_path, tmp_path)) == 1
        self._one_error_line(
            capsys, f"error: CliError: cannot write {str(tmp_path)!r}: it is a directory"
        )

    def test_catalog_refuses_a_bad_threshold_before_the_cache(self, tmp_path, capsys, never):
        out = tmp_path / "coverage.csv"
        argv = self._argv("catalog", tmp_path, out) + ["--threshold", "2"]
        assert main(argv) == 1
        self._one_error_line(capsys, "error: FeatureError: threshold must be in (0, 1], got 2.0")
        assert not out.exists()

    def test_failed_run_keeps_an_existing_output_dir(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise lstm.ModelError("non-finite loss at step 1")

        monkeypatch.setattr(pipeline, "run_trial", fail)
        (tmp_path / "out").mkdir()
        assert main(["evaluate", "--config", _write_config(tmp_path)]) == 1
        self._one_error_line(capsys, "error: ModelError: non-finite loss at step 1")
        assert (tmp_path / "out").is_dir()


PX4_RATES_HZ = {
    "vehicle_local_position": 50.0,
    "vehicle_attitude": 100.0,
    "manual_control_setpoint": 20.0,
    "vehicle_air_data": 20.0,
    "battery_status": 5.0,
}


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingIngest:
    """ingest and catalog hold one flight at a time, however many there are."""

    N_FILES = 12

    def test_peak_memory_is_one_flight_not_the_corpus(self, tmp_path, capsys):
        flight = generate_flight(
            SynthSpec(VehicleType.QUADROTOR, duration_s=120.0, seed=3, rates_hz=PX4_RATES_HZ)
        )
        raw = write_ulog(flight)
        arrays = sum(
            s.timestamps.nbytes + sum(c.nbytes for c in s.columns.values())
            for s in flight.topics.values()
        )
        directory = tmp_path / "ulogs"
        directory.mkdir()
        for i in range(self.N_FILES):
            (directory / f"flight{i:02d}.ulg").write_bytes(raw)
        cache = str(tmp_path / "corpus.cache")
        del flight
        buffers = 2 << 20  # the cache writer's and reader's chunk, with room to spare

        ingest_peak = _traced_peak(["ingest", "--dir", str(directory), "--out", cache])
        assert f"kept {self.N_FILES}" in capsys.readouterr().out
        # one file, its parse and its arrays; the whole corpus would be 12 times that
        assert ingest_peak <= 3 * (len(raw) + arrays) + buffers
        catalog_peak = _traced_peak(
            ["catalog", "--cache", cache, "--out", str(tmp_path / "coverage.csv")]
        )
        assert catalog_peak <= arrays + buffers

    def test_no_parsable_logs_leaves_no_cache(self, tmp_path, capsys):
        directory = tmp_path / "junk"
        directory.mkdir()
        (directory / "a.ulg").write_bytes(b"garbage")
        out = tmp_path / "corpus.cache"
        assert main(["ingest", "--dir", str(directory), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: CliError: no parsable logs in ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["junk"]

    def test_streamed_cache_equals_one_written_from_the_parsed_list(self, tmp_path, capsys):
        directory = _write_ulog_dir(tmp_path)
        streamed = tmp_path / "streamed.cache"
        assert main(["ingest", "--dir", directory, "--out", str(streamed)]) == 0
        logs, _ = ingest_directory(directory)
        listed = tmp_path / "listed.cache"
        cachemod.write_cache(logs, listed)
        assert streamed.read_bytes() == listed.read_bytes()


def _frame(mtype, payload):
    return struct.pack("<HB", len(payload), ord(mtype)) + payload


def _esc_status_messages(msg_id, start_us, n=20):
    """A subscribed esc_status topic whose esc field is a nested esc_report[2]."""
    rows = b"".join(
        _frame("D", struct.pack("<HQB", msg_id, start_us + 100_000 * i, 2) + b"".join(
            struct.pack("<Qif", start_us + 100_000 * i, 4000 + e, 15.5) for e in range(2)))
        for i in range(n))
    return (_frame("F", b"esc_report:uint64_t timestamp;int32_t esc_rpm;float esc_voltage;")
            + _frame("F", b"esc_status:uint64_t timestamp;uint8_t esc_count;esc_report[2] esc;")
            + _frame("A", struct.pack("<BH", 0, msg_id) + b"esc_status") + rows)


class TestPx4ShapedLogs:
    def test_nested_truncated_and_bad_samples_ingest_and_evaluate(self, tmp_path, capsys):
        logs_dir = tmp_path / "logs"
        logs_dir.mkdir()
        for i, log in enumerate(generate_corpus(**TINY_SYNTH)):
            if i == 1:
                log = with_sample(log, "vehicle_attitude", [f"q[{k}]" for k in range(4)], 0.0, 40)
            elif i == 14:
                log = with_sample(log, "battery_status", ["temperature"], np.nan, 5)
            raw = write_ulog(log)
            if i == 0:
                raw += _esc_status_messages(len(log.topics), min(s.start_us for s in log.topics.values()))
            elif i == 17:
                raw = raw[:-5]  # cut inside the last data message
            (logs_dir / f"{log.source_id}-{i}.ulg").write_bytes(raw)

        cache, coverage = str(tmp_path / "tiny.cache"), tmp_path / "coverage.csv"
        assert main(["ingest", "--dir", str(logs_dir), "--out", cache]) == 0
        assert "kept 20 " in capsys.readouterr().out
        ingested = {log.source_id.rsplit("-", 1)[1]: log for log in cachemod.iter_logs(cache)}
        assert [i for i, log in ingested.items() if log.truncated] == ["17.ulg"]
        q = ingested["1.ulg"].topics["vehicle_attitude", 0].columns
        assert all(q[f"q[{k}]"][40] == 0.0 for k in range(4))
        assert np.isnan(ingested["14.ulg"].topics["battery_status", 0].columns["temperature"][5])
        assert main(["catalog", "--cache", cache, "--out", str(coverage)]) == 0
        rows = dict(csv.reader(coverage.open()))
        columns = [f"{k.topic}/{k.field}" for k in BASELINE_SUBSET.keys if not k.derived]
        columns += [f"vehicle_attitude/q[{k}]" for k in range(4)]
        assert {rows[c] for c in columns} == {"1.000000"}
        assert rows["esc_status/esc[1].esc_rpm"] == "0.050000"

        config = _write_config(tmp_path, data={"source": "cache", "path": cache})
        assert main(["evaluate", "--config", config]) == 0
        trials = sorted((tmp_path / "out").glob("trial*.json"))
        assert len(trials) == 1
        report = evaluate.report_from_dict(json.loads(trials[0].read_text()))
        assert report.pooled_confusion.sum() == 20


class TestStreamingSynth:
    """synth generates, writes and drops one flight at a time."""

    # long flights, so that twelve of them dwarf the writer's chunk
    SYNTH = {"n_quadrotor": 8, "n_hexarotor": 2, "n_fixed_wing": 2, "seed": 3,
             "duration_s": 3000.0}

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "synth.yaml"
        path.write_text(yaml.safe_dump({"data": {"synth": self.SYNTH}}))
        return str(path)

    @pytest.fixture(scope="class")
    def flight_bytes(self):
        """Arrays plus ULog bytes of the largest flight of the corpus."""
        return max(
            len(write_ulog(log)) + sum(
                s.timestamps.nbytes + sum(c.nbytes for c in s.columns.values())
                for s in log.topics.values()
            )
            for log in generate_corpus(**self.SYNTH)
        )

    def test_cache_peak_memory_is_one_flight_not_the_corpus(
        self, tmp_path, capsys, config, flight_bytes
    ):
        peak = _traced_peak(["synth", "--config", config, "--out", str(tmp_path / "c.cache")])
        assert "wrote cache with 12 flights" in capsys.readouterr().out
        # one flight and the writer's chunk; the whole corpus would be 12 flights
        assert peak <= 2 * flight_bytes + (2 << 20)

    def test_ulog_peak_memory_is_one_flight_not_the_corpus(
        self, tmp_path, capsys, config, flight_bytes
    ):
        peak = _traced_peak(["synth", "--config", config, "--ulog-dir", str(tmp_path / "logs")])
        assert "wrote 12 ULog files" in capsys.readouterr().out
        assert len(os.listdir(tmp_path / "logs")) == 12
        # one flight, its data messages and its serialized bytes
        assert peak <= 2 * flight_bytes + (1 << 20)

    def test_a_closed_stdout_stops_quietly_and_keeps_the_cache(self, tmp_path):
        config = _write_config(tmp_path)
        cache = tmp_path / "corpus.cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(uavclass.__file__)), env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the run prints its first line
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "uavclass.cli", "synth", "--config", config,
                 "--out", str(cache)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")
        expected = tmp_path / "expected.cache"
        cachemod.write_cache(generate_corpus(**TINY_SYNTH), expected)
        assert cache.read_bytes() == expected.read_bytes()

    def test_ulog_dir_ingests_back_to_the_generated_corpus(self, tmp_path, capsys):
        synth = {**TINY_SYNTH, "duration_s": None}  # durations drawn per class
        config = _write_config(tmp_path, data={"synth": synth})
        logs_dir, cache = str(tmp_path / "logs"), str(tmp_path / "corpus.cache")
        assert main(["synth", "--config", config, "--ulog-dir", logs_dir]) == 0
        assert main(["ingest", "--dir", logs_dir, "--out", cache]) == 0
        assert "kept 20" in capsys.readouterr().out
        ingested = {log.source_id: log for log in cachemod.iter_logs(cache)}
        generated = generate_corpus(**synth)
        assert len(ingested) == len(generated) == 20
        for i, log in enumerate(generated):
            back = ingested[f"{log.source_id}-{i}.ulg"]
            assert back.vehicle_type is log.vehicle_type
            assert_same_topics(back, log)


class TestStreamingEvaluate:
    """Every run builds each dataset as the corpus streams past."""

    SYNTH = TestStreamingSynth.SYNTH

    @pytest.fixture
    def cached(self, tmp_path):
        """A run config reading the corpus from a cache, and its largest flight's bytes."""
        cache = str(tmp_path / "corpus.cache")
        largest = 0
        for log in synthmod.iter_corpus(**self.SYNTH):
            largest = max(largest, sum(
                s.timestamps.nbytes + sum(c.nbytes for c in s.columns.values())
                for s in log.topics.values()))
        cachemod.write_cache(synthmod.iter_corpus(**self.SYNTH), cache)
        config = _write_config(tmp_path, data={"source": "cache", "path": cache},
                               evaluation={"k": 2})
        return config, largest

    def test_evaluate_from_cache_holds_one_flight_not_the_corpus(self, capsys, cached):
        config, largest = cached
        peak = _traced_peak(["evaluate", "--config", config])
        assert "macro F-score" in capsys.readouterr().out
        # one flight, its derived features and the reader's chunk; the whole
        # corpus would be 12 flights (the list took 4x this bound)
        assert peak <= 3 * largest + (2 << 20)

    def test_experiment_sampling_from_cache_holds_one_flight(self, capsys, cached):
        config, largest = cached
        cfg = RunConfig.load(config)
        longest, _ = pipeline.build_dataset(
            cachemod.iter_logs(cfg.data.path), cfg.features.feature_subset(),
            SamplingConfig(n_intervals=500))
        dataset = sum(inst.values.nbytes + inst.mask.nbytes for inst in longest.instances)
        peak = _traced_peak(["experiment", "sampling", "--config", config])
        assert "wrote 12 trial reports" in capsys.readouterr().out
        # one flight, the n=500 dataset and one fold's buffers (the scaled
        # instances, the stacked X and the LSTM workspace); a list of the
        # corpus would hold 12 flights (it took 2.8x this bound)
        assert peak <= 3 * largest + 3 * dataset + (2 << 20)


def _affinity(monkeypatch, n_cpus):
    """Make the fold pool see ``n_cpus`` usable CPUs and record its size."""
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)), raising=False)
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Recording)
    return sizes


class TestParallelFolds:
    def test_outputs_identical_for_one_and_two_workers(self, tmp_path, monkeypatch):
        config = _write_config(tmp_path, train={"epochs": 2, "hidden": 8})
        out = tmp_path / "out"
        outputs = []
        for n_cpus in (1, 2):
            sizes = _affinity(monkeypatch, n_cpus)
            assert main(["evaluate", "--config", config]) == 0
            assert sizes == [n_cpus]
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) >= 7
        assert outputs[0] == outputs[1]

    def test_fold_error_in_a_worker_is_one_line(self, tmp_path, monkeypatch, capsys):
        config = _write_config(tmp_path)
        _affinity(monkeypatch, 2)
        real_train = lstm.train

        def train(X, labels, train_config):
            if train_config.seed == 2:  # the third fold
                raise lstm.ModelError("non-finite loss at step 3")
            return real_train(X, labels, train_config)

        monkeypatch.setattr(lstm, "train", train)
        codes = []
        runner = threading.Thread(
            target=lambda: codes.append(main(["evaluate", "--config", config])), daemon=True
        )
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive()
        assert codes == [1]
        assert capsys.readouterr().err == "error: ModelError: non-finite loss at step 3\n"
        assert not (tmp_path / "out").exists()


SAMPLING_TRIALS = [(1, "average_sampling", "50"), (2, "average_sampling", "200"),
                   (3, "average_sampling", "500")] + [
    (4 + i, "fixed_window_average", f"{n}, {w}")
    for i, (n, w) in enumerate((n, w) for n in (50, 200, 500) for w in (2, 5, 10))
]
IMBALANCE_TRIALS = [
    (13 + 3 * m + i, label, level)
    for m, (label, levels) in enumerate([
        ("data_augmentation", ("150", "200", "250")),
        ("random_oversampling", ("150", "200", "250")),
        ("random_undersampling", ("25", "50", "75")),
        ("smote_oversampling", ("150", "200", "250")),
        ("cluster_centroid", ("25", "50", "75")),
    ])
    for i, level in enumerate(levels)
]


class TestExperiment:
    """Both standard grids, end to end on a 20-flight corpus."""

    def _run(self, tmp_path, monkeypatch, grid, **overrides):
        """Run ``grid``; returns its output dir, trials.csv rows and the
        sampling config of each dataset built."""
        config = _write_config(tmp_path, **overrides)
        built, opened = [], []
        build, load = pipeline.build_dataset, cli._load_corpus

        def recording(logs, subset, sampling):
            # each dataset is built from a fresh stream of the corpus, never a list
            assert isinstance(logs, types.GeneratorType)
            assert len(opened) == len(built) + 1
            built.append(sampling)
            return build(logs, subset, sampling)

        monkeypatch.setattr(pipeline, "build_dataset", recording)
        monkeypatch.setattr(cli, "_load_corpus", lambda cfg: opened.append(cfg) or load(cfg))
        assert main(["experiment", grid, "--config", config]) == 0
        assert len(opened) == len(built)
        out = tmp_path / "out"
        with open(out / "trials.csv") as fh:
            rows = [(int(r["trial_id"]), r["method"], r["parameters"]) for r in csv.DictReader(fh)]
        return out, rows, built

    def test_sampling_grid(self, tmp_path, monkeypatch):
        out, rows, built = self._run(tmp_path, monkeypatch, "sampling")
        assert sorted(p.name for p in out.glob("trial*.json")) == [
            f"trial{i:02d}.json" for i in range(1, 13)
        ]
        assert rows == SAMPLING_TRIALS
        # one dataset per trial
        assert [(s.n_intervals, s.window_s) for s in built] == [
            (50, None), (200, None), (500, None)
        ] + [(n, w) for n in (50, 200, 500) for w in (2.0, 5.0, 10.0)]

    def test_imbalance_grid(self, tmp_path, monkeypatch):
        out, rows, built = self._run(tmp_path, monkeypatch, "imbalance")
        assert sorted(p.name for p in out.glob("trial*.json")) == [
            f"trial{i:02d}.json" for i in range(13, 28)
        ]
        assert rows == IMBALANCE_TRIALS
        # one dataset, sampled as configured, serves all 15 trials
        assert [(s.method, s.n_intervals) for s in built] == [("average", 10)]

    def test_imbalance_grid_writes_tradeoffs_against_its_first_trial(self, tmp_path):
        assert main(["experiment", "imbalance", "--config", _write_config(tmp_path)]) == 0
        out = tmp_path / "out"
        first, *others = [evaluate.report_from_dict(json.loads(p.read_text()))
                          for p in sorted(out.glob("trial*.json"))]
        assert first.trial_id == 13
        with open(out / "tradeoff.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["trial_id", "class", "delta_precision", "delta_recall"]
        assert [(int(r[0]), r[1]) for r in rows] == [
            (t, name) for t in range(14, 28) for name in evaluate.CLASS_NAMES
        ]
        assert rows == evaluate.tradeoff_rows(first, others)
        assert "tradeoff table omitted" not in (out / "report.txt").read_text()

    # sha256 over the name and bytes of each CSV and DAT file in name order,
    # and the file count, recorded from the grids on the tiny corpus while
    # the sampling grid built its datasets from a list of the corpus; the
    # imbalance entry was recorded again when its tradeoff.csv (against trial
    # 13) was added, with the 32 files before it byte-identical
    RECORDED_TABLES = {
        "sampling": ("907588c4a0683caba3f39c09799a796f1f689a3d279c10e06159516fd7d8c750", 27),
        "imbalance": ("084776bc2898bef680d0398b0af208a3eb60caedc424d04e76244b9ff30b0c29", 33),
    }

    @pytest.mark.parametrize("grid", ["sampling", "imbalance"])
    def test_tables_match_recorded(self, tmp_path, grid):
        assert main(["experiment", grid, "--config", _write_config(tmp_path)]) == 0
        tables = _tables(tmp_path / "out")
        digest = hashlib.sha256()
        for name in sorted(tables):
            digest.update(name.encode() + b"\0" + tables[name])
        assert (digest.hexdigest(), len(tables)) == self.RECORDED_TABLES[grid]

    @pytest.mark.parametrize("grid", ["sampling", "imbalance"])
    def test_each_dataset_built_prints_its_summary_line(self, tmp_path, monkeypatch, capsys,
                                                        grid):
        _fixed_trials(monkeypatch, k=4)
        assert main(["experiment", grid, "--config", _write_config(tmp_path)]) == 0
        samplings = ([f"{s.method} {s.describe()}" for *_, s in pipeline.sampling_grid()]
                     if grid == "sampling" else ["average 10"])
        assert [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("sampled ")] == [
            f"sampled 20 instances at {s} (0 missing features, 0 unlabeled, 0 degenerate)"
            for s in samplings
        ]

    def test_imbalance_grid_rerun_from_the_resolved_config(self, tmp_path):
        assert main(["experiment", "imbalance", "--config", _write_config(tmp_path)]) == 0
        out = tmp_path / "out"
        written = _tables(out)
        for name in written:
            (out / name).unlink()
        resolved = str(out / "resolved-config.yaml")
        assert main(["experiment", "imbalance", "--config", resolved]) == 0
        assert _tables(out) == written


def _assert_one_error_line(config, capsys):
    assert main(["evaluate", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "overrides",
    [
        {"evaluation": {"k": "3"}},
        {"evaluation": {"k": 0}},
        {"evaluation": {"k": 1}},
        {"output": {"dir": 5}},
        {"data": {"synth": {**TINY_SYNTH, "n_quadrotor": "12"}}},
        {"features": {"keys": 5}},
        {"features": {"keys": [1]}},
        {"balance": {"majority_reduction": 1.5}},
        {"balance": {"smote_k": 0}},
        {"train": {"hidden": 0}},
        {"balance": {"minority_factor": -1}},
        {"balance": {"method": "smote", "minority_factor": float("inf")}},
        {"balance": {"method": "random_oversample", "minority_factor": float("nan")}},
        {"data": {"synth": {**TINY_SYNTH, "duration_s": float("inf")}}},
        {"train": {"learning_rate": float("nan")}},
        {"train": {"learning_rate": -1.0}},
        {"train": {"learning_rate": 0.0}},
        {"output": {"dir": ["out"]}},
        {"balance": {"method": "augment"}},
    ],
)
def test_bad_config_value_is_one_error_line(tmp_path, capsys, overrides):
    _assert_one_error_line(_write_config(tmp_path, **overrides), capsys)


@pytest.mark.parametrize(
    # each fails at its first allocation; a middling size such as 10**8
    # intervals can commit gigabytes lazily before it fails
    "overrides", [{"sampling": {"n_intervals": 1 << 40}}, {"train": {"hidden": 1 << 40}}]
)
def test_out_of_memory_is_one_error_line(tmp_path, capsys, overrides):
    assert main(["evaluate", "--config", _write_config(tmp_path, **overrides)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MemoryError: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "text", ["sampling: {n_intervals: [1", "train: {epochs: 2}\n  hidden: 4", None]
)
def test_malformed_or_missing_config_is_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "run.yaml"
    if text is not None:  # None: no file at all
        path.write_text(text)
    _assert_one_error_line(str(path), capsys)


def test_a_rebalance_that_empties_the_training_split_is_one_error_line(tmp_path, capsys):
    only_quadrotors = {**TINY_SYNTH, "n_quadrotor": 20, "n_hexarotor": 0, "n_fixed_wing": 0}
    config = _write_config(tmp_path, data={"synth": only_quadrotors},
                           balance={"method": "random_undersample", "majority_reduction": 1.0})
    assert main(["evaluate", "--config", config]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("sampled 20 instances ")
    assert err == "error: BalanceError: random_undersample leaves no training instance\n"


@pytest.mark.parametrize("source", ["cache-of-no-flights", "unknown-feature"])
def test_an_empty_dataset_is_one_error_line_before_any_fold(tmp_path, capsys, monkeypatch,
                                                             source):
    if source == "cache-of-no-flights":  # what ingest writes when no log has a usable label
        cachemod.write_cache([], str(tmp_path / "empty.cache"))
        overrides = {"data": {"source": "cache", "path": str(tmp_path / "empty.cache")}}
    else:
        overrides = {"features": {"keys": ["no_such_topic/x"]}}
    folds = []
    monkeypatch.setattr(pipeline, "_run_fold", lambda *args: folds.append(args))
    assert main(["evaluate", "--config", _write_config(tmp_path, **overrides)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("sampled 0 instances ")
    assert err == "error: EvalError: no instances to split into folds\n"
    assert folds == []


def _leaf_paths(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


# The tiny run's config with every key resolved, under SMOTE so that the
# balance seed and k are used.
FUZZ_BASE = RunConfig.from_dict(_tiny_config("out") | {"balance": {"method": "smote"}})
FUZZ_VALUES = {"wrong-type": {"wrong": "type"}, "zero": 0, "minus-one": -1, "nan": float("nan"),
               "inf": float("inf"), "minus-inf": float("-inf"), "empty-string": "",
               "empty-list": [], "two-to-the-40": 2**40}
# The work of these grows with the value and nothing is allocated up front,
# so 2**40 would run for hours rather than fail at once.
GROWS_WITH_VALUE = {("data", "synth", "n_quadrotor"), ("data", "synth", "n_hexarotor"),
                    ("data", "synth", "n_fixed_wing"), ("train", "epochs")}


@pytest.mark.parametrize("leaf", list(_leaf_paths(dataclasses.asdict(FUZZ_BASE))), ids=".".join)
def test_fuzzed_config_leaf_runs_or_is_one_error_line(tmp_path, capsys, leaf):
    # one leaf at a time takes each value: the run exits 0, or exits 1 with one error line
    for name, value in FUZZ_VALUES.items():
        if name == "two-to-the-40" and leaf in GROWS_WITH_VALUE:
            continue
        raw = dataclasses.asdict(FUZZ_BASE)
        raw["output"]["dir"] = str(tmp_path / name)
        section = raw
        for key in leaf[:-1]:
            section = section[key]
        section[leaf[-1]] = value
        config = tmp_path / f"{name}.yaml"
        config.write_text(yaml.safe_dump(raw))
        code = main(["evaluate", "--config", str(config)])
        err = capsys.readouterr().err
        assert code in (0, 1), (name, code)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
