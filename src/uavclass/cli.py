"""Command-line orchestration of the classification pipeline.

Subcommands: synth, ingest, catalog, evaluate, experiment, report. Most take
a YAML run configuration; see docs/example-config.yaml for an annotated
example.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import asdict

from . import balance as bal
from . import cache as cachemod
from . import evaluate as ev
from . import pipeline
from . import synth as synthmod
from .config import RunConfig
from .errors import UavclassError
from .features import (
    check_threshold,
    compute_coverage,
    prune_by_coverage,
    write_coverage_csv,
)
from .ulog import UlogError, VehicleType, parse_ulog


class CliError(UavclassError):
    pass


def _load_corpus(cfg: RunConfig):
    """Yield the configured corpus one flight at a time."""
    if cfg.data.source == "synth":
        yield from synthmod.iter_corpus(**asdict(cfg.data.synth))
    else:
        yield from cachemod.iter_logs(cfg.data.path)


def _parse_directory(directory, skipped):
    """Yield the FlightLog of each .ulg file, parsing one file at a time.

    A corrupt or unreadable file is appended to ``skipped`` as (path,
    reason) instead. Raises CliError at the end if no file parsed.
    """
    if not os.path.isdir(directory):
        raise CliError(f"{directory!r} is not a directory")
    parsed = 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith((".ulg", ".ulog")):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as fh:
                log = parse_ulog(fh.read(), source_id=name)
        except UlogError as exc:
            skipped.append((path, f"{type(exc).__name__}: {exc}"))
            continue
        except OSError as exc:  # a directory or an unreadable file with a log's name
            skipped.append((path, f"{type(exc).__name__}: {exc.strerror}"))
            continue
        parsed += 1
        yield log
        del log  # one flight in memory: drop it before the next file is read
    if not parsed:
        raise CliError(f"no parsable logs in {directory!r}")


def ingest_directory(directory):
    """Parse every .ulg file; corrupt files are skipped with a reason."""
    skipped = []
    logs = list(_parse_directory(directory, skipped))
    return logs, skipped


@contextmanager
def _output_dir(path):
    """Create the output directory before the work that fills it.

    A path that cannot be a directory fails at once, before any corpus is
    built or any model trained. If the block fails, a directory created here
    is removed again while it is still empty.
    """
    created = not os.path.isdir(path)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {path!r}: {exc.strerror}") from None
    try:
        yield path
    except BaseException:
        if created:
            with suppress(OSError):
                os.rmdir(path)
        raise


def _print_class_counts(vehicle_types):
    counts = Counter(vehicle_types)
    for vtype in VehicleType:
        if vtype in counts:
            print(f"  {vtype.value}: {counts[vtype]}")


def _check_out(path):
    """Fail before the work if the output file ``path`` cannot be written."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise CliError(f"cannot write {path!r}: {parent!r} is not a directory")
    if os.path.isdir(path):
        raise CliError(f"cannot write {path!r}: it is a directory")


def cmd_synth(args):
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    generated = []  # the vehicle type of every flight written so far

    def flights():
        for log in synthmod.iter_corpus(**asdict(cfg.data.synth)):
            generated.append(log.vehicle_type)
            yield log
            del log

    # one flight in memory at a time: each is written out and dropped
    if args.log_dir:
        with _output_dir(args.log_dir):
            for i, log in enumerate(flights()):
                with open(os.path.join(args.log_dir, f"{log.source_id}-{i}.ulg"), "wb") as fh:
                    fh.write(synthmod.write_ulog(log))
        print(f"wrote {len(generated)} ULog files to {args.log_dir}")
    else:
        _check_out(args.out)
        cachemod.write_cache(flights(), args.out)
        print(f"wrote cache with {len(generated)} flights to {args.out}")
    _print_class_counts(generated)
    return 0


def cmd_ingest(args):
    _check_out(args.out)
    skipped, parsed = [], []  # parsed: the vehicle type of every parsed log

    def kept():
        for log in _parse_directory(args.dir, skipped):
            parsed.append(log.vehicle_type)
            if log.vehicle_type.class_index is not None:
                yield log
            del log

    # one flight in memory at a time: each is written to the cache and dropped
    n_kept = cachemod.write_cache(kept(), args.out)
    print(f"parsed {len(parsed)} logs, kept {n_kept} with usable labels")
    for path, reason in skipped:
        print(f"skipped {path}: {reason}")
    _print_class_counts(t for t in parsed if t.class_index is not None)
    return 0


def cmd_catalog(args):
    _check_out(args.out)
    check_threshold(args.threshold)
    coverage = compute_coverage(cachemod.iter_logs(args.cache))
    write_coverage_csv(coverage, args.out)
    kept = prune_by_coverage(coverage, args.threshold)
    print(f"{len(coverage)} features seen; {len(kept)} at coverage >= {args.threshold}")
    return 0


def _write_trial(report, out_dir):
    """Write trialNN.json through a temporary file, so no partial trial file is left."""
    path = os.path.join(out_dir, f"trial{report.trial_id:02d}.json")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(ev.report_to_dict(report), fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _run_trials(cfg: RunConfig, trials):
    """Run (trial id, method, parameters, sampling, balance) trials and write their outputs.

    Each change of sampling config streams the corpus again, one flight in
    memory at a time, builds the dataset as it goes past and prints which
    logs it used and which it excluded. Each trial's file is written as soon
    as the trial ends, so a later failure keeps the trials already run.
    """
    with _output_dir(cfg.output.dir) as out_dir:
        subset = cfg.features.feature_subset()
        reports, sampled = [], None
        for trial_id, method, parameters, sampling, balance in trials:
            if sampling != sampled:
                dataset = None  # drop the previous dataset before building the next
                dataset, built = pipeline.build_dataset(_load_corpus(cfg), subset, sampling)
                print(
                    f"sampled {len(dataset)} instances at {sampling.method} {sampling.describe()} "
                    f"({len(built.missing_features)} missing features, "
                    f"{len(built.unlabeled)} unlabeled, {len(built.degenerate)} degenerate)"
                )
                sampled = sampling
            fold_confusions = pipeline.run_trial(
                dataset, balance, cfg.train, k=cfg.evaluation.k, seed=cfg.evaluation.seed
            )
            reports.append(ev.TrialReport(trial_id, method, parameters, fold_confusions))
            _write_trial(reports[-1], out_dir)
    config_path = os.path.join(out_dir, "resolved-config.yaml")
    cfg.dump(config_path)
    ev.render_report(reports, {"config": config_path}, out_dir)
    return reports


def cmd_evaluate(args):
    cfg = RunConfig.load(args.config)
    shown = cfg.balance if cfg.balance.method != bal.METHOD_NONE else cfg.sampling
    (report,) = _run_trials(cfg, [(1, shown.method, shown.describe(), cfg.sampling, cfg.balance)])
    mean, std = report.macro_f_mean_std()
    print(f"macro F-score: {100 * mean:.2f} +- {100 * std:.2f}")
    predicted = report.pooled_confusion.sum(axis=0)  # flights predicted as each class
    print("per-class F: " + ", ".join(
        f"{name} {100 * report.mean_std('f_score', c)[0]:.2f}"
        + ("" if predicted[c] else " (never predicted)")
        for c, name in enumerate(ev.CLASS_NAMES)
    ))
    return 0


def cmd_experiment(args):
    cfg = RunConfig.load(args.config)
    # a grid row is (trial id, method, parameters, config); a trial adds sampling and balance
    if args.grid == "sampling":
        trials = [(*row, bal.BalanceConfig()) for row in pipeline.sampling_grid()]
    else:  # the imbalance grid keeps the configured sampling
        grid = pipeline.imbalance_grid(smote_k=cfg.balance.smote_k, seed=cfg.balance.seed)
        trials = [(*row, cfg.sampling, balance) for *row, balance in grid]
    reports = _run_trials(cfg, trials)
    print(f"wrote {len(reports)} trial reports to {cfg.output.dir}")
    return 0


def _read_trial(path):
    try:
        with open(path) as fh:
            return ev.report_from_dict(json.load(fh))
    except OSError as exc:
        raise CliError(f"cannot read trial file {path!r}: {exc.strerror}") from None
    except (ValueError, KeyError, TypeError, ev.EvalError) as exc:
        raise CliError(f"malformed trial file {path!r}: {type(exc).__name__}: {exc}") from None


def cmd_report(args):
    if not os.path.isdir(args.trial_dir):
        raise CliError(f"{args.trial_dir!r} is not a directory")
    reports, path_of = [], {}  # path_of: trial id -> the file that holds it
    for name in sorted(os.listdir(args.trial_dir)):
        if name.startswith("trial") and name.endswith(".json"):
            path = os.path.join(args.trial_dir, name)
            report = _read_trial(path)
            if report.trial_id in path_of:
                raise CliError(f"trial id {report.trial_id} is in both "
                               f"{path_of[report.trial_id]!r} and {path!r}")
            path_of[report.trial_id] = path
            reports.append(report)
    if not reports:
        raise CliError(f"no trial JSON files in {args.trial_dir!r}")
    with _output_dir(args.out or args.trial_dir) as out_dir:
        ev.render_report(reports, {"source": args.trial_dir}, out_dir)
    print(f"rendered {len(reports)} trials to {out_dir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uavclass", description="UAV type classification from PX4 flight logs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", help="run-config YAML (synth block)")
    p.add_argument("--out", default="corpus.cache", help="cache file to write")
    p.add_argument("--ulog-dir", dest="log_dir", help="write individual ULog files here instead")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse a directory of ULog files into a cache")
    p.add_argument("--dir", required=True, help="ULog directory")
    p.add_argument("--out", default="corpus.cache")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("catalog", help="corpus feature coverage report")
    p.add_argument("--cache", required=True)
    p.add_argument("--out", default="coverage.csv")
    p.add_argument("--threshold", type=float, default=0.6)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("evaluate", help="k-fold evaluation of one configuration")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run a standard trial grid")
    p.add_argument("grid", choices=["sampling", "imbalance"])
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="re-render tables from trial JSON files")
    p.add_argument("trial_dir")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the try, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone: stop quietly. Point stdout at devnull so
        # that the interpreter's flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT
    except (UavclassError, OSError) as exc:  # OSError: an output file that cannot be written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
