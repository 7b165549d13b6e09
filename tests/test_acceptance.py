"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line so the whole gate can be read at a
glance with `pytest tests/test_acceptance.py -s`. The desk-scale end-to-end
run (criteria 7 and 8) trains the full-size model on a synthetic corpus and
takes a couple of minutes; everything else is seconds.
"""

import json
import time

import numpy as np
import pytest
import yaml

from conftest import brute_force_bins, random_small_flight, time_envelope
from uavclass.balance import (
    OVERSAMPLE_METHODS,
    assert_test_fold_purity,
    ContaminatedTestFold,
    oversampled_count,
    rebalance,
    undersampled_count,
)
from uavclass.cli import main
from uavclass.evaluate import (
    baseline_scores,
    class_metrics,
    macro_f,
    report_from_dict,
)
from uavclass.features import BASELINE_SUBSET
from uavclass.lstm import backward, forward_batch, init_params, loss_batch
from uavclass.pipeline import build_dataset, imbalance_grid
from uavclass.resample import AVERAGE, FIXED_WINDOW, SampledInstance, SamplingConfig, resample_flight
from uavclass.synth import SynthSpec, generate_corpus, generate_flight, write_ulog
from uavclass.ulog import US_PER_S, BadMagic, FlightLog, UlogError, VehicleType, parse_ulog


def _verdict(number, passed, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_metric_replay():
    cm = np.array([[12742, 56, 83], [124, 278, 10], [214, 15, 118]])
    quad = class_metrics(cm)[0]
    p, r = 100 * quad.precision, 100 * quad.recall
    macro = round(100 * macro_f([0.9816, 0.7315, 0.4215]), 2)
    ok = abs(p - 97.42) < 0.005 and abs(r - 98.92) < 0.005 and macro == 71.15
    _verdict(
        1,
        ok,
        f"metric replay: quadrotor P={p:.4f} R={r:.4f}, macro_f -> {macro:.2f}",
    )


def test_criterion_2_baselines():
    majority, uniform = baseline_scores([26706, 1324, 1332])
    ok = 0.310 <= majority <= 0.325 and 0.200 <= uniform <= 0.225
    _verdict(
        2,
        ok,
        f"baselines: majority macro-F {100 * majority:.2f}%, "
        f"uniform macro-F {100 * uniform:.2f}%",
    )


def _numeric_grads(params, x, label, eps=1e-6):
    grads = []
    for tensor in params.tensors():
        g = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + eps
            lp, _ = loss_batch(forward_batch(params, x)[0], [label])
            tensor[idx] = orig - eps
            lm, _ = loss_batch(forward_batch(params, x)[0], [label])
            tensor[idx] = orig
            g[idx] = (lp - lm) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def test_criterion_3_gradient_suite():
    rng = np.random.default_rng(100)
    worst = 0.0
    for trial in range(20):
        params = init_params(3, hidden=4, seed=trial)
        x = rng.normal(size=(1, 7, 3))  # one instance, run as a batch of one
        label = int(rng.integers(0, 3))
        logits, cache = forward_batch(params, x)
        _, d_logits = loss_batch(logits, [label])
        analytic = backward(params, cache, d_logits)
        numeric = _numeric_grads(params, x, label)
        for a, n in zip(analytic, numeric):
            denom = max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-12)
            worst = max(worst, float(np.max(np.abs(a - n)) / denom))
    ok = worst <= 1e-4
    _verdict(3, ok, f"gradient suite: 20 configs, max relative error {worst:.2e}")


def test_criterion_4_sampling_oracles():
    rng = np.random.default_rng(200)
    mismatches = 0
    for _ in range(100):
        series = random_small_flight(rng)
        n = int(rng.integers(1, 13))
        window_s = float(rng.uniform(0.1, 8.0))
        avg, _ = resample_flight(series, SamplingConfig(AVERAGE, n))
        win, _ = resample_flight(series, SamplingConfig(FIXED_WINDOW, n, window_s))
        if not np.array_equal(avg, brute_force_bins(series, n)):
            mismatches += 1
        if not np.array_equal(win, brute_force_bins(series, n, window_s)):
            mismatches += 1
        t_min, t_max = time_envelope(series)
        bin_width_s = (t_max - t_min) / n / US_PER_S
        full, _ = resample_flight(series, SamplingConfig(FIXED_WINDOW, n, bin_width_s))
        if not np.array_equal(full, avg):
            mismatches += 1
    ok = mismatches == 0
    _verdict(
        4,
        ok,
        f"sampling oracles: 100 random flights, {mismatches} mismatches "
        "(window = bin width bitwise-equal to plain averaging)",
    )


def _synthetic_instances(rng, n_quad=40, n_fw=12, n_hex=12):
    out = []
    plan = [
        (VehicleType.QUADROTOR, n_quad),
        (VehicleType.FIXED_WING, n_fw),
        (VehicleType.HEXAROTOR, n_hex),
    ]
    for vtype, count in plan:
        for i in range(count):
            values = rng.normal(size=(10, 3))
            out.append(
                SampledInstance(
                    values,
                    np.ones_like(values, dtype=bool),
                    vtype,
                    source_id=f"{vtype.value}-{i}",
                )
            )
    return out


def test_criterion_5_rebalancer_properties():
    rng = np.random.default_rng(300)
    instances = _synthetic_instances(rng)
    originals = {
        vtype: sum(1 for i in instances if i.label is vtype) for vtype in VehicleType
    }
    failures = []

    for trial_id, method, param, config in imbalance_grid(seed=1):
        out = rebalance(instances, config)
        counts = {
            vtype: sum(1 for i in out if i.label is vtype) for vtype in VehicleType
        }
        if config.method in OVERSAMPLE_METHODS:
            expected = {
                VehicleType.QUADROTOR: originals[VehicleType.QUADROTOR],
                VehicleType.FIXED_WING: oversampled_count(
                    originals[VehicleType.FIXED_WING], config.minority_factor
                ),
                VehicleType.HEXAROTOR: oversampled_count(
                    originals[VehicleType.HEXAROTOR], config.minority_factor
                ),
            }
        else:
            expected = {
                VehicleType.QUADROTOR: undersampled_count(
                    originals[VehicleType.QUADROTOR], config.majority_reduction
                ),
                VehicleType.FIXED_WING: originals[VehicleType.FIXED_WING],
                VehicleType.HEXAROTOR: originals[VehicleType.HEXAROTOR],
            }
        for vtype, want in expected.items():
            if counts.get(vtype, 0) != want:
                failures.append(f"trial {trial_id} {method} {param}")
                break

        if config.method == "smote":
            by_class = {}
            for inst in instances:
                by_class.setdefault(inst.label, []).append(inst.values.ravel())
            for inst in out:
                if not inst.synthetic:
                    continue
                X = np.stack(by_class[inst.label])
                v = inst.values.ravel()
                lo, hi = X.min(axis=0), X.max(axis=0)
                if not (np.all(v >= lo - 1e-9) and np.all(v <= hi + 1e-9)):
                    failures.append(f"trial {trial_id} convexity")
                    break

    # deliberately contaminated fold must be rejected
    contaminated = rebalance(
        instances, imbalance_grid(seed=1)[0][3]
    )  # augmentation adds synthetics
    fold_of = [1] * len(contaminated)  # claim everything is the test fold
    try:
        assert_test_fold_purity(contaminated, fold_of, 1, expected_count=len(contaminated))
        failures.append("purity check accepted a contaminated fold")
    except ContaminatedTestFold:
        pass

    ok = not failures
    _verdict(
        5,
        ok,
        "rebalancer properties: 15 grid count checks, SMOTE convexity, "
        f"purity rejection ({'all good' if ok else '; '.join(failures)})",
    )


def test_criterion_6_parser_roundtrip_and_fuzz():
    rng = np.random.default_rng(400)
    roundtrip_failures = 0
    types = [VehicleType.QUADROTOR, VehicleType.HEXAROTOR, VehicleType.FIXED_WING]
    for i in range(50):
        spec = SynthSpec(types[i % 3], duration_s=20.0, seed=1000 + i)
        log = generate_flight(spec)
        back = parse_ulog(write_ulog(log))
        same = set(back.topics) == set(log.topics) and back.vehicle_type is log.vehicle_type
        if same:
            for key, series in log.topics.items():
                got = back.topics[key]
                if not np.array_equal(got.timestamps, series.timestamps):
                    same = False
                for name, col in series.columns.items():
                    if not np.array_equal(got.columns[name], col):
                        same = False
        if not same:
            roundtrip_failures += 1

    crashes = 0
    magic = b"\x55\x4c\x6f\x67\x01\x12\x35"
    for i in range(10_000):
        n = int(rng.integers(0, 200))
        blob = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        if i % 2 == 0:
            blob = magic + blob
        try:
            result = parse_ulog(blob)
            if not isinstance(result, FlightLog):
                crashes += 1
        except BadMagic:
            pass
        except UlogError:
            pass
        except Exception:
            crashes += 1
    ok = roundtrip_failures == 0 and crashes == 0
    _verdict(
        6,
        ok,
        f"parser: {50 - roundtrip_failures}/50 round-trips exact, "
        f"10000 fuzz inputs with {crashes} crashes",
    )


E2E_CONFIG = {
    "data": {
        "source": "synth",
        "synth": {"n_quadrotor": 400, "n_hexarotor": 40, "n_fixed_wing": 40, "seed": 7},
    },
    "sampling": {"method": "average", "n_intervals": 50},
    "train": {"epochs": 15, "batch_size": 64, "hidden": 128, "seed": 0},
    "evaluation": {"k": 10, "seed": 0},
}


def _run_e2e(tmp_dir, out_name):
    config = dict(E2E_CONFIG)
    config["output"] = {"dir": str(tmp_dir / out_name)}
    path = tmp_dir / f"{out_name}.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main(["evaluate", "--config", str(path)]) == 0
    return tmp_dir / out_name


@pytest.fixture(scope="module")
def e2e_runs(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("e2e")
    start = time.time()
    first = _run_e2e(tmp_dir, "run1")
    elapsed = time.time() - start
    second = _run_e2e(tmp_dir, "run2")
    return first, second, elapsed


def _collapse_two_class(cm):
    """Merge hexarotor into quadrotor: multirotor (0) vs fixed-wing (1)."""
    m = np.zeros((2, 2), dtype=np.int64)
    m[0, 0] = cm[0, 0] + cm[0, 2] + cm[2, 0] + cm[2, 2]
    m[0, 1] = cm[0, 1] + cm[2, 1]
    m[1, 0] = cm[1, 0] + cm[1, 2]
    m[1, 1] = cm[1, 1]
    fs = []
    for c in range(2):
        tp = m[c, c]
        p = tp / m[:, c].sum() if m[:, c].sum() else 0.0
        r = tp / m[c].sum() if m[c].sum() else 0.0
        fs.append(2 * p * r / (p + r) if p + r else 0.0)
    return float(np.mean(fs))


def test_criterion_7_end_to_end(e2e_runs):
    out_dir, _, elapsed = e2e_runs
    with open(out_dir / "trial01.json") as fh:
        report = report_from_dict(json.load(fh))
    cm = report.pooled_confusion
    macro3 = report.macro_f_mean_std()[0]
    macro2 = _collapse_two_class(cm)
    off = cm - np.diag(np.diag(cm))
    dominant = tuple(int(v) for v in np.unravel_index(np.argmax(off), off.shape))
    ok = (
        macro2 >= 0.90
        and macro3 >= 0.60
        and dominant == (2, 0)  # hexarotor predicted as quadrotor
        and elapsed <= 600.0
    )
    _verdict(
        7,
        ok,
        f"end-to-end: 2-class macro-F {macro2:.3f} (>= 0.90), "
        f"3-class macro-F {macro3:.3f} (>= 0.60), dominant confusion "
        f"{dominant} (hexarotor->quadrotor), {elapsed:.0f}s (<= 600s)",
    )


def test_criterion_8_determinism(e2e_runs):
    first, second, _ = e2e_runs
    names = sorted(
        p.name for p in first.iterdir() if p.suffix in (".csv", ".dat")
    )
    differing = [
        name
        for name in names
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
    ok = names and not differing
    _verdict(
        8,
        ok,
        f"determinism: {len(names)} CSV/DAT outputs byte-identical across reruns"
        + (f"; differing: {differing}" if differing else ""),
    )
