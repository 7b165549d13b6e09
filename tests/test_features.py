import numpy as np
import pytest

import uavclass.features as features
from uavclass.features import (
    BASELINE_SUBSET,
    EmptyCorpus,
    FeatureError,
    FeatureKey,
    FeatureSubset,
    ZeroQuaternion,
    _EULER_TAGS,
    _quaternion_columns,
    assemble_features,
    compute_coverage,
    euler_to_quaternion,
    prune_by_coverage,
    quaternion_to_euler,
)
from uavclass.ulog import FlightLog, TopicSeries, VehicleType


def _log_with(features):
    """features: iterable of (topic, field) raw columns, one sample each."""
    topics = {}
    for topic, field in features:
        key = (topic, 0)
        if key not in topics:
            topics[key] = TopicSeries(
                topic, 0, np.array([0, 1_000_000], dtype=np.uint64), {}
            )
        topics[key].columns[field] = np.array([1.0, 2.0])
    return FlightLog(topics=topics, vehicle_type=VehicleType.QUADROTOR)


class TestCoverage:
    def test_feature_in_all_logs(self):
        corpus = [_log_with([("a", "x")]), _log_with([("a", "x")])]
        table = compute_coverage(corpus)
        assert table.fractions[FeatureKey("a", "x")] == 1.0

    def test_feature_in_one_of_four(self):
        corpus = [_log_with([("a", "x")])] + [_log_with([("b", "y")]) for _ in range(3)]
        table = compute_coverage(corpus)
        assert table.fractions[FeatureKey("a", "x")] == 0.25

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(0)
        pool = [(f"t{i}", f"f{j}") for i in range(4) for j in range(3)]
        corpus = []
        for _ in range(10):
            picks = rng.choice(len(pool), size=rng.integers(1, 8), replace=False)
            corpus.append(_log_with([pool[p] for p in picks]))
        table = compute_coverage(corpus)
        # independent recount, feature by feature
        for key, frac in table.fractions.items():
            count = 0
            for log in corpus:
                series = log.topics.get((key.topic, 0))
                if series is not None and key.field in series.columns:
                    count += 1
            assert frac == count / 10

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            compute_coverage([])

    def test_any_iterable_read_once(self):
        corpus = [_log_with([("a", "x")])] + [_log_with([("b", "y")]) for _ in range(3)]
        table = compute_coverage(log for log in corpus)
        assert table == compute_coverage(corpus)
        assert table.corpus_size == 4
        with pytest.raises(EmptyCorpus):
            compute_coverage(iter(()))


class TestPruning:
    def _table(self, fractions):
        from uavclass.features import CoverageTable

        return CoverageTable(
            {FeatureKey(name, "v"): f for name, f in fractions.items()}, 100
        )

    def test_boundary(self):
        kept = prune_by_coverage(self._table({"a": 0.61, "b": 0.59}))
        assert kept == [FeatureKey("a", "v")]

    def test_exact_threshold_kept(self):
        kept = prune_by_coverage(self._table({"a": 0.6}))
        assert kept == [FeatureKey("a", "v")]

    def test_threshold_one_keeps_universal_only(self):
        kept = prune_by_coverage(self._table({"a": 1.0, "b": 0.999}), threshold=1.0)
        assert kept == [FeatureKey("a", "v")]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        table = self._table({f"t{i}": float(rng.random()) for i in range(30)})
        previous = None
        for threshold in (0.2, 0.4, 0.6, 0.8, 1.0):
            kept = set(prune_by_coverage(table, threshold))
            if previous is not None:
                assert kept <= previous
            previous = kept


def _rotation_matrix(roll, pitch, yaw):
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    return rz @ ry @ rx


def _matrix_from_quaternion(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestQuaternionToEuler:
    def test_identity(self):
        roll, pitch, yaw = quaternion_to_euler([1.0, 0.0, 0.0, 0.0])
        assert roll == pitch == yaw == 0.0

    def test_quarter_turn_yaw(self):
        s = np.sqrt(2) / 2
        roll, pitch, yaw = quaternion_to_euler([s, 0.0, 0.0, s])
        assert abs(yaw - np.pi / 2) < 1e-12
        assert abs(roll) < 1e-12 and abs(pitch) < 1e-12

    def test_matrix_roundtrip_1000_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            roll, pitch, yaw = quaternion_to_euler(q)
            recomposed = _rotation_matrix(roll, pitch, yaw)
            assert np.max(np.abs(recomposed - _matrix_from_quaternion(q))) < 1e-9

    def test_euler_quaternion_inverse_pair(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            roll = rng.uniform(-np.pi, np.pi)
            pitch = rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01)
            yaw = rng.uniform(-np.pi, np.pi)
            q = euler_to_quaternion(roll, pitch, yaw)
            r2, p2, y2 = quaternion_to_euler(q)
            assert abs(r2 - roll) < 1e-9
            assert abs(p2 - pitch) < 1e-9
            assert abs(y2 - yaw) < 1e-9

    def test_non_unit_renormalized(self):
        roll, pitch, yaw = quaternion_to_euler([2.0, 0.0, 0.0, 0.0])
        assert roll == pitch == yaw == 0.0

    def test_zero_quaternion(self):
        with pytest.raises(ZeroQuaternion):
            quaternion_to_euler([0.0, 0.0, 0.0, 0.0])


def _reference_quaternion_to_euler(q):
    """quaternion_to_euler as it was: the norm from a last-axis sum, then the
    normalized [..., 4] array split into its components."""
    q = np.asarray(q, dtype=np.float64)
    norm = np.sqrt(np.sum(q * q, axis=-1))
    q = q / norm[..., np.newaxis]
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    roll = np.arctan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    pitch = np.arcsin(np.clip(2.0 * (w * y - z * x), -1.0, 1.0))
    yaw = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return roll, pitch, yaw


class TestQuaternionToEulerEqualsReference:
    @staticmethod
    def _assert_same(q):
        for got, want in zip(quaternion_to_euler(q), _reference_quaternion_to_euler(q)):
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))

    def test_arrays_of_mixed_magnitude_with_negative_zeros(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 7, 1000):
            q = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-3, 4, size=(n, 4))
            q[rng.random(size=q.shape) < 0.2] = -0.0
            q[0] = [-0.0, 0.5, -0.0, -0.5]
            self._assert_same(q)
            self._assert_same(q.reshape(n, 1, 4))

    def test_single_quaternion_gives_numpy_scalars(self):
        rng = np.random.default_rng(10)
        for q in ([1.0, 0.0, 0.0, 0.0], [-0.0, 3.0, -4.0, 1e-3], list(rng.normal(size=4))):
            self._assert_same(q)
            assert all(isinstance(a, np.float64) for a in quaternion_to_euler(q))


class TestAssemble:
    def test_missing_feature(self, small_quad_flight):
        log = FlightLog(
            topics={
                k: v
                for k, v in small_quad_flight.topics.items()
                if k[0] != "battery_status"
            },
            vehicle_type=small_quad_flight.vehicle_type,
        )
        assert assemble_features(log, BASELINE_SUBSET) is None

    def test_full_baseline_order(self, small_quad_flight):
        series = assemble_features(small_quad_flight, BASELINE_SUBSET)
        assert series is not None
        assert len(series) == 9

    def test_column_order_via_sentinels(self):
        # constant per-feature sentinels must come back in subset order
        subset = FeatureSubset(
            "sentinel",
            (FeatureKey("a", "x"), FeatureKey("b", "y"), FeatureKey("a", "z")),
        )
        ts = np.array([0, 1_000_000], dtype=np.uint64)
        log = FlightLog(
            topics={
                ("a", 0): TopicSeries(
                    "a", 0, ts, {"x": np.full(2, 11.0), "z": np.full(2, 33.0)}
                ),
                ("b", 0): TopicSeries("b", 0, ts, {"y": np.full(2, 22.0)}),
            },
            vehicle_type=VehicleType.QUADROTOR,
        )
        series = assemble_features(log, subset)
        assert [vals[0] for _, vals in series] == [11.0, 22.0, 33.0]

    def test_subset_rejects_an_unknown_derivation_tag(self):
        # the subset owns the tag check, so assembly never meets a bad tag
        for tag in _EULER_TAGS:
            FeatureSubset("ok", (FeatureKey("vehicle_attitude", "q", tag),))
        with pytest.raises(FeatureError, match="unknown derivation 'roll'"):
            FeatureSubset("bad", (FeatureKey("a", "x"), FeatureKey("vehicle_attitude", "q", "roll")))


def _per_key_assemble(log, subset):
    """assemble_features as it was: one quaternion conversion per Euler key."""
    out = []
    for key in subset.keys:
        series = log.series(key.topic)
        if series is None:
            return None
        if key.derived:
            quats = _quaternion_columns(series, key.field)
            if quats is None:
                return None
            values = quaternion_to_euler(quats)[_EULER_TAGS[key.derived]]
        else:
            values = series.columns.get(key.field)
            if values is None:
                return None
        out.append((series.timestamps, values))
    return out


def _two_attitude_log(rng):
    topics = {}
    for topic, field in (("vehicle_attitude", "q"), ("vehicle_attitude_setpoint", "q_d")):
        n = int(rng.integers(20, 40))
        ts = np.sort(rng.integers(0, 10_000_000, size=n)).astype(np.uint64)
        quats = rng.normal(size=(n, 4))
        columns = {f"{field}[{i}]": quats[:, i].copy() for i in range(4)}
        topics[(topic, 0)] = TopicSeries(topic, 0, ts, columns)
    return FlightLog(topics=topics, vehicle_type=VehicleType.FIXED_WING)


class TestAssembleConvertsOnce:
    @staticmethod
    def _counting(monkeypatch):
        calls = []

        def counted(q):
            calls.append(1)
            return quaternion_to_euler(q)

        monkeypatch.setattr(features, "quaternion_to_euler", counted)
        return calls

    @staticmethod
    def _assert_identical(got, ref):
        assert len(got) == len(ref)
        for (ts, vs), (ref_ts, ref_vs) in zip(got, ref):
            assert ts is ref_ts
            assert np.array_equal(vs.view(np.int64), ref_vs.view(np.int64))

    def test_baseline_converts_one_quaternion(self, small_quad_flight, monkeypatch):
        ref = _per_key_assemble(small_quad_flight, BASELINE_SUBSET)
        calls = self._counting(monkeypatch)
        got = assemble_features(small_quad_flight, BASELINE_SUBSET)
        assert len(calls) == 1
        self._assert_identical(got, ref)

    def test_one_conversion_per_quaternion_field(self, monkeypatch):
        log = _two_attitude_log(np.random.default_rng(3))
        subset = FeatureSubset(
            "two attitudes",
            (
                FeatureKey("vehicle_attitude", "q", "euler_yaw"),
                FeatureKey("vehicle_attitude_setpoint", "q_d", "euler_roll"),
                FeatureKey("vehicle_attitude", "q", "euler_roll"),
                FeatureKey("vehicle_attitude_setpoint", "q_d", "euler_pitch"),
                FeatureKey("vehicle_attitude", "q", "euler_pitch"),
                FeatureKey("vehicle_attitude_setpoint", "q_d", "euler_yaw"),
            ),
        )
        ref = _per_key_assemble(log, subset)
        calls = self._counting(monkeypatch)
        got = assemble_features(log, subset)
        assert len(calls) == 2
        self._assert_identical(got, ref)

    def test_synthetic_corpus_unchanged(self, small_corpus):
        for log in small_corpus:
            self._assert_identical(
                assemble_features(log, BASELINE_SUBSET), _per_key_assemble(log, BASELINE_SUBSET)
            )
