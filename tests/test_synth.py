import struct
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import assert_same_topics
from uavclass import synth
from uavclass.features import BASELINE_SUBSET, assemble_features, quaternion_to_euler
from uavclass.synth import (
    FIXED_WING_MAX_TURN_RATE,
    FIXED_WING_MIN_SPEED,
    MAX_DURATION_S,
    SynthError,
    SynthSpec,
    generate_corpus,
    generate_flight,
    write_ulog,
)
from uavclass.ulog import (
    SCALAR_KINDS,
    ULOG_MAGIC,
    US_PER_S,
    FlightLog,
    TopicSeries,
    VehicleType,
    parse_ulog,
)


def _speeds(log):
    series = log.topics[("vehicle_local_position", 0)]
    t = series.timestamps.astype(float) / US_PER_S
    x, y = series.columns["x"], series.columns["y"]
    dt = np.diff(t)
    return np.hypot(np.diff(x), np.diff(y)) / dt


def _yaw(log):
    series = log.topics[("vehicle_attitude", 0)]
    q = np.stack([series.columns[f"q[{i}]"] for i in range(4)], axis=1)
    return np.array([quaternion_to_euler(row)[2] for row in q])


class TestSpecValidation:
    def test_other_type_rejected(self):
        with pytest.raises(SynthError, match="^cannot generate type VehicleType.OTHER$"):
            SynthSpec(VehicleType.OTHER)

    def test_bad_duration(self):
        with pytest.raises(SynthError, match="^duration_s must be in"):
            SynthSpec(VehicleType.QUADROTOR, duration_s=-1.0)

    def test_duration_up_to_its_ceiling(self):
        assert SynthSpec(VehicleType.QUADROTOR, duration_s=MAX_DURATION_S).duration_s == 86400.0
        for duration in (np.nextafter(MAX_DURATION_S, np.inf), 1.0e300):
            with pytest.raises(SynthError, match="^duration_s must be in"):
                SynthSpec(VehicleType.QUADROTOR, duration_s=duration)

    def test_bad_rate(self):
        with pytest.raises(SynthError, match="^sample rates must be positive$"):
            SynthSpec(VehicleType.QUADROTOR, rates_hz={"vehicle_attitude": 0.0})


class TestFixedWing:
    def _flight(self, seed):
        return generate_flight(
            SynthSpec(VehicleType.FIXED_WING, duration_s=120.0, seed=seed)
        )

    def test_speed_floor(self):
        for seed in range(5):
            speeds = _speeds(self._flight(seed))
            # position noise at 5 Hz adds at most a few m/s of jitter
            assert np.percentile(speeds, 5) > FIXED_WING_MIN_SPEED - 4.0
            assert np.min(speeds) > 5.0  # never anywhere near hovering

    def test_no_hover_segments(self):
        speeds = _speeds(self._flight(11))
        assert np.all(speeds > 1.0)

    def test_bounded_heading_rate(self):
        log = self._flight(3)
        series = log.topics[("vehicle_attitude", 0)]
        t = series.timestamps.astype(float) / US_PER_S
        yaw = np.unwrap(_yaw(log))
        rate = np.abs(np.diff(yaw) / np.diff(t))
        assert np.max(rate) < FIXED_WING_MAX_TURN_RATE * 1.5

    def test_banked_turns(self):
        # roll should correlate with turn rate: fast turns are not flat
        log = self._flight(7)
        series = log.topics[("vehicle_attitude", 0)]
        q = np.stack([series.columns[f"q[{i}]"] for i in range(4)], axis=1)
        roll = np.array([quaternion_to_euler(row)[0] for row in q])
        t = series.timestamps.astype(float) / US_PER_S
        yaw_rate = np.gradient(np.unwrap(_yaw(log)), t)
        corr = np.corrcoef(roll, yaw_rate)[0, 1]
        assert corr > 0.5


class TestMultirotor:
    def test_hover_dwells_exist(self):
        # a waypoint tour includes stretches of near-zero ground speed
        log = generate_flight(
            SynthSpec(VehicleType.QUADROTOR, duration_s=120.0, seed=2)
        )
        speeds = _speeds(log)
        # 0.3 m position noise at 5 Hz adds ~2 m/s jitter even while hovering
        assert np.percentile(speeds, 5) < 3.0
        assert np.max(speeds) > 4.0

    def test_sharp_heading_changes(self):
        # multirotor yaw jumps at waypoints; fixed-wing yaw is rate-limited.
        # Compare the largest per-sample step across 100 paired seeds.
        quad_wins = 0
        for seed in range(100):
            quad = generate_flight(
                SynthSpec(VehicleType.QUADROTOR, duration_s=90.0, seed=seed)
            )
            fw = generate_flight(
                SynthSpec(VehicleType.FIXED_WING, duration_s=90.0, seed=seed)
            )
            step = lambda log: np.max(
                np.abs(np.diff(np.unwrap(_yaw(log))))
            )
            if step(quad) > step(fw):
                quad_wins += 1
        assert quad_wins >= 90

    def test_hexarotor_throttle_overlaps_quadrotor(self):
        # the two multirotor classes must stay hard to tell apart: their
        # per-flight throttle means overlap across seeds
        def means(vtype):
            out = []
            for seed in range(40):
                log = generate_flight(SynthSpec(vtype, duration_s=60.0, seed=seed))
                out.append(
                    float(
                        log.topics[("manual_control_setpoint", 0)].columns["z"].mean()
                    )
                )
            return np.array(out)

        quad = means(VehicleType.QUADROTOR)
        hexa = means(VehicleType.HEXAROTOR)
        assert hexa.min() < quad.max() and quad.min() < hexa.max()
        assert hexa.mean() > quad.mean()  # but a population-level offset exists


class TestFlightStructure:
    def test_all_baseline_topics_present(self, small_quad_flight):
        assert assemble_features(small_quad_flight, BASELINE_SUBSET) is not None

    def test_duration_matches_spec(self):
        log = generate_flight(
            SynthSpec(VehicleType.HEXAROTOR, duration_s=90.0, seed=1)
        )
        assert 80.0 <= log.duration_s <= 90.5

    def test_mav_type_param_set(self):
        log = generate_flight(SynthSpec(VehicleType.HEXAROTOR, duration_s=30.0))
        assert log.params["MAV_TYPE"] == 13

    def test_determinism(self):
        a = generate_flight(SynthSpec(VehicleType.QUADROTOR, duration_s=45.0, seed=9))
        b = generate_flight(SynthSpec(VehicleType.QUADROTOR, duration_s=45.0, seed=9))
        assert write_ulog(a) == write_ulog(b)

    def test_seed_changes_flight(self):
        a = generate_flight(SynthSpec(VehicleType.QUADROTOR, duration_s=45.0, seed=1))
        b = generate_flight(SynthSpec(VehicleType.QUADROTOR, duration_s=45.0, seed=2))
        assert write_ulog(a) != write_ulog(b)

    def test_battery_rate_lower_than_attitude(self):
        log = generate_flight(SynthSpec(VehicleType.QUADROTOR, duration_s=60.0))
        n_batt = len(log.topics[("battery_status", 0)].timestamps)
        n_att = len(log.topics[("vehicle_attitude", 0)].timestamps)
        assert n_batt < n_att


class TestCorpus:
    def test_counts_and_labels(self, small_corpus):
        by_type = {}
        for log in small_corpus:
            by_type[log.vehicle_type] = by_type.get(log.vehicle_type, 0) + 1
        assert by_type[VehicleType.QUADROTOR] == 12
        assert by_type[VehicleType.HEXAROTOR] == 4
        assert by_type[VehicleType.FIXED_WING] == 4

    def test_determinism(self):
        a = generate_corpus(3, 2, 2, seed=4, duration_s=30.0)
        b = generate_corpus(3, 2, 2, seed=4, duration_s=30.0)
        for la, lb in zip(a, b):
            assert write_ulog(la) == write_ulog(lb)

    def test_unique_source_ids(self, small_corpus):
        ids = [log.source_id for log in small_corpus]
        assert len(set(ids)) == len(ids)

    def test_class_duration_centers(self):
        # free-running durations: fixed-wing flights are longer on average
        mr, fw = [], []
        for seed in range(30):
            mr.append(generate_flight(SynthSpec(VehicleType.QUADROTOR, seed=seed)).duration_s)
            fw.append(generate_flight(SynthSpec(VehicleType.FIXED_WING, seed=seed)).duration_s)
        assert abs(np.mean(mr) - 333.6) < 0.2 * 333.6
        assert abs(np.mean(fw) - 448.8) < 0.2 * 448.8
        assert np.mean(fw) > np.mean(mr)


class TestWriteUlog:
    def test_empty_log_rejected(self):
        with pytest.raises(SynthError):
            write_ulog(FlightLog(topics={}))

    @pytest.mark.parametrize("vtype", list(synth._MAV_TYPE_OF))
    def test_synthetic_columns_are_float32_as_px4_logs_them(self, vtype):
        log = generate_flight(SynthSpec(vtype, duration_s=30.0, seed=6))
        for series in log.topics.values():
            assert series.timestamps.dtype == np.uint64
            assert {col.dtype for col in series.columns.values()} == {np.dtype(np.float32)}
        raw = write_ulog(log)
        assert b"vehicle_attitude:uint64_t timestamp;float[4] q;" in raw
        assert b"double" not in raw
        assert_same_topics(parse_ulog(raw), log)

    def test_every_column_type_round_trips_with_its_dtype_and_bits(self):
        rng = np.random.default_rng(8)
        n = 33
        columns = {}
        for kind in dict.fromkeys(k for token, k in SCALAR_KINDS.items() if token != "char"):
            # random bytes: NaN payloads and any integer bit pattern included
            dtype = np.dtype(kind)
            columns[f"c_{dtype.name}"] = np.frombuffer(rng.bytes(n * dtype.itemsize), dtype).copy()
        columns.update({f"v[{i}]": rng.normal(size=n).astype(np.float32) for i in range(3)})
        columns["flags[0]"], columns["flags[1]"] = rng.integers(0, 256, (2, n), dtype=np.uint8)
        timestamps = np.sort(rng.integers(0, 10**9, n)).astype(np.uint64)
        log = FlightLog({("mixed", 0): TopicSeries(timestamps, columns)})

        raw = write_ulog(log)
        assert (b"mixed:uint64_t timestamp;int8_t c_int8;uint8_t c_uint8;int16_t c_int16;"
                b"uint16_t c_uint16;int32_t c_int32;uint32_t c_uint32;int64_t c_int64;"
                b"uint64_t c_uint64;float c_float32;double c_float64;float[3] v;uint8_t[2] flags;"
                ) in raw
        back = parse_ulog(raw)
        assert_same_topics(back, log)
        assert write_ulog(back) == raw  # a parsed log writes back the same bytes

    @pytest.mark.parametrize("columns, message", [
        ({"x": np.ones(4, np.float16)},
         "cannot serialize field 'x': no ULog type for dtype float16"),
        ({"v[0]": np.ones(4, np.float32), "v[1]": np.ones(4)},
         "array field 'v' mixes dtypes ['float32', 'float64']"),
        ({"v[0]": np.ones(4, np.float32)},
         "cannot serialize columns ['v[0]']: an array field needs v[0] to v[k-1], k >= 2, "
         "and no column 'v'"),
        ({"v": np.ones(4, np.float32), "v[0]": np.ones(4, np.float32), "v[1]": np.ones(4, np.float32)},
         "cannot serialize columns ['v', 'v[0]', 'v[1]']: an array field needs v[0] to v[k-1], "
         "k >= 2, and no column 'v'"),
        ({"v[0]": np.ones(4, np.float32), "v[2]": np.ones(4, np.float32)},
         "cannot serialize columns ['v[0]', 'v[2]']: an array field needs v[0] to v[k-1], "
         "k >= 2, and no column 'v'"),
    ])
    def test_a_field_with_no_one_ulog_type_is_refused_in_one_line(self, columns, message):
        series = TopicSeries(np.arange(4, dtype=np.uint64), columns)
        with pytest.raises(SynthError) as err:
            write_ulog(FlightLog({("t", 0): series}))
        assert str(err.value) == message


# Per-sample reference implementations: the whole-array code in synth must give
# every value and every byte that they give.


def _reference_yaw_from_path(t, times, knots):
    dt = 0.05
    x0 = np.interp(t, times, knots[:, 0])
    y0 = np.interp(t, times, knots[:, 1])
    x1 = np.interp(t + dt, times, knots[:, 0])
    y1 = np.interp(t + dt, times, knots[:, 1])
    vx, vy = (x1 - x0) / dt, (y1 - y0) / dt
    moving = np.hypot(vx, vy) > 0.1
    yaw = np.zeros_like(t)
    last = 0.0
    for i in range(len(t)):
        if moving[i]:
            last = np.arctan2(vy[i], vx[i])
        yaw[i] = last
    return yaw


def _reference_fixed_wing_state(duration, rng):
    dt = 0.2
    n = max(int(duration / dt) + 1, 2)
    t = np.arange(n) * dt
    rate = np.empty(n)
    rate[0] = rng.uniform(-0.05, 0.05)
    sigma = 0.03
    for i in range(1, n):
        rate[i] = rate[i - 1] + (-0.1 * rate[i - 1]) * dt + sigma * np.sqrt(dt) * rng.standard_normal()
        rate[i] = np.clip(rate[i], -FIXED_WING_MAX_TURN_RATE, FIXED_WING_MAX_TURN_RATE)
    heading = np.cumsum(rate * dt)
    speed = np.maximum(FIXED_WING_MIN_SPEED, 14.0 + 0.5 * np.sin(t / 30.0))
    x = np.cumsum(speed * np.cos(heading) * dt)
    y = np.cumsum(speed * np.sin(heading) * dt)
    return t, x, y, heading, rate, speed


def _reference_token(dtype):
    """The first ULog type token whose dtype is ``dtype``, found by a scan of the table."""
    for token, kind in SCALAR_KINDS.items():
        if token != "char" and np.dtype(kind) == dtype:
            return token
    raise AssertionError(f"no token for {dtype}")


def _reference_write_ulog(log):
    out = bytearray()
    out += ULOG_MAGIC
    out += b"\x01"
    out += struct.pack("<Q", min(s.start_us for s in log.topics.values()))

    def frame(mtype, payload):
        out.extend(struct.pack("<HB", len(payload), ord(mtype)))
        out.extend(payload)

    mav_type = synth._MAV_TYPE_OF.get(log.vehicle_type)
    if mav_type is not None:
        key = b"int32_t MAV_TYPE"
        frame("P", bytes([len(key)]) + key + struct.pack("<i", mav_type))

    for msg_id, ((name, instance_id), series) in enumerate(log.topics.items()):
        # a column 'name[i]', with no bracket in 'name', is element i of the array 'name'
        lengths = {}
        for col in series.columns:
            base, bracket, index = col[:-1].partition("[")
            if bracket and col.endswith("]") and index.isdigit() and "]" not in base:
                lengths[base] = lengths.get(base, 0) + 1
            else:
                lengths[col] = 1
        fields = []
        for fname, alen in lengths.items():
            first = series.columns[f"{fname}[0]" if alen > 1 else fname]
            fields.append((fname, alen, _reference_token(first.dtype)))
        decls = ["uint64_t timestamp"]
        for fname, alen, token in fields:
            decls.append(f"{token}[{alen}] {fname}" if alen > 1 else f"{token} {fname}")
        frame("F", f"{name}:{';'.join(decls)};".encode("ascii"))
        frame("A", struct.pack("<BH", instance_id, msg_id) + name.encode("ascii"))
        n = len(series.timestamps)
        dtype = np.dtype(
            [("timestamp", "<u8")]
            + [(f, SCALAR_KINDS[t], (a,)) if a > 1 else (f, SCALAR_KINDS[t]) for f, a, t in fields]
        )
        rows = np.empty(n, dtype=dtype)
        rows["timestamp"] = np.asarray(series.timestamps, dtype=np.uint64)
        for fname, alen, _ in fields:
            if alen > 1:
                for i in range(alen):
                    rows[fname][:, i] = series.columns[f"{fname}[{i}]"]
            else:
                rows[fname] = series.columns[fname]
        row_size = dtype.itemsize
        header = struct.pack("<HB", row_size + 2, ord("D")) + struct.pack("<H", msg_id)
        raw = rows.tobytes()
        for r in range(n):
            out.extend(header)
            out.extend(raw[r * row_size : (r + 1) * row_size])
    return bytes(out)


@contextmanager
def _references(monkeypatch):
    """Make generate_flight use the per-sample reference implementations."""
    with monkeypatch.context() as m:
        m.setattr(synth, "_yaw_from_path", _reference_yaw_from_path)
        m.setattr(synth, "_fixed_wing_state", _reference_fixed_wing_state)
        yield


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_same_flight(a, b):
    assert (a.source_id, a.vehicle_type, a.params) == (b.source_id, b.vehicle_type, b.params)
    assert_same_topics(a, b)


def _same_as_reference(spec, monkeypatch):
    """Generate ``spec`` both ways; check values and ULog bytes are identical."""
    fast = generate_flight(spec)
    with _references(monkeypatch):
        slow = generate_flight(spec)
    _assert_same_flight(fast, slow)
    assert write_ulog(fast) == _reference_write_ulog(slow)
    return fast


class TestBitIdentity:
    """The whole-array generator and writer give what the per-sample ones gave."""

    @pytest.mark.parametrize("vtype", list(synth._MAV_TYPE_OF))
    def test_every_type_over_twenty_seeds(self, vtype, monkeypatch):
        for seed in range(20):
            _same_as_reference(SynthSpec(vtype, seed=seed), monkeypatch)

    @pytest.mark.parametrize("vtype", list(synth._MAV_TYPE_OF))
    def test_edge_specs(self, vtype, monkeypatch):
        fast_attitude = {**synth.DEFAULT_RATES_HZ, "vehicle_attitude": 100.0}
        _same_as_reference(SynthSpec(vtype, rates_hz=fast_attitude, seed=4), monkeypatch)
        shortest = _same_as_reference(SynthSpec(vtype, duration_s=0.1, seed=5), monkeypatch)
        assert {len(s.timestamps) for s in shortest.topics.values()} == {2}

    def test_yaw_is_zero_until_the_first_move(self):
        # drift north-east 20 s below the moving threshold, then fly east,
        # hover and fly north: the drift's heading must not leak into the yaw
        times = np.array([0.0, 20.0, 40.0, 45.0, 60.0])
        knots = np.array([[0.0, 0.0], [1.0, 1.0], [101.0, 1.0], [101.0, 1.0], [101.0, 81.0]])
        t = np.arange(0.0, 61.0, 0.05)
        yaw = synth._yaw_from_path(t, times, knots)
        assert np.array_equal(_bits(yaw), _bits(_reference_yaw_from_path(t, times, knots)))
        before = t < 20.0 - 0.05
        assert not yaw[before].any() and not np.signbit(yaw[before]).any()
        assert np.all(yaw[(t > 20.0) & (t < 45.0)] == 0.0)  # east is heading 0
        assert np.allclose(yaw[t > 45.0], np.pi / 2)  # north, held after arrival

    def test_long_fixed_wing_flight_hits_the_turn_rate_clip(self):
        fast = synth._fixed_wing_state(3000.0, np.random.default_rng(11))
        slow = _reference_fixed_wing_state(3000.0, np.random.default_rng(11))
        for a, b in zip(fast, slow):
            assert np.array_equal(_bits(a), _bits(b))
        rate = fast[4]
        assert np.any(rate == FIXED_WING_MAX_TURN_RATE)
        assert np.any(rate == -FIXED_WING_MAX_TURN_RATE)

    @pytest.mark.parametrize("seed", [1, 9001])
    def test_corpus_equals_the_reference_corpus(self, seed, monkeypatch):
        corpus = generate_corpus(40, 10, 10, seed=seed)
        with _references(monkeypatch):
            expected = generate_corpus(40, 10, 10, seed=seed)
        assert len(corpus) == len(expected) == 60
        for a, b in zip(corpus, expected):
            _assert_same_flight(a, b)
