import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from uavclass.cache import (
    COLUMN_DTYPES,
    MAGIC,
    VERSION,
    CacheError,
    ChecksumFailure,
    MalformedPayload,
    Truncated,
    VersionMismatch,
    Writer,
    iter_logs,
    read_cache,
    write_cache,
)
from uavclass import cache as cachemod
from uavclass.cli import main
from uavclass.pipeline import read_dataset, write_dataset
from uavclass.resample import Dataset, SampledInstance, SamplingConfig
from uavclass.synth import SynthSpec, generate_corpus, generate_flight
from uavclass.ulog import ULOG_MAGIC, FlightLog, TopicSeries, VehicleType


def _assert_logs_equal(a, b):
    assert a.source_id == b.source_id
    assert a.vehicle_type is b.vehicle_type
    assert a.truncated == b.truncated
    assert a.params == b.params
    assert set(a.topics) == set(b.topics)
    for key, series in a.topics.items():
        other = b.topics[key]
        assert np.array_equal(series.timestamps, other.timestamps)
        assert set(series.columns) == set(other.columns)
        for name, col in series.columns.items():
            assert col.dtype == other.columns[name].dtype
            assert col.tobytes() == other.columns[name].tobytes()


def test_roundtrip_three_logs(tmp_path):
    logs = [
        generate_flight(SynthSpec(t, duration_s=30.0, seed=i))
        for i, t in enumerate(
            [VehicleType.QUADROTOR, VehicleType.HEXAROTOR, VehicleType.FIXED_WING]
        )
    ]
    path = tmp_path / "corpus.cache"
    write_cache(logs, path)
    back = read_cache(path)
    assert len(back) == 3
    for a, b in zip(logs, back):
        _assert_logs_equal(a, b)


def test_empty_topic_map_roundtrips(tmp_path):
    log = FlightLog(topics={}, vehicle_type=VehicleType.OTHER, source_id="empty")
    path = tmp_path / "one.cache"
    write_cache([log], path)
    (back,) = read_cache(path)
    assert back.topics == {}
    assert back.source_id == "empty"


def test_flipped_checksum_byte(tmp_path):
    path = tmp_path / "c.cache"
    write_cache([generate_flight(SynthSpec(VehicleType.QUADROTOR, duration_s=20.0))], path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumFailure):
        read_cache(path)


def test_corrupted_payload_byte(tmp_path):
    path = tmp_path / "c.cache"
    write_cache([generate_flight(SynthSpec(VehicleType.QUADROTOR, duration_s=20.0))], path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumFailure):
        read_cache(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "c.cache"
    write_cache([generate_flight(SynthSpec(VehicleType.QUADROTOR, duration_s=20.0))], path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99  # version field follows the 8-byte magic
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        read_cache(path)


# --- the shared reader: typed errors for every malformed file ----------------

HEADER = 20  # magic, version, payload length


def _small_log():
    ts = np.arange(5, dtype=np.uint64) * 1000
    columns = {"x": np.arange(5, dtype="<f4") / 4, "y": -np.arange(5, dtype="<i2")}
    series = TopicSeries("vehicle_local_position", 0, ts, columns)
    return FlightLog(
        topics={("vehicle_local_position", 0): series},
        vehicle_type=VehicleType.HEXAROTOR,
        source_id="f1",
        params={"MAV_TYPE": 13, "RATE": 0.5, "NAME": "x"},
    )


def _small_dataset():
    rng = np.random.default_rng(0)
    instances = [
        SampledInstance(rng.normal(size=(4, 3)), rng.random((4, 3)) > 0.3, label,
                        source_id=f"s{i}", synthetic=bool(i % 2))
        for i, label in enumerate([VehicleType.QUADROTOR, VehicleType.FIXED_WING])
    ]
    config = SamplingConfig("fixed_window", 4, window_s=2.0)
    return Dataset(instances, config, feature_names=("a/x", "b/y", "c/z#euler_roll"))


# kind -> (write a small valid file, read it back); every read failure is a CacheError
KINDS = {
    "cache": (lambda p: write_cache([_small_log()], p), read_cache),
    "dataset": (lambda p: write_dataset(_small_dataset(), p), read_dataset),
}


def _rewrap(path, good, payload):
    """Save ``payload`` in the envelope of ``good``, with a fresh length and CRC."""
    (version,) = struct.unpack_from("<I", good, 8)
    with Writer(path, good[:8], version) as w:
        w.pack(f"{len(payload)}s", payload)


def _flip(rng, data):
    data = bytearray(data)
    for pos in rng.integers(0, len(data), size=int(rng.integers(1, 4))):
        data[pos] ^= int(rng.integers(1, 256))
    return bytes(data)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_reader_fuzz(kind, tmp_path):
    write, read = KINDS[kind]
    path = tmp_path / kind
    write(path)
    good = path.read_bytes()
    payload = good[HEADER:-4]
    read(path)  # the unmodified file loads
    rng = np.random.default_rng(500)
    crashes = []
    for i in range(1200):
        mode = i % 5
        if mode == 0:  # byte flips anywhere; mostly caught by the CRC
            path.write_bytes(_flip(rng, good))
        elif mode == 1:  # truncated file
            path.write_bytes(good[: int(rng.integers(0, len(good)))])
        elif mode == 2:  # flipped payload under a valid CRC: the field parser runs
            _rewrap(path, good, _flip(rng, payload))
        elif mode == 3:  # truncated payload under a valid CRC
            _rewrap(path, good, payload[: int(rng.integers(0, len(payload)))])
        else:  # a valid prefix, then random bytes
            cut = int(rng.integers(0, len(payload)))
            tail = rng.integers(0, 256, size=int(rng.integers(0, 64)), dtype=np.uint8)
            _rewrap(path, good, payload[:cut] + tail.tobytes())
        try:
            read(path)
        except CacheError:
            pass
        except Exception as exc:
            crashes.append(f"input {i}: {type(exc).__name__}: {exc}")
    assert not crashes, crashes[:5]


@pytest.mark.parametrize(
    "written, read_as", [(a, b) for a in sorted(KINDS) for b in sorted(KINDS) if a != b]
)
def test_cross_kind_read_rejected(written, read_as, tmp_path):
    path = tmp_path / written
    KINDS[written][0](path)
    _, read = KINDS[read_as]
    with pytest.raises(CacheError, match="not a UAV"):
        read(path)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_an_old_model_checkpoint_is_rejected(kind, tmp_path):
    # the UAVLSTM1 envelope of the removed ``train`` command's model file
    path = tmp_path / "model.ckpt"
    with Writer(path, b"UAVLSTM1", 1) as w:
        w.pack("<II", 4, 3)
    with pytest.raises(CacheError, match=r"^not a UAV(CACHE|DATA1) file$"):
        KINDS[kind][1](path)


def test_dataset_with_a_window_under_average_sampling_is_malformed(tmp_path):
    # such a file was written from a config whose window_s average sampling ignored
    dataset = _small_dataset()
    dataset.config.method = "average"
    path = tmp_path / "dataset.bin"
    write_dataset(dataset, path)
    with pytest.raises(MalformedPayload, match="average sampling takes no window_s"):
        read_dataset(path)


def _cache_with(path, build):
    with Writer(path, MAGIC, VERSION) as w:
        build(w)


def test_unknown_vehicle_code(tmp_path):
    path = tmp_path / "c.cache"
    _cache_with(path, lambda w: (w.str("f1"), w.pack("<BI", 9, 1)))
    with pytest.raises(MalformedPayload, match="unknown vehicle type code 9"):
        read_cache(path)


def test_topic_without_samples(tmp_path):
    def build(w):
        w.str("f1")
        w.pack("<BBI", 0, 0, 0)  # quadrotor, not truncated, no params
        w.pack("<I", 1)
        w.str("t")
        w.pack("<HBIQ", 0, 0, 0, 0)  # no columns, no rows
        w.pack("<I", 1)  # trailer: one log

    path = tmp_path / "c.cache"
    _cache_with(path, build)
    with pytest.raises(MalformedPayload, match="no samples"):
        read_cache(path)


def test_bad_utf8(tmp_path):
    path = tmp_path / "c.cache"
    _cache_with(path, lambda w: w.pack("<I2sI", 2, b"\xff\xfe", 1))
    with pytest.raises(MalformedPayload, match="UTF-8"):
        read_cache(path)


def test_trailing_payload_bytes(tmp_path):
    path = tmp_path / "d.bin"
    write_dataset(_small_dataset(), path)
    raw = path.read_bytes()
    _rewrap(path, raw, raw[HEADER:-4] + b"\x07")
    with pytest.raises(MalformedPayload, match="1 unread payload bytes"):
        read_dataset(path)


def test_a_byte_before_the_trailer(tmp_path):
    path = tmp_path / "c.cache"
    write_cache([_small_log()], path)
    raw = path.read_bytes()
    _rewrap(path, raw, raw[HEADER:-8] + b"\x07" + raw[-8:-4])
    with pytest.raises(MalformedPayload, match="payload ends inside a field"):
        read_cache(path)


def _typed_topic(w, ts, code, values):
    """One flight with one topic of one column, then the trailer."""
    w.str("f1")
    w.pack("<BBI", 0, 0, 0)  # quadrotor, not truncated, no params
    w.pack("<I", 1)
    w.str("t")
    w.pack("<HBIQ", 0, 0, 1, len(ts))
    w.array(ts, "<u8")
    w.str("x")
    w.pack("<B", code)
    w.array(values, "<f8")
    w.pack("<I", 1)


def test_unknown_column_dtype_code(tmp_path):
    path = tmp_path / "c.cache"
    code = len(COLUMN_DTYPES)
    _cache_with(path, lambda w: _typed_topic(w, np.arange(3), code, np.zeros(3)))
    with pytest.raises(MalformedPayload, match=f"'x' has unknown dtype code {code}"):
        read_cache(path)


def test_decreasing_timestamps(tmp_path):
    # decreasing timestamps would make the topic's first and last sample a
    # wrong envelope, and binning would clip samples into the end bins
    path = tmp_path / "c.cache"
    _cache_with(path, lambda w: _typed_topic(w, np.array([0, 2000, 1000]), 0, np.zeros(3)))
    with pytest.raises(MalformedPayload, match="'t' has decreasing timestamps"):
        read_cache(path)


def test_repeated_timestamps_load(tmp_path):
    path = tmp_path / "c.cache"
    _cache_with(path, lambda w: _typed_topic(w, np.array([0, 1000, 1000]), 0, np.ones(3)))
    (log,) = read_cache(path)
    assert log.topics["t", 0].timestamps.tolist() == [0, 1000, 1000]


@pytest.mark.parametrize("trailer", [0, 2])
def test_trailer_count_mismatch(tmp_path, trailer):
    path = tmp_path / "c.cache"
    write_cache([_small_log()], path)
    raw = path.read_bytes()
    _rewrap(path, raw, raw[HEADER:-8] + struct.pack("<I", trailer))
    with pytest.raises(MalformedPayload, match=f"trailer counts {trailer} logs, the payload holds 1"):
        read_cache(path)


def test_every_column_dtype_round_trips(tmp_path):
    ts = np.arange(4, dtype=np.uint64) * 1000
    columns = {d.str: (np.arange(4) * 3 - 1).astype(d) for d in COLUMN_DTYPES}
    columns["flag"] = np.array([True, False, True, True])  # no code: stored as f8
    log = FlightLog({("t", 0): TopicSeries("t", 0, ts, columns)}, VehicleType.QUADROTOR)
    path = tmp_path / "c.cache"
    write_cache([log], path)
    (back,) = read_cache(path)
    got = back.topics["t", 0].columns
    for d in COLUMN_DTYPES:
        assert got[d.str].dtype == d and got[d.str].tobytes() == columns[d.str].tobytes()
    assert got["flag"].dtype == np.float64 and got["flag"].tolist() == [1.0, 0.0, 1.0, 1.0]


def test_a_version_1_cache_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "old.cache"
    write_cache([_small_log()], path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch, match="rebuild the cache from its ULog files"):
        read_cache(path)
    assert main(["catalog", "--cache", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: VersionMismatch: UAVCACHE version 1, expected 2: rebuild")


def test_bytes_after_checksum(tmp_path):
    path = tmp_path / "c.cache"
    write_cache([_small_log()], path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(MalformedPayload, match="after its checksum"):
        read_cache(path)


@pytest.mark.parametrize("size", [8, 12, HEADER, 40])
def test_short_file_with_magic_is_truncated(tmp_path, size):
    path = tmp_path / "c.cache"
    write_cache([_small_log()], path)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(Truncated, match="truncated"):
        read_cache(path)


def test_missing_file(tmp_path, capsys):
    absent = tmp_path / "absent.cache"
    with pytest.raises(CacheError, match="cannot read"):
        read_cache(absent)
    assert main(["catalog", "--cache", str(absent)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CacheError: cannot read") and err.count("\n") == 1


def test_cache_bytes_unchanged(tmp_path):
    # the v2 layout: a column keeps its dtype behind a u8 code, and the log
    # count is a trailer after the last log
    path = tmp_path / "c.cache"
    write_cache([_small_log()], path)
    raw = path.read_bytes()
    payload = (
        struct.pack("<I", 2) + b"f1" + struct.pack("<BB", 2, 0)
        + struct.pack("<I", 3)
        + struct.pack("<I", 8) + b"MAV_TYPE" + struct.pack("<Bq", 0, 13)
        + struct.pack("<I", 4) + b"RATE" + struct.pack("<Bd", 1, 0.5)
        + struct.pack("<I", 4) + b"NAME" + struct.pack("<BI", 2, 1) + b"x"
        + struct.pack("<I", 1)
        + struct.pack("<I", 22) + b"vehicle_local_position"
        + struct.pack("<HBIQ", 0, 0, 2, 5)
        + (np.arange(5, dtype="<u8") * 1000).tobytes()
        + struct.pack("<I", 1) + b"x" + struct.pack("<B", 1)
        + struct.pack("<5f", 0.0, 0.25, 0.5, 0.75, 1.0)
        + struct.pack("<I", 1) + b"y" + struct.pack("<B", 4) + struct.pack("<5h", 0, -1, -2, -3, -4)
        + struct.pack("<I", 1)
    )
    expected = (
        b"UAVCACHE" + struct.pack("<IQ", 2, len(payload)) + payload
        + struct.pack("<I", zlib.crc32(payload))
    )
    assert raw == expected


def test_dataset_with_bad_label_code(tmp_path):
    path = tmp_path / "d.bin"
    write_dataset(_small_dataset(), path)
    raw = path.read_bytes()
    payload = bytearray(raw[HEADER:-4])
    at = payload.index(b"s0") + 2  # the label code follows the first source id
    payload[at] = 200
    _rewrap(path, raw, bytes(payload))
    with pytest.raises(MalformedPayload, match="unknown vehicle type code 200"):
        read_dataset(path)


@pytest.mark.parametrize("byte", [0, 2])
def test_dataset_with_a_standardize_byte_other_than_1(tmp_path, byte):
    path = tmp_path / "d.bin"
    write_dataset(_small_dataset(), path)
    raw = path.read_bytes()
    payload = bytearray(raw[HEADER:-4])
    # str "fixed_window" | u32 n_intervals | u8 has_window | f64 window_s | u8 standardize
    at = 4 + len("fixed_window") + 4 + 1 + 8
    assert payload[at] == 1  # training folds are always standardized
    payload[at] = byte
    _rewrap(path, raw, bytes(payload))
    with pytest.raises(MalformedPayload, match=f"standardize byte is {byte}, not 1"):
        read_dataset(path)


def test_dataset_with_mismatched_instance_shape(tmp_path):
    path = tmp_path / "d.bin"
    dataset = _small_dataset()
    inst = dataset.instances[1]
    inst.values, inst.mask = inst.values[:3], inst.mask[:3]
    write_dataset(dataset, path)
    with pytest.raises(MalformedPayload, match="'s1' is 3x3"):
        read_dataset(path)


def test_dataset_with_invalid_sampling_config(tmp_path):
    path = tmp_path / "d.bin"
    dataset = _small_dataset()
    dataset.config.n_intervals = 0  # bypasses the constructor check
    write_dataset(dataset, path)
    with pytest.raises(MalformedPayload, match="n_intervals"):
        read_dataset(path)


def test_write_cache_streams_the_payload(tmp_path):
    logs = generate_corpus(12, 4, 4, seed=5)
    path = tmp_path / "corpus.cache"
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        write_cache(logs, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 3 << 20
    assert peak - base <= size / 2  # a chunk of the payload, never all of it


def test_read_cache_holds_the_payload_once(tmp_path):
    path = tmp_path / "corpus.cache"
    write_cache(generate_corpus(12, 4, 4, seed=5), path)
    tracemalloc.start()
    try:
        logs = read_cache(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = sum(
        series.timestamps.nbytes + sum(col.nbytes for col in series.columns.values())
        for log in logs
        for series in log.topics.values()
    )
    assert arrays > 1 << 20
    assert peak <= 1.2 * arrays


def _track_open(monkeypatch):
    """Record every file the cache module opens."""
    handles = []

    def tracking_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(cachemod, "open", tracking_open, raising=False)
    return handles


@pytest.mark.parametrize(
    "damage",
    [
        lambda raw: b"NOTMAGIC" + raw[8:],
        lambda raw: raw[:12],
        lambda raw: raw[:8] + struct.pack("<I", 9) + raw[12:],
        lambda raw: raw[:-10],
        lambda raw: raw + b"\0",
        lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]),
    ],
    ids=["magic", "header", "version", "truncated", "trailing", "checksum"],
)
def test_reader_errors_close_the_file(tmp_path, monkeypatch, damage):
    path = tmp_path / "c.cache"
    write_cache([_small_log()], path)
    path.write_bytes(damage(path.read_bytes()))
    handles = _track_open(monkeypatch)
    with pytest.raises(CacheError):
        read_cache(path)
    assert len(handles) == 1 and handles[0].closed


def test_field_errors_close_the_file(tmp_path, monkeypatch):
    path = tmp_path / "c.cache"
    _cache_with(path, lambda w: w.pack("<Is", 5, b"x"))  # a string cut short
    handles = _track_open(monkeypatch)
    with pytest.raises(MalformedPayload, match="payload ends inside a field"):
        read_cache(path)
    assert len(handles) == 1 and handles[0].closed


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    path = tmp_path / "c.cache"
    write_cache([_small_log()], path)
    old = path.read_bytes()
    handles = _track_open(monkeypatch)
    with pytest.raises(KeyError):
        with Writer(path, MAGIC, VERSION) as w:
            w.pack("<I", 1)
            raise KeyError("field")
    assert handles[0].closed
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cache"]


def test_unwritable_path_is_a_cache_error(tmp_path):
    with pytest.raises(CacheError, match="cannot write"):
        write_cache([_small_log()], tmp_path / "absent" / "c.cache")


def test_write_cache_takes_a_generator(tmp_path):
    logs = [_small_log(), generate_flight(SynthSpec(VehicleType.QUADROTOR, duration_s=20.0))]
    listed, streamed = tmp_path / "listed.cache", tmp_path / "streamed.cache"
    assert write_cache(logs, listed) == 2
    assert write_cache((log for log in logs), streamed) == 2
    assert streamed.read_bytes() == listed.read_bytes()


def test_iter_logs_yields_one_log_at_a_time(tmp_path):
    logs = [generate_flight(SynthSpec(VehicleType.HEXAROTOR, duration_s=20.0, seed=i))
            for i in range(3)]
    path = tmp_path / "c.cache"
    write_cache(logs, path)
    it = iter_logs(path)
    _assert_logs_equal(next(it), logs[0])
    for got, want in zip(it, logs[1:]):
        _assert_logs_equal(got, want)


def test_iter_logs_checks_the_file_before_the_first_log(tmp_path, monkeypatch):
    path = tmp_path / "c.cache"
    write_cache([_small_log(), _small_log()], path)
    raw = bytearray(path.read_bytes())
    raw[-9] ^= 1  # a byte of the last log's last column
    path.write_bytes(bytes(raw))
    yielded = []
    with pytest.raises(ChecksumFailure):
        for log in iter_logs(path):
            yielded.append(log)
    assert yielded == []


def _ulog_frame(mtype, payload):
    return struct.pack("<HB", len(payload), ord(mtype)) + payload


def _ulog_param(mtype, decl, value: bytes):
    key = decl.encode("ascii")
    return _ulog_frame(mtype, bytes([len(key)]) + key + value)


def test_array_params_survive_ingest(tmp_path):
    # a hand-built ULog whose info and parameters carry float and int arrays
    rows = np.zeros(3, [("timestamp", "<u8"), ("x", "<f4")])
    rows["timestamp"] = [1000, 2000, 3000]
    rows["x"] = [0.5, 1.5, 2.5]
    data = (
        ULOG_MAGIC + b"\x01" + struct.pack("<Q", 0)
        + _ulog_param("I", "char[3] sys_name", b"PX4")
        + _ulog_param("P", "int32_t MAV_TYPE", struct.pack("<i", 2))
        + _ulog_param("P", "float[3] gyro_offset", struct.pack("<3f", 1.0, -2.5, 3.25))
        + _ulog_param("I", "double[2] home", struct.pack("<2d", 47.25, 8.5))
        + _ulog_param("P", "int32_t[4] rc_map", struct.pack("<4i", 1, -2, 3, 2**31 - 1))
        + _ulog_param("I", "uint8_t[2] flags", bytes([0, 255]))
        + _ulog_frame("F", b"t:uint64_t timestamp;float x;")
        + _ulog_frame("A", struct.pack("<BH", 0, 0) + b"t")
        + b"".join(_ulog_frame("D", struct.pack("<H", 0) + row.tobytes()) for row in rows)
    )
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "arrays.ulg").write_bytes(data)
    cache = tmp_path / "corpus.cache"
    assert main(["ingest", "--dir", str(logs), "--out", str(cache)]) == 0

    (log,) = iter_logs(cache)
    params = log.params
    assert set(params) == {"sys_name", "MAV_TYPE", "gyro_offset", "home", "rc_map", "flags"}
    assert params["sys_name"] == "PX4" and params["MAV_TYPE"] == 2
    expected = {
        "gyro_offset": np.array([1.0, -2.5, 3.25]),
        "home": np.array([47.25, 8.5]),
        "rc_map": np.array([1, -2, 3, 2**31 - 1]),
        "flags": np.array([0, 255]),
    }
    for name, values in expected.items():
        assert params[name].dtype == (np.float64 if values.dtype.kind == "f" else np.int64)
        assert np.array_equal(params[name], values)
    assert np.array_equal(log.topics[("t", 0)].columns["x"], [0.5, 1.5, 2.5])


def test_unknown_param_kind(tmp_path):
    def build(w):
        w.str("f")
        w.vehicle_type(VehicleType.QUADROTOR)
        w.pack("<BI", 0, 1)
        w.str("p")
        w.pack("<BI", 5, 1)  # kind 5, then the trailer

    path = tmp_path / "c.cache"
    _cache_with(path, build)
    with pytest.raises(MalformedPayload, match="unknown parameter kind 5"):
        read_cache(path)
