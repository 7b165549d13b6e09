import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from uavclass.cache import read_cache, write_cache
from uavclass.cli import main
from uavclass.features import FeatureKey, FeatureSubset
from uavclass.pipeline import build_dataset
from uavclass.resample import SamplingConfig
from uavclass.synth import SynthSpec, generate_flight, write_ulog
from uavclass.ulog import (
    ULOG_MAGIC,
    BadMagic,
    FlightLog,
    TopicSeries,
    UlogError,
    UnknownFieldKind,
    VehicleType,
    _message_starts,
    extract_vehicle_type,
    parse_ulog,
)


def _series(ts_s, values):
    ts = (np.asarray(ts_s, dtype=float) * 1e6).astype(np.uint64)
    return TopicSeries(ts, {"v": np.asarray(values, dtype=float)})


class TestParse:
    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            parse_ulog(b"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")

    def test_magic_only_is_truncated_not_bad(self):
        log = parse_ulog(ULOG_MAGIC)
        assert log.truncated
        assert log.topics == {}

    def test_roundtrip_bit_exact(self, small_quad_flight):
        raw = write_ulog(small_quad_flight)
        back = parse_ulog(raw)
        assert set(back.topics) == set(small_quad_flight.topics)
        for key, series in small_quad_flight.topics.items():
            got = back.topics[key]
            assert np.array_equal(got.timestamps, series.timestamps)
            assert set(got.columns) == set(series.columns)
            for name, col in series.columns.items():
                assert np.array_equal(got.columns[name], col)
        assert back.vehicle_type is small_quad_flight.vehicle_type

    def test_truncated_file_keeps_complete_messages(self, small_quad_flight):
        raw = write_ulog(small_quad_flight)
        log = parse_ulog(raw[: len(raw) - 5])
        assert log.truncated
        assert log.topics  # earlier data messages survive

    def test_timestamps_monotone_after_parse(self, small_quad_flight):
        back = parse_ulog(write_ulog(small_quad_flight))
        for series in back.topics.values():
            assert np.all(np.diff(series.timestamps.astype(np.int64)) >= 0)

    def test_fuzz_never_crashes(self):
        rng = np.random.default_rng(42)
        for i in range(500):
            n = int(rng.integers(0, 400))
            blob = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            if i % 3 == 0:
                blob = ULOG_MAGIC + blob  # exercise the framing layer too
            try:
                log = parse_ulog(blob)
                assert isinstance(log, FlightLog)
            except BadMagic:
                pass


class TestVehicleType:
    def test_mapped_value(self):
        assert extract_vehicle_type({"MAV_TYPE": 2}) is VehicleType.QUADROTOR
        assert extract_vehicle_type({"MAV_TYPE": 13}) is VehicleType.HEXAROTOR
        assert extract_vehicle_type({"MAV_TYPE": 1}) is VehicleType.FIXED_WING

    def test_missing_key_is_other(self):
        assert extract_vehicle_type({}) is VehicleType.OTHER

    def test_unmapped_value_is_other(self):
        assert extract_vehicle_type({"MAV_TYPE": 6}) is VehicleType.OTHER


def test_a_non_numeric_mav_type_is_parsed_but_not_kept(tmp_path, capsys):
    rows = _flat_rows(5)
    data = (HEADER + _info("P", "char[4] MAV_TYPE", b"quad") + _fmt("t", FLAT_DECLS)
            + _sub(0, "t") + b"".join(_data(0, r) for r in rows))
    log = parse_ulog(data)
    assert (log.params["MAV_TYPE"], log.vehicle_type) == ("quad", VehicleType.OTHER)
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "named.ulg").write_bytes(data)
    hexa = generate_flight(SynthSpec(VehicleType.HEXAROTOR, duration_s=20.0, seed=1))
    (logs / "hexa.ulg").write_bytes(write_ulog(hexa))
    assert main(["ingest", "--dir", str(logs), "--out", str(tmp_path / "c.cache")]) == 0
    assert "parsed 2 logs, kept 1 with usable labels" in capsys.readouterr().out


class TestDuration:
    def test_single_series(self):
        log = FlightLog(topics={("t", 0): _series([0, 10], [1, 2])})
        assert log.duration_s == 10.0

    def test_envelope_of_two_series(self):
        log = FlightLog(
            topics={
                ("a", 0): _series([2, 8], [0, 0]),
                ("b", 0): _series([0, 10], [0, 0]),
            }
        )
        assert log.duration_s == 10.0

    def test_empty_log(self):
        with pytest.raises(UlogError, match="^flight log has no topics$"):
            FlightLog(topics={}).duration_s


# --- the message-by-message parser the vectorised one replaced -------------
# It decodes flat formats only and drops multi-part info continuations. On
# every file it accepts, parse_ulog must give the same result bit for bit.

_REF_KINDS = {
    "int8_t": ("<i1", True),
    "uint8_t": ("<u1", True),
    "int16_t": ("<i2", True),
    "uint16_t": ("<u2", True),
    "int32_t": ("<i4", True),
    "uint32_t": ("<u4", True),
    "int64_t": ("<i8", True),
    "uint64_t": ("<u8", True),
    "float": ("<f4", True),
    "double": ("<f8", True),
    "bool": ("<u1", True),
    "char": ("S1", False),
}


def _ref_field_decl(decl):
    type_part, _, name = decl.strip().partition(" ")
    name = name.strip()
    if not name:
        return None
    if "[" in type_part:
        token, _, rest = type_part.partition("[")
        if not rest.endswith("]"):
            return None
        try:
            alen = int(rest[:-1])
        except ValueError:
            return None
        if alen < 1:
            return None
    else:
        token, alen = type_part, 1
    if token not in _REF_KINDS:
        raise UnknownFieldKind(f"unknown type token {token!r}")
    return name, token, alen


def _ref_format(payload):
    try:
        text = payload.decode("ascii")
    except UnicodeDecodeError:
        return None
    name, sep, field_text = text.partition(":")
    if not sep or not name:
        return None
    fields = []
    for decl in field_text.split(";"):
        if not decl.strip():
            continue
        parsed = _ref_field_decl(decl)
        if parsed is None:
            return None
        fields.append(parsed)
    return (name, fields) if fields else None


def _ref_keyed_value(payload):
    if len(payload) < 1 or len(payload) < 1 + payload[0]:
        return None
    klen = payload[0]
    try:
        key = payload[1 : 1 + klen].decode("ascii")
    except UnicodeDecodeError:
        return None
    value_bytes = payload[1 + klen :]
    parsed = _ref_field_decl(key)
    if parsed is None:
        return None
    name, token, alen = parsed
    if token == "char":
        return name, value_bytes[:alen].decode("utf-8", errors="replace")
    dtype = np.dtype(_REF_KINDS[token][0])
    if len(value_bytes) < dtype.itemsize * alen:
        return None
    arr = np.frombuffer(value_bytes, dtype=dtype, count=alen)
    value = arr[0] if alen == 1 else arr
    if token in ("float", "double"):
        return name, float(value) if alen == 1 else value.astype(float)
    return name, int(value) if alen == 1 else value


def _ref_series(fields, raw):
    dtype = np.dtype(
        [(f, _REF_KINDS[t][0], (a,)) if a > 1 else (f, _REF_KINDS[t][0]) for f, t, a in fields]
    )
    n = len(raw) // dtype.itemsize
    if n < 1:
        return None
    arr = np.frombuffer(bytes(raw[: n * dtype.itemsize]), dtype=dtype)
    if ("timestamp", "uint64_t", 1) not in fields:
        return None
    timestamps = arr["timestamp"].astype(np.uint64)
    columns = {}
    for fname, token, alen in fields:
        if fname == "timestamp" or fname.startswith("_padding") or not _REF_KINDS[token][1]:
            continue
        data = arr[fname]
        if alen > 1:
            for i in range(alen):
                columns[f"{fname}[{i}]"] = np.ascontiguousarray(data[:, i])
        else:
            columns[fname] = np.ascontiguousarray(data)
    resorted = False
    if np.any(np.diff(timestamps.astype(np.int64)) < 0):
        order = np.argsort(timestamps, kind="stable")
        timestamps = timestamps[order]
        columns = {k: v[order] for k, v in columns.items()}
        resorted = True
    return TopicSeries(timestamps, columns, resorted=resorted)


def _reference_parse_ulog(data, source_id=""):
    if len(data) < len(ULOG_MAGIC) or data[: len(ULOG_MAGIC)] != ULOG_MAGIC:
        raise BadMagic("not a ULog file")
    log = FlightLog(topics={}, source_id=source_id)
    if len(data) < 16:
        log.truncated = True
        return log
    schemas, subs, buffers, info = {}, {}, {}, {}
    offset, end = 16, len(data)
    while offset < end:
        if end - offset < 3:
            log.truncated = True
            break
        size, mtype = struct.unpack_from("<HB", data, offset)
        offset += 3
        if end - offset < size:
            log.truncated = True
            break
        payload = data[offset : offset + size]
        offset += size
        if mtype == ord("F"):
            schema = _ref_format(payload)
            if schema is not None:
                schemas[schema[0]] = schema[1]
        elif mtype in (ord("I"), ord("M"), ord("P")):
            if mtype == ord("M"):
                if not payload or payload[0]:
                    continue
                payload = payload[1:]
            kv = _ref_keyed_value(payload)
            if kv is not None:
                info[kv[0]] = kv[1]
        elif mtype == ord("A"):
            if size < 3:
                continue
            (msg_id,) = struct.unpack_from("<H", payload, 1)
            try:
                name = payload[3:].decode("ascii")
            except UnicodeDecodeError:
                continue
            if name in schemas:
                subs[msg_id] = (name, payload[0])
                buffers.setdefault(msg_id, bytearray())
        elif mtype == ord("D"):
            if size < 2:
                continue
            (msg_id,) = struct.unpack_from("<H", payload, 0)
            if msg_id in subs:
                buffers[msg_id].extend(payload[2:])
    for msg_id, (name, multi_id) in subs.items():
        series = _ref_series(schemas[name], buffers[msg_id])
        if series is not None:
            log.topics[(name, multi_id)] = series
    log.params = info
    log.vehicle_type = extract_vehicle_type(info)
    return log


def _assert_same_log(a, b):
    """Equal bit for bit: flags, label, params, topic and column order, dtypes, bytes."""
    assert (a.truncated, a.vehicle_type, a.source_id) == (b.truncated, b.vehicle_type, b.source_id)
    assert list(a.params) == list(b.params)
    for key, value in a.params.items():
        assert np.array_equal(value, b.params[key]) and type(value) is type(b.params[key])
    assert list(a.topics) == list(b.topics)
    for key, sa in a.topics.items():
        sb = b.topics[key]
        assert sa.resorted == sb.resorted
        assert sa.timestamps.dtype == sb.timestamps.dtype == np.uint64
        assert sa.timestamps.tobytes() == sb.timestamps.tobytes()
        assert list(sa.columns) == list(sb.columns)
        for name, col in sa.columns.items():
            assert col.dtype == sb.columns[name].dtype
            assert col.tobytes() == sb.columns[name].tobytes()


def _same_as_reference(data):
    _assert_same_log(parse_ulog(data), _reference_parse_ulog(data))


# --- hand-built files --------------------------------------------------------

HEADER = ULOG_MAGIC + b"\x01" + struct.pack("<Q", 0)


def _frame(mtype, payload):
    return struct.pack("<HB", len(payload), ord(mtype)) + payload


def _fmt(name, decls):
    return _frame("F", f"{name}:{';'.join(decls)};".encode("ascii"))


def _sub(msg_id, name, multi_id=0):
    return _frame("A", struct.pack("<BH", multi_id, msg_id) + name.encode("ascii"))


def _data(msg_id, row):
    return _frame("D", struct.pack("<H", msg_id) + bytes(row))


def _info(mtype, decl, value, continued=None):
    key = decl.encode("ascii")
    prefix = b"" if continued is None else bytes([continued])
    return _frame(mtype, prefix + bytes([len(key)]) + key + value)


def _flag_bits(compat=0, incompat=0, appended=(0, 0, 0)):
    return _frame("B", struct.pack("<QQ3Q", compat, incompat, *appended))


FLAT = np.dtype([("timestamp", "<u8"), ("x", "<f4"), ("n", "<i2"), ("v", "<f8", (2,))])
FLAT_DECLS = ["uint64_t timestamp", "float x", "int16_t n", "double[2] v"]


def _flat_rows(n, start_us=1000):
    rows = np.zeros(n, FLAT)
    rows["timestamp"] = start_us + 1000 * np.arange(n)
    rows["x"] = np.arange(n) / 4
    rows["n"] = -np.arange(n)
    rows["v"] = np.arange(2 * n).reshape(n, 2) * 1.5
    return rows


class TestSameAsReference:
    @pytest.mark.parametrize(
        "vtype", [VehicleType.QUADROTOR, VehicleType.HEXAROTOR, VehicleType.FIXED_WING]
    )
    def test_synthetic_flights(self, vtype):
        for seed in range(3):
            flight = generate_flight(SynthSpec(vtype, duration_s=20.0, seed=seed))
            _same_as_reference(write_ulog(flight))

    def test_every_cut_inside_the_last_message(self, small_quad_flight):
        raw = write_ulog(small_quad_flight)
        # the last message is a data row of the last topic: a timestamp and
        # one value per column in its dtype, after the message header and msg_id
        last = list(small_quad_flight.topics.values())[-1]
        row = 2 + 8 + sum(col.itemsize for col in last.columns.values())
        start = len(raw) - 3 - row
        assert struct.unpack_from("<HB", raw, start) == (row, ord("D"))
        for cut in range(start, len(raw) + 1):
            data = raw[:cut]
            _same_as_reference(data)
            assert parse_ulog(data).truncated == (cut not in (start, len(raw)))

    def test_data_before_its_subscription_is_dropped(self):
        rows = _flat_rows(6)
        data = (
            HEADER + _fmt("t", FLAT_DECLS) + _data(3, rows[0]) + _data(3, rows[1])
            + _sub(3, "t") + b"".join(_data(3, r) for r in rows[2:])
        )
        _same_as_reference(data)
        assert len(parse_ulog(data).topics["t", 0].timestamps) == 4

    def test_subscription_before_its_format_is_ignored(self):
        rows = _flat_rows(3)
        data = HEADER + _sub(1, "t") + _fmt("t", FLAT_DECLS) + b"".join(_data(1, r) for r in rows)
        _same_as_reference(data)
        assert parse_ulog(data).topics == {}

    def test_data_messages_shorter_than_two_bytes(self):
        rows = _flat_rows(4)
        short = [_frame("D", b""), _frame("D", b"\x01")]
        body = b"".join(_data(2, r) + short[i % 2] for i, r in enumerate(rows))
        data = HEADER + _fmt("t", FLAT_DECLS) + _sub(2, "t") + body
        _same_as_reference(data)
        assert len(parse_ulog(data).topics["t", 0].timestamps) == 4

    def test_unknown_message_types_are_skipped(self):
        rows = _flat_rows(5)
        noise = [_frame(t, bytes(range(7))) for t in "LSOQz"] + [_frame("\xff", b"")]
        body = b"".join(_data(0, r) + noise[i] for i, r in enumerate(rows))
        data = (
            HEADER + _info("I", "char[3] sys_name", b"PX4") + _info("P", "int32_t MAV_TYPE",
            struct.pack("<i", 13)) + _fmt("t", FLAT_DECLS) + _sub(0, "t", 2) + body + noise[-1]
        )
        _same_as_reference(data)
        log = parse_ulog(data)
        assert log.vehicle_type is VehicleType.HEXAROTOR
        columns = log.topics["t", 2].columns
        assert list(columns) == ["x", "n", "v[0]", "v[1]"]
        assert [c.dtype.str for c in columns.values()] == ["<f4", "<i2", "<f8", "<f8"]

    def test_unsorted_rows_are_resorted_the_same_way(self):
        rows = _flat_rows(8)[[3, 1, 2, 0, 7, 5, 6, 4]]
        data = HEADER + _fmt("t", FLAT_DECLS) + _sub(0, "t") + b"".join(_data(0, r) for r in rows)
        _same_as_reference(data)
        assert parse_ulog(data).topics["t", 0].resorted


TYPED_SUBSET = FeatureSubset((
    FeatureKey("t", "x"), FeatureKey("t", "n"), FeatureKey("t", "s"),
    FeatureKey("att", "q", "euler_roll"), FeatureKey("att", "q", "euler_yaw"),
))


def _typed_ulog(rng):
    """A quadrotor log whose feature fields are float, int16_t, uint8_t and float[4]."""
    t = np.zeros(300, [("timestamp", "<u8"), ("x", "<f4"), ("n", "<i2"), ("s", "u1")])
    t["timestamp"] = np.cumsum(rng.integers(5_000, 15_000, len(t)))
    t["x"] = rng.normal(0.0, 40.0, len(t))
    t["n"] = rng.integers(-(2**15), 2**15, len(t))
    t["s"] = rng.integers(0, 256, len(t))
    att = np.zeros(170, [("timestamp", "<u8"), ("q", "<f4", (4,))])
    att["timestamp"] = np.cumsum(rng.integers(10_000, 25_000, len(att)))
    q = rng.normal(size=(len(att), 4))
    att["q"] = q / np.linalg.norm(q, axis=1, keepdims=True)
    return (
        HEADER + _info("P", "int32_t MAV_TYPE", struct.pack("<i", 2))
        + _fmt("t", ["uint64_t timestamp", "float x", "int16_t n", "uint8_t s"]) + _sub(0, "t")
        + b"".join(_data(0, r) for r in t)
        + _fmt("att", ["uint64_t timestamp", "float[4] q"]) + _sub(1, "att")
        + b"".join(_data(1, r) for r in att)
    )


@pytest.mark.parametrize(
    "config", [SamplingConfig("average", 20), SamplingConfig("fixed_window", 20, 0.2)]
)
def test_logged_types_give_the_dataset_bits_of_float64_columns(tmp_path, config):
    log = parse_ulog(_typed_ulog(np.random.default_rng(3)), "typed")
    types = {k: c.dtype.str for s in log.topics.values() for k, c in s.columns.items()}
    assert types == {"x": "<f4", "n": "<i2", "s": "|u1", **{f"q[{i}]": "<f4" for i in range(4)}}
    widened = replace(log, topics={
        key: TopicSeries(s.timestamps, {k: c.astype(np.float64) for k, c in s.columns.items()})
        for key, s in log.topics.items()
    })
    path = tmp_path / "typed.cache"
    write_cache([log], path)
    want, _ = build_dataset([widened], TYPED_SUBSET, config)
    assert len(want) == 1
    for got_log in (log, *read_cache(path)):
        got = build_dataset([got_log], TYPED_SUBSET, config)[0]
        assert got.instances[0].values.tobytes() == want.instances[0].values.tobytes()
        assert got.instances[0].mask.tobytes() == want.instances[0].mask.tobytes()


# esc_status nests eight esc_report records; both carry padding inside, and
# esc_status ends in a trailing padding field that PX4 does not log.
ESC_REPORT_DECLS = [
    "uint64_t timestamp", "int32_t esc_rpm", "uint8_t esc_state", "uint8_t[3] _padding0",
    "float esc_voltage", "char[4] name", "uint16_t[2] failures", "uint8_t[2] _padding1",
]
ESC_STATUS_DECLS = [
    "uint64_t timestamp", "uint8_t esc_count", "uint8_t[7] _padding0", "esc_report[8] esc",
    "uint16_t counter", "uint8_t[6] _padding1",
]
ESC_REPORT = np.dtype([
    ("timestamp", "<u8"), ("esc_rpm", "<i4"), ("esc_state", "u1"), ("_padding0", "u1", (3,)),
    ("esc_voltage", "<f4"), ("name", "S1", (4,)), ("failures", "<u2", (2,)),
    ("_padding1", "u1", (2,)),
])
ESC_STATUS = np.dtype([
    ("timestamp", "<u8"), ("esc_count", "u1"), ("_padding0", "u1", (7,)),
    ("esc", ESC_REPORT, (8,)), ("counter", "<u2"), ("_padding1", "u1", (6,)),
])
TRAILING_PAD = 6
ROW_SIZE_MESSAGE = r"^esc_status: a \d+-byte data row, format is \d+ bytes$"


def _esc_rows(n, seed=0):
    rng = np.random.default_rng(seed)
    rows = np.zeros(n, ESC_STATUS)
    rows["timestamp"] = 5000 + 20_000 * np.arange(n)
    rows["esc_count"] = 8
    rows["counter"] = np.arange(n)
    esc = rows["esc"]
    esc["timestamp"] = rng.integers(0, 2**62, (n, 8), dtype=np.uint64)
    esc["esc_rpm"] = rng.integers(-(2**31), 2**31 - 1, (n, 8))
    esc["esc_state"] = rng.integers(0, 256, (n, 8))
    esc["esc_voltage"] = rng.normal(15.0, 1.0, (n, 8))
    esc["name"] = b"M"
    esc["failures"] = rng.integers(0, 2**16, (n, 8, 2))
    return rows


def _esc_file(rows, row_bytes=None, extra=b""):
    row_bytes = ESC_STATUS.itemsize if row_bytes is None else row_bytes
    body = b"".join(_data(4, r.tobytes()[:row_bytes]) for r in rows)
    return (
        HEADER + _flag_bits() + _fmt("esc_report", ESC_REPORT_DECLS)
        + _fmt("esc_status", ESC_STATUS_DECLS) + _sub(4, "esc_status") + extra + body
    )


class TestNestedFormats:
    def test_a_parsed_nested_log_writes_back_every_column(self):
        # 'r[2] esc' nests two records of format r in format s
        inner = np.dtype([("timestamp", "<u8"), ("rpm", "<f4")])
        rows = np.zeros(5, [("timestamp", "<u8"), ("esc", inner, (2,))])
        rng = np.random.default_rng(5)
        rows["timestamp"] = 1000 + 1000 * np.arange(5)
        rows["esc"]["timestamp"] = rng.integers(0, 2**62, (5, 2), dtype=np.uint64)
        rows["esc"]["rpm"] = rng.normal(3000.0, 50.0, (5, 2))
        raw = (HEADER + _fmt("r", ["uint64_t timestamp", "float rpm"])
               + _fmt("s", ["uint64_t timestamp", "r[2] esc"]) + _sub(0, "s")
               + b"".join(_data(0, row.tobytes()) for row in rows))
        log = parse_ulog(raw)
        assert list(log.topics["s", 0].columns) == [
            "esc[0].timestamp", "esc[0].rpm", "esc[1].timestamp", "esc[1].rpm"]
        _assert_same_log(log, parse_ulog(write_ulog(log)))
        # esc[i].failures[0..1] are array fields inside the nested leaves
        esc = parse_ulog(_esc_file(_esc_rows(6)))
        _assert_same_log(esc, parse_ulog(write_ulog(esc)))

    def test_columns_and_values_round_trip(self):
        rows = _esc_rows(30)
        series = parse_ulog(_esc_file(rows)).topics["esc_status", 0]
        leaves = ["timestamp", "esc_rpm", "esc_state", "esc_voltage", "failures[0]", "failures[1]"]
        expected = ["esc_count"] + [f"esc[{i}].{f}" for i in range(8) for f in leaves] + ["counter"]
        assert list(series.columns) == expected
        assert series.timestamps.tobytes() == rows["timestamp"].tobytes()
        assert np.array_equal(series.columns["counter"], rows["counter"])
        for i in range(8):
            esc = rows["esc"][:, i]
            for leaf in ("timestamp", "esc_rpm", "esc_state", "esc_voltage"):
                col = series.columns[f"esc[{i}].{leaf}"]
                assert col.dtype == esc[leaf].dtype and col.flags.c_contiguous
                assert col.tobytes() == esc[leaf].tobytes()
            for k in range(2):
                assert np.array_equal(series.columns[f"esc[{i}].failures[{k}]"],
                                      esc["failures"][:, k])

    def test_rows_without_trailing_padding_parse_equal(self):
        rows = _esc_rows(12)
        full = parse_ulog(_esc_file(rows))
        short = parse_ulog(_esc_file(rows, ESC_STATUS.itemsize - TRAILING_PAD))
        _assert_same_log(full, short)
        # both lengths may appear in one stream
        mixed = HEADER + _fmt("esc_report", ESC_REPORT_DECLS) + _fmt(
            "esc_status", ESC_STATUS_DECLS) + _sub(4, "esc_status") + b"".join(
            _data(4, r.tobytes()[: ESC_STATUS.itemsize - TRAILING_PAD * (i % 2)])
            for i, r in enumerate(rows))
        _assert_same_log(full, parse_ulog(mixed))

    @pytest.mark.parametrize("delta", [1, -1, -TRAILING_PAD - 1, -TRAILING_PAD + 1, -40])
    def test_any_other_row_length_is_refused(self, delta):
        rows = _esc_rows(5)
        bad_row = (rows[4].tobytes() + bytes(max(delta, 0)))[: ESC_STATUS.itemsize + delta]
        with pytest.raises(UlogError, match=ROW_SIZE_MESSAGE):
            parse_ulog(_esc_file(rows[:4]) + _data(4, bad_row))

    def test_undefined_nested_token(self):
        data = HEADER + _fmt("esc_status", ESC_STATUS_DECLS) + _sub(4, "esc_status")
        with pytest.raises(UnknownFieldKind, match="esc_report"):
            parse_ulog(data + _data(4, _esc_rows(1)[0].tobytes()))

    def test_undefined_token_in_an_unsubscribed_format_is_harmless(self):
        rows = _esc_rows(3)
        data = _esc_file(rows, extra=_fmt("other", ["uint64_t timestamp", "quaternion q"]))
        assert list(parse_ulog(data).topics) == [("esc_status", 0)]

    @pytest.mark.parametrize(
        "formats",
        [
            [("a", ["uint64_t timestamp", "a[2] self"])],
            [("a", ["uint64_t timestamp", "b inner"]), ("b", ["float x", "a back"])],
        ],
        ids=["self", "cycle"],
    )
    def test_recursive_format(self, formats):
        data = HEADER + b"".join(_fmt(n, d) for n, d in formats) + _sub(0, "a")
        with pytest.raises(UnknownFieldKind, match="contains itself"):
            parse_ulog(data + _data(0, bytes(64)))

    def test_fuzz_flips_and_cuts_raise_only_ulog_errors(self):
        raw = _esc_file(_esc_rows(6))
        rng = np.random.default_rng(2024)
        outcomes = set()
        for i in range(1500):
            blob = bytearray(raw)
            for _ in range(int(rng.integers(1, 6))):
                pos = int(rng.integers(0, len(blob)))
                blob[pos] ^= int(rng.integers(1, 256))
            if i % 2:
                blob = blob[: int(rng.integers(0, len(blob) + 1))]
            try:
                log = parse_ulog(bytes(blob))
                assert isinstance(log, FlightLog)
                outcomes.add("parsed")
            except UlogError as exc:
                outcomes.add("row size" if re.search(ROW_SIZE_MESSAGE, str(exc))
                             else type(exc).__name__)
        assert {"parsed", "BadMagic", "row size"} <= outcomes


class TestInfoAndFlags:
    def test_multi_part_info_is_joined(self):
        parts = [b"first part, ", b"second part, ", b"third"]
        messages = [_info("M", f"char[{len(p)}] perf", p, continued=i > 0)
                    for i, p in enumerate(parts)]
        messages.insert(2, _info("M", "char[2] other", b"ab", continued=0))
        log = parse_ulog(HEADER + b"".join(messages))
        assert log.params == {"perf": "first part, second part, third", "other": "ab"}

    def test_continuation_without_a_first_part_is_dropped(self):
        log = parse_ulog(HEADER + _info("M", "char[4] perf", b"tail", continued=1))
        assert log.params == {}

    @pytest.mark.parametrize("incompat", [2, 1 << 8, 1 << 63, 3])
    def test_unknown_incompat_bit_is_refused(self, incompat):
        with pytest.raises(UlogError, match=f"^unknown incompat flag bits {incompat:#018x}$"):
            parse_ulog(HEADER + _flag_bits(incompat=incompat))

    def test_appended_data_is_refused(self):
        with pytest.raises(UlogError, match="^the log has appended data$"):
            parse_ulog(HEADER + _flag_bits(incompat=1, appended=(4096, 0, 0)))

    def test_appended_flag_without_offsets_and_compat_bits_are_accepted(self):
        rows = _flat_rows(3)
        body = _fmt("t", FLAT_DECLS) + _sub(0, "t") + b"".join(_data(0, r) for r in rows)
        for flags in (_flag_bits(incompat=1), _flag_bits(compat=0xFFFF_FFFF_FFFF_FFFF)):
            _assert_same_log(parse_ulog(HEADER + flags + body), parse_ulog(HEADER + body))

    def test_short_flag_bits_message_still_checks_incompat(self):
        with pytest.raises(UlogError, match="^unknown incompat flag bits 0x0000000000000004$"):
            parse_ulog(HEADER + _frame("B", bytes(8) + b"\x04"))


# --- the message walk ----------------------------------------------------------


def _reference_message_starts(data):
    """Step over one message at a time from the header, as the ULog spec reads."""
    starts, offset = [], 16
    while offset <= len(data) - 3:
        starts.append(offset)
        offset += 3 + data[offset] + (data[offset + 1] << 8)
    if offset > len(data):  # the last payload runs past the end
        starts.pop()
    return starts, offset != len(data)


def _same_walk(data):
    starts, truncated = _message_starts(data)
    assert starts.dtype == np.int64
    assert (starts.tolist(), truncated) == _reference_message_starts(data)
    return starts.tolist()


def _forged(body_byte, lengths):
    """Forged data headers that chain onto each other, each body ``body_byte`` repeated."""
    return b"".join(_frame("D", bytes([body_byte]) * n) for n in lengths)


class TestMessageStarts:
    @pytest.mark.parametrize("body_byte", [0x00, 0x44])
    def test_a_forged_run_is_entered_only_at_a_true_start(self, body_byte):
        # each true data message carries a forged chain f0 -> f1 -> f2 that
        # ends where the next true message starts: f1 is landed on, so a run
        # begins at a false offset and the true chain joins it mid-run
        payload = b"\x07\x07" + _forged(body_byte, [1, 2, 3])
        true = [_frame("D", payload) for _ in range(6)]
        data = HEADER + _info("I", "char[3] sys_name", b"PX4") + b"".join(true)
        first = len(data) - len(b"".join(true))
        step = len(true[0])
        assert _same_walk(data) == [16] + [first + i * step for i in range(6)]

    def test_forged_chains_around_subscribed_rows_parse_the_same(self):
        rows = _flat_rows(12)
        noise = _frame("D", b"\x09\x00" + _forged(0x44, [0, 4, 0, 7]) + b"DDD")
        body = b"".join(_data(1, r) + noise * (i % 3) for i, r in enumerate(rows))
        data = HEADER + _fmt("t", FLAT_DECLS) + _sub(1, "t") + body
        _same_walk(data)
        _same_as_reference(data)
        assert len(parse_ulog(data).topics["t", 0].timestamps) == 12

    @pytest.mark.parametrize("fill", [0x00, 0x44])
    def test_size_fields_across_the_byte_boundary(self, fill):
        sizes = [0, 1, 255, 256, 65535, 256, 0, 255, 1]
        messages = [_frame("D", bytes([fill]) * n) for n in sizes]
        data = HEADER + b"".join(messages)
        assert len(_same_walk(data)) == len(sizes)
        assert len(_same_walk(data + messages[1])) == len(sizes) + 1

    def test_a_file_without_data_messages(self):
        data = HEADER + _info("I", "char[3] sys_name", b"PX4") + _fmt("t", FLAT_DECLS) + _sub(0, "t")
        assert len(_same_walk(data)) == 3
        assert not _message_starts(data)[1]

    @pytest.mark.parametrize("tail", [b"D", b"\x00D", b"\x00\x00D", b"\x05\x00D", b"DDD", b"D\x00D"])
    def test_a_data_header_in_the_last_three_bytes(self, tail):
        body = HEADER + _data(0, _flat_rows(2)[0]) + _data(0, _flat_rows(2)[1])
        _same_walk(body + tail)
        _same_walk(body[:-1] + tail)

    def test_short_files(self):
        for n in range(len(HEADER), len(HEADER) + 7):
            _same_walk((HEADER + b"\x00\x00D\x01\x00D")[:n])

    def test_every_cut_of_a_small_log(self):
        rows = _flat_rows(10)
        rows["x"] = 0x44  # bytes that look like data types inside the rows
        data = (
            HEADER + _info("P", "int32_t MAV_TYPE", struct.pack("<i", 2)) + _fmt("t", FLAT_DECLS)
            + _sub(0, "t") + b"".join(_data(0, r) + _frame("L", b"DD") for r in rows[:5])
            + b"".join(_data(0, r) for r in rows[5:]) + _frame("D", b"D" * 300)
        )
        for cut in range(len(HEADER), len(data) + 1):
            _same_walk(data[:cut])

    def test_seeded_byte_flips(self, small_quad_flight):
        raw = write_ulog(small_quad_flight)
        rng = np.random.default_rng(21)
        _same_walk(raw)
        for _ in range(40):
            data = np.frombuffer(raw, np.uint8).copy()
            at = rng.integers(16, len(raw), 4)
            data[at] = rng.integers(0, 256, 4)
            _same_walk(data.tobytes())
            data[at] = 0x44
            _same_walk(data.tobytes())

    def test_seeded_bytes_dense_with_data_types(self):
        # bytes from {0, 1, 2, 'D'} forge many short chains of data headers
        rng = np.random.default_rng(5)
        for _ in range(200):
            body = rng.choice(np.array([0, 1, 2, 0x44], np.uint8), rng.integers(0, 400))
            _same_walk(HEADER + body.tobytes())
