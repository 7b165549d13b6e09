"""ULog files shaped like real PX4 flight logs, built from seeded inputs.

The feature topics come from the package's own generator and serializer
(``synth.generate_flight`` and ``synth.write_ulog``). Around them this module
adds what a real PX4 log also carries: info and parameter messages up front,
format definitions for non-feature topics (one of which nests another
format, as ``esc_status`` nests ``esc_report``), and those topics' data
messages interleaved by timestamp at tens to hundreds of Hz, mixed with
logged-string messages.

File kinds, each planned at a fixed share of the directory:

- ``plain``: a valid log; ingest keeps it.
- ``nested``: a valid log whose ``esc_status`` format nests ``esc_report``.
- ``truncated``: a valid log cut in the middle of a message; ingest keeps
  every complete message and flags it truncated.
- ``unmapped``: a valid log whose ``MAV_TYPE`` has no class; ingest parses
  and then excludes it.
- ``bad_magic``: a log whose header bytes were zeroed; ingest rejects it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import numpy as np

import uavclass.synth as synth
from uavclass.ulog import ULOG_MAGIC, US_PER_S, VehicleType

HEADER_LEN = 16
FEATURE_RATES_HZ = {
    "vehicle_local_position": 50.0,
    "vehicle_attitude": 100.0,
    "manual_control_setpoint": 20.0,
    "vehicle_air_data": 20.0,
    "battery_status": 5.0,
}
# flight length in seconds; files come out at about 2 to 5 MB
DURATION_RANGE_S = (120.0, 240.0)
KIND_SHARES = (("plain", 8), ("nested", 4), ("truncated", 3), ("unmapped", 3), ("bad_magic", 2))
KEPT_KINDS = ("plain", "nested", "truncated")
# vehicle types of the kept kinds: 3 of every 5 are quadrotors
LABEL_CYCLE = (VehicleType.QUADROTOR, VehicleType.HEXAROTOR, VehicleType.QUADROTOR,
               VehicleType.FIXED_WING, VehicleType.QUADROTOR)
UNMAPPED_MAV_TYPES = (4, 14, 19, 20, 22)  # helicopter, octorotor, VTOLs
EXTRA_MSG_ID0 = 32  # synth.write_ulog numbers its own topics from 0

# name -> (format fields as (ULog type, field name, array length), rate Hz)
ESC_REPORT = (
    ("uint64_t", "timestamp", 1), ("uint32_t", "esc_errorcount", 1),
    ("int32_t", "esc_rpm", 1), ("float", "esc_voltage", 1), ("float", "esc_current", 1),
    ("float", "esc_temperature", 1), ("uint16_t", "failures", 1), ("int8_t", "esc_power", 1),
    ("uint8_t", "esc_address", 1), ("uint8_t", "esc_cmdcount", 1), ("uint8_t", "esc_state", 1),
    ("uint8_t", "_padding0", 2),
)
EXTRA_TOPICS = {
    "sensor_combined": ((
        ("uint64_t", "timestamp", 1), ("float", "gyro_rad", 3), ("uint32_t", "gyro_integral_dt", 1),
        ("int32_t", "accelerometer_timestamp_relative", 1), ("float", "accelerometer_m_s2", 3),
        ("uint32_t", "accelerometer_integral_dt", 1), ("uint8_t", "accelerometer_clipping", 1),
        ("uint8_t", "gyro_clipping", 1), ("uint8_t", "accel_calibration_count", 1),
        ("uint8_t", "gyro_calibration_count", 1),
    ), 100.0),
    "actuator_outputs": ((
        ("uint64_t", "timestamp", 1), ("uint32_t", "noutputs", 1), ("float", "output", 16),
        ("uint8_t", "_padding0", 4),
    ), 50.0),
    "vehicle_status": ((
        ("uint64_t", "timestamp", 1), ("uint64_t", "armed_time", 1), ("uint8_t", "arming_state", 1),
        ("uint8_t", "nav_state", 1), ("uint8_t", "vehicle_type", 1), ("bool", "failsafe", 1),
        ("uint8_t", "_padding0", 4),
    ), 2.0),
    "esc_status": ((
        ("uint64_t", "timestamp", 1), ("uint16_t", "counter", 1), ("uint8_t", "esc_count", 1),
        ("uint8_t", "esc_connectiontype", 1), ("uint8_t", "esc_online_flags", 1),
        ("uint8_t", "esc_armed_flags", 1), ("uint8_t", "_padding0", 2),
        ("esc_report", "esc", 8),
    ), 20.0),
}
NESTED_TOPIC = "esc_status"
NUMPY_KINDS = {
    "int8_t": "<i1", "uint8_t": "<u1", "int16_t": "<i2", "uint16_t": "<u2",
    "int32_t": "<i4", "uint32_t": "<u4", "int64_t": "<i8", "uint64_t": "<u8",
    "float": "<f4", "double": "<f8", "bool": "<u1",
}
LOG_TEXT_LEN = 40
PARAM_PREFIXES = ("MC_", "FW_", "EKF2_", "BAT_", "COM_", "SENS_", "NAV_", "MPC_")
N_PARAMS = 160


@dataclasses.dataclass
class PlannedFile:
    name: str
    kind: str
    label: VehicleType  # class of the flight; OTHER for unmapped files
    size: int  # bytes on disk
    messages: int  # complete messages in the file
    feature_digest: str  # of the feature topics as generated


def _dtype(fields):
    parts = []
    for token, name, alen in fields:
        kind = np.dtype(ESC_REPORT_DTYPE) if token == "esc_report" else NUMPY_KINDS[token]
        parts.append((name, kind, (alen,)) if alen > 1 else (name, kind))
    return np.dtype(parts)


ESC_REPORT_DTYPE = np.dtype([(n, NUMPY_KINDS[t], (a,)) if a > 1 else (n, NUMPY_KINDS[t])
                             for t, n, a in ESC_REPORT])


def _format_text(name, fields):
    decls = [f"{t}[{a}] {n}" if a > 1 else f"{t} {n}" for t, n, a in fields]
    return f"{name}:{';'.join(decls)};".encode("ascii")


def _frame(mtype, payload):
    return struct.pack("<HB", len(payload), ord(mtype)) + payload


def _keyed(mtype, decl, value):
    key = decl.encode("ascii")
    return _frame(mtype, bytes([len(key)]) + key + value)


def _fill(arr, rng):
    """Seeded plausible values for every non-padding leaf field."""
    for name in arr.dtype.names:
        col = arr[name]
        if name == "timestamp" or name.startswith("_padding"):
            continue
        if col.dtype.names:
            _fill(col, rng)
        elif col.dtype.kind == "f":
            col[...] = rng.normal(0.0, 2.0, col.shape)
        else:
            hi = min(np.iinfo(col.dtype).max, 1000)
            col[...] = rng.integers(0, hi, col.shape, endpoint=True)


def _definitions(kind, rng, mav_type, topics):
    out = [
        _keyed("I", "char[3] sys_name", b"PX4"),
        _keyed("I", "char[10] ver_hw", b"PX4_FMU_V5"),
        _keyed("I", "uint32_t ver_sw_release", struct.pack("<I", 0x010E0300)),
    ]
    for i in range(N_PARAMS):
        name = f"{PARAM_PREFIXES[i % len(PARAM_PREFIXES)]}P{i:03d}"
        if i % 2:
            out.append(_keyed("P", f"float {name}", struct.pack("<f", rng.normal())))
        else:
            out.append(_keyed("P", f"int32_t {name}", struct.pack("<i", int(rng.integers(0, 100)))))
    if mav_type is not None:
        out.append(_keyed("P", "int32_t MAV_TYPE", struct.pack("<i", mav_type)))
    if kind == "nested":
        out.append(_frame("F", _format_text("esc_report", ESC_REPORT)))
    for offset, name in enumerate(topics):
        out.append(_frame("F", _format_text(name, EXTRA_TOPICS[name][0])))
        out.append(_frame("A", struct.pack("<BH", 0, EXTRA_MSG_ID0 + offset) + name.encode("ascii")))
    return out


def _data_section(topics, start_us, duration_s, rng):
    """Data and logged-string messages of the extra topics, interleaved by time.

    Returns (bytes, end offset of each message within the section).
    """
    streams = []  # (timestamps, records as uint8 rows)
    for offset, name in enumerate(topics):
        fields, rate = EXTRA_TOPICS[name]
        row = _dtype(fields)
        n = max(2, int(duration_s * rate))
        rec = np.zeros(n, np.dtype([("size", "<u2"), ("type", "u1"), ("msg_id", "<u2"), ("row", row)]))
        rec["size"] = 2 + row.itemsize
        rec["type"] = ord("D")
        rec["msg_id"] = EXTRA_MSG_ID0 + offset
        ts = start_us + (rng.uniform(0.0, 0.2) + np.arange(n) / rate) * US_PER_S
        rec["row"]["timestamp"] = ts.astype(np.uint64)
        _fill(rec["row"], rng)
        streams.append((rec["row"]["timestamp"], rec.view(np.uint8).reshape(n, -1)))
    n_logs = max(1, int(duration_s / 10.0))
    text = np.dtype([("size", "<u2"), ("type", "u1"), ("level", "u1"), ("timestamp", "<u8"),
                     ("text", f"S{LOG_TEXT_LEN}")])
    logs = np.zeros(n_logs, text)
    logs["size"] = text.itemsize - 3
    logs["type"] = ord("L")
    logs["level"] = ord("6")
    logs["timestamp"] = np.sort(rng.uniform(0.0, duration_s, n_logs)) * US_PER_S + start_us
    logs["text"] = b"[commander] navigation state changed"
    streams.append((logs["timestamp"], logs.view(np.uint8).reshape(n_logs, -1)))

    stamps = np.concatenate([ts for ts, _ in streams])
    lengths = np.concatenate([np.full(len(ts), raw.shape[1]) for ts, raw in streams])
    order = np.argsort(stamps, kind="stable")
    ends = np.cumsum(lengths[order])
    starts_sorted = ends - lengths[order]
    starts = np.empty_like(starts_sorted)
    starts[order] = starts_sorted
    out = np.empty(int(ends[-1]), np.uint8)
    first = 0
    for _, raw in streams:
        pos = starts[first : first + len(raw)]
        out[pos[:, np.newaxis] + np.arange(raw.shape[1])] = raw
        first += len(raw)
    return out.tobytes(), ends


def feature_digest(log):
    """SHA-256 of a flight's topics, timestamps and columns, in a fixed order."""
    h = hashlib.sha256()
    for key in sorted(log.topics):
        series = log.topics[key]
        h.update(repr(key).encode())
        h.update(np.ascontiguousarray(series.timestamps, dtype="<u8").tobytes())
        for cname in sorted(series.columns):
            h.update(cname.encode())
            h.update(np.ascontiguousarray(series.columns[cname], dtype="<f8").tobytes())
    return h.hexdigest()


def build_file(kind, label, duration_s, seed):
    """One log of the given kind: (bytes, complete message count, feature digest)."""
    rng = np.random.default_rng(seed)
    flight_type = label if label is not VehicleType.OTHER else VehicleType.QUADROTOR
    log = synth.generate_flight(synth.SynthSpec(
        flight_type, duration_s=duration_s, rates_hz=dict(FEATURE_RATES_HZ),
        seed=int(rng.integers(0, 2**31 - 1))))
    digest = feature_digest(log)
    mav_type = None
    if kind == "unmapped":
        mav_type = int(rng.choice(UNMAPPED_MAV_TYPES))
        log = dataclasses.replace(log, vehicle_type=VehicleType.OTHER)
    base = synth.write_ulog(log)
    base_msgs = (mav_type is None) + sum(2 + len(s.timestamps) for s in log.topics.values())

    topics = [t for t in EXTRA_TOPICS if t != NESTED_TOPIC or kind == "nested"]
    defs = _definitions(kind, rng, mav_type, topics)
    start_us = min(s.start_us for s in log.topics.values())
    data, ends = _data_section(topics, start_us, log.duration_s, rng)
    head = base[:HEADER_LEN] + b"".join(defs) + base[HEADER_LEN:]
    messages = len(defs) + base_msgs + len(ends)
    blob = head + data

    if kind == "truncated":
        last = int(rng.integers(int(0.6 * len(ends)), len(ends)))
        msg_start = int(ends[last - 1]) if last else 0
        cut = msg_start + int(rng.integers(1, int(ends[last]) - msg_start))
        blob = head + data[:cut]
        messages -= len(ends) - last
    elif kind == "bad_magic":
        blob = bytes(len(ULOG_MAGIC)) + blob[len(ULOG_MAGIC):]
        messages = 0
    return blob, messages, digest


def plan_directory(seed):
    """Kind, label and length of every file, in a seeded order.

    Each kind has a fixed share of the files and a fixed set of flight
    lengths, spread evenly over DURATION_RANGE_S, so every seed yields the
    same volume of each kind; the seed decides order, labels and content.
    """
    rng = np.random.default_rng(seed)
    lo, hi = DURATION_RANGE_S
    slots = [(kind, lo + (hi - lo) * (j + 0.5) / count)
             for kind, count in KIND_SHARES for j in range(count)]
    slots = [slots[i] for i in rng.permutation(len(slots))]
    plan, kept_seen = [], 0
    for i, (kind, duration_s) in enumerate(slots):
        if kind in KEPT_KINDS:
            label = LABEL_CYCLE[kept_seen % len(LABEL_CYCLE)]
            kept_seen += 1
        elif kind == "unmapped":
            label = VehicleType.OTHER
        else:
            label = LABEL_CYCLE[int(rng.integers(0, len(LABEL_CYCLE)))]
        plan.append((f"log{i:03d}.ulg", kind, label, duration_s, int(rng.integers(0, 2**31 - 1))))
    return plan


def write_directory(directory, seed):
    """Write every planned file into directory; returns the PlannedFile list."""
    planned = []
    for name, kind, label, duration_s, file_seed in plan_directory(seed):
        blob, messages, digest = build_file(kind, label, duration_s, file_seed)
        with open(f"{directory}/{name}", "wb") as fh:
            fh.write(blob)
        planned.append(PlannedFile(name, kind, label, len(blob), messages, digest))
    return planned
