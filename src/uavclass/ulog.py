"""Reader for a subset of the PX4 ULog binary flight-log format.

Only the message types needed for offline analysis are handled: format
definitions, info/parameter messages, subscriptions, and data streams.
Logged strings, sync, and dropout markers are skipped. Appended-data and
encrypted ULog extensions are not supported.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import UavclassError

ULOG_MAGIC = b"\x55\x4c\x6f\x67\x01\x12\x35"
ULOG_HEADER_LEN = 16  # magic (7) + version (1) + boot timestamp (8)

US_PER_S = 1_000_000


class UlogError(UavclassError):
    """Base for all flight-log errors."""


class BadMagic(UlogError):
    """File does not start with the ULog magic bytes."""


class UnknownFieldKind(UlogError):
    """A format definition used a type token we cannot decode."""


class EmptyLog(UlogError):
    """Operation requires at least one topic."""


class VehicleType(Enum):
    QUADROTOR = "quadrotor"
    FIXED_WING = "fixed_wing"
    HEXAROTOR = "hexarotor"
    OTHER = "other"

    @property
    def class_index(self):
        """Classifier output index, or None for types filtered at ingest."""
        return _CLASS_INDEX.get(self)


# Output order of the classifier head.
CLASS_ORDER = (VehicleType.QUADROTOR, VehicleType.FIXED_WING, VehicleType.HEXAROTOR)
_CLASS_INDEX = {t: i for i, t in enumerate(CLASS_ORDER)}

# MAV_TYPE parameter value -> vehicle type. Octorotors, VTOLs, rovers etc.
# deliberately map to OTHER and are dropped at ingest.
DEFAULT_TYPE_TABLE = {
    2: VehicleType.QUADROTOR,
    13: VehicleType.HEXAROTOR,
    1: VehicleType.FIXED_WING,
}
TYPE_KEY = "MAV_TYPE"

# ULog type token -> (numpy dtype, is_numeric). 'char' is decoded but never
# becomes a column.
FIELD_KINDS = {
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


@dataclass
class MessageSchema:
    """Decoded ULog FORMAT definition: ordered (name, type token, array len)."""

    message_name: str
    fields: list  # of (field_name, type_token, array_len)

    def dtype(self) -> np.dtype:
        parts = []
        for name, token, alen in self.fields:
            np_kind = FIELD_KINDS[token][0]
            if alen > 1:
                parts.append((name, np_kind, (alen,)))
            else:
                parts.append((name, np_kind))
        return np.dtype(parts)


@dataclass
class TopicSeries:
    """One subscribed data stream: shared timestamps plus numeric columns."""

    topic_name: str
    instance_id: int
    timestamps: np.ndarray  # uint64 microseconds since boot, non-decreasing
    columns: dict  # field name -> float64 array, same length as timestamps
    resorted: bool = False  # raw stream was non-monotone and got sorted

    def __post_init__(self):
        n = len(self.timestamps)
        if n < 1:
            raise ValueError("TopicSeries requires at least one sample")
        for name, col in self.columns.items():
            if len(col) != n:
                raise ValueError(f"column {name!r} length mismatch")

    @property
    def start_us(self) -> int:
        return int(self.timestamps[0])

    @property
    def end_us(self) -> int:
        return int(self.timestamps[-1])


@dataclass
class FlightLog:
    """One parsed flight: topic-keyed series plus label and metadata."""

    topics: dict  # (topic_name, instance_id) -> TopicSeries
    vehicle_type: VehicleType = VehicleType.OTHER
    source_id: str = ""
    truncated: bool = False
    params: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return flight_duration(self)

    def series(self, topic_name: str, instance_id: int = 0):
        return self.topics.get((topic_name, instance_id))


def flight_duration(log: FlightLog) -> float:
    """Envelope duration in seconds: max end minus min start over all topics."""
    if not log.topics:
        raise EmptyLog("flight log has no topics")
    start = min(s.start_us for s in log.topics.values())
    end = max(s.end_us for s in log.topics.values())
    return (end - start) / US_PER_S


def extract_vehicle_type(info_and_params: dict, type_table=None, key=TYPE_KEY) -> VehicleType:
    """Map the airframe-type parameter to a VehicleType via a lookup table.

    Missing or unmapped values yield OTHER so the log gets filtered rather
    than rejected.
    """
    table = DEFAULT_TYPE_TABLE if type_table is None else type_table
    value = info_and_params.get(key)
    if value is None:
        return VehicleType.OTHER
    try:
        return table.get(int(value), VehicleType.OTHER)
    except (TypeError, ValueError):
        return VehicleType.OTHER


def _parse_field_decl(decl: str):
    """Parse 'type name' or 'type[len] name' into (name, token, array_len)."""
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
    if token not in FIELD_KINDS:
        raise UnknownFieldKind(f"unknown type token {token!r}")
    return name, token, alen


def _parse_format(payload: bytes):
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
        parsed = _parse_field_decl(decl)
        if parsed is None:
            return None
        fields.append(parsed)
    if not fields:
        return None
    return MessageSchema(name, fields)


def _decode_keyed_value(payload: bytes):
    """Decode an info/parameter payload: u8 key_len, 'type name' key, value."""
    if len(payload) < 1:
        return None
    klen = payload[0]
    if len(payload) < 1 + klen:
        return None
    try:
        key = payload[1 : 1 + klen].decode("ascii")
    except UnicodeDecodeError:
        return None
    value_bytes = payload[1 + klen :]
    parsed = _parse_field_decl(key)
    if parsed is None:
        return None
    name, token, alen = parsed
    if token == "char":
        try:
            return name, value_bytes[:alen].decode("utf-8", errors="replace")
        except UnicodeDecodeError:
            return None
    dtype = np.dtype(FIELD_KINDS[token][0])
    if len(value_bytes) < dtype.itemsize * alen:
        return None
    arr = np.frombuffer(value_bytes, dtype=dtype, count=alen)
    value = arr[0] if alen == 1 else arr
    if token in ("float", "double"):
        return name, float(value) if alen == 1 else value.astype(float)
    return name, int(value) if alen == 1 else value


def _build_series(name: str, instance_id: int, schema: MessageSchema, raw: bytearray):
    """Decode accumulated data-message payloads into a TopicSeries."""
    dtype = schema.dtype()
    n = len(raw) // dtype.itemsize
    if n < 1:
        return None
    arr = np.frombuffer(bytes(raw[: n * dtype.itemsize]), dtype=dtype)

    ts_field = None
    for fname, token, alen in schema.fields:
        if fname == "timestamp" and token == "uint64_t" and alen == 1:
            ts_field = fname
            break
    if ts_field is None:
        return None
    timestamps = arr[ts_field].astype(np.uint64)

    columns = {}
    for fname, token, alen in schema.fields:
        if fname == ts_field or fname.startswith("_padding"):
            continue
        if not FIELD_KINDS[token][1]:
            continue  # char data never becomes a column
        data = arr[fname].astype(np.float64)
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
    return TopicSeries(name, instance_id, timestamps, columns, resorted=resorted)


def parse_ulog(data: bytes, source_id: str = "", type_table=None) -> FlightLog:
    """Parse ULog bytes into a FlightLog.

    Incomplete trailing data sets the ``truncated`` flag and returns every
    complete message decoded before the cut. Unknown message types are
    skipped; an unknown field type token rejects the whole file.
    """
    if len(data) < len(ULOG_MAGIC) or data[: len(ULOG_MAGIC)] != ULOG_MAGIC:
        raise BadMagic("not a ULog file")

    log = FlightLog(topics={}, source_id=source_id)
    if len(data) < ULOG_HEADER_LEN:
        log.truncated = True
        return log

    schemas = {}  # message name -> MessageSchema
    subs = {}  # msg_id -> (message name, multi_id)
    buffers = {}  # msg_id -> bytearray of packed rows
    info = {}

    offset = ULOG_HEADER_LEN
    end = len(data)
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
            schema = _parse_format(payload)
            if schema is not None:
                schemas[schema.message_name] = schema
        elif mtype in (ord("I"), ord("M"), ord("P")):
            body = payload
            if mtype == ord("M"):
                if not body or body[0]:
                    continue  # continuation parts not aggregated
                body = body[1:]
            kv = _decode_keyed_value(body)
            if kv is not None:
                info[kv[0]] = kv[1]
        elif mtype == ord("A"):
            if size < 3:
                continue
            multi_id = payload[0]
            (msg_id,) = struct.unpack_from("<H", payload, 1)
            try:
                name = payload[3:].decode("ascii")
            except UnicodeDecodeError:
                continue
            if name in schemas:
                subs[msg_id] = (name, multi_id)
                buffers.setdefault(msg_id, bytearray())
        elif mtype == ord("D"):
            if size < 2:
                continue
            (msg_id,) = struct.unpack_from("<H", payload, 0)
            if msg_id in subs:
                buffers[msg_id].extend(payload[2:])
        # B, L, S, O, and anything else: skipped

    for msg_id, (name, multi_id) in subs.items():
        schema = schemas[name]
        series = _build_series(name, multi_id, schema, buffers[msg_id])
        if series is not None:
            log.topics[(name, multi_id)] = series

    log.params = info
    log.vehicle_type = extract_vehicle_type(info, type_table=type_table)
    return log
