"""Reader for the PX4 ULog binary flight-log format.

Decoded: format definitions (nested formats included), info, multi-part
info and parameter messages, subscriptions, data messages and the flag-bits
message. Logged strings, sync and dropout markers are skipped. A flag-bits
message with an incompat bit this reader does not know, or with appended
data, refuses the file (``UnsupportedLog``); compat bits are ignored.

The file is walked once: a Python loop follows the message chain and records
where each message starts, numpy reads every type and size from those
offsets, and only definition messages are decoded one at a time. Each
subscribed topic's data rows are then taken with one gather and viewed as
the topic's structured dtype.
"""

from __future__ import annotations

import array
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import UavclassError

ULOG_MAGIC = b"\x55\x4c\x6f\x67\x01\x12\x35"
ULOG_HEADER_LEN = 16  # magic (7) + version (1) + boot timestamp (8)

US_PER_S = 1_000_000


class UlogError(UavclassError):
    """Base for all flight-log errors."""


class BadMagic(UlogError):
    """File does not start with the ULog magic bytes."""


class UnknownFieldKind(UlogError):
    """A subscribed format uses an undefined type token or contains itself."""


class UnsupportedLog(UlogError):
    """The flag-bits message names data this reader cannot decode."""


class RowSizeMismatch(UlogError):
    """A data row is neither its format's size nor that size less trailing padding."""


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

# ULog scalar type token -> numpy dtype. 'char' is decoded but never becomes
# a column; any other token names another format.
SCALAR_KINDS = {
    "int8_t": "<i1",
    "uint8_t": "<u1",
    "int16_t": "<i2",
    "uint16_t": "<u2",
    "int32_t": "<i4",
    "uint32_t": "<u4",
    "int64_t": "<i8",
    "uint64_t": "<u8",
    "float": "<f4",
    "double": "<f8",
    "bool": "<u1",
    "char": "S1",
}
MAX_NESTING = 16  # formats inside formats; real PX4 logs use two or three levels

# Flag-bits message: compat_flags[8], incompat_flags[8], appended_offsets u64[3].
FLAG_BITS_LEN = 40
DATA_APPENDED = 1  # incompat_flags[0] bit 0, the only incompat bit defined

_DEFINITION_TYPES = np.frombuffer(b"FIMPAB", np.uint8)


@dataclass
class TopicSeries:
    """One subscribed data stream: shared timestamps plus numeric columns.

    A column is a 1-D array in the numeric type its field was logged in
    (``<f4`` for a ULog ``float``, ``<i2`` for an ``int16_t``, ``<u1`` for a
    ``bool``, …), so its values keep their bits. Code that computes on a
    column widens it to float64 first.
    """

    topic_name: str
    instance_id: int
    timestamps: np.ndarray  # uint64 microseconds since boot, non-decreasing
    columns: dict  # field name -> numeric array in its logged type, same length as timestamps
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
        """Envelope duration in seconds: max end minus min start over all topics."""
        if not self.topics:
            raise EmptyLog("flight log has no topics")
        start = min(s.start_us for s in self.topics.values())
        end = max(s.end_us for s in self.topics.values())
        return (end - start) / US_PER_S

    def series(self, topic_name: str, instance_id: int = 0):
        return self.topics.get((topic_name, instance_id))


def extract_vehicle_type(info_and_params: dict) -> VehicleType:
    """Map the airframe-type parameter to a VehicleType via DEFAULT_TYPE_TABLE.

    Missing or unmapped values yield OTHER so the log gets filtered rather
    than rejected.
    """
    value = info_and_params.get(TYPE_KEY)
    if value is None:
        return VehicleType.OTHER
    try:
        return DEFAULT_TYPE_TABLE.get(int(value), VehicleType.OTHER)
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
    return name, token, alen


def _parse_format(payload: bytes):
    """A FORMAT message as (message name, [(field name, token, array_len)]), or None."""
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
    if not fields or len({f[0] for f in fields}) != len(fields):
        return None
    return name, fields


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
    if parsed is None or parsed[1] not in SCALAR_KINDS:
        return None
    name, token, alen = parsed
    if token == "char":
        return name, value_bytes[:alen].decode("utf-8", errors="replace")
    dtype = np.dtype(SCALAR_KINDS[token])
    if len(value_bytes) < dtype.itemsize * alen:
        return None
    arr = np.frombuffer(value_bytes, dtype=dtype, count=alen)
    value = arr[0] if alen == 1 else arr
    if token in ("float", "double"):
        return name, float(value) if alen == 1 else value.astype(float)
    return name, int(value) if alen == 1 else value


def _check_flag_bits(payload: bytes):
    """Refuse a log whose flag-bits message needs more than this reader decodes."""
    payload = payload.ljust(FLAG_BITS_LEN, b"\0")
    incompat = int.from_bytes(payload[8:16], "little")
    if incompat & ~DATA_APPENDED:
        raise UnsupportedLog(f"unknown incompat flag bits {incompat:#018x}")
    if incompat & DATA_APPENDED and any(payload[16:FLAG_BITS_LEN]):
        raise UnsupportedLog("the log has appended data")


def _field_specs(name: str, formats: dict, inside=()):
    """numpy field specs of format ``name``, nested formats resolved recursively."""
    if name in inside or len(inside) >= MAX_NESTING:
        raise UnknownFieldKind(f"format {name!r} contains itself or nests too deep")
    specs = []
    for fname, token, alen in formats[name]:
        kind = SCALAR_KINDS.get(token)
        if kind is None:
            if token not in formats:
                raise UnknownFieldKind(f"format {name!r}: unknown type token {token!r}")
            kind = _packed(_field_specs(token, formats, inside + (name,)))
        specs.append((fname, kind, (alen,)) if alen > 1 else (fname, kind))
    return specs


def _packed(specs) -> np.dtype:
    try:
        return np.dtype(specs)
    except ValueError as exc:  # e.g. an array too large to lay out
        raise UnknownFieldKind(f"format cannot be laid out: {exc}") from None


def _add_columns(col: np.ndarray, label: str, columns: dict):
    """One column per numeric leaf of field ``col``, in declaration order.

    Each column is a contiguous copy in the leaf's logged type.
    """
    if col.dtype.kind == "S":
        return  # char data never becomes a column
    if col.ndim > 1:
        for i in range(col.shape[1]):
            _add_columns(col[:, i], f"{label}[{i}]", columns)
    elif col.dtype.names:
        for name in col.dtype.names:
            if not name.startswith("_padding"):
                _add_columns(col[name], f"{label}.{name}", columns)
    else:
        columns[label] = col.copy()


def _build_series(name, instance_id, formats, buf, row_starts, row_lengths):
    """Gather one topic's data rows from the file and decode them into a TopicSeries.

    A format's trailing ``_padding`` field is not logged, so a row may be the
    full format size or that size without the trailing padding.
    """
    specs = _field_specs(name, formats)
    full = _packed(specs)
    logged = _packed(specs[:-1]) if specs[-1][0].startswith("_padding") else full
    if len(row_starts) < 1 or ("timestamp", "uint64_t", 1) not in formats[name]:
        return None
    bad = (row_lengths != full.itemsize) & (row_lengths != logged.itemsize)
    if bad.any():
        raise RowSizeMismatch(
            f"{name}: a {row_lengths[bad][0]}-byte data row, format is {full.itemsize} bytes"
        )
    width = logged.itemsize
    window = as_strided(buf, (len(buf) - width + 1, width), (1, 1), writeable=False)
    rows = window[row_starts].view(logged)[:, 0]

    if np.any(np.diff(rows["timestamp"].astype(np.int64)) < 0):
        rows = rows[np.argsort(rows["timestamp"], kind="stable")]
        resorted = True
    else:
        resorted = False
    columns = {}
    for fname in rows.dtype.names:
        if fname != "timestamp" and not fname.startswith("_padding"):
            _add_columns(rows[fname], fname, columns)
    timestamps = rows["timestamp"].astype(np.uint64)
    return TopicSeries(name, instance_id, timestamps, columns, resorted=resorted)


def _message_starts(data):
    """Offset of every complete message after the header, and whether the file ends inside one."""
    starts = array.array("q")
    append = starts.append
    offset, last = ULOG_HEADER_LEN, len(data) - 3
    while offset <= last:
        append(offset)
        offset += 3 + data[offset] + (data[offset + 1] << 8)
    if offset > len(data):  # the last payload runs past the end
        starts.pop()
    return np.frombuffer(starts, np.int64), offset != len(data)


def parse_ulog(data: bytes, source_id: str = "") -> FlightLog:
    """Parse ULog bytes into a FlightLog.

    Incomplete trailing data sets the ``truncated`` flag and returns every
    complete message decoded before the cut. Unknown message types are
    skipped. A subscribed format that cannot be resolved, a data row that
    does not fit its format, or an unsupported flag bit rejects the file.
    """
    if len(data) < len(ULOG_MAGIC) or data[: len(ULOG_MAGIC)] != ULOG_MAGIC:
        raise BadMagic("not a ULog file")

    log = FlightLog(topics={}, source_id=source_id)
    if len(data) < ULOG_HEADER_LEN:
        log.truncated = True
        return log

    starts, log.truncated = _message_starts(data)
    buf = np.frombuffer(data, np.uint8)
    types = buf[starts + 2]
    sizes = buf[starts] | buf[starts + 1].astype(np.int32) << 8

    formats = {}  # message name -> [(field name, type token, array len)]
    subs = {}  # msg_id -> (message name, multi_id)
    first_sub = {}  # msg_id -> index of the message that first subscribed it
    info = {}
    defs = np.flatnonzero(np.isin(types, _DEFINITION_TYPES))
    for i, start, mtype, size in zip(
        defs.tolist(), starts[defs].tolist(), types[defs].tolist(), sizes[defs].tolist()
    ):
        payload = data[start + 3 : start + 3 + size]
        if mtype == ord("F"):
            parsed = _parse_format(payload)
            if parsed is not None:
                formats[parsed[0]] = parsed[1]
        elif mtype == ord("A"):
            if size < 3:
                continue
            try:
                name = payload[3:].decode("ascii")
            except UnicodeDecodeError:
                continue
            if name in formats:
                msg_id = payload[1] | payload[2] << 8
                subs[msg_id] = (name, payload[0])
                first_sub.setdefault(msg_id, i)
        elif mtype == ord("B"):
            _check_flag_bits(payload)
        else:  # I, M, P
            continued = False
            if mtype == ord("M"):
                if not payload:
                    continue
                continued, payload = payload[0], payload[1:]
            kv = _decode_keyed_value(payload)
            if kv is None:
                continue
            key, value = kv
            if not continued:
                info[key] = value
            elif isinstance(value, str) and isinstance(info.get(key), str):
                info[key] += value  # the next part of a multi-part info value

    data_msgs = np.flatnonzero((types == ord("D")) & (sizes >= 2))
    data_starts = starts[data_msgs]
    data_ids = buf[data_starts + 3] | buf[data_starts + 4].astype(np.uint16) << 8
    for msg_id, (name, multi_id) in subs.items():
        mine = (data_ids == msg_id) & (data_msgs > first_sub[msg_id])
        series = _build_series(
            name, multi_id, formats, buf, data_starts[mine] + 5, sizes[data_msgs[mine]] - 2
        )
        if series is not None:
            log.topics[(name, multi_id)] = series

    log.params = info
    log.vehicle_type = extract_vehicle_type(info)
    return log
