"""The package's binary files: one checked envelope, three payloads.

Every file is (all integers little-endian):

    magic   8 bytes  names the payload kind
    version u32
    length  u64      payload byte count
    payload
    crc32   u32      of the payload

``Writer`` builds a payload field by field and saves it in the envelope.
``Reader`` checks magic, version, lengths and CRC, then reads the fields back
with a bounds check on each; ``done()`` rejects unread payload bytes. Every
failure is a ``CacheError``.

Strings are u32 length + UTF-8 bytes. A vehicle type is a u8 index into
``VEHICLE_TYPES``. Arrays are raw row-major little-endian values.

Corpus cache, ``UAVCACHE`` v1 (``write_cache``/``read_cache`` below):

    u32 n_logs, then per log:
      str source_id | u8 vehicle_type | u8 truncated
      u32 n_params, per param: str name | u8 kind (0=int,1=float,2=str) | value
        (i64, f64 or str)
      u32 n_topics, per topic:
        str topic_name | u16 instance_id | u8 resorted | u32 n_cols | u64 n_rows
        timestamps as raw u64[n_rows]
        per column: str name | raw f64[n_rows]

float32 source data is widened to float64 at parse time, so the cache is
lossless for everything it stores.

Sampled dataset, ``UAVDATA1`` v1 (``pipeline.write_dataset``/``read_dataset``):

    str method | u32 n_intervals | u8 has_window | f64 window_s | u8 standardize
    u32 n_features, per feature: str name
    u32 n_instances, per instance:
      str source_id | u8 vehicle_type | u8 synthetic
      u32 rows | u32 cols     must equal n_intervals and n_features
      f64[rows * cols] values | mask bits packed MSB first, ceil(rows * cols / 8) bytes

LSTM checkpoint, ``UAVLSTM1`` v1 (``lstm.save_checkpoint``/``load_checkpoint``):

    u32 hidden | u32 n_features | f64 w_x, w_h, bias, w_out, b_out
"""

from __future__ import annotations

import io
import math
import struct
import zlib

import numpy as np

from .ulog import FlightLog, TopicSeries, VehicleType

MAGIC = b"UAVCACHE"
VERSION = 1

# vehicle-type code -> type; the code is the position in this tuple
VEHICLE_TYPES = tuple(VehicleType)

_HEAD = struct.Struct("<IQ")  # version, payload length


class CacheError(Exception):
    """Base for every failure to write or read a package binary file."""


class VersionMismatch(CacheError):
    pass


class ChecksumFailure(CacheError):
    pass


class Truncated(CacheError):
    pass


class MalformedPayload(CacheError):
    """A checksum-valid payload whose fields do not parse."""


class Writer:
    """Accumulates one payload; ``save`` wraps it in the envelope."""

    def __init__(self):
        self._buf = io.BytesIO()

    def pack(self, fmt: str, *values):
        self._buf.write(struct.pack(fmt, *values))

    def str(self, s: str):
        raw = s.encode("utf-8")
        self.pack("<I", len(raw))
        self._buf.write(raw)

    def array(self, a, dtype):
        self._buf.write(np.ascontiguousarray(a, dtype=dtype).tobytes())

    def vehicle_type(self, vtype: VehicleType):
        self.pack("<B", VEHICLE_TYPES.index(vtype))

    def save(self, path, magic: bytes, version: int):
        payload = self._buf.getvalue()
        with open(path, "wb") as fh:
            fh.write(magic)
            fh.write(_HEAD.pack(version, len(payload)))
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload)))


class Reader:
    """Checks one envelope, then reads its payload field by field."""

    def __init__(self, path, magic: bytes, version: int):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CacheError(f"cannot read {path}: {exc.strerror}") from None
        kind = magic.decode("ascii")
        if raw[: len(magic)] != magic:
            raise CacheError(f"not a {kind} file")
        start = len(magic) + _HEAD.size
        if len(raw) < start:
            raise Truncated(f"{kind} file truncated: {len(raw)} bytes, no envelope header")
        found, length = _HEAD.unpack_from(raw, len(magic))
        if found != version:
            raise VersionMismatch(f"{kind} version {found}, expected {version}")
        if len(raw) < start + length + 4:
            raise Truncated(
                f"{kind} file truncated: {len(raw)} bytes, header says {start + length + 4}"
            )
        if len(raw) > start + length + 4:
            raise MalformedPayload(f"{kind} file has bytes after its checksum")
        self._view = memoryview(raw)[start : start + length]
        (crc,) = struct.unpack_from("<I", raw, start + length)
        if zlib.crc32(self._view) != crc:
            raise ChecksumFailure(f"{kind} checksum mismatch")
        self._pos = 0

    def _take(self, n: int) -> memoryview:
        end = self._pos + n
        if end > len(self._view):
            raise MalformedPayload(f"payload ends inside a field at byte {self._pos}")
        view = self._view[self._pos : end]
        self._pos = end
        return view

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self._take(struct.calcsize(fmt)))

    def str(self) -> str:
        (n,) = self.unpack("<I")
        try:
            return str(self._take(n), "utf-8")
        except UnicodeDecodeError:
            raise MalformedPayload("string is not valid UTF-8") from None

    def array(self, dtype, shape) -> np.ndarray:
        """A fresh array of ``shape`` (an int or a tuple) read from the payload."""
        dtype = np.dtype(dtype)
        count = math.prod(shape) if isinstance(shape, tuple) else shape
        raw = self._take(count * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def vehicle_type(self) -> VehicleType:
        (code,) = self.unpack("<B")
        if code >= len(VEHICLE_TYPES):
            raise MalformedPayload(f"unknown vehicle type code {code}")
        return VEHICLE_TYPES[code]

    def done(self):
        left = len(self._view) - self._pos
        if left:
            raise MalformedPayload(f"{left} unread payload bytes")


def write_cache(logs, path):
    """Serialize flight logs to a single cache file."""
    w = Writer()
    w.pack("<I", len(logs))
    for log in logs:
        w.str(log.source_id)
        w.vehicle_type(log.vehicle_type)
        w.pack("<B", int(log.truncated))
        params = [(k, v) for k, v in log.params.items() if isinstance(v, (int, float, str))]
        w.pack("<I", len(params))
        for name, value in params:
            w.str(name)
            if isinstance(value, int):
                w.pack("<Bq", 0, int(value))
            elif isinstance(value, float):
                w.pack("<Bd", 1, value)
            else:
                w.pack("<B", 2)
                w.str(value)
        w.pack("<I", len(log.topics))
        for (name, instance_id), series in log.topics.items():
            w.str(name)
            w.pack("<HBI", instance_id, int(series.resorted), len(series.columns))
            w.pack("<Q", len(series.timestamps))
            w.array(series.timestamps, "<u8")
            for cname, col in series.columns.items():
                w.str(cname)
                w.array(col, "<f8")
    w.save(path, MAGIC, VERSION)


def read_cache(path):
    """Load flight logs from a cache file written by write_cache."""
    r = Reader(path, MAGIC, VERSION)
    logs = []
    for _ in range(r.unpack("<I")[0]):
        source_id = r.str()
        vehicle_type = r.vehicle_type()
        (truncated,) = r.unpack("<B")
        params = {}
        for _ in range(r.unpack("<I")[0]):
            name = r.str()
            (kind,) = r.unpack("<B")
            if kind == 0:
                (params[name],) = r.unpack("<q")
            elif kind == 1:
                (params[name],) = r.unpack("<d")
            elif kind == 2:
                params[name] = r.str()
            else:
                raise MalformedPayload(f"unknown parameter kind {kind}")
        topics = {}
        for _ in range(r.unpack("<I")[0]):
            name = r.str()
            instance_id, resorted, n_cols = r.unpack("<HBI")
            (n_rows,) = r.unpack("<Q")
            if n_rows == 0:
                raise MalformedPayload(f"topic {name!r} has no samples")
            ts = r.array("<u8", n_rows)
            columns = {}
            for _ in range(n_cols):
                cname = r.str()
                columns[cname] = r.array("<f8", n_rows)
            topics[(name, instance_id)] = TopicSeries(
                name, instance_id, ts, columns, resorted=bool(resorted)
            )
        logs.append(
            FlightLog(
                topics=topics,
                vehicle_type=vehicle_type,
                source_id=source_id,
                truncated=bool(truncated),
                params=params,
            )
        )
    r.done()
    return logs
