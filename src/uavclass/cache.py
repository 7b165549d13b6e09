"""The package's binary files: one checked envelope, two payloads.

Every file is (all integers little-endian):

    magic   8 bytes  names the payload kind
    version u32
    length  u64      payload byte count
    payload
    crc32   u32      of the payload

``Writer`` streams a payload field by field into the envelope in one pass.
``Reader`` checks magic, version, lengths and CRC, then reads the fields back
with a bounds check on each; ``done()`` rejects unread payload bytes. Every
failure is a ``CacheError``. Neither holds a second copy of the payload in
memory.

Strings are u32 length + UTF-8 bytes. A vehicle type is a u8 index into
``VEHICLE_TYPES``. Arrays are raw row-major little-endian values.

Corpus cache, ``UAVCACHE`` v2 (``write_cache``/``iter_logs`` below):

    per log, while more than 4 payload bytes remain:
      str source_id | u8 vehicle_type | u8 truncated
      u32 n_params, per param: str name | u8 kind | value, where kind is
        0 = int:         i64
        1 = float:       f64
        2 = str:         str
        3 = float array: u32 count | f64[count]
        4 = int array:   u32 count | i64[count]   (any integer or bool array but uint64)
      a value i64 cannot hold, a uint64 array or an int of 2**63 or more, is not stored
      u32 n_topics, per topic:
        str topic_name | u16 instance_id | u8 resorted | u32 n_cols | u64 n_rows
        timestamps as raw u64[n_rows], non-decreasing
        per column: str name | u8 dtype code | raw values[n_rows]
          the code is an index into ``COLUMN_DTYPES``
    u32 n_logs   trailer: the number of logs above

A column keeps the numeric type its ULog field was logged in, so a float32
field is stored as 4 bytes per sample and the cache is lossless. A column of
any other dtype (bool, float16) is stored as f8. A cache of another version
is refused with a ``VersionMismatch`` that says to rebuild it from its ULog
files: a cache is derived data.

Sampled dataset, ``UAVDATA1`` v2 (``pipeline.write_dataset``/``read_dataset``):

    str method | u32 n_intervals | u8 has_window | f64 window_s
    u32 n_features, per feature: str name
    u32 n_instances, per instance:
      str source_id | u8 vehicle_type | u8 synthetic
      u32 rows | u32 cols     must equal n_intervals and n_features
      f64[rows * cols] values | mask bits packed MSB first, ceil(rows * cols / 8) bytes
"""

from __future__ import annotations

import math
import os
import struct
import threading
import zlib

import numpy as np

from .errors import UavclassError
from .ulog import FlightLog, TopicSeries, VehicleType

MAGIC = b"UAVCACHE"
VERSION = 2

# vehicle-type code -> type; the code is the position in this tuple
VEHICLE_TYPES = tuple(VehicleType)

# column dtype code -> dtype; the code is the position in this tuple
COLUMN_DTYPES = tuple(
    np.dtype(d) for d in ("<f8", "<f4", "<i1", "<u1", "<i2", "<u2", "<i4", "<u4", "<i8", "<u8")
)
_COLUMN_CODES = {(d.kind, d.itemsize): code for code, d in enumerate(COLUMN_DTYPES)}

_HEAD = struct.Struct("<IQ")  # version, payload length
_CHUNK = 1 << 20  # bytes per CRC update while writing or checking a file


class CacheError(UavclassError):
    """Base for every failure to write or read a package binary file."""


class VersionMismatch(CacheError):
    pass


def _crc_of(fh, length: int):
    """CRC-32 of the next ``length`` bytes of ``fh``, read a chunk at a time.

    Returns None if the file ends first.
    """
    crc = 0
    chunk = memoryview(bytearray(min(length, _CHUNK)))
    while length:
        n = fh.readinto(chunk[: min(length, _CHUNK)])
        if not n:
            return None
        crc = zlib.crc32(chunk[:n], crc)
        length -= n
    return crc


class Writer:
    """Streams one payload into ``path``; use it as a context manager.

    The envelope and the fields go to a temporary file in the same directory,
    about a megabyte at a time, with a running length and CRC. When the block
    ends without an error the CRC is appended, the length field filled in
    and the file moved into place, so a failure leaves no partial file at
    ``path``. The payload is never read back.
    """

    def __init__(self, path, magic: bytes, version: int):
        self._path = os.fspath(path)
        self._tmp = f"{self._path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            self._fh = open(self._tmp, "wb")
        except OSError as exc:
            raise CacheError(f"cannot write {self._path}: {exc.strerror}") from None
        self._fh.write(magic)
        self._fh.write(_HEAD.pack(version, 0))
        self._length_at = len(magic) + 4
        self._length = 0
        self._crc = 0
        self._pending = bytearray()

    def _write(self, data):
        # fields gather in a buffer of about _CHUNK bytes, so the file write
        # and the CRC run once per chunk rather than once per field
        self._pending.extend(data)
        if len(self._pending) >= _CHUNK:
            self._flush()

    def _flush(self):
        self._fh.write(self._pending)
        self._crc = zlib.crc32(self._pending, self._crc)
        self._length += len(self._pending)
        self._pending.clear()

    def pack(self, fmt: str, *values):
        self._write(struct.pack(fmt, *values))

    def str(self, s: str):
        raw = s.encode("utf-8")
        self.pack("<I", len(raw))
        self._write(raw)

    def array(self, a, dtype):
        self._write(np.ascontiguousarray(a, dtype=dtype).reshape(-1).view(np.uint8))

    def vehicle_type(self, vtype: VehicleType):
        self.pack("<B", VEHICLE_TYPES.index(vtype))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # an error raised inside the block, an OSError included, passes through unchanged
        if exc_type is None:
            try:
                self._flush()
                self._fh.write(struct.pack("<I", self._crc))
                self._fh.seek(self._length_at)
                self._fh.write(struct.pack("<Q", self._length))
                self._fh.close()
                os.replace(self._tmp, self._path)
                return
            except OSError as err:
                self._discard()
                raise CacheError(f"cannot write {self._path}: {err.strerror}") from None
        self._discard()

    def _discard(self):
        self._fh.close()
        os.remove(self._tmp)


class Reader:
    """Checks one envelope, then reads its payload field by field.

    The CRC is computed over the file in chunks; the fields are then read
    from the file, each array straight into its own buffer, so the payload
    is never held twice. Use it as a context manager, which closes the file.
    """

    def __init__(self, path, magic: bytes, version: int):
        try:
            self._fh = open(path, "rb")
        except OSError as exc:
            raise CacheError(f"cannot read {path}: {exc.strerror}") from None
        try:
            self._length = self._check(magic, version)
        except BaseException:
            self._fh.close()
            raise
        self._pos = 0

    def _check(self, magic: bytes, version: int) -> int:
        """Checks the envelope, leaves the file at the payload, returns its length."""
        fh = self._fh
        kind = magic.decode("ascii")
        start = len(magic) + _HEAD.size
        head = fh.read(start)
        size = os.fstat(fh.fileno()).st_size
        if head[: len(magic)] != magic:
            raise CacheError(f"not a {kind} file")
        if len(head) < start:
            raise CacheError(f"{kind} file truncated: {size} bytes, no envelope header")
        found, length = _HEAD.unpack_from(head, len(magic))
        if found != version:
            raise VersionMismatch(f"{kind} version {found}, expected {version}")
        end = start + length + 4
        if size < end:
            raise CacheError(f"{kind} file truncated: {size} bytes, header says {end}")
        if size > end:
            raise CacheError(f"{kind} file has bytes after its checksum")
        crc = _crc_of(fh, length)
        if crc is None:
            raise CacheError(f"{kind} file shrank while being read")
        if struct.unpack("<I", fh.read(4))[0] != crc:
            raise CacheError(f"{kind} checksum mismatch")
        fh.seek(start)
        return length

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def _room(self, n: int):
        if self._pos + n > self._length:
            raise CacheError(f"payload ends inside a field at byte {self._pos}")
        self._pos += n

    def _take(self, n: int) -> bytes:
        self._room(n)
        data = self._fh.read(n)
        if len(data) != n:
            raise CacheError("file shrank while being read")
        return data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self._take(struct.calcsize(fmt)))

    def str(self) -> str:
        (n,) = self.unpack("<I")
        try:
            return str(self._take(n), "utf-8")
        except UnicodeDecodeError:
            raise CacheError("string is not valid UTF-8") from None

    def array(self, dtype, shape) -> np.ndarray:
        """A fresh array of ``shape`` (an int or a tuple) read from the payload."""
        dtype = np.dtype(dtype)
        count = math.prod(shape) if isinstance(shape, tuple) else shape
        self._room(count * dtype.itemsize)
        out = np.empty(shape, dtype=dtype)
        if self._fh.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
            raise CacheError("file shrank while being read")
        return out

    def vehicle_type(self) -> VehicleType:
        (code,) = self.unpack("<B")
        if code >= len(VEHICLE_TYPES):
            raise CacheError(f"unknown vehicle type code {code}")
        return VEHICLE_TYPES[code]

    @property
    def left(self) -> int:
        """Payload bytes not read yet."""
        return self._length - self._pos

    def done(self):
        if self.left:
            raise CacheError(f"{self.left} unread payload bytes")


def write_cache(logs, path) -> int:
    """Serialize flight logs, taken one at a time from any iterable, to one cache file.

    The log count follows the last log, so ``logs`` may be a generator, only
    one log need be in memory and the file is written in one pass. Returns
    the count.
    """
    with Writer(path, MAGIC, VERSION) as w:
        count = 0
        for log in logs:
            _write_log(w, log)
            count += 1
            del log  # so that it is not held while the next one is built
        w.pack("<I", count)
    return count


# parameter kind code -> struct format (0, 1) or array element dtype (3, 4); 2 is str
_PARAM_FORMATS = {0: "<q", 1: "<d", 3: "<f8", 4: "<i8"}


def _param_kind(value):
    """The cache kind code of a parameter value, or None for a type not stored."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        if value.dtype.kind == "f":
            return 3
        return 4 if np.can_cast(value.dtype, np.int64) else None  # a uint64 could wrap
    if isinstance(value, int) and not -(2**63) <= value < 2**63:
        return None  # a uint64 of 2**63 or more: i64 cannot hold it
    for kind, types in enumerate((int, float, str)):
        if isinstance(value, types):
            return kind
    return None


def _write_log(w: Writer, log: FlightLog):
    w.str(log.source_id)
    w.vehicle_type(log.vehicle_type)
    w.pack("<B", int(log.truncated))
    params = [(k, v, kind) for k, v in log.params.items() if (kind := _param_kind(v)) is not None]
    w.pack("<I", len(params))
    for name, value, kind in params:
        w.str(name)
        w.pack("<B", kind)
        if kind == 2:
            w.str(value)
        elif kind < 2:
            w.pack(_PARAM_FORMATS[kind], value)
        else:
            w.pack("<I", len(value))
            w.array(value, _PARAM_FORMATS[kind])
    w.pack("<I", len(log.topics))
    for (name, instance_id), series in log.topics.items():
        w.str(name)
        w.pack("<HBI", instance_id, int(series.resorted), len(series.columns))
        w.pack("<Q", len(series.timestamps))
        w.array(series.timestamps, "<u8")
        for cname, col in series.columns.items():
            col = np.asarray(col)
            code = _COLUMN_CODES.get((col.dtype.kind, col.dtype.itemsize), 0)
            w.str(cname)
            w.pack("<B", code)
            w.array(col, COLUMN_DTYPES[code])


def iter_logs(path):
    """Yield the flight logs of a cache file written by write_cache, one at a time.

    The whole file is checked (envelope and CRC) before the first log is
    read, so a damaged file fails before anything is yielded. The trailer's
    log count is checked after the last log.
    """
    try:
        reader = Reader(path, MAGIC, VERSION)
    except VersionMismatch as exc:
        raise VersionMismatch(
            f"{exc}: rebuild the cache from its ULog files with `uavclass ingest`"
            " (or from a synthetic corpus with `uavclass synth --out`)"
        ) from None
    with reader as r:
        count = 0
        while r.left > 4:
            yield _read_log(r)
            count += 1
        (n_logs,) = r.unpack("<I")
        if n_logs != count:
            raise CacheError(f"trailer counts {n_logs} logs, the payload holds {count}")


def _read_log(r: Reader) -> FlightLog:
    source_id = r.str()
    vehicle_type = r.vehicle_type()
    (truncated,) = r.unpack("<B")
    params = {}
    for _ in range(r.unpack("<I")[0]):
        name = r.str()
        (kind,) = r.unpack("<B")
        if kind == 2:
            params[name] = r.str()
        elif kind < 2:
            (params[name],) = r.unpack(_PARAM_FORMATS[kind])
        elif kind in _PARAM_FORMATS:
            params[name] = r.array(_PARAM_FORMATS[kind], r.unpack("<I")[0])
        else:
            raise CacheError(f"unknown parameter kind {kind}")
    topics = {}
    for _ in range(r.unpack("<I")[0]):
        name = r.str()
        instance_id, resorted, n_cols = r.unpack("<HBI")
        (n_rows,) = r.unpack("<Q")
        if n_rows == 0:
            raise CacheError(f"topic {name!r} has no samples")
        ts = r.array("<u8", n_rows)
        if np.any(ts[1:] < ts[:-1]):
            raise CacheError(f"topic {name!r} has decreasing timestamps")
        columns = {}
        for _ in range(n_cols):
            cname = r.str()
            (code,) = r.unpack("<B")
            if code >= len(COLUMN_DTYPES):
                raise CacheError(f"column {cname!r} has unknown dtype code {code}")
            columns[cname] = r.array(COLUMN_DTYPES[code], n_rows)
        topics[(name, instance_id)] = TopicSeries(ts, columns, resorted=bool(resorted))
    return FlightLog(
        topics=topics,
        vehicle_type=vehicle_type,
        source_id=source_id,
        truncated=bool(truncated),
        params=params,
    )


def read_cache(path):
    """Load every flight log of a cache file written by write_cache."""
    return list(iter_logs(path))
