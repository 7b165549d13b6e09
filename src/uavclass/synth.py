"""Synthetic labeled flights for desk-scale, self-contained pipeline runs.

Multirotors fly piecewise-straight waypoint legs with hover dwells and sharp
heading changes; fixed-wing flights follow bounded-curvature paths with a
forward-speed floor and banked turns. Hexarotors differ from quadrotors only
by mild dynamics offsets (throttle mean, angular noise), which keeps the two
classes deliberately hard to separate.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import UavclassError
from .ulog import (
    DEFAULT_TYPE_TABLE,
    SCALAR_KINDS,
    ULOG_MAGIC,
    US_PER_S,
    FlightLog,
    TopicSeries,
    VehicleType,
)
from .features import euler_to_quaternion

# flight-duration centers (seconds): multirotor 5.56 min, fixed-wing 7.48 min
MULTIROTOR_DURATION_S = 333.6
FIXED_WING_DURATION_S = 448.8
MAX_DURATION_S = 86400.0  # a spec's longest flight: one day, 432 000 samples per 5 Hz topic

MULTIROTOR_WAYPOINTS = 6  # points of a multirotor's tour
POSITION_NOISE_M = 0.3  # std of the noise on each logged position axis

FIXED_WING_MIN_SPEED = 12.0  # m/s, no hover
FIXED_WING_MAX_TURN_RATE = 0.15  # rad/s curvature bound

_BOOT_OFFSET_S = 10.0
_GRAVITY = 9.81

DEFAULT_RATES_HZ = {
    "vehicle_local_position": 5.0,
    "vehicle_attitude": 5.0,
    "manual_control_setpoint": 5.0,
    "vehicle_air_data": 5.0,
    "battery_status": 1.0,
}

_MAV_TYPE_OF = {vtype: mav_type for mav_type, vtype in DEFAULT_TYPE_TABLE.items()}

# column dtype -> the ULog type token write_ulog declares it as: the inverse of
# SCALAR_KINDS without 'char', whose first token wins a shared dtype ('uint8_t', not 'bool')
_TOKEN_OF = {np.dtype(k): t for t, k in reversed(SCALAR_KINDS.items()) if t != "char"}
# an element column of an array field, 'name[i]'; its group declares 'token[k] name'
_ARRAY_COLUMN = re.compile(r"([^\[\]]+)\[(\d+)\]")


class SynthError(UavclassError):
    pass


@dataclass
class SynthSpec:
    vehicle_type: VehicleType
    duration_s: float | None = None  # None: drawn around the class mean
    rates_hz: dict = field(default_factory=lambda: dict(DEFAULT_RATES_HZ))
    seed: int = 0

    def __post_init__(self):
        if self.vehicle_type not in _MAV_TYPE_OF:
            raise SynthError(f"cannot generate type {self.vehicle_type}")
        if self.duration_s is not None and not 0 < self.duration_s <= MAX_DURATION_S:
            raise SynthError(f"duration_s must be in (0, {MAX_DURATION_S:g}]")
        if any(r <= 0 for r in self.rates_hz.values()):
            raise SynthError("sample rates must be positive")
        if self.seed < 0:
            raise SynthError("seed must be >= 0")


def _draw_duration(spec: SynthSpec, rng) -> float:
    if spec.duration_s is not None:
        return spec.duration_s
    is_fw = spec.vehicle_type is VehicleType.FIXED_WING
    center = FIXED_WING_DURATION_S if is_fw else MULTIROTOR_DURATION_S
    return float(max(60.0, rng.normal(center, 0.15 * center)))


def _topic_times(duration, rate, rng):
    """Per-topic timestamps in seconds with a small random start offset."""
    offset = rng.uniform(0.0, 0.2)
    n = max(2, int((duration - offset) * rate))
    return offset + np.arange(n) / rate


def _multirotor_path(duration, rng):
    """Knot times and XY positions of a waypoint tour with hover dwells."""
    points = rng.uniform(-100.0, 100.0, size=(MULTIROTOR_WAYPOINTS, 2))
    speed = 5.0
    times = [0.0]
    knots = [points[0]]
    for wp in points[1:]:
        leg = float(np.linalg.norm(wp - knots[-1]))
        times.append(times[-1] + max(leg / speed, 0.5))
        knots.append(wp)
        dwell = rng.uniform(2.0, 5.0)
        times.append(times[-1] + dwell)
        knots.append(wp)
    times = np.array(times) * (duration / times[-1])  # rescale tour to duration
    return times, np.array(knots)


def _yaw_from_path(t, times, knots):
    """Segment heading at each sample; held through hovers and after arrival."""
    dt = 0.05
    x0 = np.interp(t, times, knots[:, 0])
    y0 = np.interp(t, times, knots[:, 1])
    x1 = np.interp(t + dt, times, knots[:, 0])
    y1 = np.interp(t + dt, times, knots[:, 1])
    vx, vy = (x1 - x0) / dt, (y1 - y0) / dt
    moving = np.hypot(vx, vy) > 0.1
    # each sample takes the heading of the last moving sample at or before it
    last = np.maximum.accumulate(np.where(moving, np.arange(len(t)), -1))
    return np.where(last >= 0, np.arctan2(vy, vx)[last], 0.0)


def _fixed_wing_state(duration, rng):
    """Integrated heading/position at a fine step; returns interpolators' knots."""
    dt = 0.2
    n = max(int(duration / dt) + 1, 2)
    t = np.arange(n) * dt
    # Ornstein-Uhlenbeck turn rate, clipped to the curvature bound. Each step
    # starts from the clipped one before it, so the loop runs on Python floats.
    r = rng.uniform(-0.05, 0.05)
    sigma = 0.03
    kick = sigma * math.sqrt(dt)
    bound = FIXED_WING_MAX_TURN_RATE
    rates = [r]
    for z in rng.standard_normal(n - 1).tolist():
        r = min(max(r + (-0.1 * r) * dt + kick * z, -bound), bound)
        rates.append(r)
    rate = np.array(rates)
    heading = np.cumsum(rate * dt)
    speed = np.maximum(FIXED_WING_MIN_SPEED, 14.0 + 0.5 * np.sin(t / 30.0))
    x = np.cumsum(speed * np.cos(heading) * dt)
    y = np.cumsum(speed * np.sin(heading) * dt)
    return t, x, y, heading, rate, speed


def generate_flight(spec: SynthSpec) -> FlightLog:
    """Deterministically generate one labeled FlightLog from a spec."""
    rng = np.random.default_rng(spec.seed)
    duration = _draw_duration(spec, rng)
    is_fw = spec.vehicle_type is VehicleType.FIXED_WING

    if is_fw:
        kt, kx, ky, kheading, krate, kspeed = _fixed_wing_state(duration, rng)
        cruise_alt = rng.uniform(80.0, 120.0)
        throttle_mean = rng.normal(0.70, 0.03)
    else:
        times, knots = _multirotor_path(duration, rng)
        cruise_alt = rng.uniform(20.0, 40.0)
        if spec.vehicle_type is VehicleType.HEXAROTOR:
            throttle_mean = rng.normal(0.54, 0.06)
            tilt_noise = float(rng.uniform(0.025, 0.055))
        else:
            throttle_mean = rng.normal(0.50, 0.06)
            tilt_noise = float(rng.uniform(0.035, 0.075))

    def xy_at(t):
        if is_fw:
            return np.interp(t, kt, kx), np.interp(t, kt, ky)
        return (
            np.interp(t, times, knots[:, 0]),
            np.interp(t, times, knots[:, 1]),
        )

    def alt_at(t):
        return cruise_alt + 3.0 * np.sin(2 * np.pi * t / max(duration, 1.0))

    topics = {}

    def add_topic(name, t, columns):
        # computed in float64, stored as float32: PX4 logs each of these fields as a float
        ts = ((t + _BOOT_OFFSET_S) * US_PER_S).astype(np.uint64)
        topics[(name, 0)] = TopicSeries(
            ts, {k: np.asarray(v, dtype=np.float32) for k, v in columns.items()}
        )

    t = _topic_times(duration, spec.rates_hz["vehicle_local_position"], rng)
    x, y = xy_at(t)
    add_topic(
        "vehicle_local_position",
        t,
        {
            "x": x + rng.normal(0.0, POSITION_NOISE_M, len(t)),
            "y": y + rng.normal(0.0, POSITION_NOISE_M, len(t)),
            "z": -(alt_at(t) + rng.normal(0.0, POSITION_NOISE_M, len(t))),  # NED
        },
    )

    t = _topic_times(duration, spec.rates_hz["vehicle_attitude"], rng)
    if is_fw:
        turn = np.interp(t, kt, krate)
        speed = np.interp(t, kt, kspeed)
        roll = np.arctan(speed * turn / _GRAVITY) + rng.normal(0.0, 0.01, len(t))
        pitch = rng.normal(0.0, 0.02, len(t))
        yaw = np.interp(t, kt, np.unwrap(kheading))
    else:
        roll = rng.normal(0.0, tilt_noise, len(t))
        pitch = rng.normal(0.0, tilt_noise, len(t))
        yaw = _yaw_from_path(t, times, knots)
    quats = euler_to_quaternion(roll, pitch, yaw)
    add_topic(
        "vehicle_attitude",
        t,
        {f"q[{i}]": quats[:, i] for i in range(4)},
    )

    t = _topic_times(duration, spec.rates_hz["manual_control_setpoint"], rng)
    add_topic(
        "manual_control_setpoint",
        t,
        {"z": np.clip(throttle_mean + rng.normal(0.0, 0.04, len(t)), 0.0, 1.0)},
    )

    t = _topic_times(duration, spec.rates_hz["vehicle_air_data"], rng)
    add_topic(
        "vehicle_air_data",
        t,
        {"baro_alt_meter": alt_at(t) + rng.normal(0.0, 0.5, len(t))},
    )

    t = _topic_times(duration, spec.rates_hz["battery_status"], rng)
    add_topic(
        "battery_status",
        t,
        {"temperature": 25.0 + 8.0 * t / max(duration, 1.0) + rng.normal(0.0, 0.2, len(t))},
    )

    return FlightLog(
        topics=topics,
        vehicle_type=spec.vehicle_type,
        source_id=f"synth-{spec.vehicle_type.value}-{spec.seed}",
        params={"MAV_TYPE": _MAV_TYPE_OF[spec.vehicle_type]},
    )


def iter_corpus(n_quadrotor, n_hexarotor, n_fixed_wing, seed, duration_s=None):
    """Yield the flights of generate_corpus one at a time, in the same order.

    The corpus generator only draws flight seeds, so drawing each seed just
    before its flight is built gives the same flights as drawing them all first.
    """
    rng = np.random.default_rng(seed)
    plan = [
        (VehicleType.QUADROTOR, n_quadrotor),
        (VehicleType.HEXAROTOR, n_hexarotor),
        (VehicleType.FIXED_WING, n_fixed_wing),
    ]
    for vtype, count in plan:
        for _ in range(count):
            flight_seed = int(rng.integers(0, 2**31 - 1))
            yield generate_flight(SynthSpec(vtype, duration_s, seed=flight_seed))


def generate_corpus(n_quadrotor, n_hexarotor, n_fixed_wing, seed, duration_s=None):
    """The flights of iter_corpus as a list."""
    return list(iter_corpus(n_quadrotor, n_hexarotor, n_fixed_wing, seed, duration_s))


def _ulog_fields(columns):
    """One (field name, ULog type token, element columns) row per field, in column order.

    Only a column named exactly ``name[i]``, with no bracket in ``name``, is
    an element of the array field ``name``. The array must hold the indices
    0 to k-1 for some k >= 2, and no column ``name`` may sit beside it: the
    parser reads ``float[1] v`` back as the column ``v``. Any other column,
    such as the ``esc[0].rpm`` leaf of a nested format, is a scalar field
    under its own name.
    """
    groups = {}
    for col in columns:
        match = _ARRAY_COLUMN.fullmatch(col)
        groups.setdefault(match[1] if match else col, []).append(col)
    fields = []
    for name, cols in groups.items():
        if cols != [name]:
            elements = [f"{name}[{i}]" for i in range(len(cols))]
            if len(cols) < 2 or set(cols) != set(elements):
                raise SynthError(f"cannot serialize columns {cols}: an array field needs "
                                 f"{name}[0] to {name}[k-1], k >= 2, and no column {name!r}")
            cols = elements
        dtypes = {columns[c].dtype for c in cols}
        if len(dtypes) > 1:
            raise SynthError(f"array field {name!r} mixes dtypes {sorted(map(str, dtypes))}")
        (dtype,) = dtypes
        if dtype not in _TOKEN_OF:
            raise SynthError(f"cannot serialize field {name!r}: no ULog type for dtype {dtype}")
        fields.append((name, _TOKEN_OF[dtype], [columns[c] for c in cols]))
    return fields


def write_ulog(log: FlightLog) -> bytes:
    """Serialize a FlightLog as ULog bytes that parse back to its columns, dtypes and bits.

    Each field is declared in the type its columns hold: float32 as ``float``,
    float64 as ``double``, int16 as ``int16_t`` and so on.
    """
    if not log.topics:
        raise SynthError("cannot serialize a flight with no topics")
    out = bytearray()
    out += ULOG_MAGIC
    out += b"\x01"  # file version byte
    out += struct.pack("<Q", min(s.start_us for s in log.topics.values()))

    def frame(mtype, payload):
        out.extend(struct.pack("<HB", len(payload), ord(mtype)))
        out.extend(payload)

    mav_type = _MAV_TYPE_OF.get(log.vehicle_type)
    if mav_type is not None:
        key = b"int32_t MAV_TYPE"
        frame("P", bytes([len(key)]) + key + struct.pack("<i", mav_type))

    for msg_id, ((name, instance_id), series) in enumerate(log.topics.items()):
        fields = _ulog_fields(series.columns)
        decls = ["uint64_t timestamp"]
        decls += [f"{t}[{len(c)}] {f}" if len(c) > 1 else f"{t} {f}" for f, t, c in fields]
        frame("F", f"{name}:{';'.join(decls)};".encode("ascii"))
        frame("A", struct.pack("<BH", instance_id, msg_id) + name.encode("ascii"))

        # every data message, its header included, is one record of this array
        row = np.dtype(
            [("timestamp", "<u8")] + [(f, SCALAR_KINDS[t], (len(c),)) for f, t, c in fields]
        )
        messages = np.empty(
            len(series.timestamps),
            dtype=[("size", "<u2"), ("type", "u1"), ("msg_id", "<u2"), ("row", row)],
        )
        messages["size"] = row.itemsize + 2
        messages["type"] = ord("D")
        messages["msg_id"] = msg_id
        rows = messages["row"]
        rows["timestamp"] = np.asarray(series.timestamps, dtype=np.uint64)
        for fname, _, cols in fields:
            np.stack(cols, axis=-1, out=rows[fname])
        out += messages.tobytes()

    return bytes(out)
