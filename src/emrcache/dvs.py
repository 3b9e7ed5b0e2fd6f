"""Recording-volume estimates for frame-based versus event-based cameras.

A frame-based camera streams at a fixed bitrate regardless of what happens
in front of it. An event-based (DVS) camera emits data only when the scene
changes, so its output is driven by a motion-activity timeline.
"""

from __future__ import annotations

import csv
import math
from enum import IntEnum

from .records import value_class

CIF_FRAME_BITRATE_BPS = 512e3  # standard surveillance-resolution stream
EVENT_FAST_BITRATE_BPS = 256e3  # event camera under fast motion
EVENT_SLOW_BITRATE_BPS = 64e3  # configurable; only the fast rate is pinned down

# Whole-record video scaling recovered from the 200 GB -> 16.66 GB sizing.
DEFAULT_DVS_RATIO = 1.0 / 12.0


class MotionLevel(IntEnum):
    """Scene activity level; higher levels never emit less event data."""

    NONE = 0
    SLOW = 1
    FAST = 2

    @classmethod
    def parse(cls, name) -> "MotionLevel":
        try:
            return name if isinstance(name, cls) else cls[str(name).strip().upper()]
        except KeyError:
            raise ValueError(f"unknown motion level: {name!r}") from None


@value_class
class ActivityTimeline:
    """Piecewise-constant motion profile: ordered (duration_s, level or its name) segments."""

    segments: tuple = ()

    def __post_init__(self):
        segments = tuple((float(duration), MotionLevel.parse(level))
                         for duration, level in self.segments)
        if not all(0 <= duration < math.inf for duration, _ in segments):
            raise ValueError("timeline segment durations must be finite and >= 0")
        object.__setattr__(self, "segments", segments)

    @property
    def total_duration_s(self) -> float:
        return sum(d for d, _ in self.segments)

    @classmethod
    def from_csv(cls, path) -> "ActivityTimeline":
        """Load duration_seconds,level rows; a header row is skipped if present."""
        pairs = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip():
                    continue
                first = row[0].strip().lower()
                if first in ("duration_seconds", "duration", "seconds"):
                    continue
                if len(row) < 2:
                    raise ValueError(f"timeline row needs duration and level: {row!r}")
                pairs.append((float(row[0]), row[1]))
        return cls(tuple(pairs))


@value_class
class SensorModel:
    """An event camera's bitrate per motion level.

    No motion means no samples at all, and faster motion never samples
    slower. A frame camera needs no model: see `frame_volume`.
    """

    event_rates_bps: dict

    def __post_init__(self):
        rates = {MotionLevel(k): float(v) for k, v in self.event_rates_bps.items()}
        for level in MotionLevel:
            if level not in rates:
                raise ValueError(f"event_rates_bps missing level {level.name}")
            if not 0 <= rates[level] < math.inf:
                raise ValueError("event rates must be finite and >= 0")
        if rates[MotionLevel.NONE] != 0:
            raise ValueError("an event sensor emits nothing when nothing changes")
        if rates[MotionLevel.SLOW] > rates[MotionLevel.FAST]:
            raise ValueError("slow-motion rate cannot exceed fast-motion rate")
        object.__setattr__(self, "event_rates_bps", rates)

    @classmethod
    def event_based(cls, fast_bps: float = EVENT_FAST_BITRATE_BPS,
                    slow_bps: float = EVENT_SLOW_BITRATE_BPS) -> "SensorModel":
        return cls({MotionLevel.NONE: 0.0, MotionLevel.SLOW: slow_bps, MotionLevel.FAST: fast_bps})


def frame_volume(bitrate_bps: float, duration_s: float) -> float:
    """Bytes recorded by a constant-bitrate camera: bitrate x duration / 8."""
    if not (0 <= bitrate_bps < math.inf and 0 <= duration_s < math.inf):
        raise ValueError("bitrate and duration must be finite and >= 0")
    return bitrate_bps * duration_s / 8.0


def event_volume(timeline: ActivityTimeline, model: SensorModel) -> float:
    """Bytes an event camera records over a motion timeline."""
    return sum(model.event_rates_bps[level] * duration / 8.0
               for duration, level in timeline.segments)


def dvs_scale(conventional_gb: float, ratio: float = DEFAULT_DVS_RATIO) -> float:
    """Event-camera size of a recording that takes `conventional_gb` frame-based."""
    if not 0 <= ratio <= 1:
        raise ValueError("ratio must be within [0, 1]")
    if conventional_gb < 0:
        raise ValueError("conventional_gb must be >= 0")
    return conventional_gb * ratio


def sleep_night_timeline() -> ActivityTimeline:
    """Reconstructed 12 h overnight profile: 3125 s of fast motion, rest still.

    Calibrated so a 256 kbps event stream over the active time totals 1e8
    bytes; the actual activity profile behind that figure is not published,
    so this is a stated reconstruction.
    """
    return ActivityTimeline(((3125.0, MotionLevel.FAST), (40075.0, MotionLevel.NONE)))
