import random

import pytest

from emrcache.dvs import (
    ActivityTimeline,
    MotionLevel,
    SensorModel,
    dvs_scale,
    event_volume,
    frame_volume,
    sleep_night_timeline,
)


def test_frame_volume_formula_is_exact():
    # 512 kbps over a 12 h night; the bitrate x duration / 8 formula is
    # authoritative even where published prose rounds differently.
    assert frame_volume(512e3, 43200) == 2.7648e9
    assert frame_volume(777e3, 0) == 0.0
    assert frame_volume(256e3, 3600) == 1.152e8
    with pytest.raises(ValueError):
        frame_volume(-1.0, 10.0)


def test_event_volume_examples():
    sensor = SensorModel.event_based()
    still = ActivityTimeline(((43200.0, MotionLevel.NONE),))
    assert event_volume(still, sensor) == 0.0
    assert event_volume(sleep_night_timeline(), sensor) == pytest.approx(1.0e8)
    single = ActivityTimeline(((3600.0, MotionLevel.FAST),))
    assert event_volume(single, sensor) == pytest.approx(1.152e8)


def test_dvs_scale_examples():
    assert dvs_scale(200.0, 1.0 / 12.0) == pytest.approx(16.667, abs=0.01)
    assert dvs_scale(0.0, 0.37) == 0.0
    assert dvs_scale(200.0, 1.0) == 200.0
    with pytest.raises(ValueError):
        dvs_scale(200.0, 1.5)
    with pytest.raises(ValueError):
        dvs_scale(200.0, -0.1)


def test_sensor_model_invariants():
    with pytest.raises(ValueError):
        SensorModel(event_rates_bps={
            MotionLevel.NONE: 10.0, MotionLevel.SLOW: 20.0, MotionLevel.FAST: 30.0})
    with pytest.raises(ValueError):
        SensorModel.event_based(fast_bps=10e3, slow_bps=20e3)
    with pytest.raises(ValueError):
        SensorModel(event_rates_bps={MotionLevel.NONE: 0.0})


def _random_timeline(rng, levels=tuple(MotionLevel)):
    return ActivityTimeline(tuple(
        (rng.uniform(0, 4000), rng.choice(levels)) for _ in range(rng.randint(1, 8))))


def test_event_never_beats_frame_when_rates_dominate():
    rng = random.Random(3)
    for _ in range(200):
        fast = rng.uniform(0, 400e3)
        slow = rng.uniform(0, fast)
        frame_rate = rng.uniform(fast, 600e3)
        timeline = _random_timeline(rng)
        sensor = SensorModel.event_based(fast_bps=fast, slow_bps=slow)
        assert event_volume(timeline, sensor) <= (
            frame_volume(frame_rate, timeline.total_duration_s) + 1e-6)


def test_event_volume_monotone_in_motion():
    rng = random.Random(5)
    sensor = SensorModel.event_based()
    for _ in range(200):
        timeline = _random_timeline(rng)
        bumped = ActivityTimeline(tuple(
            (d, MotionLevel(min(level + 1, MotionLevel.FAST)))
            for d, level in timeline.segments))
        assert event_volume(bumped, sensor) >= event_volume(timeline, sensor) - 1e-9


def test_event_volume_additive_over_concat():
    rng = random.Random(9)
    sensor = SensorModel.event_based()
    for _ in range(100):
        first = _random_timeline(rng)
        second = _random_timeline(rng)
        joined = ActivityTimeline(first.segments + second.segments)
        assert event_volume(joined, sensor) == pytest.approx(
            event_volume(first, sensor) + event_volume(second, sensor))


def test_timeline_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        ActivityTimeline(((-1.0, MotionLevel.NONE),))
    path = tmp_path / "timeline.csv"
    path.write_text("duration_seconds,level\n3125,fast\n40075,none\n")
    timeline = ActivityTimeline.from_csv(path)
    assert timeline == sleep_night_timeline()
    assert timeline.total_duration_s == pytest.approx(43200.0)
