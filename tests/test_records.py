import random

import pytest

from emrcache.records import (
    ALL_CLASSES,
    ALL_SUBSETS,
    FileClass,
    RecordSet,
    VideoMode,
    full_emr_size,
    parse_subset,
    subset_label,
    subset_size,
)

from _oracles import random_records

TEXT, IMAGE, VIDEO = FileClass.TEXT, FileClass.IMAGE, FileClass.VIDEO

DVS_SUBSET_SIZES = [
    ({TEXT, IMAGE, VIDEO}, 106.66),
    ({IMAGE, VIDEO}, 103.66),
    ({TEXT, IMAGE}, 90.0),
    ({IMAGE}, 87.0),
    ({TEXT, VIDEO}, 19.66),
    ({VIDEO}, 16.66),
    ({TEXT}, 3.0),
]


@pytest.mark.parametrize("subset,expected", DVS_SUBSET_SIZES)
def test_dvs_subset_sizes(subset, expected):
    assert subset_size(subset, RecordSet(), VideoMode.DVS) == pytest.approx(expected)


def test_subset_size_examples():
    records = RecordSet()
    assert subset_size(ALL_CLASSES, records, VideoMode.DVS) == pytest.approx(106.66)
    assert subset_size(frozenset(), records, VideoMode.DVS) == 0.0
    assert subset_size(ALL_CLASSES, records, VideoMode.CONVENTIONAL) == pytest.approx(290.0)


def test_full_emr_size_examples():
    assert full_emr_size(RecordSet(), VideoMode.DVS) == pytest.approx(106.66)
    zero = RecordSet(0.0, 0.0, 0.0, 0.0)
    assert full_emr_size(zero, VideoMode.DVS) == 0.0
    assert full_emr_size(RecordSet(), VideoMode.CONVENTIONAL) == pytest.approx(290.0)


def test_record_set_validation():
    with pytest.raises(ValueError):
        RecordSet(text_gb=-1.0)
    with pytest.raises(ValueError):
        RecordSet(video_conventional_gb=10.0, video_dvs_gb=11.0)


def test_all_subsets_is_the_power_set():
    assert len(ALL_SUBSETS) == 8
    assert len(set(ALL_SUBSETS)) == 8
    assert frozenset() in ALL_SUBSETS
    assert ALL_CLASSES in ALL_SUBSETS


def test_monotonic_and_additive_over_random_records():
    rng = random.Random(7)
    for _ in range(200):
        records = random_records(rng)
        mode = rng.choice([VideoMode.DVS, VideoMode.CONVENTIONAL])
        for small in ALL_SUBSETS:
            for big in ALL_SUBSETS:
                if small <= big:
                    assert subset_size(small, records, mode) <= (
                        subset_size(big, records, mode) + 1e-9)
                if not (small & big):
                    together = subset_size(small | big, records, mode)
                    apart = subset_size(small, records, mode) + subset_size(big, records, mode)
                    assert together == pytest.approx(apart)


def test_dvs_never_larger_than_conventional():
    rng = random.Random(11)
    for _ in range(200):
        records = random_records(rng)
        for subset in ALL_SUBSETS:
            dvs = subset_size(subset, records, VideoMode.DVS)
            conventional = subset_size(subset, records, VideoMode.CONVENTIONAL)
            assert dvs <= conventional + 1e-9
            if VIDEO not in subset:
                assert dvs == conventional


def test_subset_labels_round_trip():
    for subset in ALL_SUBSETS:
        assert parse_subset(subset_label(subset)) == subset
    assert parse_subset(["TEXT", " image "]) == frozenset({TEXT, IMAGE})
    with pytest.raises(ValueError):
        parse_subset(["sound"])


def test_subset_label_joins_any_other_collection():
    assert subset_label([VIDEO, TEXT]) == "text+video"
    assert subset_label({IMAGE}) == "image"
    assert subset_label(()) == "(none)"
