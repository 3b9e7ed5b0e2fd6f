"""Tiered medical record sizes and file-class subset arithmetic, and `value_class`,
the decorator every validated or stateful record class uses.

Sizes are in GB (10^9 bytes) throughout; rates elsewhere use the same GB so
delay ratios stay unit-consistent.
"""

from __future__ import annotations

import itertools
from enum import Enum
from operator import attrgetter


def value_class(cls):
    """Make `cls` a read-only value. Its `__init__` takes the annotated fields, in order,
    with the class attributes as defaults, then runs `__post_init__` if there is one.
    Equality, and hash unless the class defines its own, go by the field values, within
    the class. Instances keep a `__dict__`, so `functools.cached_property` works on them."""
    names = cls._fields = tuple(cls.__annotations__)
    count = len(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    values = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:  # not every field given in order
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            missing = [name for name in names if name not in given]
            if (missing or len(given) > len(names) or len(args) > len(names)
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}, each "
                                f"once; missing: {', '.join(missing) or 'none'}")
            args = map(given.__getitem__, names)
        state = self.__dict__
        for name, value in zip(names, args):  # quicker than state.update(zip(...))
            state[name] = value
        if post_init is not None:
            post_init(self)

    def read_only(self, name, *_):
        raise AttributeError(f"{cls.__name__} is read-only: cannot change {name!r}")

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is cls else NotImplemented

    def __repr__(self):
        return f"{cls.__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__setattr__ = cls.__delattr__ = read_only
    if "__hash__" not in cls.__dict__:
        cls.__hash__ = lambda self: hash(values(self))
    return cls


def replace(obj, **changes):
    """A copy of a `value_class` instance with `changes` applied; it is validated anew."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


class FileClass(Enum):
    """One tier of a medical record set."""

    TEXT = "text"
    IMAGE = "image"
    VIDEO = "video"

    def __str__(self) -> str:
        return self.value


# Canonical ordering used for deterministic iteration, labels and tie-breaks.
CLASS_ORDER = (FileClass.TEXT, FileClass.IMAGE, FileClass.VIDEO)
ALL_CLASSES = frozenset(CLASS_ORDER)


class VideoMode(Enum):
    """Which video recording the size calculations use."""

    CONVENTIONAL = "conventional"
    DVS = "dvs"


@value_class
class RecordSet:
    """Per-class record sizes in GB.

    The video tier carries two sizes: the conventional frame-based recording
    and the much smaller event-camera (DVS) recording; VideoMode picks one.
    Defaults are the reference scenario sizes, but every size is an input.
    """

    text_gb: float = 3.0
    image_gb: float = 87.0
    video_conventional_gb: float = 200.0
    video_dvs_gb: float = 16.66

    def __post_init__(self):
        for name in ("text_gb", "image_gb", "video_conventional_gb", "video_dvs_gb"):
            if getattr(self, name) < 0:
                raise ValueError(f"records.{name} must be >= 0")
        if self.video_dvs_gb > self.video_conventional_gb:
            raise ValueError("records.video_dvs_gb cannot exceed video_conventional_gb")

    def video_gb(self, mode: VideoMode) -> float:
        return self.video_dvs_gb if mode is VideoMode.DVS else self.video_conventional_gb

    def class_gb(self, file_class: FileClass, mode: VideoMode) -> float:
        if file_class is FileClass.TEXT:
            return self.text_gb
        if file_class is FileClass.IMAGE:
            return self.image_gb
        return self.video_gb(mode)


def subset_size(subset, records: RecordSet, mode: VideoMode) -> float:
    """Total size in GB of the given file classes.

    Summation follows the canonical class order so equal subsets always
    produce bit-identical totals.
    """
    return sum(records.class_gb(c, mode) for c in CLASS_ORDER if c in subset)


def full_emr_size(records: RecordSet, mode: VideoMode) -> float:
    """Size in GB of the complete three-tier record set."""
    return subset_size(ALL_CLASSES, records, mode)


def _powerset() -> tuple:
    out = []
    for k in range(len(CLASS_ORDER) + 1):
        for combo in itertools.combinations(CLASS_ORDER, k):
            out.append(frozenset(combo))
    return tuple(out)


# All 8 subsets of the three classes, smallest cardinality first.
ALL_SUBSETS = _powerset()


# The eight canonical subsets' labels, joined once.
_LABELS = {s: "+".join(c.value for c in CLASS_ORDER if c in s) or "(none)" for s in ALL_SUBSETS}


def subset_label(subset) -> str:
    """Canonical text form, e.g. 'text+image'; the empty subset is '(none)'."""
    return _LABELS[frozenset(subset)]


# Each subset by its label, by its own classes and by the set of its class names: the
# spellings that `parse_subset` looks up instead of parsing.
_SPELLINGS = {"": frozenset(), **{label: s for s, label in _LABELS.items()},
              **{s: s for s in ALL_SUBSETS},
              **{frozenset(c.value for c in s): s for s in ALL_SUBSETS}}


def parse_subset(names) -> frozenset:
    """Build a subset from class names; accepts 'text+image' or an iterable. Names are
    matched without case or surrounding space."""
    try:
        if isinstance(names, str):
            return _SPELLINGS[names]
        if isinstance(names, (list, tuple, frozenset)):
            return _SPELLINGS[frozenset(names)]
    except (KeyError, TypeError):  # not a canonical spelling, or an unhashable name
        pass
    if isinstance(names, str):
        names = names.split("+")
    classes = set()
    for name in names:
        try:
            classes.add(FileClass(str(name).strip().lower()))
        except ValueError:
            raise ValueError(f"unknown file class: {name!r}") from None
    return frozenset(classes)
