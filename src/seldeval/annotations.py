"""Event-list data model, file formats, and the frame/segment grid.

Reference files are event-level CSV rows
``class_label,onset_s,offset_s,azimuth_deg,elevation_deg[,distance_m]``
(the distance column is accepted and ignored). Prediction files are
frame-level CSV rows ``frame_index,class_index,azimuth_deg,elevation_deg``.
Blank rows, of only commas and whitespace, are skipped; the first other row
is a header when its onset, or its frame index, is not a number to
`float()`. Vocabulary files hold one class label per line; the 0-based
line number is the class index. Files are UTF-8 (a leading byte-order mark
is skipped; any other byte sequence that is not UTF-8 is a `ParseError`),
comma-separated, ``.`` decimal point, LF or CRLF; a field longer than the
csv module's limit, 131,072 characters by default, is a `ParseError`.

References are rasterized onto the frame grid (an event is active in
frame ``l`` iff ``[l*hop, (l+1)*hop)`` intersects ``[onset, offset)``)
so that both sides of the evaluation are frame streams.

`read_prediction_columns` parses the lines of a prediction file past its
header, less its blank rows of only commas and ASCII whitespace, in one C
pass (`np.loadtxt`, whose floats equal `float()`'s) into frame, class and
unit-vector columns. A file it refuses, or with a value that fails
validation, is read row by row, as `parse_prediction` reads it: the same
rows, or the same error.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .assignment import build_distance_matrix, hungarian, ragged_arange
from .errors import (ConfigError, GridOverflow, InvalidInterval, ParseError, ReferenceTooLong,
                     UnknownClass)
from .geometry import Direction, unit_vectors

# Snap tolerance, in frame units, for onset/offset landing on a frame
# boundary up to float rounding.
_GRID_EPS = 1e-9
_PRED_COLUMNS = np.dtype([("frame", np.int64), ("cls", np.int64), ("az", float), ("el", float)])


class Vocabulary:
    """Ordered class labels with a bidirectional label/index map."""

    def __init__(self, labels: Sequence[str]):
        labels = tuple(str(lb) for lb in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in vocabulary")
        if not labels:
            raise ValueError("empty vocabulary")
        self.labels = labels
        self._index = {lb: i for i, lb in enumerate(labels)}

    @classmethod
    def from_file(cls, path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
        return cls([ln.strip() for ln in lines if ln.strip()])

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownClass(f"class label {label!r} not in vocabulary") from None

    def label(self, index: int) -> str:
        if not 0 <= index < len(self.labels):
            raise UnknownClass(f"class index {index} outside vocabulary of size {len(self.labels)}")
        return self.labels[index]

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.labels)


@dataclass(frozen=True)
class EventRecord:
    """One annotated sound event with a fixed location."""

    label: str
    onset: float
    offset: float
    direction: Direction


@dataclass
class FrameSnapshot:
    """Class/direction instances active in one analysis frame.

    `instances` is a multiset: the same class may appear more than once
    (two simultaneous events of the same class).
    """

    index: int
    instances: list = field(default_factory=list)


@dataclass
class SegmentClassStats:
    """Per-class activity and frame-pair evidence inside one segment."""

    ref_active: bool = False
    pred_active: bool = False
    ref_max: int = 0   # max simultaneous reference instances over member frames
    pred_max: int = 0
    ref_frame_count: int = 0   # sum of per-frame reference instance counts
    pair_count: int = 0        # frame-level associated pairs within the class
    pair_dist_sum: float = 0.0
    ref_dirs: list = field(default_factory=list)   # pooled over member frames
    pred_dirs: list = field(default_factory=list)


@dataclass
class SegmentView:
    index: int
    classes: dict = field(default_factory=dict)  # label -> SegmentClassStats


def _parse_float(text: str, what: str, path, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse {what} from {text!r}", path, lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what}: {text!r}", path, lineno)
    return value


def _direction(azimuth: str, elevation: str, path, lineno: int) -> Direction:
    try:
        return Direction(_parse_float(azimuth, "azimuth", path, lineno),
                         _parse_float(elevation, "elevation", path, lineno))
    except ValueError as exc:
        raise ParseError(str(exc), path, lineno) from None


def _read_text(path) -> str:
    """The file's UTF-8 text past a leading byte-order mark, line ends as they
    are; a byte that is not UTF-8 raises ParseError naming it."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode as UTF-8 ({exc.reason})", path) from None


def _records(text: str, path, fields, key_column):
    """If the CSV text has a non-blank row: the offset in `text` of the end
    of its header (0 without one), then (row number, stripped fields) of each
    data row. Blank rows are skipped; the first other row is the header if
    `float(row[key_column])` fails. A row whose field count is not in
    `fields`, or that the csv module refuses, raises ParseError."""
    lines = io.StringIO(text, newline="")
    reader = csv.reader(lines)
    first = True
    try:
        for lineno, row in enumerate(reader, start=1):
            row = [cell.strip() for cell in row]
            if not any(row):
                continue
            if len(row) not in fields:
                raise ParseError(f"expected {' or '.join(map(str, fields))} fields, got {len(row)}",
                                 path, lineno)
            if first:
                first = False
                try:
                    float(row[key_column])
                except ValueError:
                    yield lines.tell()
                    continue
                yield 0
            yield lineno, row
    except csv.Error as exc:
        raise ParseError(str(exc), path, reader.line_num) from None


def parse_reference(path, vocabulary: Vocabulary) -> list:
    """Read an event-level reference file into validated EventRecords."""
    events = []
    records = _records(_read_text(path), path, (5, 6), 1)
    next(records, 0)  # past the header
    for lineno, row in records:
        label = row[0]
        if label not in vocabulary:
            raise UnknownClass(f"class label {label!r} not in vocabulary ({path}:{lineno})")
        onset = _parse_float(row[1], "onset", path, lineno)
        offset = _parse_float(row[2], "offset", path, lineno)
        if onset < 0 or onset >= offset:
            raise InvalidInterval(f"need 0 <= onset < offset, got [{onset}, {offset}) ({path}:{lineno})")
        events.append(EventRecord(label, onset, offset, _direction(row[3], row[4], path, lineno)))
    return events


def _prediction_rows(text: str, path, vocabulary: Vocabulary):
    """(frame, class index, Direction) of each prediction row, in file order."""
    records = _records(text, path, (4,), 0)
    next(records, 0)  # past the header
    for lineno, row in records:
        try:
            frame = int(row[0])
            class_index = int(row[1])
        except ValueError:
            raise ParseError(f"cannot parse frame/class index from {row!r}", path, lineno) from None
        if frame < 0:
            raise ParseError(f"negative frame index {frame}", path, lineno)
        if frame >= 2 ** 63:
            raise ParseError(f"frame index {frame} exceeds int64", path, lineno)
        vocabulary.label(class_index)  # UnknownClass outside the vocabulary
        yield frame, class_index, _direction(row[2], row[3], path, lineno)


def parse_prediction(path, vocabulary: Vocabulary, frame_hop: float = 0.02) -> list:
    """Read a frame-level prediction file into sparse FrameSnapshots.

    Snapshots are grouped by frame index and sorted ascending; frames
    absent from the file mean the system predicted silence there.
    """
    if frame_hop <= 0:
        raise ConfigError(f"frame hop must be positive, got {frame_hop}")
    by_frame: dict = {}
    for frame, class_index, direction in _prediction_rows(_read_text(path), path, vocabulary):
        by_frame.setdefault(frame, []).append((vocabulary.labels[class_index], direction))
    return [FrameSnapshot(idx, by_frame[idx]) for idx in sorted(by_frame)]


def read_prediction_columns(path, vocabulary: Vocabulary) -> tuple:
    """Frame index, class index and unit-vector arrays, one row per
    prediction, in file order."""
    text = _read_text(path)
    try:  # the lines past the header, less those of only commas and whitespace: blank rows
        lines = [line for line in text[next(_records(text, path, (4,), 0), 0):].split("\n")
                 if line.strip(" \t\r\f\v,")]
        rows = np.loadtxt(lines, delimiter=",", dtype=_PRED_COLUMNS, comments=None,
                          ndmin=1) if lines else None
    except (ValueError, ParseError):
        rows = None
    if rows is not None and (
            rows["frame"].min() >= 0 and rows["cls"].min() >= 0
            and rows["cls"].max() < len(vocabulary)
            and np.isfinite(rows["az"]).all()
            and np.abs(rows["el"]).max() <= 90.0):  # NaN fails this too
        return rows["frame"], rows["cls"], unit_vectors(rows["az"], rows["el"])
    rows = list(_prediction_rows(text, path, vocabulary))
    frame, cls, direction = zip(*rows) if rows else ((), (), ())
    return (np.array(frame, dtype=np.int64), np.array(cls, dtype=np.int64),
            np.array([d.unit for d in direction], dtype=float).reshape(-1, 3))


def write_reference(path, events: Iterable[EventRecord]) -> None:
    lines = []
    for ev in events:
        lines.append(
            f"{ev.label},{ev.onset!r},{ev.offset!r},{ev.direction.azimuth!r},{ev.direction.elevation!r}"
        )
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_prediction_rows(path, rows: Iterable[tuple]) -> None:
    """Write (frame, class index, azimuth, elevation) rows, in the given order."""
    Path(path).write_text("".join(f"{f},{c},{az!r},{el!r}\n" for f, c, az, el in rows),
                          encoding="utf-8")


def grid_frames(duration: float, frame_hop: float) -> int:
    """The number of frames whose window starts before `duration` s: the
    grid of a file that long."""
    return math.ceil(duration / frame_hop - _GRID_EPS)


def frame_span(onset: float, offset: float, frame_hop: float):
    """First and last frame index whose window intersects [onset, offset)."""
    first = math.floor(onset / frame_hop + _GRID_EPS)
    return max(first, 0), grid_frames(offset, frame_hop) - 1


def expand_spans(spans, columns, frame_hop: float, name: str) -> tuple:
    """The frame index of every frame that each (first, last) span covers,
    and each array in `columns` (one entry per span) repeated to match,
    stable-sorted by frame, so that a frame's rows keep the spans' order.

    Spans that reach frame 2**63, or rows that numpy cannot allocate,
    raise `ReferenceTooLong` naming `name`.
    """
    rows = sum(max(last - first + 1, 0) for first, last in spans)
    end = max([last + 1 for _, last in spans], default=0)
    if end > 2 ** 63 or rows >= 2 ** 63:
        raise ReferenceTooLong(f"{name}: reference events cover {rows} frames, up to frame "
                               f"{end - 1} at a {frame_hop} s hop; both must stay below 2**63")
    try:
        spans = np.array(spans, dtype=np.int64).reshape(-1, 2)
        count = np.maximum(spans[:, 1] - spans[:, 0] + 1, 0)
        ev = np.repeat(np.arange(len(spans)), count)
        frame = spans[ev, 0] + ragged_arange(count)
        order = np.argsort(frame, kind="stable")
        ev = ev[order]
        return (frame[order], *(col[ev] for col in columns))
    except MemoryError:
        raise ReferenceTooLong(f"{name}: reference events cover {rows} frames at a "
                               f"{frame_hop} s hop, more rows than memory holds") from None


def rasterize(events: Sequence[EventRecord], frame_hop: float, total_frames: int) -> list:
    """Expand events onto a dense frame grid of `total_frames` snapshots."""
    if frame_hop <= 0:
        raise ConfigError(f"frame hop must be positive, got {frame_hop}")
    frames = [FrameSnapshot(i) for i in range(total_frames)]
    for ev in events:
        first, last = frame_span(ev.onset, ev.offset, frame_hop)
        if last >= total_frames:
            raise GridOverflow(
                f"event ending at {ev.offset} s exceeds the {total_frames}-frame grid"
            )
        for idx in range(first, last + 1):
            frames[idx].instances.append((ev.label, ev.direction))
    return frames


def densify(snapshots: Sequence[FrameSnapshot], total_frames: int) -> list:
    """Expand sparse snapshots to a dense list with empty frames filled in."""
    frames = [FrameSnapshot(i) for i in range(total_frames)]
    for snap in snapshots:
        if snap.index >= total_frames:
            raise GridOverflow(f"frame index {snap.index} exceeds the {total_frames}-frame grid")
        frames[snap.index].instances.extend(snap.instances)
    return frames


def frames_per_segment(segment_length: float, frame_hop: float) -> int:
    ratio = segment_length / frame_hop
    spf = round(ratio)
    if spf < 1 or abs(ratio - spf) > 1e-6:
        raise ConfigError(
            f"segment length {segment_length} is not a multiple of the frame hop {frame_hop}"
        )
    if spf >= 2 ** 63:  # segment indices and frame offsets are int64
        raise ConfigError(f"segment length {segment_length} s holds 2**63 frames or more at a "
                          f"{frame_hop} s hop")
    return spf


def _group_by_label(instances):
    grouped: dict = {}
    for label, direction in instances:
        grouped.setdefault(label, []).append(direction)
    return grouped


def segmentize(
    pred_frames: Sequence[FrameSnapshot],
    ref_frames: Sequence[FrameSnapshot],
    segment_length: float,
    frame_hop: float,
) -> list:
    """Aggregate aligned frame streams into non-overlapping segments.

    A class is active in a segment iff it is active in at least one
    member frame. Instance counts are the maximum simultaneous count over
    member frames, and localization evidence is accumulated from the
    frame-level class-sliced associations.
    """
    from .errors import LengthMismatch

    if len(pred_frames) != len(ref_frames):
        raise LengthMismatch(
            f"prediction has {len(pred_frames)} frames, reference {len(ref_frames)}"
        )
    spf = frames_per_segment(segment_length, frame_hop)
    total = len(pred_frames)
    segments = []
    for seg_index in range(0, (total + spf - 1) // spf):
        view = SegmentView(index=seg_index)
        for fi in range(seg_index * spf, min((seg_index + 1) * spf, total)):
            preds = _group_by_label(pred_frames[fi].instances)
            refs = _group_by_label(ref_frames[fi].instances)
            for label in preds.keys() | refs.keys():
                stats = view.classes.get(label)
                if stats is None:
                    stats = view.classes[label] = SegmentClassStats()
                p_dirs = preds.get(label, ())
                r_dirs = refs.get(label, ())
                if p_dirs:
                    stats.pred_active = True
                    stats.pred_max = max(stats.pred_max, len(p_dirs))
                    stats.pred_dirs.extend(p_dirs)
                if r_dirs:
                    stats.ref_active = True
                    stats.ref_max = max(stats.ref_max, len(r_dirs))
                    stats.ref_frame_count += len(r_dirs)
                    stats.ref_dirs.extend(r_dirs)
                if p_dirs and r_dirs:
                    d = build_distance_matrix(p_dirs, r_dirs)
                    for i, j in hungarian(d).pairs:
                        stats.pair_count += 1
                        stats.pair_dist_sum += d.values[i][j]
        segments.append(view)
    return segments
