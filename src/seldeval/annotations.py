"""Event-list data model, file formats, and the frame/segment grid.

A directory's reference files are its ``*.csv`` files, sorted
(`reference_files`), of event-level CSV rows
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
so that both sides of the evaluation are frame streams. An event has one
row per frame it covers; a file whose events cover more than
`MAX_REFERENCE_ROWS` (2**22) rows in all is refused with `ReferenceTooLong`
before any row is made, whatever the host's memory. A prediction file of
more than `MAX_PREDICTION_BYTES` (2**25) bytes is a `ParseError` before it
is read.

A file's grid holds at most `MAX_FRAMES` (2**31) frames: a prediction frame
at or above it is a `ParseError`, a reference ending past it is
`ReferenceTooLong`, and a duration or segment of more frames is a
`ConfigError`. Then int64 frame counts over fewer than 2**31 files cannot wrap.

`read_prediction_columns` parses the lines of a prediction file past its
header, less its blank rows of only commas and ASCII whitespace, in one C
pass (`np.loadtxt`, whose floats equal `float()`'s). A file it refuses, or
with a value that fails validation, is read row by row, as `parse_prediction`
reads it: the same rows, or the same error. Row by row, a field, quoted or
not, is what `int()` or `float()` takes, `_` separators and non-ASCII digits
included. Both paths fill one `_PRED_COLUMNS` array, whose angles one
`unit_vectors` call turns into the unit-vector column.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .assignment import build_distance_matrix, hungarian, ragged_arange
from .errors import (ConfigError, GridOverflow, InvalidInterval, ParseError, ReferenceTooLong,
                     UnknownClass)
from .geometry import Direction, unit_vectors

# Snap tolerance, in frame units, for onset/offset landing on a frame
# boundary up to float rounding.
_GRID_EPS = 1e-9
# The frames a file's grid may hold, 1.36 years at a 20 ms hop. Rounded up to whole
# segments, a grid stays below 2**32, so sums over < 2**31 files stay below 2**63.
MAX_FRAMES = 2 ** 31
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

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.labels)


class EventRecord(NamedTuple):
    """One annotated sound event with a fixed location."""

    label: str
    onset: float
    offset: float
    direction: Direction


class FrameSnapshot:
    """Class/direction instances active in one analysis frame.

    `instances` is a multiset: the same class may appear more than once
    (two simultaneous events of the same class).
    """

    __slots__ = ("index", "instances")

    def __init__(self, index: int, instances: list | None = None):
        self.index = index
        self.instances = [] if instances is None else instances


class SegmentClassStats:
    """Per-class activity and frame-pair evidence inside one segment."""

    __slots__ = ("ref_active", "pred_active", "ref_max", "pred_max", "ref_frame_count",
                 "pair_count", "pair_dist_sum", "ref_dirs", "pred_dirs")

    def __init__(self, ref_active: bool = False, pred_active: bool = False):
        self.ref_active, self.pred_active = ref_active, pred_active
        self.ref_max = self.pred_max = 0  # max simultaneous instances over member frames
        self.ref_frame_count = 0  # sum of per-frame reference instance counts
        self.pair_count = 0       # frame-level associated pairs within the class
        self.pair_dist_sum = 0.0
        self.ref_dirs, self.pred_dirs = [], []  # pooled over member frames


class SegmentView:
    __slots__ = ("index", "classes")

    def __init__(self, index: int):
        self.index = index
        self.classes = {}  # label -> SegmentClassStats


def _parse_float(text: str, what: str, path, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse {what} from {text!r}", path, lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what}: {text!r}", path, lineno)
    return value


def _angles(azimuth: str, elevation: str, path, lineno: int) -> tuple:
    """The (azimuth, elevation) floats of a valid `Direction`, as parsed."""
    azimuth = _parse_float(azimuth, "azimuth", path, lineno)
    elevation = _parse_float(elevation, "elevation", path, lineno)
    if abs(elevation) > 90.0:
        raise ParseError(f"elevation {elevation} outside [-90, 90]", path, lineno)
    return azimuth, elevation


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
    """Validated EventRecords of an event-level reference file (ParseError if out of memory)."""
    events = []
    try:
        records = _records(_read_text(path), path, (5, 6), 1)
        next(records, 0)  # past the header
        for lineno, row in records:
            label = row[0]
            if label not in vocabulary:
                raise UnknownClass(f"class label {label!r} not in vocabulary ({path}:{lineno})")
            onset = _parse_float(row[1], "onset", path, lineno)
            offset = _parse_float(row[2], "offset", path, lineno)
            if onset < 0 or onset >= offset:
                raise InvalidInterval(f"need 0 <= onset < offset, got [{onset}, {offset}) "
                                      f"({path}:{lineno})")
            events.append(EventRecord(label, onset, offset,
                                      Direction(*_angles(row[3], row[4], path, lineno))))
    except MemoryError:
        raise ParseError("more reference rows than memory holds", path) from None
    return events


def _prediction_rows(text: str, path, vocabulary: Vocabulary):
    """(frame, class index, azimuth, elevation) of each prediction row, in file order."""
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
        if frame >= MAX_FRAMES:
            raise ParseError(f"frame index {frame} is not below {MAX_FRAMES}", path, lineno)
        if not 0 <= class_index < len(vocabulary):
            raise UnknownClass(f"class index {class_index} outside vocabulary of size "
                               f"{len(vocabulary)} ({path}:{lineno})")
        yield frame, class_index, *_angles(row[2], row[3], path, lineno)


def parse_prediction(path, vocabulary: Vocabulary, frame_hop: float = 0.02) -> list:
    """Read a frame-level prediction file into sparse FrameSnapshots.

    Snapshots are grouped by frame index and sorted ascending; frames
    absent from the file mean the system predicted silence there.
    """
    if frame_hop <= 0:
        raise ConfigError(f"frame hop must be positive, got {frame_hop}")
    by_frame: dict = {}
    for frame, class_index, az, el in _prediction_rows(_read_text(path), path, vocabulary):
        by_frame.setdefault(frame, []).append((vocabulary.labels[class_index], Direction(az, el)))
    return [FrameSnapshot(idx, by_frame[idx]) for idx in sorted(by_frame)]


def read_prediction_columns(path, vocabulary: Vocabulary) -> tuple:
    """Frame index, class index and unit-vector arrays, one row per
    prediction, in file order. A file of more than `MAX_PREDICTION_BYTES`
    bytes, refused before it is read, or whose text or rows numpy cannot
    allocate raises `ParseError` naming it."""
    size = Path(path).stat().st_size
    if size > MAX_PREDICTION_BYTES:
        raise ParseError(f"file of {size} bytes; a prediction file may hold "
                         f"{MAX_PREDICTION_BYTES}", path)
    try:
        text = _read_text(path)
        # the lines past the header, less those of only commas and whitespace: blank rows
        lines = [line for line in text[next(_records(text, path, (4,), 0), 0):].split("\n")
                 if line.strip(" \t\r\f\v,")]
        try:
            rows = np.loadtxt(lines, delimiter=",", dtype=_PRED_COLUMNS, comments=None,
                              ndmin=1) if lines else None
        except ValueError:
            rows = None
        del lines  # not held through the peak of `unit_vectors` or of the per-row path
        if rows is None or not (
                rows["frame"].min() >= 0 and rows["frame"].max() < MAX_FRAMES
                and rows["cls"].min() >= 0 and rows["cls"].max() < len(vocabulary)
                and np.isfinite(rows["az"]).all()
                and np.abs(rows["el"]).max() <= 90.0):  # NaN fails this too
            rows = np.fromiter(_prediction_rows(text, path, vocabulary), dtype=_PRED_COLUMNS)
        return rows["frame"], rows["cls"], unit_vectors(rows["az"], rows["el"])
    except MemoryError:
        raise ParseError("more prediction rows than memory holds", path) from None


def reference_files(ref_dir) -> list:
    """The reference files of a directory: its *.csv files, sorted."""
    return sorted(Path(ref_dir).glob("*.csv"))


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
    grid of a file that long, or `MAX_FRAMES` + 1 for any longer grid."""
    return math.ceil(min(duration / frame_hop - _GRID_EPS, MAX_FRAMES + 1))


def frame_span(onset: float, offset: float, frame_hop: float):
    """First and last frame index whose window intersects [onset, offset), each <= MAX_FRAMES."""
    first = math.floor(min(onset / frame_hop + _GRID_EPS, MAX_FRAMES))
    return max(first, 0), grid_frames(offset, frame_hop) - 1


# Rows that the spans of one file may expand to: about 23 h of one source at a
# 20 ms hop, and 268 MB at the peak of `expand_spans`, 64 B per row. A fixed
# count, so that whether a file is refused does not depend on the host.
MAX_REFERENCE_ROWS = 2 ** 22
# Bytes that one prediction file may hold, checked before it is read. At the peak of
# `read_prediction_columns`, rows of 15-46 B took 5.0-8.9 B of memory per byte through
# `np.loadtxt`, 168-298 MB at the bound, near the reference bound's 268 MB; rows of 8 B
# took 16 B. Rows of 9-82 B that only the per-row path reads took 15.1-4.0 B.
# A 60 s DCASE2019 file holds about 150 kB.
MAX_PREDICTION_BYTES = 2 ** 25


def span_rows(spans, frame_hop: float, name: str) -> int:
    """The number of rows `expand_spans` makes of the (first, last) spans,
    counted without making any. Spans past frame `MAX_FRAMES` - 1, or of more
    than `MAX_REFERENCE_ROWS` rows, raise `ReferenceTooLong` naming `name`."""
    end = max([last + 1 for _, last in spans], default=0)
    if end > MAX_FRAMES:  # `frame_span` capped the spans there: no count is the file's
        raise ReferenceTooLong(f"{name}: events cover frames past frame {MAX_FRAMES - 1} at a "
                               f"{frame_hop} s hop; a file's frames lie below frame {MAX_FRAMES}")
    rows = sum(max(last - first + 1, 0) for first, last in spans)
    if rows > MAX_REFERENCE_ROWS:
        raise ReferenceTooLong(f"{name}: events cover {rows} frames, up to frame {end - 1} at a "
                               f"{frame_hop} s hop; a file may hold {MAX_REFERENCE_ROWS} rows")
    return rows


def expand_spans(spans, columns, frame_hop: float, name: str) -> tuple:
    """The frame index of every frame that each (first, last) span covers,
    and each array in `columns` (one entry per span) repeated to match,
    stable-sorted by frame, so that a frame's rows keep the spans' order.

    Spans that `span_rows` refuses, or rows that numpy cannot allocate,
    raise `ReferenceTooLong` naming `name`.
    """
    rows = span_rows(spans, frame_hop, name)
    try:
        spans = np.array(spans, dtype=np.int64).reshape(-1, 2)
        count = np.maximum(spans[:, 1] - spans[:, 0] + 1, 0)
        ev = np.repeat(np.arange(len(spans)), count)
        frame = spans[ev, 0] + ragged_arange(count)
        order = np.argsort(frame, kind="stable")
        ev = ev[order]
        return (frame[order], *(col[ev] for col in columns))
    except MemoryError:
        raise ReferenceTooLong(f"{name}: events cover {rows} frames at a {frame_hop} s hop, "
                               "more rows than memory holds") from None


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
    if spf > MAX_FRAMES:
        raise ConfigError(f"segment length {segment_length} s holds more than {MAX_FRAMES} "
                          f"frames at a {frame_hop} s hop")
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
