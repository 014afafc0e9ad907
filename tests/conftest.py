"""Shared fixture builders: synthetic scenes and on-disk corpora."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

from seldeval.annotations import EventRecord, Vocabulary, write_prediction_rows, write_reference
from seldeval.evaluation import EvaluationConfig, compute_metrics, score_file
from seldeval.geometry import Direction
from seldeval.synth import grid_directions

CLASSES_11 = (
    "clearthroat", "cough", "doorslam", "drawer", "keyboard",
    "keysdrop", "knock", "laughter", "pageturn", "phone", "speech",
)


@pytest.fixture
def vocab11() -> Vocabulary:
    return Vocabulary(CLASSES_11)


@pytest.fixture
def vocab2() -> Vocabulary:
    return Vocabulary(["speech", "dog"])


def make_nonoverlapping_events(
    rng: np.random.Generator,
    classes,
    n_events: int,
    min_len: float = 0.4,
    max_len: float = 1.2,
    gap: float = 0.15,
) -> list:
    """Sequential (never simultaneous) events on the 10-degree grid."""
    grid = grid_directions()
    events = []
    t = 0.1
    for _ in range(n_events):
        length = float(rng.uniform(min_len, max_len))
        label = classes[int(rng.integers(len(classes)))]
        direction = grid[int(rng.integers(len(grid)))]
        events.append(EventRecord(label, round(t, 3), round(t + length, 3), direction))
        t += length + gap
    return events


def make_overlapping_pairs(
    rng: np.random.Generator,
    classes,
    n_pairs: int,
    separation_pair=None,
) -> list:
    """Pairs of exactly-coincident events of distinct classes.

    Each pair shares onset/offset; the two directions are drawn from
    `separation_pair` (defaults to azimuths -70 and +70 on the equator,
    140 degrees apart) so a location swap is far outside any threshold.
    """
    if separation_pair is None:
        separation_pair = (Direction(-70.0, 0.0), Direction(70.0, 0.0))
    events = []
    t = 0.1
    for _ in range(n_pairs):
        length = float(rng.uniform(0.6, 1.4))
        c1, c2 = rng.choice(len(classes), size=2, replace=False)
        onset, offset = round(t, 3), round(t + length, 3)
        events.append(EventRecord(classes[int(c1)], onset, offset, separation_pair[0]))
        events.append(EventRecord(classes[int(c2)], onset, offset, separation_pair[1]))
        t += length + 0.2
    return events


def write_corpus(root: Path, scenes: dict, vocabulary: Vocabulary) -> Path:
    """Write scene event lists plus vocabulary.txt into `root`."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "vocabulary.txt").write_text(
        "".join(label + "\n" for label in vocabulary), encoding="utf-8"
    )
    for name, events in scenes.items():
        write_reference(root / name, events)
    return root


def make_corpus(
    root: Path,
    vocabulary: Vocabulary,
    n_files: int,
    events_per_file: int,
    seed: int,
    overlapping: bool = False,
) -> Path:
    scenes = {}
    for idx in range(n_files):
        rng = np.random.default_rng(seed + idx)
        if overlapping:
            events = make_overlapping_pairs(rng, list(vocabulary), events_per_file // 2)
        else:
            events = make_nonoverlapping_events(rng, list(vocabulary), events_per_file)
        scenes[f"scene_{idx:03d}.csv"] = events
    return write_corpus(root, scenes, vocabulary)


def score_frames(tmp_path: Path, frames, vocabulary: Vocabulary, **settings) -> tuple:
    """Score a frame-list scene through the file pipeline.

    `frames[i]` is a (predictions, references) pair of (label, Direction)
    lists active in frame i. By default frames are 1 s apart, each is its
    own segment, and the grid holds exactly len(frames) frames; `settings`
    override these or set any other EvaluationConfig field. Returns
    `score_file`'s FileContribution, `compute_metrics`' metric map and its
    per-class map.
    """
    config = EvaluationConfig(**{"frame_hop": 1.0, "segment_length": 1.0,
                                 "duration": float(len(frames)), **settings})
    hop = config.frame_hop
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    write_reference(root / "ref.csv", [EventRecord(label, i * hop, (i + 1) * hop, d)
                                       for i, (_, refs) in enumerate(frames)
                                       for label, d in refs])
    write_prediction_rows(root / "pred.csv", [(i, vocabulary.index(label), d.azimuth, d.elevation)
                                              for i, (preds, _) in enumerate(frames)
                                              for label, d in preds])
    contrib = score_file(root / "ref.csv", root / "pred.csv", vocabulary, config)
    return (contrib, *compute_metrics(contrib, config, vocabulary))
