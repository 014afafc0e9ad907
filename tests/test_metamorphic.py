"""Whole-corpus relations that follow from the paper's definitions.

Every metric is a ratio of counts summed over every frame and segment of
the evaluation set, so splitting a file at a segment boundary into two
files changes no count: every count metric stays exactly equal, and the
localization errors (LE, LE_theta, LE_CD, summed in another order) stay
equal within summation-order rounding. Permuting the vocabulary, with the
prediction class indices remapped, changes no count of any class either:
each class's LE_c and LR_c stay exactly equal, and so does every metric but
the means over classes, which add the classes in another order and stay
within a few ulps.

Times lie on whole 0.25 s hops, so that shifting the second half back to
0 s is exact.
"""

import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from seldeval import evaluation
from seldeval.annotations import EventRecord, Vocabulary, write_prediction_rows, write_reference
from seldeval.evaluation import EvaluationConfig, evaluate_directory
from seldeval.geometry import Direction

VOCAB = Vocabulary(["dog", "cat", "speech"])
HOP, SPF = 0.25, 4  # 1 s segments
# exact duplicates give exact ties; (0, 0)/(180, 0) and the poles are antipodal
GRID = [(0.0, 0.0), (180.0, 0.0), (90.0, 0.0), (-90.0, 0.0), (45.0, 0.0), (0.0, 90.0),
        (0.0, -90.0), (30.0, 30.0), (10.0, 0.0), (25.0, 0.0)]


@st.composite
def scenes(draw):
    """(frames, reference events as (class, first frame, end frame, direction),
    prediction rows as (frame, class, direction)) of a file of 2-4 segments."""
    frames = draw(st.integers(2, 4)) * SPF
    events = []
    for _ in range(draw(st.integers(0, 6))):
        first = draw(st.integers(0, frames - 1))
        events.append((draw(st.integers(0, 2)), first, draw(st.integers(first + 1, frames)),
                       draw(st.sampled_from(GRID))))
    rows = draw(st.lists(st.tuples(st.integers(0, frames - 1), st.integers(0, 2),
                                   st.sampled_from(GRID)), max_size=24))
    return frames, events, rows


@st.composite
def splits(draw):
    """A corpus of 1-3 scenes, the scene to split and the segment boundary to
    cut it at (a frame index), and the configuration."""
    corpus = draw(st.lists(scenes(), min_size=1, max_size=3))
    which = draw(st.integers(0, len(corpus) - 1))
    frames, events, rows = corpus[which]
    cut = draw(st.integers(1, frames // SPF - 1)) * SPF
    # A file's grid ends at its last row: a row in the frame before the cut ends the
    # first half's grid there, as the whole file's grid goes on past it.
    rows = rows + [(cut - 1, draw(st.integers(0, 2)), draw(st.sampled_from(GRID)))]
    corpus[which] = frames, events, rows
    return corpus, which, cut, draw(configs())


def configs():
    return st.builds(
        EvaluationConfig, frame_hop=st.just(HOP),
        thetas=st.sampled_from([(10.0, 30.0), (20.0,), (180.0,)]),
        theta_class=st.sampled_from([(), (("dog", 45.0),)]),
        loc_mode=st.sampled_from(["frame-average", "segment-mean"]),
        le_mode=st.sampled_from(["micro", "macro"]))


def split_scene(events, rows, cut):
    """The two halves of a scene cut at frame `cut`, the second shifted back
    to frame 0; an event over the cut is cut in two. Each half keeps the
    order of the events and rows it gets."""
    halves = ([], []), ([], [])
    for cls, first, end, direction in events:
        if first < cut:
            halves[0][0].append((cls, first, min(end, cut), direction))
        if end > cut:
            halves[1][0].append((cls, max(first, cut) - cut, end - cut, direction))
    for frame, cls, direction in rows:
        halves[frame >= cut][1].append((frame - cut if frame >= cut else frame, cls, direction))
    return halves


def write_files(root, files):
    """Each (name, events, rows) as ref/name and pred/name under `root`."""
    for side in ("ref", "pred"):
        (root / side).mkdir(parents=True)
    for name, events, rows in files:
        write_reference(root / "ref" / name, [
            EventRecord(VOCAB.labels[cls], first * HOP, end * HOP, Direction(*direction))
            for cls, first, end, direction in events])
        write_prediction_rows(root / "pred" / name,
                              [(frame, cls, *direction) for frame, cls, direction in rows])
    return root / "ref", root / "pred"


def assert_split_invariant(whole, split):
    assert split.total.frames == whole.total.frames
    assert split.metrics.keys() == whole.metrics.keys()
    for key, want in whole.metrics.items():
        got = split.metrics[key]
        if key.startswith("le") and want is not None:  # a float sum, added in another order
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), key
        else:
            assert got == want, key
    assert split.per_class.keys() == whole.per_class.keys()
    for label, want in whole.per_class.items():
        got = split.per_class[label]
        assert got["lr_c"] == want["lr_c"], label
        assert got["le_c"] == (None if want["le_c"] is None
                               else pytest.approx(want["le_c"], rel=1e-12, abs=1e-12)), label


@pytest.mark.parametrize("jobs, cap", [(1, evaluation.MAX_BATCH_ROWS),
                                       (2, evaluation.MAX_BATCH_ROWS), (1, 1)],
                         ids=["one-batch", "jobs-2", "small-batches"])
@given(split=splits())
@settings(max_examples=40, deadline=None)
def test_splitting_a_file_at_a_segment_boundary_keeps_every_metric(jobs, cap, split):
    corpus, which, cut, config = split
    whole_files, split_files = [], []
    for i, (_, events, rows) in enumerate(corpus):
        whole_files.append((f"f{i}.csv", events, rows))
        if i == which:
            first, second = split_scene(events, rows, cut)
            split_files += [(f"f{i}a.csv", *first), (f"f{i}b.csv", *second)]
        else:
            split_files.append((f"f{i}.csv", events, rows))
    with tempfile.TemporaryDirectory() as tmp:
        whole = evaluate_directory(*write_files(Path(tmp) / "whole", whole_files), VOCAB, config)
        # the split corpus's table is concatenated from several batches, or workers
        with mock.patch.object(evaluation, "MAX_BATCH_ROWS", cap):
            split = evaluate_directory(*write_files(Path(tmp) / "split", split_files), VOCAB,
                                       EvaluationConfig(**{**vars(config), "jobs": jobs}))
    assert_split_invariant(whole, split)


# The class means: LE_CD, LR_CD and their frame-level forms, each a left-to-right
# sum over the classes in vocabulary order, divided by their number.
CLASS_MEANS = ("le_cd", "lr_cd", "le_cd_f", "lr_cd_f")


@given(corpus=st.lists(scenes(), min_size=1, max_size=3),
       order=st.permutations(range(len(VOCAB))), config=configs())
@settings(max_examples=60, deadline=None)
def test_permuting_the_vocabulary_keeps_every_metric(corpus, order, config):
    # class i of the permuted vocabulary is class order[i] of VOCAB; the
    # reference files name classes by label and stay as they are
    vocabulary = Vocabulary([VOCAB.labels[i] for i in order])
    files = [(f"f{i}.csv", events, rows) for i, (_, events, rows) in enumerate(corpus)]
    permuted = [(name, events, [(frame, order.index(cls), d) for frame, cls, d in rows])
                for name, events, rows in files]
    with tempfile.TemporaryDirectory() as tmp:
        want = evaluate_directory(*write_files(Path(tmp) / "a", files), VOCAB, config)
        got = evaluate_directory(*write_files(Path(tmp) / "b", permuted), vocabulary, config)
    assert got.per_class == want.per_class
    assert got.total.warnings == want.total.warnings
    assert got.metrics.keys() == want.metrics.keys()
    for key, value in want.metrics.items():
        if key in CLASS_MEANS and value is not None:  # classes added in another order
            assert abs(got.metrics[key] - value) <= 4 * math.ulp(value), key
        else:
            assert got.metrics[key] == value, key
