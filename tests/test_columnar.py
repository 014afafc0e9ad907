"""The columnar scoring kernel against its scalar oracle and building blocks."""

import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seldeval.annotations import (MAX_FRAMES, EventRecord, Vocabulary, parse_prediction,
                                  read_prediction_columns, write_reference)
from seldeval import annotations, assignment, evaluation
from seldeval.assignment import CHUNK_TOTALS, DistanceMatrix, assign_batch, hungarian
from seldeval.errors import ParseError
from seldeval.evaluation import EvaluationConfig, FileContribution, evaluate_directory, score_file
from seldeval.geometry import Direction, angles_between, angular_distance, unit_vectors
from scalar_oracle import score_file_oracle

VOCAB = Vocabulary(["dog", "cat", "speech"])
# Grid directions: exact duplicates give exact ties; (0, 0)/(180, 0) and the
# two poles are antipodal.
GRID = [(0.0, 0.0), (180.0, 0.0), (90.0, 0.0), (-90.0, 0.0), (45.0, 0.0), (0.0, 90.0),
        (0.0, -90.0), (30.0, 30.0), (-150.0, -30.0), (10.5, 0.0), (0.0, 1e-9)]
CONFIGS = [
    dict(frame_hop=0.02, segment_length=0.1),
    dict(frame_hop=0.1, segment_length=0.5),
    dict(frame_hop=0.02, segment_length=1.0),
]


def assert_same(got: FileContribution, want: FileContribution) -> None:
    for name in FileContribution.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), (f.name, a, b)
        else:
            assert type(a) is type(b), (f.name, a, b)
            assert (a.hex() == b.hex()) if isinstance(b, float) else a == b, (f.name, a, b)


def score_both(ref_events, pred_rows, config, header=False):
    with tempfile.TemporaryDirectory() as tmp:
        ref, pred = Path(tmp) / "scene.csv", Path(tmp) / "pred.csv"
        write_reference(ref, ref_events)
        lines = ["frame,class,azimuth,elevation"] if header else []
        lines += [f"{f},{c},{az!r},{el!r}" for f, c, (az, el) in pred_rows]
        pred.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        got = score_file(ref, pred, VOCAB, config)
        assert_same(got, score_file_oracle(ref, pred, VOCAB, config))
        return got


def event(label, first, last, direction, hop):
    return EventRecord(label, round(first * hop, 6), round((last + 1) * hop, 6), Direction(*direction))


def rows(cls, first, last, direction, copies=1):
    return [(f, cls, direction) for f in range(first, last + 1) for _ in range(copies)]


directions = st.sampled_from(GRID)
spans = st.tuples(st.integers(0, 60), st.integers(0, 25))


def draw_scene(draw, hop):
    """Reference events and prediction rows of one file, frames 0 to 90 at most."""
    ref_events = [event(VOCAB.labels[c], s, s + length, d, hop) for c, (s, length), d in draw(
        st.lists(st.tuples(st.integers(0, 2), spans, directions), max_size=8))]
    pred_rows = [row for c, (s, length), d, k in draw(st.lists(
        st.tuples(st.integers(0, 2), spans, directions, st.integers(1, 2)), max_size=8))
        for row in rows(c, s, s + length, d, k)]
    pred_rows += draw(st.lists(st.tuples(st.integers(0, 90), st.integers(0, 2), directions),
                               max_size=12))
    pred_rows = draw(st.permutations(pred_rows)) if len(pred_rows) < 200 else pred_rows
    return ref_events, pred_rows


def draw_config(draw, hop_cfg, duration=None):
    thetas = draw(st.lists(st.sampled_from([5.0, 10.0, 30.0, 90.0, 180.0]), min_size=1,
                           max_size=3, unique=True))
    theta_class = draw(st.sampled_from([(), (("dog", 45.0),), (("cat", 180.0), ("speech", 1.0))]))
    return EvaluationConfig(thetas=tuple(thetas), theta_class=theta_class,
                            loc_mode=draw(st.sampled_from(["frame-average", "segment-mean"])),
                            duration=duration, **hop_cfg)


@st.composite
def scenes(draw):
    hop_cfg = draw(st.sampled_from(CONFIGS))
    ref_events, pred_rows = draw_scene(draw, hop_cfg["frame_hop"])
    return ref_events, pred_rows, draw_config(draw, hop_cfg), draw(st.booleans())


HOP = 0.02
# Its unit vector differs from that of -90 deg (not so past +90 deg, which the
# azimuth's wrap to [-180, 180) rounds away).
ONE_ULP_OFF_MINUS_90 = math.nextafter(-90.0, 0.0)
CASES = {
    # two dogs on each side in one frame stream, duplicate predicted directions
    "same_class_multi_instance": (
        [event("dog", 0, 40, (0, 0), HOP), event("dog", 10, 60, (90, 0), HOP)],
        rows(0, 0, 60, (45, 0), copies=2)),
    # 2 x 2 frames where both pairings cost exactly 180, split 0 + 180 or 90 + 90
    "tie_2x2": (
        [event("dog", 0, 30, (0, 0), HOP), event("cat", 0, 30, (-90, 0), HOP)],
        rows(0, 0, 30, (0, 0)) + rows(1, 0, 30, (90, 0))),
    # 1 x N frames with equal distances
    "tie_1xn": (
        [event("dog", 0, 30, (30, 30), HOP), event("dog", 0, 30, (30, 30), HOP),
         event("cat", 0, 30, (30, 30), HOP)],
        rows(0, 0, 30, (0, 0))),
    "empty_frames_and_past_the_last_reference": (
        [event("speech", 5, 9, (10.5, 0), HOP)],
        rows(2, 7, 8, (10.5, 0)) + rows(1, 200, 230, (0, 90))),
    # active on both sides in segment 0, never in the same frame
    "never_co_active": (
        [event("cat", 0, 10, (0, 0), HOP)], rows(1, 20, 30, (0, 0))),
    # a 3 x 3 frame, then 11 predictions against 2 references, then 1 against 5
    "wide_frames_after_3x3": (
        [event(lb, 0, 0, d, HOP) for lb, d in zip(VOCAB.labels, GRID)]
        + [event(lb, 1, 1, d, HOP) for lb, d in zip(["dog", "cat"], GRID[3:])]
        + [event(lb, 2, 2, d, HOP) for lb, d in zip(["dog", "cat", "speech", "dog", "cat"], GRID[5:])],
        [(0, c, d) for c, d in zip([0, 1, 2], GRID[2:])]
        + [(1, c % 3, d) for c, d in enumerate(GRID)] + [(2, 0, GRID[7])]),
    "larger_than_3x3": (
        [event(lb, 0, 80, d, HOP) for lb, d in zip(["dog", "dog", "cat", "speech", "cat"], GRID)],
        [r for c, d in zip([0, 1, 2, 0, 1, 2], GRID[3:]) for r in rows(c, 0, 80, d)]),
    # Runs of repeated frames, each broken by a change that must be solved afresh.
    # The second prediction of frame 5 lies 1 ulp of azimuth off its reference.
    "run_broken_by_one_ulp": (
        [event("dog", 0, 11, (0, 0), HOP), event("cat", 0, 11, (-90, 0), HOP)],
        [r for f in range(12) for r in ((f, 0, (10.0, 0.0)),
                                        (f, 1, (ONE_ULP_OFF_MINUS_90 if f == 5 else -90.0, 0.0)))]),
    # the tie_2x2 frame with its two predictions in one row order, then the other
    "rows_swapped_in_the_next_frame": (
        [event("dog", 0, 11, (0, 0), HOP), event("cat", 0, 11, (-90, 0), HOP)],
        [r for f in range(12)
         for r in (((f, 0, (0.0, 0.0)), (f, 1, (90.0, 0.0))) if f % 4 < 2
                   else ((f, 1, (90.0, 0.0)), (f, 0, (0.0, 0.0))))]),
    # the same directions, the first prediction of frame 6 of another class
    "one_row_class_changed": (
        [event("dog", 0, 11, (0, 0), HOP), event("cat", 0, 11, (90, 0), HOP)],
        [r for f in range(12) for r in ((f, 1 if f == 6 else 0, (80.0, 0.0)), (f, 1, (10.0, 0.0)))]),
    # equal as floats, not as bits
    "zero_against_negative_zero": (
        [event("dog", 0, 11, (10, 0), HOP), event("cat", 0, 11, (0, -0.0), HOP)],
        [r for f in range(12) for r in ((f, 0, (0.0, -0.0) if f % 3 else (-0.0, 0.0)),
                                        (f, 1, (0.0, 0.0) if f % 2 else (-0.0, -0.0)))]),
    # frame 4 empty, frame 5 with predictions only, frame 6 with references only
    "run_interrupted_by_empty_and_one_sided_frames": (
        [event(lb, first, last, d, HOP) for lb, d in (("dog", (0, 0)), ("cat", (90, 0)))
         for first, last in ((0, 3), (6, 12))],
        [r for f in [0, 1, 2, 3, 5, 7, 8, 9, 10, 11, 12]
         for r in ((f, 0, (20.0, 0.0)), (f, 1, (70.0, 0.0)))]),
    # A, A, B, A: frame 2 has the same predictions, and its first reference moved
    "pattern_a_a_b_a": (
        [event("dog", 0, 1, (0, 0), HOP), event("dog", 2, 2, (30, 0), HOP),
         event("dog", 3, 3, (0, 0), HOP), event("cat", 0, 3, (90, 0), HOP)],
        [r for f in range(4) for r in ((f, 0, (5.0, 0.0)), (f, 1, (85.0, 0.0)))]),
}


class TestKernelEqualsOracle:
    @given(scenes())
    @settings(max_examples=150, deadline=None)
    def test_random_scenes(self, scene):
        score_both(*scene)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("loc_mode", ["frame-average", "segment-mean"])
    def test_named_scenes(self, case, loc_mode):
        ref_events, pred_rows = CASES[case]
        config = EvaluationConfig(thetas=(10.0, 30.0, 180.0), loc_mode=loc_mode,
                                  theta_class=(("dog", 45.0),))
        score_both(ref_events, pred_rows, config)
        score_both(ref_events, pred_rows[::-1], config, header=True)

    def test_antipodal_pools_under_segment_mean(self):
        ref = [event("dog", 0, 19, (0, 0), HOP), event("dog", 20, 39, (180, 0), HOP)]
        pred = rows(0, 0, 19, (0, 90)) + rows(0, 20, 39, (0, -90))
        got = score_both(ref, pred, EvaluationConfig(loc_mode="segment-mean"))
        assert len(got.warnings) == 2
        assert all("degenerate" in w for w in got.warnings)

    def test_exact_tie_takes_the_identity_pairing(self):
        # Identity 0 + 180 and swap 90 + 90 tie exactly; the lexicographically
        # smallest pairing, the identity, wins, so one pair per frame is within 10 deg.
        ref_events, pred_rows = CASES["tie_2x2"]
        got = score_both(ref_events, pred_rows, EvaluationConfig(thetas=(10.0,)))
        assert got.loc_k == 62 and got.loc_dist == 31 * 180.0
        assert got.loc_k_t.tolist() == [31] and got.loc_dist_t.tolist() == [0.0]


def write_scenes(root, scenes):
    """Each (reference events, prediction rows) scene as ref/f{i}.csv and
    pred/f{i}.csv under `root`; the (reference, prediction) path pairs."""
    (root / "ref").mkdir()
    (root / "pred").mkdir()
    paths = []
    for i, (ref_events, pred_rows) in enumerate(scenes):
        ref, pred = root / "ref" / f"f{i}.csv", root / "pred" / f"f{i}.csv"
        write_reference(ref, ref_events)
        pred.write_text("".join(f"{f},{c},{az!r},{el!r}\n" for f, c, (az, el) in pred_rows))
        paths.append((ref, pred))
    return paths


def assert_batch_equals_one_pair_at_a_time(scenes, config, cap=evaluation.MAX_BATCH_ROWS):
    """Every scene scored in one batch, and in batches of at most `cap`
    rows, gives a table whose rows are score_file's FileContributions;
    returns those."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_scenes(Path(tmp), scenes)
        want = [score_file(ref, pred, VOCAB, config) for ref, pred in paths]
        one = evaluation.score_batch([evaluation.read_pair(ref, pred, VOCAB, config, {})
                                      for ref, pred in paths], VOCAB, config)
        with mock.patch.object(evaluation, "MAX_BATCH_ROWS", cap):
            capped = evaluation._score_pairs(paths, VOCAB, config)
    for got in (one, capped):
        assert len(got.frames) == len(want)
        for i, b in enumerate(want):
            assert_same(got[i], b)
    return want


def batch_sizes(paths, config):
    """The number of pairs in each batch that `_score_pairs` scores."""
    sizes, score = [], evaluation.score_batch
    with mock.patch.object(evaluation, "score_batch",
                           lambda batch, *a: sizes.append(len(batch)) or score(batch, *a)):
        evaluation._score_pairs(paths, VOCAB, config)
    return sizes


@st.composite
def batches(draw):
    hop_cfg = draw(st.sampled_from(CONFIGS))
    hop = hop_cfg["frame_hop"]
    scenes = [draw_scene(draw, hop) for _ in range(draw(st.integers(1, 4)))]
    # the scenes reach frame 90; 137 frames is no whole number of segments
    frames = draw(st.sampled_from([None, 100, 137]))
    config = draw_config(draw, hop_cfg, None if frames is None else round(frames * hop, 6))
    return scenes, config, draw(st.sampled_from([1, 60, 400, evaluation.MAX_BATCH_ROWS]))


STATIC = ([event("dog", 0, 99, (0, 0), HOP), event("dog", 0, 99, (90, 0), HOP)],
          [(f, 0, d) for f in range(100) for d in ((10.0, 0.0), (80.0, 0.0))])
ANTIPODAL = ([event("dog", 0, 19, (0, 0), HOP), event("dog", 20, 39, (180, 0), HOP)],
             rows(0, 0, 19, (0, 90)) + rows(0, 20, 39, (0, -90)))


class TestBatchEqualsOnePairAtATime:
    @given(batches())
    @settings(max_examples=100, deadline=None)
    def test_random_batches(self, batch):
        assert_batch_equals_one_pair_at_a_time(*batch)

    @pytest.mark.parametrize("duration", [None, 3.0])
    @pytest.mark.parametrize("loc_mode", ["frame-average", "segment-mean"])
    def test_empty_prediction_and_reference_without_events(self, duration, loc_mode):
        ref_events, pred_rows = CASES["same_class_multi_instance"]
        config = EvaluationConfig(duration=duration, loc_mode=loc_mode,
                                  theta_class=(("dog", 45.0), ("cat", 5.0)))
        got = assert_batch_equals_one_pair_at_a_time(
            [(ref_events, []), ([], pred_rows), ([], []), (ref_events, pred_rows)], config)
        assert got[2].frames == (0 if duration is None else 150)

    @pytest.mark.parametrize("duration", [None, 1.01])
    def test_degenerate_pool_in_the_second_file(self, duration):
        config = EvaluationConfig(loc_mode="segment-mean", duration=duration)
        got = assert_batch_equals_one_pair_at_a_time(
            [CASES["tie_2x2"], ANTIPODAL, CASES["tie_2x2"]], config)
        assert [len(c.warnings) for c in got] == [0, 2, 0]
        # the segment index is the file's own
        assert got[1].warnings[0].startswith("f1.csv: ") and "in segment 0;" in got[1].warnings[0]

    def test_repeated_frames_run_across_the_file_boundary(self, monkeypatch):
        # Both files repeat one frame; the second copies the first file's pairs.
        solved = []
        solve = evaluation.assign_batch
        monkeypatch.setattr(evaluation, "assign_batch",
                            lambda dist, m, n: solved.append(len(m)) or solve(dist, m, n))
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_scenes(Path(tmp), [STATIC, STATIC])
            got = evaluation._score_pairs(paths, VOCAB, EvaluationConfig())
        assert solved == [2]  # one frame problem and one slice problem
        monkeypatch.undo()
        assert_batch_equals_one_pair_at_a_time([STATIC, STATIC], EvaluationConfig())
        assert [c.loc_k for c in got] == [200, 200]

    @pytest.mark.parametrize("cap, sizes", [(1, [1, 1, 1, 1]), (401, [1, 1, 1, 1]), (800, [2, 2]),
                                            (1000, [2, 2]), (1200, [3, 1]), (10 ** 6, [4])])
    def test_row_cap_splits_the_batch(self, monkeypatch, cap, sizes):
        # STATIC has 400 rows, 200 on each side; a batch that reaches the cap is full
        monkeypatch.setattr(evaluation, "MAX_BATCH_ROWS", cap)
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_scenes(Path(tmp), [STATIC] * 4)
            assert batch_sizes(paths, EvaluationConfig()) == sizes
        assert_batch_equals_one_pair_at_a_time([STATIC] * 4, EvaluationConfig(), cap)

    @pytest.mark.parametrize("cap, steps", [(400, "rsrsrsrs"), (800, "rrsrrs"), (1000, "rrrsrs")])
    def test_full_batch_scored_before_the_next_read(self, monkeypatch, cap, steps):
        # so a batch's rows and the next pair's are held together only below the cap
        log = []
        read, score = evaluation.read_pair, evaluation.score_batch
        monkeypatch.setattr(evaluation, "read_pair", lambda *a: log.append("r") or read(*a))
        monkeypatch.setattr(evaluation, "score_batch", lambda *a: log.append("s") or score(*a))
        monkeypatch.setattr(evaluation, "MAX_BATCH_ROWS", cap)
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_scenes(Path(tmp), [STATIC] * 4)
            evaluation._score_pairs(paths, VOCAB, EvaluationConfig())
        assert "".join(log) == steps

    @pytest.mark.parametrize("cap, sizes", [(evaluation.MAX_BATCH_ROWS, [4]), (800, [2, 2])],
                             ids=["one-batch", "row-cap"])
    def test_max_frame_grids_batch_by_rows(self, monkeypatch, cap, sizes):
        # four grids of MAX_FRAMES frames share a batch, offset up to about frame 3 * 2**31;
        # only the rows close one
        config = EvaluationConfig(duration=MAX_FRAMES * 0.02)
        monkeypatch.setattr(evaluation, "MAX_BATCH_ROWS", cap)
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_scenes(Path(tmp), [STATIC] * 4)
            assert batch_sizes(paths, config) == sizes
        for got in assert_batch_equals_one_pair_at_a_time([STATIC] * 4, config, cap):
            assert got.frames == MAX_FRAMES


class TestSubtractionAndWarnings:
    def _scene(self, root, antipodal):
        ref, pred = root / "ref", root / "pred"
        ref.mkdir(parents=True)
        pred.mkdir()
        (ref / "vocabulary.txt").write_text("dog\ncat\nspeech\n")
        for i in range(3):
            second = (180.0, 0.0) if antipodal and i < 2 else (90.0, 0.0)
            write_reference(ref / f"f{i}.csv", [event("dog", 0, 19, (0, 0), 0.02),
                                                event("dog", 20, 39, second, 0.02)])
            (pred / f"f{i}.csv").write_text("".join(f"{f},0,0.0,0.0\n" for f in range(40)))
        return ref, pred

    def test_frame_average_report_has_no_segment_mean_warnings(self, tmp_path):
        ref, pred = self._scene(tmp_path, antipodal=True)
        plain = evaluate_directory(ref, pred, VOCAB, EvaluationConfig())
        assert plain.total.warnings == ()
        seg = evaluate_directory(ref, pred, VOCAB, EvaluationConfig(loc_mode="segment-mean"))
        assert [w.split(":")[0] for w in seg.total.warnings] == ["f0.csv", "f1.csv"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_table_rows_keep_each_files_warnings(self, tmp_path, monkeypatch, jobs):
        # one batch per file, so the table is concatenated from batches (and workers)
        monkeypatch.setattr(evaluation, "MAX_BATCH_ROWS", 1)
        ref, pred = self._scene(tmp_path, antipodal=True)
        result = evaluate_directory(ref, pred, VOCAB,
                                    EvaluationConfig(loc_mode="segment-mean", jobs=jobs))
        assert result.files == ["f0.csv", "f1.csv", "f2.csv"] and len(result.per_file.frames) == 3
        rows = [result.per_file[i].warnings for i in range(3)]
        assert [len(w) for w in rows] == [1, 1, 0]
        assert all(w.startswith(f"{name}: ") for name, ws in zip(result.files, rows) for w in ws)
        assert result.total.warnings == rows[0] + rows[1]


class TestLargeFrameIndex:
    def test_memory_follows_rows_not_grid(self, tmp_path):
        ref, pred = tmp_path / "ref.csv", tmp_path / "pred.csv"
        write_reference(ref, [EventRecord("dog", 0.0, 1.0, Direction(10, 0))])
        pred.write_text(f"{10 ** 7},0,10,0\n")
        tracemalloc.start()
        try:
            got = score_file(ref, pred, VOCAB, EvaluationConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frames = 10 ** 7 + 1
        assert got.frames == frames
        # every frame has M = N except the 50 reference frames and the last one
        assert got.loc_eq == frames - 51
        assert got.segments == math.ceil(frames / 50)
        assert got.det_tp == 0 and got.det_fp == 1 and got.det_fn == 1
        assert peak < 20 * 2 ** 20


class TestRunReuse:
    def test_static_scene_solves_one_problem_per_pass(self, monkeypatch):
        # Every frame, and every (frame, class) slice, repeats the one before.
        solved = []
        solve = evaluation.assign_batch
        monkeypatch.setattr(evaluation, "assign_batch",
                            lambda dist, m, n: solved.append(len(m)) or solve(dist, m, n))
        ref = [event("dog", 0, 499, (0, 0), HOP), event("dog", 0, 499, (90, 0), HOP)]
        pred = [(f, 0, d) for f in range(500) for d in ((10.0, 0.0), (80.0, 0.0))]
        got = score_both(ref, pred, EvaluationConfig())
        assert solved == [2]  # one frame problem and one slice problem, in one call
        assert got.loc_k == 1000 and got.j_pairs_f.tolist() == [1000, 0, 0]


class TestFrameTotals:
    def test_three_pair_frame_total_adds_left_to_right(self):
        # A frame's distances are added one after another from 0.0, in the kernel
        # as in LocalizationAccumulator, on every Python: on this frame that total
        # differs from the correctly rounded one (math.fsum, or the compensated
        # sum() of Python 3.12 on).
        refs = [(0.0, 0.0), (120.0, 0.0), (-120.0, 0.0)]
        for step in range(1, 1000):
            preds = [(az + 0.01 * step * (q + 1), el) for q, (az, el) in enumerate(refs)]
            d = [angular_distance(Direction(*p), Direction(*r)) for p, r in zip(preds, refs)]
            total = (d[0] + d[1]) + d[2]
            if total != math.fsum(d):
                break
        else:
            pytest.fail("no frame whose left-to-right and correctly rounded sums differ")
        # frame 1 repeats frame 0 and takes its total
        events = [event(label, 0, 1, r, 0.02) for label, r in zip(VOCAB, refs)]
        got = score_both(events, [(f, q, p) for f in (0, 1) for q, p in enumerate(preds)],
                         EvaluationConfig())
        assert got.loc_dist == total + total and got.loc_k == 6


class TestPredictionColumns:
    def test_fallback_equals_fast_path(self, tmp_path):
        body = "3,1,10.5,-20\n0,0,-190,90\n3,2,359.9,0\n\n1,0,0,-0.0\n"
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        fast.write_text(body)
        # np.loadtxt refuses a quoted field, a `_` separator and a non-ASCII digit (here
        # ARABIC-INDIC DIGIT ZERO), which the csv module, int() and float() take
        slow.write_text("frame,class,az,el\n" + body.replace("3,1", '"3",1')
                        .replace("10.5,-20", "1_0.5,-2\u0660"), encoding="utf-8")
        a, b = read_prediction_columns(fast, VOCAB), read_prediction_columns(slow, VOCAB)
        assert a[0].tolist() == [3, 0, 3, 1] and a[1].tolist() == [1, 0, 2, 0]
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("head", ["frame,class,az,el\n", "\n \nframe,class,az,el\n",
                                      '"frame\n",class,az,el\r\n', "\ufeff frame , class,az,el\n"])
    def test_header_files_take_the_fast_path(self, tmp_path, monkeypatch, head):
        body = f"3,1,10.5,-20\n0,0,-190,90\n\n{MAX_FRAMES - 1},2,359.9,0\n1,0,0,-0.0\n"
        plain, header = tmp_path / "plain.csv", tmp_path / "header.csv"
        plain.write_text(body)
        header.write_text(head + body, encoding="utf-8")

        def per_row(*args):
            raise AssertionError("read row by row")
        monkeypatch.setattr(annotations, "_prediction_rows", per_row)
        want = read_prediction_columns(plain, VOCAB)
        for x, y in zip(read_prediction_columns(header, VOCAB), want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert want[0].tolist() == [3, 0, MAX_FRAMES - 1, 1]

    @pytest.mark.parametrize("quote", ["", '"'], ids=["fast", "per-row"])
    def test_frame_bound_on_both_paths(self, tmp_path, monkeypatch, quote):
        # np.loadtxt refuses a quoted field, so the per-row parser reads those files
        read = []
        per_row = annotations._prediction_rows
        monkeypatch.setattr(annotations, "_prediction_rows",
                            lambda text, path, vocabulary: read.append(path) or per_row(
                                text, path, vocabulary))
        ref, last, over = (tmp_path / name for name in ("ref.csv", "last.csv", "over.csv"))
        write_reference(ref, [EventRecord("dog", 0.0, 1.0, Direction(10, 0))])
        last.write_text(f"0,0,10,0\n{quote}{MAX_FRAMES - 1}{quote},1,20,0\n")
        over.write_text(f"0,0,10,0\n{quote}{MAX_FRAMES}{quote},1,20,0\n")
        got = score_file(ref, last, VOCAB, EvaluationConfig())
        assert (got.frames, got.det_fp) == (MAX_FRAMES, 1)
        with pytest.raises(ParseError, match=re.escape(f"not below {MAX_FRAMES} [{over}:2]")):
            read_prediction_columns(over, VOCAB)
        assert read == ([last, over] if quote else [over])

    def test_quoted_first_row_is_data(self, tmp_path):
        # the csv module reads "0" as 0, so the row is data; np.loadtxt refuses the
        # quotes and the per-row parser reads the file
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("0,0,10.0,0.0\n5,1,20.0,0.0\n")
        quoted.write_text('"0",0,10.0,0.0\n5,1,20.0,0.0\n')
        got = read_prediction_columns(quoted, VOCAB)
        for x, y in zip(got, read_prediction_columns(plain, VOCAB)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert got[0].tolist() == [0, 5]

    @pytest.mark.parametrize("text", ["", "\n\n", "0,0,0,0\n0,5,0,0\n", "0,0,nan,0\n",
                                      "0,0,0,91\n", "1.0,0,0,0\n", f"{2 ** 63},0,0,0\n",
                                      f"{2 ** 63 - 1},0,0,0\n", f"{MAX_FRAMES - 1},0,0,0\n",
                                      f"{MAX_FRAMES},0,0,0\n",
                                      # a quoted blank row is skipped, a quoted quote is one field;
                                      # np.loadtxt refuses both, and the per-row parser reads them
                                      '0,0,10,0\n"",""\n1,0,20,0\n', '0,0,10,0\n""""\n',
                                      # int() and float() take `_` separators and non-ASCII digits
                                      "1_0,0,10,0\n", "0,0,0,\u0660\n"])
    def test_rejected_files_behave_as_parse_prediction(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_text(text, encoding="utf-8")
        try:
            expected = parse_prediction(path, VOCAB)
        except Exception as exc:  # noqa: BLE001 - the same error must come back
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                read_prediction_columns(path, VOCAB)
        else:
            frame, _, unit = read_prediction_columns(path, VOCAB)
            assert len(frame) == sum(len(s.instances) for s in expected) and unit.shape[1] == 3

    def test_per_row_files_peak_no_higher_than_the_fast_path(self, tmp_path, monkeypatch):
        # The per-row path fills the same column array as np.loadtxt, with no object
        # per row, so MAX_PREDICTION_BYTES bounds both paths' peaks alike.
        read = []
        per_row = annotations._prediction_rows
        monkeypatch.setattr(annotations, "_prediction_rows",
                            lambda text, path, vocabulary: read.append(path.stem) or per_row(
                                text, path, vocabulary))
        peaks = {}
        for name, row in [("ascii", "0,0,0,0\n"), ("underscore", "1_0,0,10,0\n"),
                          ("arabic", "0,0,0,\u0660\n")]:
            path = tmp_path / f"{name}.csv"
            path.write_text(row * 50_000, encoding="utf-8")
            tracemalloc.start()
            try:
                frame, _, _ = read_prediction_columns(path, VOCAB)
                peaks[name] = tracemalloc.get_traced_memory()[1] / path.stat().st_size
            finally:
                tracemalloc.stop()
            assert len(frame) == 50_000
        assert read == ["underscore", "arabic"]
        assert max(peaks["underscore"], peaks["arabic"]) <= peaks["ascii"], peaks


angles = st.floats(-720, 720, allow_nan=False) | st.sampled_from([-180.0, 180.0, 1e-300, -0.0])
elevations = st.floats(-90, 90, allow_nan=False) | st.sampled_from([-90.0, 90.0, -0.0])


class TestGeometryColumns:
    @given(st.lists(st.tuples(angles, elevations), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_units_and_angles_bit_equal(self, pairs):
        az, el = np.array(pairs).T
        units = unit_vectors(az, el)
        dirs = [Direction(a, e) for a, e in pairs]
        assert [tuple(u) for u in units.tolist()] == [d.unit for d in dirs]
        # every direction against every other, itself, and its antipode
        anti = [Direction(d.azimuth + 180.0, -d.elevation) for d in dirs]
        for others in (dirs[::-1], dirs, anti):
            got = angles_between(units, np.array([d.unit for d in others]))
            want = [angular_distance(a, b) for a, b in zip(dirs, others)]
            assert got.tolist() == want


def assert_batch_equals_hungarian(blocks) -> None:
    """assign_batch on the row-major blocks gives hungarian's pairs and distances."""
    m, n = (np.array(side) for side in zip(*[(len(b), len(b[0])) for b in blocks]))
    group, i, j, dist = assign_batch(np.array([v for b in blocks for r in b for v in r]), m, n)
    at = np.searchsorted(group, np.arange(len(blocks) + 1))
    for g, block in enumerate(blocks):
        want = hungarian(DistanceMatrix(block)).pairs
        mine = slice(at[g], at[g + 1])
        assert tuple(zip(i[mine].tolist(), j[mine].tolist())) == want, (g, block)
        assert dist[mine].tolist() == [block[a][b] for a, b in want]


def near(rng, v):
    """v, or v moved by 1 ulp, or by about the enumeration's tie margin."""
    return rng.choice([v, v, math.nextafter(v, 0.0), math.nextafter(v, 180.0),
                       min(v + 1e-9, 180.0), min(v + 3e-9, 180.0)])


def tie_heavy_block(rng, rows, cols):
    block = [[near(rng, rng.choice([0.0, 10.0, 45.0, 90.0, 180.0, rng.uniform(0, 180)]))
              for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, 2)):  # duplicated rows and columns tie exactly
        if rows > 1:
            block[rng.randrange(rows)] = list(block[rng.randrange(rows)])
        if cols > 1:
            a, b = rng.randrange(cols), rng.randrange(cols)
            for row in block:
                row[a] = row[b]
    return block


class TestAssignBatch:
    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_equals_hungarian(self, seed):
        # up to 8 x 8: past the enumeration's 7 x 7, both sides larger; and
        # thin blocks up to 3 x 12 and 12 x 3 in the same batch
        rng = random.Random(seed)
        shapes = [rng.choice([(rng.randint(1, 8), rng.randint(1, 8)),
                              (rng.randint(1, 3), rng.randint(8, 12)),
                              (rng.randint(8, 12), rng.randint(1, 3))])
                  for _ in range(rng.randint(1, 12))]
        assert_batch_equals_hungarian([tie_heavy_block(rng, m, n) for m, n in shapes])

    @pytest.mark.parametrize("shapes", [
        [(3, 3), (2, 11)], [(3, 3), (2, 11), (1, 5)], [(4, 4), (12, 3)], [(2, 12), (3, 4)],
        [(1, 1), (2, 2), (1, 10), (10, 1), (1, 300), (300, 1), (2, 9)],
    ])
    def test_every_shape_keeps_its_own_bucket(self, shapes):
        rng = random.Random(len(shapes))
        for order in (shapes, shapes[::-1]):
            assert_batch_equals_hungarian(
                [[[rng.uniform(0, 180) for _ in range(n)] for _ in range(m)] for m, n in order])

    @pytest.mark.parametrize("chunk", [1, 50, CHUNK_TOTALS])
    def test_buckets_span_several_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(assignment, "CHUNK_TOTALS", chunk)
        rng = random.Random(chunk)
        # 3 x 3 takes 6 totals a problem, 5 x 7 and 7 x 5 share one bucket of 2520
        shapes = [(3, 3)] * 3000 + [(2, 5), (5, 2)] * 40 + [(5, 7), (7, 5)] * 4
        rng.shuffle(shapes)
        blocks = [[[rng.uniform(0, 180) for _ in range(n)] for _ in range(m)] for m, n in shapes]
        assert_batch_equals_hungarian(blocks)

    def test_shapes_past_max_injections_go_to_the_exact_kernel(self, monkeypatch):
        # 6 x 7 and 7 x 7 have 5040 pairings, 4 x 9 has 3024, 3 x 15 has 2730
        # and 2 x 51 has 2550; 5 x 7, 4 x 8, 3 x 14 and 2 x 50 have at most 2520
        rng = random.Random(9)
        exact = [(6, 7), (7, 6), (7, 7), (4, 9), (15, 3), (2, 51)]
        shapes = exact + [(5, 7), (7, 5), (8, 4), (3, 14), (50, 2)]
        blocks = [[[rng.uniform(0, 180) for _ in range(n)] for _ in range(m)] for m, n in shapes]
        solved = []
        solve = assignment._solve_padded
        monkeypatch.setattr(assignment, "_solve_padded",
                            lambda v, m, n: solved.append((m, n)) or solve(v, m, n))
        assign_batch(np.array([v for b in blocks for r in b for v in r]),
                     *(np.array(side) for side in zip(*shapes)))
        assert sorted(solved) == sorted(exact)
        monkeypatch.undo()
        assert_batch_equals_hungarian(blocks)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2), (5, 5), (6, 7), (7, 6), (7, 7), (8, 3)])
    def test_runner_up_close_to_best(self, shape):
        # Only the identity and one swap of it are cheap; the swap costs 1 ulp
        # of a cell, or about the enumeration's tie margin, more or less.
        rng = random.Random(sum(shape))
        rows, cols = shape
        blocks = []
        for _ in range(40):
            block = [[180.0] * cols for _ in range(rows)]
            for r in range(min(shape)):
                block[r][r] = rng.uniform(0, 90)
            a, b = rng.sample(range(min(shape)), 2)
            block[a][b] = block[a][a]
            block[b][a] = rng.choice([math.nextafter(block[b][b], 0.0),
                                      math.nextafter(block[b][b], 180.0),
                                      block[b][b] + rng.choice([-1e-8, -2e-9, -1e-9, 1e-9, 2e-9, 1e-8])])
            blocks.append(block)
            blocks.append([[rng.choice([45.0, math.nextafter(45.0, 0.0), math.nextafter(45.0, 90.0)])
                            for _ in range(cols)] for _ in range(rows)])
        assert_batch_equals_hungarian(blocks)

    def test_duplicated_rows_and_columns_tie_exactly(self):
        rng = random.Random(5)
        blocks = []
        for rows, cols in [(3, 3), (3, 5), (5, 3), (4, 4), (6, 6), (7, 5), (7, 7)]:
            for _ in range(10):
                row = [rng.choice([10.0, 20.0, 30.0]) for _ in range(cols)]
                blocks.append([list(row) for _ in range(rows)])
                col = [rng.uniform(0, 180) for _ in range(rows)]
                blocks.append([[col[r]] * cols for r in range(rows)])
        assert_batch_equals_hungarian(blocks)

    def test_no_tables_built_at_import(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import seldeval.cli, seldeval.assignment as a; "
                "print(a._injections.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path), check=True)
        assert out.stdout.strip() == "0"
