"""Segment ER/F1: the per-segment counts of `detection_counts`, and the
metrics `compute_metrics` forms from `score_file`'s summed counts."""

import pytest

from seldeval.annotations import SegmentClassStats, SegmentView, Vocabulary
from seldeval.detection import DetectionCounts, detection_counts
from seldeval.geometry import Direction
from conftest import score_frames


def segment(idx, ref_labels, pred_labels):
    view = SegmentView(index=idx)
    for label in set(ref_labels) | set(pred_labels):
        view.classes[label] = SegmentClassStats(
            ref_active=label in ref_labels,
            pred_active=label in pred_labels,
        )
    return view


def score(tmp_path, segments):
    """ER and F1 of one-frame segments given as (reference, prediction) label sets."""
    labels = sorted(set().union(*(ref | pred for ref, pred in segments)) or {"a"})
    d = Direction(0, 0)
    frames = [([(lb, d) for lb in sorted(pred)], [(lb, d) for lb in sorted(ref)])
              for ref, pred in segments]
    m = score_frames(tmp_path, frames, Vocabulary(labels))[1]
    return m["er"], m["f1"]


class TestCounts:
    def test_hit(self):
        (c,) = detection_counts([segment(0, {"speech"}, {"speech"})])
        assert (c.tp, c.fp, c.fn) == (1, 0, 0)
        assert (c.s, c.d, c.i) == (0, 0, 0)

    def test_substitution(self):
        (c,) = detection_counts([segment(0, {"speech"}, {"dog"})])
        assert (c.fn, c.fp) == (1, 1)
        assert (c.s, c.d, c.i) == (1, 0, 0)

    def test_insertions(self):
        (c,) = detection_counts([segment(0, set(), {"dog", "car"})])
        assert c.i == 2 and c.s == 0 and c.d == 0

    def test_sdi_invariant(self):
        for fn in range(4):
            for fp in range(4):
                c = DetectionCounts.from_errors(tp=0, fp=fp, fn=fn, n_ref=fn)
                assert c.s == min(fn, fp)
                assert c.d == fn - c.s and c.i == fp - c.s
                assert c.s >= 0 and c.d >= 0 and c.i >= 0


class TestErrorRate:
    def test_perfect(self, tmp_path):
        er, _ = score(tmp_path, [({"a"}, {"a"}), ({"b"}, {"b"})])
        assert er == 0.0

    def test_silence_is_all_deletions(self, tmp_path):
        er, _ = score(tmp_path, [({"a", "b"}, set()), ({"a"}, set())])
        assert er == 1.0

    def test_always_on_output_exceeds_one(self, tmp_path):
        labels = {f"c{i}" for i in range(11)}
        er, _ = score(tmp_path, [({"c0"}, labels)])
        assert er == pytest.approx(10.0)

    def test_empty_reference(self, tmp_path):
        # undefined, reported as None rather than a number
        er, _ = score(tmp_path, [(set(), {"a"})])
        assert er is None


class TestF1:
    def test_perfect(self, tmp_path):
        assert score(tmp_path, [({"a"}, {"a"})])[1] == 1.0

    def test_disjoint(self, tmp_path):
        assert score(tmp_path, [({"a"}, {"b"}), ({"c"}, {"d"})])[1] == 0.0

    def test_formula(self, tmp_path):
        # TP = 1, FP = 2, FN = 2
        f1 = score(tmp_path, [({"a", "b", "c"}, {"a", "d", "e"})])[1]
        assert f1 == pytest.approx(1 / 3, abs=1e-12)

    def test_undefined(self, tmp_path):
        # empty reference and empty prediction
        assert score(tmp_path, [(set(), set())])[1] is None


class TestProperties:
    def _random_segments(self, seed, n=40):
        import random

        rng = random.Random(seed)
        labels = ["a", "b", "c", "d", "e"]
        segs = []
        for _ in range(n):
            ref = {lb for lb in labels if rng.random() < 0.4}
            pred = {lb for lb in labels if rng.random() < 0.4}
            segs.append((ref, pred))
        return segs

    @pytest.mark.parametrize("seed", range(5))
    def test_er_zero_iff_f1_one(self, tmp_path, seed):
        er, f1 = score(tmp_path, self._random_segments(seed))
        if er is None or f1 is None:
            return
        assert (er == 0.0) == (f1 == 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_doubling_dataset_invariant(self, tmp_path, seed):
        segs = self._random_segments(seed)
        er, f1 = score(tmp_path, segs)
        er2, f12 = score(tmp_path, segs + segs)
        if er is not None:
            assert er2 == pytest.approx(er, abs=1e-12)
        if f1 is not None:
            assert f12 == pytest.approx(f1, abs=1e-12)
