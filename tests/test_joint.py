"""Joint metrics: the per-segment definition `segment_class_counts`, and
the counts and metrics of `score_file` + `compute_metrics` on one-frame
scenes (1 s frames, one frame per segment)."""

import random

import pytest

from seldeval.annotations import EventRecord, Vocabulary, rasterize, segmentize
from seldeval.geometry import Direction
from seldeval.joint import segment_class_counts
from conftest import score_frames

VOCAB = Vocabulary(["dog", "car_horn", "cat", "child", "speech"])


def score(tmp_path, pred, ref, **settings):
    """FileContribution, metric map and per-class map of a one-frame scene."""
    return score_frames(tmp_path, [(list(pred), list(ref))], VOCAB, **settings)


def slices(contrib):
    """(M, N) of every class present on either side, in vocabulary order."""
    return {label: (int(contrib.j_m_seg[i]), int(contrib.j_n_seg[i]))
            for i, label in enumerate(VOCAB) if contrib.j_m_seg[i] or contrib.j_n_seg[i]}


def counts(contrib, label, profile=0):
    """(TP, FP, FN) of one class at the given threshold profile."""
    i = VOCAB.index(label)
    return (int(contrib.j_tp[profile][i]), int(contrib.j_fp[profile][i]),
            int(contrib.j_fn[i]))


class TestClassSlices:
    def test_matched_class(self, tmp_path):
        c, _, _ = score(tmp_path, [("dog", Direction(0, 0))], [("dog", Direction(5, 0))])
        assert slices(c) == {"dog": (1, 1)}

    def test_same_class_multiplicity(self, tmp_path):
        c, _, _ = score(tmp_path, [("dog", Direction(0, 0)), ("dog", Direction(10, 0))],
                        [("dog", Direction(5, 0))])
        assert slices(c)["dog"] == (2, 1)

    def test_disjoint_classes_two_slices(self, tmp_path):
        c, _, _ = score(tmp_path, [("cat", Direction(0, 0))], [("dog", Direction(5, 0))])
        assert slices(c) == {"cat": (1, 0), "dog": (0, 1)}

    def test_vocabulary_order(self, tmp_path):
        c, _, per_class = score(
            tmp_path, [("speech", Direction(0, 0)), ("dog", Direction(0, 0))], [])
        assert list(slices(c)) == ["dog", "speech"]
        assert list(per_class) == ["dog", "speech"]


class TestJointCounts:
    def test_perfect_slice(self, tmp_path):
        # the smallest positive threshold: identical directions are 0 apart
        d = Direction(12, 7)
        c, _, _ = score(tmp_path, [("dog", d), ("dog", d)], [("dog", d), ("dog", d)],
                        thetas=(1e-9,))
        assert counts(c, "dog") == (2, 0, 0)

    def test_extraneous_and_failed_associations_both_count_as_fp(self, tmp_path):
        # M=3, N=1, all distances beyond theta
        c, _, _ = score(
            tmp_path,
            [("dog", Direction(0, 0)), ("dog", Direction(90, 0)), ("dog", Direction(-90, 0))],
            [("dog", Direction(40, 0))],
            thetas=(10.0,),
        )
        tp, fp, fn = counts(c, "dog")
        assert tp == 0
        assert fp == 3  # max(0, 3-1) + min(3,1) - 0
        assert fn == 0

    def test_fn_independent_of_theta(self, tmp_path):
        thetas = (1.0, 10.0, 30.0, 180.0)
        c, _, _ = score(tmp_path, [("dog", Direction(0, 0))],
                        [("dog", Direction(30, 0)), ("dog", Direction(90, 0))], thetas=thetas)
        for profile in range(len(thetas)):
            assert counts(c, "dog", profile)[2] == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_counting_identities(self, tmp_path, seed):
        rng = random.Random(seed)
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        pred = [("dog", Direction(rng.uniform(-180, 179), rng.uniform(-40, 40))) for _ in range(m)]
        ref = [("dog", Direction(rng.uniform(-180, 179), rng.uniform(-40, 40))) for _ in range(n)]
        c, _, _ = score(tmp_path, pred, ref, thetas=(rng.uniform(0, 180),))
        tp, fp, fn = counts(c, "dog")
        dog = VOCAB.index("dog")
        assert (int(c.j_m_seg[dog]), int(c.j_n_seg[dog])) == (m, n)
        assert tp + fp == m
        assert fn == max(0, n - m)
        assert tp + fn <= max(m, n)
        assert int(c.j_k_seg[dog]) == min(m, n)


class TestFig4Scene:
    """Four references (dog, dog, car_horn, child), three predictions
    (dog, car_horn, cat); d1 within threshold, d2 beyond it."""

    def score(self, tmp_path, thetas=(10.0, 30.0), d1=5.0, d2=20.0):
        ref = [
            ("dog", Direction(0, 0)),
            ("dog", Direction(120, 0)),
            ("car_horn", Direction(-120, 0)),
            ("child", Direction(60, 30)),
        ]
        pred = [
            ("dog", Direction(d1, 0)),
            ("car_horn", Direction(-120 + d2, 0)),
            ("cat", Direction(-60, -30)),
        ]
        return score(tmp_path, pred, ref, thetas=thetas)

    def test_counts_at_10_degrees(self, tmp_path):
        c, _, _ = self.score(tmp_path)
        assert counts(c, "dog") == (1, 0, 1)
        assert counts(c, "car_horn") == (0, 1, 0)
        assert counts(c, "cat") == (0, 1, 0)
        assert counts(c, "child") == (0, 0, 1)
        assert int(c.j_tp[0].sum()) == 1
        assert int(c.j_fp[0].sum()) == 2
        assert int(c.j_fn.sum()) == 2

    def test_f_score_one_third(self, tmp_path):
        _, m, _ = self.score(tmp_path)
        assert m["f_theta:10"] == pytest.approx(1 / 3, abs=1e-12)

    def test_fn_same_at_both_thresholds(self, tmp_path):
        for theta in (10.0, 30.0):
            c, _, _ = self.score(tmp_path, thetas=(theta,))
            assert int(c.j_fn.sum()) == 2


class TestClassAwareLocalization:
    def test_perfect(self, tmp_path):
        d = Direction(10, 10)
        _, m, _ = score(tmp_path, [("dog", d)], [("dog", d)])
        assert m["le_cd"] == 0.0 and m["lr_cd"] == 1.0

    def test_swapped_fixture_le_cd_160(self, tmp_path):
        # two classes, each associated at the 160-degree cross distance;
        # contrast with the class-agnostic LE of 0 for the same scene
        a, b = Direction(-80, 0), Direction(80, 0)
        _, m, _ = score(tmp_path, [("speech", b), ("dog", a)], [("speech", a), ("dog", b)])
        assert m["le_cd"] == pytest.approx(160.0, abs=1e-9)
        assert m["lr_cd"] == 1.0

    def test_missed_class_drags_lr_cd(self, tmp_path):
        d = Direction(0, 0)
        _, m, per_class = score(tmp_path, [("dog", d)], [("dog", d), ("cat", d)])
        assert per_class["cat"]["lr_c"] == 0.0
        assert m["lr_cd"] == pytest.approx(0.5)

    def test_never_seen_class_excluded(self, tmp_path):
        d = Direction(0, 0)
        _, _, per_class = score(tmp_path, [("dog", d)], [("dog", d)])
        assert "cat" not in per_class

    def test_prediction_only_class_has_undefined_le_lr(self, tmp_path):
        d = Direction(0, 0)
        _, m, per_class = score(tmp_path, [("dog", d), ("cat", d)], [("dog", d)])
        assert per_class["cat"]["le_c"] is None
        assert per_class["cat"]["lr_c"] is None
        assert m["le_cd"] == 0.0  # only dog contributes

    def test_single_class_le_cd_equals_le_c(self, tmp_path):
        _, m, per_class = score(tmp_path, [("dog", Direction(7, 0))], [("dog", Direction(0, 0))])
        assert m["le_cd"] == pytest.approx(per_class["dog"]["le_c"], abs=1e-12)

    def test_cross_class_isolation(self, tmp_path):
        # perturbing only class-cat events leaves LE_dog unchanged
        ref = [("dog", Direction(0, 0)), ("cat", Direction(0, 0))]
        _, _, base = score(tmp_path, [("dog", Direction(5, 0)), ("cat", Direction(20, 0))], ref)
        _, _, moved = score(tmp_path, [("dog", Direction(5, 0)), ("cat", Direction(90, 0))], ref)
        assert base["dog"]["le_c"] == moved["dog"]["le_c"]


class TestLocationAwareDetection:
    def test_perfect(self, tmp_path):
        d = Direction(0, 0)
        _, m, _ = score(tmp_path, [("dog", d)], [("dog", d)], thetas=(1.0,))
        assert m["er_theta:1"] == 0.0 and m["f_theta:1"] == 1.0

    def test_swapped_fixture_er_one(self, tmp_path):
        a, b = Direction(-80, 0), Direction(80, 0)
        _, m, _ = score(tmp_path, [("speech", b), ("dog", a)], [("speech", a), ("dog", b)])
        assert m["er_theta:10"] == 1.0 and m["f_theta:10"] == 0.0

    def test_empty_reference(self, tmp_path):
        # undefined, reported as None rather than a number
        _, m, _ = score(tmp_path, [("dog", Direction(0, 0))], [])
        assert m["er_theta:10"] is None


class TestSegmentCounts:
    def _views(self, pred_events, ref_events, frames=100):
        pred = rasterize(pred_events, 0.02, frames)
        ref = rasterize(ref_events, 0.02, frames)
        return segmentize(pred, ref, 1.0, 0.02)

    def test_frame_average_threshold_uses_mean_distance(self):
        ref = [EventRecord("dog", 0.0, 1.0, Direction(0, 0))]
        pred = [EventRecord("dog", 0.0, 1.0, Direction(8, 0))]
        (view,) = self._views(pred, ref, frames=50)
        (c10,) = segment_class_counts(view, 10.0)
        (c5,) = segment_class_counts(view, 5.0)
        assert c10.tp == 1 and c10.fp == 0
        assert c5.tp == 0 and c5.fp == 1

    def test_theta_180_passes_even_without_frame_pairs(self):
        # pred and ref both active within the segment but never co-active
        # in a single frame: no distance evidence
        ref = [EventRecord("dog", 0.0, 0.4, Direction(0, 0))]
        pred = [EventRecord("dog", 0.5, 0.9, Direction(100, 0))]
        (view,) = self._views(pred, ref, frames=50)
        (c,) = segment_class_counts(view, 30.0)
        assert c.tp == 0 and c.fp == 1 and c.fn == 0
        (c180,) = segment_class_counts(view, 180.0)
        assert c180.tp == 1 and c180.fp == 0

    def test_per_class_threshold_map(self):
        ref = [EventRecord("dog", 0.0, 1.0, Direction(0, 0)),
               EventRecord("cat", 0.0, 1.0, Direction(90, 0))]
        pred = [EventRecord("dog", 0.0, 1.0, Direction(8, 0)),
                EventRecord("cat", 0.0, 1.0, Direction(98, 0))]
        (view,) = self._views(pred, ref, frames=50)
        thetas = {"dog": 5.0, "cat": 10.0}
        counts = segment_class_counts(view, lambda lb: thetas[lb])
        by = {c.label: c for c in counts}
        assert by["dog"].tp == 0 and by["cat"].tp == 1

    def test_segment_mean_mode_uses_representatives(self):
        ref = [EventRecord("dog", 0.0, 1.0, Direction(0, 0))]
        pred = [EventRecord("dog", 0.0, 1.0, Direction(8, 0))]
        (view,) = self._views(pred, ref, frames=50)
        (c,) = segment_class_counts(view, 10.0, mode="segment-mean")
        assert c.tp == 1
        assert c.dist_sum == pytest.approx(8.0, abs=1e-6)

    def test_theta_180_matches_instance_level_counting(self):
        ref = [
            EventRecord("dog", 0.0, 1.0, Direction(0, 0)),
            EventRecord("dog", 0.2, 0.7, Direction(90, 0)),
            EventRecord("cat", 0.0, 0.5, Direction(-90, 0)),
        ]
        pred = [EventRecord("dog", 0.1, 0.8, Direction(170, 0))]
        (view,) = self._views(pred, ref, frames=50)
        counts = segment_class_counts(view, 180.0)
        tp = sum(c.tp for c in counts)
        fp = sum(c.fp for c in counts)
        fn = sum(c.fn for c in counts)
        # instance multisets: dog M=1 N=2, cat M=0 N=1
        assert (tp, fp, fn) == (1, 0, 2)


class TestMonotonicity:
    @pytest.mark.parametrize("seed", range(3))
    def test_f_and_er_monotone_in_theta(self, tmp_path, seed):
        rng = random.Random(seed)
        frames = []
        for _ in range(30):
            pred = [("dog", Direction(rng.uniform(-180, 179), 0)) for _ in range(rng.randint(0, 3))]
            ref = [("dog", Direction(rng.uniform(-180, 179), 0)) for _ in range(rng.randint(0, 3))]
            frames.append((pred, ref))
        thetas = (1.0, 5.0, 10.0, 30.0, 90.0, 180.0)
        _, m, _ = score_frames(tmp_path, frames, VOCAB, thetas=thetas)
        f_vals = [m[f"f_theta:{t:g}"] for t in thetas]
        er_vals = [m[f"er_theta:{t:g}"] for t in thetas]
        assert f_vals == sorted(f_vals)
        assert er_vals == sorted(er_vals, reverse=True)
