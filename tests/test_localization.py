"""Class-agnostic LE/LR/ECR and their thresholded variants, scored by
`score_file` + `compute_metrics` on frame-list scenes."""

import numpy as np
import pytest

from seldeval.annotations import Vocabulary
from seldeval.geometry import Direction
from seldeval.synth import grid_directions
from conftest import score_frames

VOCAB = Vocabulary(["x"])


def frame(*dirs):
    return [("x", d) for d in dirs]


def score(tmp_path, pred, ref, thetas):
    """Metric map of aligned per-frame prediction and reference DoAs."""
    return score_frames(tmp_path, list(zip(pred, ref)), VOCAB, thetas=tuple(thetas))[1]


def thresholded(metrics, name, theta):
    return metrics[f"{name}_theta:{theta:g}"]


class TestBasics:
    def test_identity_is_perfect(self, tmp_path):
        frames = [frame(Direction(10 * i, 0), Direction(0, 40)) for i in range(5)]
        m = score(tmp_path, frames, frames, thetas=[10.0])
        assert m["le"] == 0.0
        assert m["lr"] == 1.0
        assert m["ecr"] == 1.0
        assert thresholded(m, "lr", 10) == 1.0
        assert thresholded(m, "ecr", 10) == 1.0

    def test_swapped_locations_still_perfect(self, tmp_path):
        # class-agnostic association pairs each prediction with the
        # nearer reference at zero distance
        ref = [frame(Direction(-80, 0), Direction(80, 0))]
        pred = [frame(Direction(80, 0), Direction(-80, 0))]
        m = score(tmp_path, pred, ref, thetas=[10.0])
        assert m["le"] == 0.0 and m["lr"] == 1.0 and m["ecr"] == 1.0

    def test_two_frame_lr_ecr_arithmetic(self, tmp_path):
        ref = [frame(Direction(0, 0), Direction(90, 0)),
               frame(Direction(0, 0), Direction(90, 0))]
        pred = [frame(Direction(0, 0)),
                frame(Direction(0, 0), Direction(90, 0))]
        m = score(tmp_path, pred, ref, thetas=[10.0])
        assert m["lr"] == pytest.approx(0.75, abs=1e-12)   # (1+2)/(2+2)
        assert m["ecr"] == pytest.approx(0.5, abs=1e-12)

    def test_thresholded_single_frame_fixture(self, tmp_path):
        # brute-force over both permutations gives matched distances {10, 10}
        pred = [frame(Direction(0, 0), Direction(90, 0))]
        ref = [frame(Direction(10, 0), Direction(100, 0))]
        m = score(tmp_path, pred, ref, thetas=[10.0])
        assert m["le"] == pytest.approx(10.0, abs=1e-9)
        assert thresholded(m, "lr", 10) == 1.0
        assert thresholded(m, "ecr", 10) == 1.0
        assert thresholded(m, "le", 10) == pytest.approx(10.0, abs=1e-9)


class TestUndefinedHandling:
    def test_all_empty_reference(self, tmp_path):
        pred = [frame(Direction(0, 0)), frame()]
        ref = [frame(), frame()]
        m = score(tmp_path, pred, ref, thetas=[10.0])
        assert m["lr"] is None
        assert m["le"] is None
        # M = N = 0 satisfies the count indicator; M > N = 0 does not
        assert m["ecr"] == pytest.approx(0.5)
        # K_theta = 0 = N holds in both frames
        assert thresholded(m, "ecr", 10) == 1.0

    def test_le_theta_undefined_when_nothing_passes(self, tmp_path):
        pred = [frame(Direction(0, 0))]
        ref = [frame(Direction(90, 0))]
        m = score(tmp_path, pred, ref, thetas=[10.0])
        assert thresholded(m, "le", 10) is None
        assert thresholded(m, "lr", 10) == 0.0


class TestProperties:
    def _random_streams(self, seed, n_frames=80):
        rng = np.random.default_rng(seed)
        grid = grid_directions()
        pred, ref = [], []
        for _ in range(n_frames):
            pred.append(frame(*(grid[int(k)] for k in rng.integers(0, len(grid), rng.integers(0, 4)))))
            ref.append(frame(*(grid[int(k)] for k in rng.integers(0, len(grid), rng.integers(0, 4)))))
        return pred, ref

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_in_theta(self, tmp_path, seed):
        pred, ref = self._random_streams(seed)
        thetas = [1.0, 5.0, 10.0, 20.0, 45.0, 90.0, 180.0]
        m = score(tmp_path, pred, ref, thetas=thetas)
        lrs = [thresholded(m, "lr", t) for t in thetas]
        ecrs = [thresholded(m, "ecr", t) for t in thetas]
        assert lrs == sorted(lrs)
        assert ecrs == sorted(ecrs)

    @pytest.mark.parametrize("seed", range(4))
    def test_le_at_180_equals_le(self, tmp_path, seed):
        pred, ref = self._random_streams(seed)
        m = score(tmp_path, pred, ref, thetas=[180.0])
        assert thresholded(m, "le", 180) == pytest.approx(m["le"], abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_rotation_invariance(self, tmp_path, seed):
        pred, ref = self._random_streams(seed, n_frames=40)

        def rotate(frames, shift):
            return [[(lb, Direction(d.azimuth + shift, d.elevation)) for lb, d in f]
                    for f in frames]

        thetas = [10.0, 30.0]
        base = score(tmp_path, pred, ref, thetas=thetas)
        rot = score(tmp_path, rotate(pred, 37.0), rotate(ref, 37.0), thetas=thetas)
        assert rot["le"] == pytest.approx(base["le"], abs=1e-6)
        assert rot["lr"] == base["lr"]
        assert rot["ecr"] == base["ecr"]
        for t in thetas:
            assert thresholded(rot, "lr", t) == pytest.approx(thresholded(base, "lr", t), abs=1e-9)
            assert thresholded(rot, "ecr", t) == pytest.approx(thresholded(base, "ecr", t), abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_le_theta_bounded_by_theta(self, tmp_path, seed):
        pred, ref = self._random_streams(seed)
        thetas = [5.0, 25.0]
        m = score(tmp_path, pred, ref, thetas=thetas)
        for t in thetas:
            if thresholded(m, "le", t) is not None:
                assert thresholded(m, "le", t) <= t
