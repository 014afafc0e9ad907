"""Per-frame definition of the class-agnostic localization sums.

`LocalizationAccumulator.update` folds one frame into the sums behind
LE, LR, ECR and their thresholded variants: predictions and references
are matched per frame purely by angular distance, class labels ignored.
It is the definition that `evaluation.read_pair` +
`evaluation.score_batch` reproduce on columns and that the scalar test
oracle and the benchmark tracer replay; the metrics themselves are
formed from the sums in `evaluation.compute_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .assignment import build_distance_matrix, hungarian, within_threshold


@dataclass
class LocalizationAccumulator:
    """Commutative per-frame sums, one `update` per frame."""

    thetas: tuple
    frames: int = 0
    dist_sum: float = 0.0
    k_total: int = 0
    n_total: int = 0
    eq_frames: int = 0
    frame_le_sum: float = 0.0
    frame_le_count: int = 0
    dist_theta: list = field(default_factory=list)
    k_theta: list = field(default_factory=list)
    eq_theta: list = field(default_factory=list)

    def __post_init__(self):
        if not self.dist_theta:
            self.dist_theta = [0.0] * len(self.thetas)
            self.k_theta = [0] * len(self.thetas)
            self.eq_theta = [0] * len(self.thetas)

    def update(self, pred_dirs: Sequence, ref_dirs: Sequence) -> None:
        """Fold in one frame given the two DoA multisets."""
        m, n = len(pred_dirs), len(ref_dirs)
        self.frames += 1
        self.n_total += n
        if m == n:
            self.eq_frames += 1
        if m == 0 or n == 0:
            if n == 0:
                for t in range(len(self.thetas)):
                    self.eq_theta[t] += 1  # K_theta = 0 = N
            return
        d = build_distance_matrix(pred_dirs, ref_dirs)
        dists = [d.values[i][j] for i, j in hungarian(d).pairs]
        k = len(dists)
        total = sum(dists)
        self.dist_sum += total
        self.k_total += k
        self.frame_le_sum += total / k
        self.frame_le_count += 1
        for t, theta in enumerate(self.thetas):
            kt = 0
            st = 0.0
            for dist in dists:
                if within_threshold(dist, theta):
                    kt += 1
                    st += dist
            self.k_theta[t] += kt
            self.dist_theta[t] += st
            if kt == n:
                self.eq_theta[t] += 1
