"""Per-segment definition of the location-agnostic detection counts.

`detection_counts` gives each segment's binary per-class TP/FP/FN and
its S/D/I decomposition; per-class instance multiplicity only matters
for the joint metrics. It is the definition that `evaluation.read_pair`
+ `evaluation.score_batch` reproduce on columns and that the scalar test
oracle and the benchmark tracer replay; ER and F1 are formed from the
summed counts in `evaluation.compute_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .annotations import SegmentView


@dataclass
class DetectionCounts:
    """Per-segment counts summed over classes. S/D/I follow the usual
    decomposition: S = min(FN, FP), D = FN - S, I = FP - S."""

    tp: int
    fp: int
    fn: int
    s: int
    d: int
    i: int
    n_ref: int

    @classmethod
    def from_errors(cls, tp: int, fp: int, fn: int, n_ref: int) -> "DetectionCounts":
        s = min(fn, fp)
        return cls(tp=tp, fp=fp, fn=fn, s=s, d=fn - s, i=fp - s, n_ref=n_ref)


def detection_counts(segments: Sequence[SegmentView]) -> list:
    """Binary per-class TP/FP/FN for every segment."""
    out = []
    for seg in segments:
        tp = fp = fn = n_ref = 0
        for stats in seg.classes.values():
            if stats.ref_active and stats.pred_active:
                tp += 1
            elif stats.pred_active:
                fp += 1
            elif stats.ref_active:
                fn += 1
            if stats.ref_active:
                n_ref += 1
        out.append(DetectionCounts.from_errors(tp, fp, fn, n_ref))
    return out

