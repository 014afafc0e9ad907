"""Per-segment definition of the joint counts: class-aware localization
and location-aware detection.

The joint measurement slices predictions and references by class,
associates the two sides within each class slice, and counts, per class:

    TP = K_theta                                (associations within theta)
    FP = max(0, M - N) + min(M, N) - K_theta    (extraneous + mislocalized)
    FN = max(0, N - M)                          (independent of theta)

At segment level the instance counts M_c, N_c are the maximum
simultaneous per-frame counts within the segment, while localization
distances come from the frame-level pairs. A segment's class passes a
threshold when the mean of its frame-level matched distances is within
it. A segment-class that is active on both sides but never co-active in
any single frame has no distance evidence: it fails every threshold
below 180 degrees and passes at 180 degrees, where every conceivable
association is within range by geometry (this keeps theta = 180 equal to
the location-agnostic instance-level counting).

In the alternative "segment-mean" measurement each side of a
segment-class is collapsed to the spherical mean of its pooled DoAs and
the single representative distance is used instead; prediction-side
event identity is undefined, so this mode is reported for comparison
rather than as the default.

`segment_class_counts` is the definition that `evaluation.read_pair` +
`evaluation.score_batch` reproduce on columns and that the scalar test
oracle and the benchmark tracer replay. LE_c/LR_c, their class means
LE_CD/LR_CD, and ER_theta/F_theta are formed from the summed counts in
`evaluation.compute_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .annotations import SegmentView
from .assignment import within_threshold
from .errors import DegenerateMean
from .geometry import angular_distance, spherical_mean


@dataclass
class ClassCounts:
    """Step-4 counts of one class in one segment, plus the localization
    evidence for the class means."""

    label: str
    theta: float
    m: int
    n: int
    k: int
    k_theta: int
    tp: int
    fp: int
    fn: int
    dist_sum: float
    pair_count: int


def _step4(label: str, theta: float, m: int, n: int, k_theta: int,
           dist_sum: float, pair_count: int) -> ClassCounts:
    k = min(m, n)
    return ClassCounts(
        label=label,
        theta=theta,
        m=m,
        n=n,
        k=k,
        k_theta=k_theta,
        tp=k_theta,
        fp=max(0, m - n) + k - k_theta,
        fn=max(0, n - m),
        dist_sum=dist_sum,
        pair_count=pair_count,
    )


def segment_class_counts(
    view: SegmentView,
    theta_for,
    mode: str = "frame-average",
    warn=None,
) -> list:
    """Per-class counts for one segment.

    `theta_for` maps a class label to its threshold (a plain float is
    also accepted). `mode` selects how the segment-level localization
    evidence is formed: "frame-average" uses the mean of the frame-level
    matched distances, "segment-mean" the distance between the spherical
    means of the pooled per-side DoAs. `warn`, when given, receives a
    message for every degenerate spherical-mean fallback.
    """
    if mode not in ("frame-average", "segment-mean"):
        raise ValueError(f"unknown localization mode {mode!r}")
    if not callable(theta_for):
        fixed = float(theta_for)
        theta_for = lambda label: fixed  # noqa: E731
    out = []
    for label in sorted(view.classes):
        stats = view.classes[label]
        theta = theta_for(label)
        m, n = stats.pred_max, stats.ref_max
        k = min(m, n)
        if mode == "frame-average":
            dist_sum, pair_count = stats.pair_dist_sum, stats.pair_count
            if pair_count:
                passes = theta >= 180.0 or within_threshold(dist_sum / pair_count, theta)
            else:
                passes = theta >= 180.0
        else:
            if stats.pred_dirs and stats.ref_dirs:
                rep = _representative_distance(stats, label, view.index, warn)
                passes = theta >= 180.0 or within_threshold(rep, theta)
                dist_sum, pair_count = rep * k, k
            else:
                passes = theta >= 180.0
                dist_sum, pair_count = 0.0, 0
        out.append(_step4(label, theta, m, n, k if passes else 0, dist_sum, pair_count))
    return out


def _representative_distance(stats, label, segment_index, warn) -> float:
    # Spherical-mean collapse per side; exactly antipodal pools fall back
    # to their first member.
    try:
        p = spherical_mean(stats.pred_dirs)
    except DegenerateMean:
        p = stats.pred_dirs[0]
        if warn is not None:
            warn(f"degenerate prediction pool for {label!r} in segment {segment_index}; "
                 f"fell back to its first direction")
    try:
        r = spherical_mean(stats.ref_dirs)
    except DegenerateMean:
        r = stats.ref_dirs[0]
        if warn is not None:
            warn(f"degenerate reference pool for {label!r} in segment {segment_index}; "
                 f"fell back to its first direction")
    return angular_distance(p, r)

