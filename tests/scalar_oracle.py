"""Per-frame scalar oracle for `evaluation.score_file`.

This is the object-per-frame pipeline that `score_file` replaced, built
from the public scalar functions: `rasterize`/`densify`, one
`LocalizationAccumulator.update` per frame, `segmentize`,
`detection_counts` and `segment_class_counts`. The columnar kernel must
reproduce its `FileContribution` exactly, floats bit for bit.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from seldeval import joint
from seldeval.annotations import (
    densify,
    frame_span,
    parse_prediction,
    parse_reference,
    rasterize,
    segmentize,
)
from seldeval.detection import detection_counts
from seldeval.errors import ConfigError
from seldeval.evaluation import FileContribution, class_thresholds
from seldeval.localization import LocalizationAccumulator


def _grid_length(events, sparse_pred, config) -> int:
    ref_last = 0
    for ev in events:
        _, last = frame_span(ev.onset, ev.offset, config.frame_hop)
        ref_last = max(ref_last, last + 1)
    pred_last = max((s.index + 1 for s in sparse_pred), default=0)
    if config.duration is not None:
        total = math.ceil(config.duration / config.frame_hop - 1e-9)
        if ref_last > total or pred_last > total:
            raise ConfigError("file content extends past the configured duration")
        return total
    return max(ref_last, pred_last)


def score_file_oracle(ref_path, pred_path, vocabulary, config) -> FileContribution:
    thresholds = class_thresholds(config, vocabulary)
    contrib = FileContribution.zeros(len(config.thetas), len(vocabulary))
    contrib.n_files = 1

    events = parse_reference(ref_path, vocabulary)
    sparse = parse_prediction(pred_path, vocabulary, config.frame_hop)
    total_frames = _grid_length(events, sparse, config)
    if total_frames == 0:
        return contrib
    ref_frames = rasterize(events, config.frame_hop, total_frames)
    pred_frames = densify(sparse, total_frames)

    loc = LocalizationAccumulator(thetas=tuple(config.thetas))
    for pred, ref in zip(pred_frames, ref_frames):
        loc.update([d for _, d in pred.instances], [d for _, d in ref.instances])
    contrib.frames = loc.frames
    contrib.loc_dist = loc.dist_sum
    contrib.loc_k = loc.k_total
    contrib.loc_eq = loc.eq_frames
    contrib.loc_frame_le_sum = loc.frame_le_sum
    contrib.loc_frame_le_count = loc.frame_le_count
    contrib.loc_dist_t = np.asarray(loc.dist_theta, dtype=float)
    contrib.loc_k_t = np.asarray(loc.k_theta, dtype=np.int64)
    contrib.loc_eq_t = np.asarray(loc.eq_theta, dtype=np.int64)

    views = segmentize(pred_frames, ref_frames, config.segment_length, config.frame_hop)
    contrib.segments = len(views)
    for counts in detection_counts(views):
        contrib.det_tp += counts.tp
        contrib.det_fp += counts.fp
        contrib.det_fn += counts.fn
        contrib.det_s += counts.s
        contrib.det_d += counts.d
        contrib.det_i += counts.i

    warnings: list = []
    seg_mean = config.loc_mode == "segment-mean"
    for view in views:
        for label, stats in view.classes.items():
            ci = vocabulary.index(label)
            contrib.j_dist_f[ci] += stats.pair_dist_sum
            contrib.j_pairs_f[ci] += stats.pair_count
            contrib.j_n_f[ci] += stats.ref_frame_count
            contrib.j_k_seg[ci] += min(stats.pred_max, stats.ref_max)
            contrib.j_n_seg[ci] += stats.ref_max
            contrib.j_m_seg[ci] += stats.pred_max
            contrib.j_fn[ci] += max(0, stats.ref_max - stats.pred_max)
        for t, row in enumerate(thresholds):
            unit = joint.segment_class_counts(
                view, lambda label: float(row[vocabulary.index(label)]), config.loc_mode,
                warn=warnings.append if t == 0 else None,
            )
            u_fp = u_fn = 0
            for c in unit:
                ci = vocabulary.index(c.label)
                contrib.j_tp[t, ci] += c.tp
                contrib.j_fp[t, ci] += c.fp
                u_fp += c.fp
                u_fn += c.fn
                if t == 0 and seg_mean:
                    contrib.j_dist[ci] += c.dist_sum
                    contrib.j_pairs[ci] += c.pair_count
            u_s = min(u_fn, u_fp)
            contrib.j_s[t] += u_s
            contrib.j_d[t] += u_fn - u_s
            contrib.j_i[t] += u_fp - u_s
    if not seg_mean:
        contrib.j_dist, contrib.j_pairs = contrib.j_dist_f, contrib.j_pairs_f
    if warnings:
        name = Path(ref_path).name
        contrib.warnings = tuple(f"{name}: {w}" for w in sorted(set(warnings)))
    return contrib
