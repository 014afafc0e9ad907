"""Batch evaluation pipeline: per-file scoring, mergeable accumulators,
metric reports, confidence intervals, ranking, and correlation.

Every file contributes a bundle of commutative sums (FileContribution),
so datasets merge associatively and jackknife partials are cheap
re-merges of cached per-file contributions instead of re-parses. Files
are always merged in sorted filename order, which keeps the output
byte-stable regardless of worker scheduling.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import joint as joint_mod
from .annotations import (
    Vocabulary,
    densify,
    frame_span,
    frames_per_segment,
    parse_prediction,
    parse_reference,
    rasterize,
    segmentize,
)
from .detection import detection_counts
from .errors import ConfigError, MetricUndefined, MissingPair, UndefinedPartial
from .localization import LocalizationAccumulator
from .stats import JackknifeEstimate, RankTable, build_rank_table, jackknife_ci, spearman
from .errors import DegenerateRanks

LOC_MODES = ("frame-average", "segment-mean")
LE_MODES = ("micro", "macro")


def _fmt_deg(theta: float) -> str:
    return f"{theta:g}"


@dataclass(frozen=True)
class ThresholdProfile:
    """One configured angular threshold, with optional per-class overrides
    that replace the global value for those classes."""

    theta: float
    per_class: tuple = ()  # ((label, theta), ...) sorted

    @property
    def key(self) -> str:
        return _fmt_deg(self.theta)

    def theta_for(self, label: str) -> float:
        for lb, th in self.per_class:
            if lb == label:
                return th
        return self.theta


@dataclass(frozen=True)
class EvaluationConfig:
    frame_hop: float = 0.02
    segment_length: float = 1.0
    thetas: tuple = (10.0, 30.0)
    theta_class: tuple = ()  # ((label, theta), ...)
    loc_mode: str = "frame-average"
    le_mode: str = "micro"
    confidence: float = 0.95
    duration: float | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.frame_hop <= 0:
            raise ConfigError(f"frame hop must be positive, got {self.frame_hop}")
        frames_per_segment(self.segment_length, self.frame_hop)
        if not self.thetas:
            raise ConfigError("at least one threshold is required")
        for t in self.thetas:
            if not 0.0 < t <= 180.0:
                raise ConfigError(f"threshold {t} outside (0, 180]")
        if len({_fmt_deg(t) for t in self.thetas}) != len(self.thetas):
            raise ConfigError("duplicate thresholds configured")
        for _, t in self.theta_class:
            if not 0.0 < t <= 180.0:
                raise ConfigError(f"per-class threshold {t} outside (0, 180]")
        if self.loc_mode not in LOC_MODES:
            raise ConfigError(f"localization mode must be one of {LOC_MODES}")
        if self.le_mode not in LE_MODES:
            raise ConfigError(f"LE mode must be one of {LE_MODES}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.duration is not None and self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def profiles(self) -> tuple:
        overrides = tuple(sorted(self.theta_class))
        return tuple(ThresholdProfile(t, overrides) for t in self.thetas)


@dataclass
class FileContribution:
    """Commutative sums contributed by one file (or a merge of files).

    Supports + and - so that leave-one-out subsets can be formed by
    subtracting a single file from the grand total.
    """

    n_files: int = 0
    frames: int = 0
    segments: int = 0
    # class-agnostic localization, frame level
    loc_dist: float = 0.0
    loc_k: int = 0
    loc_n: int = 0
    loc_eq: int = 0
    loc_frame_le_sum: float = 0.0
    loc_frame_le_count: int = 0
    loc_dist_t: np.ndarray = None
    loc_k_t: np.ndarray = None
    loc_eq_t: np.ndarray = None
    # location-agnostic detection, segment level, binary activity
    det_tp: int = 0
    det_fp: int = 0
    det_fn: int = 0
    det_s: int = 0
    det_d: int = 0
    det_i: int = 0
    det_nref: int = 0
    # joint metrics, per class
    j_dist_f: np.ndarray = None    # frame-pair distance sums
    j_pairs_f: np.ndarray = None   # frame-pair counts (= frame-level K_c)
    j_n_f: np.ndarray = None       # frame-level reference counts
    j_k_seg: np.ndarray = None     # segment-level min(M_c, N_c)
    j_n_seg: np.ndarray = None     # segment-level N_c
    j_m_seg: np.ndarray = None     # segment-level M_c
    j_fn: np.ndarray = None        # threshold-independent false negatives
    j_nref_seg: int = 0
    j_tp: np.ndarray = None        # (profiles, classes)
    j_fp: np.ndarray = None
    j_s: np.ndarray = None         # (profiles,)
    j_d: np.ndarray = None
    j_i: np.ndarray = None
    # segment-mean measurement parallels
    sm_dist: np.ndarray = None
    sm_pairs: np.ndarray = None
    sm_tp: np.ndarray = None
    sm_fp: np.ndarray = None
    sm_s: np.ndarray = None
    sm_d: np.ndarray = None
    sm_i: np.ndarray = None
    warnings: tuple = ()

    @classmethod
    def zeros(cls, n_profiles: int, n_classes: int) -> "FileContribution":
        c = cls()
        for name in ("loc_dist_t",):
            setattr(c, name, np.zeros(n_profiles))
        for name in ("loc_k_t", "loc_eq_t"):
            setattr(c, name, np.zeros(n_profiles, dtype=np.int64))
        for name in ("j_dist_f", "sm_dist"):
            setattr(c, name, np.zeros(n_classes))
        for name in ("j_pairs_f", "j_n_f", "j_k_seg", "j_n_seg", "j_m_seg", "j_fn", "sm_pairs"):
            setattr(c, name, np.zeros(n_classes, dtype=np.int64))
        for name in ("j_tp", "j_fp", "sm_tp", "sm_fp"):
            setattr(c, name, np.zeros((n_profiles, n_classes), dtype=np.int64))
        for name in ("j_s", "j_d", "j_i", "sm_s", "sm_d", "sm_i"):
            setattr(c, name, np.zeros(n_profiles, dtype=np.int64))
        return c

    def _combine(self, other: "FileContribution", sign: int) -> "FileContribution":
        out = FileContribution()
        for f in dataclasses.fields(self):
            if f.name == "warnings":
                continue
            a = getattr(self, f.name)
            b = getattr(other, f.name)
            setattr(out, f.name, a + b if sign > 0 else a - b)
        out.warnings = self.warnings + other.warnings if sign > 0 else ()
        return out

    def __add__(self, other: "FileContribution") -> "FileContribution":
        return self._combine(other, +1)

    def __sub__(self, other: "FileContribution") -> "FileContribution":
        return self._combine(other, -1)


def _grid_length(events, sparse_pred, config: EvaluationConfig) -> int:
    ref_last = 0
    for ev in events:
        _, last = frame_span(ev.onset, ev.offset, config.frame_hop)
        ref_last = max(ref_last, last + 1)
    pred_last = max((s.index + 1 for s in sparse_pred), default=0)
    if config.duration is not None:
        total = math.ceil(config.duration / config.frame_hop - 1e-9)
        if ref_last > total or pred_last > total:
            raise ConfigError(
                f"file content extends past the configured duration {config.duration} s"
            )
        return total
    return max(ref_last, pred_last)


def score_file(ref_path, pred_path, vocabulary: Vocabulary, config: EvaluationConfig) -> FileContribution:
    """Parse, rasterize, and accumulate every metric for one file pair."""
    profiles = config.profiles
    contrib = FileContribution.zeros(len(profiles), len(vocabulary))
    contrib.n_files = 1

    events = parse_reference(ref_path, vocabulary)
    sparse = parse_prediction(pred_path, vocabulary, config.frame_hop)
    total_frames = _grid_length(events, sparse, config)
    if total_frames == 0:
        return contrib
    ref_frames = rasterize(events, config.frame_hop, total_frames)
    pred_frames = densify(sparse, total_frames)

    thetas = tuple(p.theta for p in profiles)
    loc = LocalizationAccumulator(thetas=thetas)
    for pred, ref in zip(pred_frames, ref_frames):
        loc.update([d for _, d in pred.instances], [d for _, d in ref.instances])
    contrib.frames = loc.frames
    contrib.loc_dist = loc.dist_sum
    contrib.loc_k = loc.k_total
    contrib.loc_n = loc.n_total
    contrib.loc_eq = loc.eq_frames
    contrib.loc_frame_le_sum = loc.frame_le_sum
    contrib.loc_frame_le_count = loc.frame_le_count
    contrib.loc_dist_t = np.asarray(loc.dist_theta, dtype=float)
    contrib.loc_k_t = np.asarray(loc.k_theta, dtype=np.int64)
    contrib.loc_eq_t = np.asarray(loc.eq_theta, dtype=np.int64)

    views = segmentize(pred_frames, ref_frames, config.segment_length, config.frame_hop)
    contrib.segments = len(views)
    warnings: list = []
    for counts in detection_counts(views):
        contrib.det_tp += counts.tp
        contrib.det_fp += counts.fp
        contrib.det_fn += counts.fn
        contrib.det_s += counts.s
        contrib.det_d += counts.d
        contrib.det_i += counts.i
        contrib.det_nref += counts.n_ref

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
            contrib.j_nref_seg += stats.ref_max
        for p_idx, profile in enumerate(profiles):
            for mode, tp_arr, fp_arr, s_arr, d_arr, i_arr, dist_arr, pairs_arr in (
                ("frame-average", contrib.j_tp, contrib.j_fp, contrib.j_s,
                 contrib.j_d, contrib.j_i, None, None),
                ("segment-mean", contrib.sm_tp, contrib.sm_fp, contrib.sm_s,
                 contrib.sm_d, contrib.sm_i, contrib.sm_dist, contrib.sm_pairs),
            ):
                unit = joint_mod.segment_class_counts(
                    view, profile.theta_for, mode,
                    warn=warnings.append if p_idx == 0 else None,
                )
                u_fp = u_fn = 0
                for c in unit:
                    ci = vocabulary.index(c.label)
                    tp_arr[p_idx, ci] += c.tp
                    fp_arr[p_idx, ci] += c.fp
                    u_fp += c.fp
                    u_fn += c.fn
                    if p_idx == 0 and dist_arr is not None:
                        dist_arr[ci] += c.dist_sum
                        pairs_arr[ci] += c.pair_count
                u_s = min(u_fn, u_fp)
                s_arr[p_idx] += u_s
                d_arr[p_idx] += u_fn - u_s
                i_arr[p_idx] += u_fp - u_s
    if warnings:
        name = Path(ref_path).name
        contrib.warnings = tuple(f"{name}: {w}" for w in sorted(set(warnings)))
    return contrib


@dataclass
class MetricReport:
    """Flat metric map of one evaluated system.

    Undefined metrics are None; rendering layers print them as
    "undefined" and never as numbers.
    """

    files: int
    frames: int
    segments: int
    metrics: dict
    per_class: dict
    warnings: list = field(default_factory=list)
    ci: dict = field(default_factory=dict)


def _ratio(num, den):
    return num / den if den else None


def compute_metrics(contrib: FileContribution, config: EvaluationConfig,
                    vocabulary: Vocabulary) -> tuple:
    """All metric values plus the per-class breakdown for a contribution."""
    m: dict = {}
    m["er"] = _ratio(contrib.det_s + contrib.det_d + contrib.det_i, contrib.det_nref)
    m["f1"] = _ratio(2 * contrib.det_tp, 2 * contrib.det_tp + contrib.det_fp + contrib.det_fn)
    le_micro = _ratio(contrib.loc_dist, contrib.loc_k)
    le_macro = _ratio(contrib.loc_frame_le_sum, contrib.loc_frame_le_count)
    m["le"] = le_macro if config.le_mode == "macro" else le_micro
    m["le_micro"] = le_micro
    m["le_macro"] = le_macro
    m["lr"] = _ratio(contrib.loc_k, contrib.loc_n)
    m["ecr"] = _ratio(contrib.loc_eq, contrib.frames)
    for idx, profile in enumerate(config.profiles):
        key = profile.key
        kt = int(contrib.loc_k_t[idx])
        m[f"le_theta:{key}"] = _ratio(float(contrib.loc_dist_t[idx]), kt)
        m[f"lr_theta:{key}"] = _ratio(kt, contrib.loc_n)
        m[f"ecr_theta:{key}"] = _ratio(int(contrib.loc_eq_t[idx]), contrib.frames)

    seg_mean = config.loc_mode == "segment-mean"
    dist_arr = contrib.sm_dist if seg_mean else contrib.j_dist_f
    pairs_arr = contrib.sm_pairs if seg_mean else contrib.j_pairs_f
    per_class: dict = {}
    le_cs, lr_cs, le_fs, lr_fs = [], [], [], []
    for ci, label in enumerate(vocabulary):
        if contrib.j_n_seg[ci] == 0 and contrib.j_m_seg[ci] == 0:
            continue  # class absent from references and predictions alike
        le_c = _ratio(float(dist_arr[ci]), int(pairs_arr[ci]))
        lr_c = _ratio(int(contrib.j_k_seg[ci]), int(contrib.j_n_seg[ci]))
        le_c_f = _ratio(float(contrib.j_dist_f[ci]), int(contrib.j_pairs_f[ci]))
        lr_c_f = _ratio(int(contrib.j_pairs_f[ci]), int(contrib.j_n_f[ci]))
        per_class[label] = {"le_c": le_c, "lr_c": lr_c}
        if le_c is not None:
            le_cs.append(le_c)
        if lr_c is not None:
            lr_cs.append(lr_c)
        if le_c_f is not None:
            le_fs.append(le_c_f)
        if lr_c_f is not None:
            lr_fs.append(lr_c_f)
    m["le_cd"] = sum(le_cs) / len(le_cs) if le_cs else None
    m["lr_cd"] = sum(lr_cs) / len(lr_cs) if lr_cs else None
    m["le_cd_f"] = sum(le_fs) / len(le_fs) if le_fs else None
    m["lr_cd_f"] = sum(lr_fs) / len(lr_fs) if lr_fs else None

    tp_arr = contrib.sm_tp if seg_mean else contrib.j_tp
    fp_arr = contrib.sm_fp if seg_mean else contrib.j_fp
    s_arr = contrib.sm_s if seg_mean else contrib.j_s
    d_arr = contrib.sm_d if seg_mean else contrib.j_d
    i_arr = contrib.sm_i if seg_mean else contrib.j_i
    fn_total = int(contrib.j_fn.sum())
    for idx, profile in enumerate(config.profiles):
        key = profile.key
        tp = int(tp_arr[idx].sum())
        fp = int(fp_arr[idx].sum())
        m[f"er_theta:{key}"] = _ratio(
            int(s_arr[idx]) + int(d_arr[idx]) + int(i_arr[idx]), contrib.j_nref_seg
        )
        m[f"f_theta:{key}"] = _ratio(2 * tp, 2 * tp + fp + fn_total)
    return m, per_class


def metric_directions(config: EvaluationConfig) -> dict:
    """True = higher is better, for every metric key the report emits."""
    d = {
        "er": False, "f1": True, "le": False, "le_micro": False, "le_macro": False,
        "lr": True, "ecr": True,
        "le_cd": False, "lr_cd": True, "le_cd_f": False, "lr_cd_f": True,
    }
    for profile in config.profiles:
        key = profile.key
        d[f"le_theta:{key}"] = False
        d[f"lr_theta:{key}"] = True
        d[f"ecr_theta:{key}"] = True
        d[f"er_theta:{key}"] = False
        d[f"f_theta:{key}"] = True
    return d


def discover_pairs(ref_dir, pred_dir, vocab_name: str = "vocabulary.txt") -> list:
    """Filename-matched (name, ref_path, pred_path) triples, sorted."""
    ref_dir = Path(ref_dir)
    pred_dir = Path(pred_dir)
    refs = sorted(p for p in ref_dir.glob("*.csv") if p.name != vocab_name)
    if not refs:
        raise MissingPair(f"no reference files found in {ref_dir}")
    preds = {p.name for p in pred_dir.glob("*.csv")} if pred_dir.is_dir() else set()
    missing = [p.name for p in refs if p.name not in preds]
    if missing:
        raise MissingPair(f"no prediction for reference file(s): {', '.join(missing)}")
    extra = sorted(preds - {p.name for p in refs})
    if extra:
        raise MissingPair(f"prediction file(s) without a reference: {', '.join(extra)}")
    return [(p.name, p, pred_dir / p.name) for p in refs]


def _score_star(args):
    return score_file(*args)


@dataclass
class EvaluationResult:
    config: EvaluationConfig
    vocabulary: Vocabulary
    per_file: dict            # name -> FileContribution, insertion-sorted
    total: FileContribution

    def report(self) -> MetricReport:
        metrics, per_class = compute_metrics(self.total, self.config, self.vocabulary)
        return MetricReport(
            files=self.total.n_files,
            frames=self.total.frames,
            segments=self.total.segments,
            metrics=metrics,
            per_class=per_class,
            warnings=list(self.total.warnings),
        )

    def metric_evaluator(self, key: str):
        """Subset evaluator for one metric, backed by cached contributions."""
        names = sorted(self.per_file)

        def evaluator(subset):
            if len(subset) == len(names):
                contrib = self.total
            elif len(subset) == len(names) - 1:
                missing = (set(names) - set(subset)).pop()
                contrib = self.total - self.per_file[missing]
            else:
                contrib = FileContribution.zeros(
                    len(self.config.profiles), len(self.vocabulary)
                )
                for name in subset:
                    contrib = contrib + self.per_file[name]
            value = compute_metrics(contrib, self.config, self.vocabulary)[0][key]
            if value is None:
                raise MetricUndefined(f"metric {key!r} undefined on this subset")
            return value

        return evaluator

    def jackknife(self, keys: Sequence[str] | None = None) -> dict:
        """Leave-one-out confidence intervals for the given metric keys.

        Returns {key: JackknifeEstimate} for metrics where the interval
        exists; undefined metrics and undefined partials map to an error
        string instead of being silently skipped.
        """
        report_metrics = compute_metrics(self.total, self.config, self.vocabulary)[0]
        if keys is None:
            keys = [k for k in report_metrics]
        names = sorted(self.per_file)
        out: dict = {}
        for key in keys:
            if report_metrics.get(key) is None:
                out[key] = "undefined"
                continue
            try:
                out[key] = jackknife_ci(
                    self.metric_evaluator(key), names, self.config.confidence
                )
            except (UndefinedPartial, MetricUndefined) as exc:
                out[key] = f"{type(exc).__name__}: {exc}"
        return out


def evaluate_directory(
    ref_dir,
    pred_dir,
    vocabulary: Vocabulary,
    config: EvaluationConfig,
    vocab_name: str = "vocabulary.txt",
) -> EvaluationResult:
    """Score a directory of filename-matched reference/prediction pairs."""
    for label, _ in config.theta_class:
        if label not in vocabulary:
            raise ConfigError(f"per-class threshold given for class {label!r}, "
                              f"which is not in the vocabulary")
    pairs = discover_pairs(ref_dir, pred_dir, vocab_name)
    tasks = [(ref, pred, vocabulary, config) for _, ref, pred in pairs]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            contribs = list(pool.map(_score_star, tasks))
    else:
        contribs = [_score_star(t) for t in tasks]
    per_file = {name: c for (name, _, _), c in zip(pairs, contribs)}
    total = FileContribution.zeros(len(config.profiles), len(vocabulary))
    for name in sorted(per_file):
        total = total + per_file[name]
    return EvaluationResult(config=config, vocabulary=vocabulary, per_file=per_file, total=total)


OFFICIAL_METRICS = ("er", "f1", "le", "ecr")


def joint_metric_set(config: EvaluationConfig) -> tuple:
    key = config.profiles[0].key
    return ("le_cd", "lr_cd", f"er_theta:{key}", f"f_theta:{key}")


def rank_systems(
    ref_dir,
    systems: Sequence,
    vocabulary: Vocabulary,
    config: EvaluationConfig,
    metric_set: str = "official",
) -> tuple:
    """Evaluate and rank systems; returns (RankTable, {system: MetricReport})."""
    if len(systems) < 2:
        raise ConfigError("ranking needs at least two systems")
    if metric_set == "official":
        keys = OFFICIAL_METRICS
    elif metric_set == "joint":
        keys = joint_metric_set(config)
    else:
        raise ConfigError(f"unknown metric set {metric_set!r}")
    directions = metric_directions(config)
    reports = {}
    for system_id, pred_dir in systems:
        result = evaluate_directory(ref_dir, pred_dir, vocabulary, config)
        reports[system_id] = result.report()
    ids = [system_id for system_id, _ in systems]
    values = {k: [reports[i].metrics[k] for i in ids] for k in keys}
    table = build_rank_table(ids, values, {k: directions[k] for k in keys})
    return table, reports


def correlation_metric_keys(config: EvaluationConfig) -> list:
    keys = ["er", "f1", "le", "lr", "ecr"]
    for profile in config.profiles:
        keys += [f"le_theta:{profile.key}", f"lr_theta:{profile.key}",
                 f"ecr_theta:{profile.key}"]
    keys += ["le_cd", "lr_cd", "le_cd_f", "lr_cd_f"]
    for profile in config.profiles:
        keys += [f"er_theta:{profile.key}", f"f_theta:{profile.key}"]
    return keys


@dataclass
class CorrelationResult:
    systems: list
    metrics: list            # metric keys, plus "official_rank" last
    matrix: list             # rho values; None where undefined
    warnings: list


def correlate_systems(
    ref_dir,
    systems: Sequence,
    vocabulary: Vocabulary,
    config: EvaluationConfig,
) -> CorrelationResult:
    """Spearman correlation matrix between the rankings of every metric.

    Each metric's values are direction-adjusted so that the correlation
    is between challenge-style rankings (rank 1 = best); the official
    four-metric cumulative rank is included as the last column.
    """
    if len(systems) < 3:
        raise ConfigError("correlation needs at least three systems")
    directions = metric_directions(config)
    reports = {}
    for system_id, pred_dir in systems:
        result = evaluate_directory(ref_dir, pred_dir, vocabulary, config)
        reports[system_id] = result.report()
    ids = [system_id for system_id, _ in systems]
    warnings: list = []

    columns: dict = {}
    for key in correlation_metric_keys(config):
        vals = [reports[i].metrics[key] for i in ids]
        if any(v is None for v in vals):
            warnings.append(f"metric {key!r} undefined for some system; skipped")
            continue
        columns[key] = [v if directions[key] is False else -v for v in vals]
    official_vals = {k: [reports[i].metrics[k] for i in ids] for k in OFFICIAL_METRICS}
    if all(v is not None for vals in official_vals.values() for v in vals):
        table = build_rank_table(
            ids, official_vals, {k: metric_directions(config)[k] for k in OFFICIAL_METRICS}
        )
        columns["official_rank"] = list(table.final_ranks)
    else:
        warnings.append("official cumulative rank undefined for some system; skipped")

    names = list(columns)
    matrix = []
    for a in names:
        row = []
        for b in names:
            try:
                row.append(spearman(columns[a], columns[b]))
            except DegenerateRanks:
                row.append(None)
                warnings.append(f"degenerate ranks for {a!r} vs {b!r}")
        matrix.append(row)
    return CorrelationResult(systems=ids, metrics=names, matrix=matrix, warnings=warnings)
