"""Batch evaluation pipeline: per-file scoring, mergeable accumulators,
metric reports, confidence intervals, ranking, and correlation.

Every file contributes a bundle of commutative sums (FileContribution),
so datasets merge associatively and each jackknife partial is the total
minus one cached per-file contribution instead of a re-parse. Every
metric is formed from these sums in one place, `compute_metrics`. Files
are always merged in sorted filename order, which keeps the output
byte-stable regardless of worker scheduling. The process pool, and with
it `multiprocessing`, is imported only when `jobs > 1`, so a `--jobs 1`
command does not pay for loading it.

`score_file` works on columns: each side of a file is a set of rows
(frame, class, unit xyz), stable-sorted by frame so that a frame's rows
keep their file or event order. Only occupied frames are touched; empty
frames and segments are counted arithmetically, so memory follows the
rows, not the grid. A reference event has one row per frame it covers;
a file whose events reach frame 2**63, or whose rows numpy cannot
allocate, is refused with `ReferenceTooLong`, and any file whose rows
fit in memory is scored. The result equals the per-frame definition
(`LocalizationAccumulator`, `segmentize`, `segment_class_counts`) bit
for bit: distances come from `angles_between` (acos from `math`, as
numpy's is 1 ulp off on ~9% of inputs); `assign_batch` gives every frame
and (frame, class) slice `hungarian`'s pairs, enumerating the pairings
of each shape with at most 2520 of them (and of every 1 x N and M x 1)
in numpy and handing near-ties and larger shapes to the exact kernel; and
float sums keep their order, frame by frame and pair by pair, one
addition after another: `np.bincount` with weights adds each bin's
values in input order, `np.cumsum` runs left to right, while `np.sum`
and `np.add.reduceat` add pairwise and round differently.

Each association problem is solved once per run of repeats. A frame
with rows on both sides repeats the previous such frame when each side
has as many rows, and the same rows in the same order: the class index
and the bits of the unit vector (so 0.0 and -0.0 differ), as pair
indices and exact-tie breaks follow row order. Only the frame that
starts a run goes through `angles_between` and `assign_batch`; every
other frame of the run copies its min(M, N) pairs and distances, and
its per-frame total. A (frame, class) slice of a repeating frame has the
same rows as that class's slice of the frame starting the run, so it
copies that slice's pairs; no second comparison is made. The result is
bit for bit the one without reuse: `angles_between` works entry by
entry, and `assign_batch` solves each problem on its own block alone
(its enumeration sums, compares and picks within each block's row of
totals, and the exact kernel takes one block at a time), so equal
blocks give equal pairs and distances. Traffic whose directions change
every frame pays only for the comparison.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .annotations import (
    Vocabulary,
    expand_spans,
    frame_span,
    frames_per_segment,
    parse_reference,
    read_prediction_columns,
)
from .assignment import THRESHOLD_EPS, assign_batch, ragged_arange
from .errors import ConfigError, DegenerateRanks, MissingPair, ReferenceTooLong, UndefinedPartial
from .geometry import Direction, _angle_between_units, angles_between, sorted_unique
from .stats import JackknifeEstimate, RankTable, build_rank_table, jackknife_ci, spearman

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
        # the frame grid's length, as score_file takes it, must stay below 2**63
        if self.duration is not None and not self.duration / self.frame_hop < 2 ** 63:
            raise ConfigError(f"duration {self.duration} s is not finite or reaches frame "
                              f"2**63 at a {self.frame_hop} s hop")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def profiles(self) -> tuple:
        overrides = tuple(sorted(self.theta_class))
        return tuple(ThresholdProfile(t, overrides) for t in self.thetas)


def _array(shape: str, dtype=np.int64):
    # A FileContribution array: per profile ("p"), per class ("c") or both ("pc").
    return field(default=None, metadata={"shape": shape, "dtype": dtype})


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
    loc_dist_t: np.ndarray = _array("p", float)
    loc_k_t: np.ndarray = _array("p")
    loc_eq_t: np.ndarray = _array("p")
    # location-agnostic detection, segment level, binary activity
    det_tp: int = 0
    det_fp: int = 0
    det_fn: int = 0
    det_s: int = 0
    det_d: int = 0
    det_i: int = 0
    det_nref: int = 0
    # joint metrics, per class
    j_dist_f: np.ndarray = _array("c", float)   # frame-pair distance sums
    j_pairs_f: np.ndarray = _array("c")   # frame-pair counts (= frame-level K_c)
    j_n_f: np.ndarray = _array("c")       # frame-level reference counts
    j_k_seg: np.ndarray = _array("c")     # segment-level min(M_c, N_c)
    j_n_seg: np.ndarray = _array("c")     # segment-level N_c
    j_m_seg: np.ndarray = _array("c")     # segment-level M_c
    j_fn: np.ndarray = _array("c")        # threshold-independent false negatives
    j_nref_seg: int = 0
    # segment-level evidence in the configured loc_mode
    j_dist: np.ndarray = _array("c", float)   # LE_c distance sums
    j_pairs: np.ndarray = _array("c")     # LE_c pair counts
    j_tp: np.ndarray = _array("pc")
    j_fp: np.ndarray = _array("pc")
    j_s: np.ndarray = _array("p")
    j_d: np.ndarray = _array("p")
    j_i: np.ndarray = _array("p")
    warnings: tuple = ()

    @classmethod
    def zeros(cls, n_profiles: int, n_classes: int) -> "FileContribution":
        shapes = {"p": n_profiles, "c": n_classes, "pc": (n_profiles, n_classes)}
        return cls(**{f.name: np.zeros(shapes[f.metadata["shape"]], f.metadata["dtype"])
                      for f in dataclasses.fields(cls) if f.metadata})

    def _combine(self, other: "FileContribution", sign: int) -> "FileContribution":
        out = FileContribution()
        for f in dataclasses.fields(self):
            if f.name == "warnings":
                continue
            a = getattr(self, f.name)
            b = getattr(other, f.name)
            setattr(out, f.name, a + b if sign > 0 else a - b)
        if out.frames >= 2 ** 63:  # loc_eq_t counts frames in int64 and would have wrapped
            raise ReferenceTooLong(f"the files together cover {out.frames} frames, "
                                   "which reaches 2**63")
        out.warnings = (self.warnings + other.warnings if sign > 0
                        else tuple(w for w in self.warnings if w not in other.warnings))
        return out

    def __add__(self, other: "FileContribution") -> "FileContribution":
        return self._combine(other, +1)

    def __sub__(self, other: "FileContribution") -> "FileContribution":
        return self._combine(other, -1)


def _problems(p_key, r_key) -> tuple:
    """Sorted keys, row counts per key on each side, the keys present on
    both (the association problems), and each side's rows of those
    problems, one problem after another, a problem's rows in input order."""
    p_order, r_order = np.argsort(p_key, kind="stable"), np.argsort(r_key, kind="stable")
    p_sorted, r_sorted = p_key[p_order], r_key[r_order]
    keys = sorted_unique(np.concatenate([p_key, r_key]))[0]
    p0, r0 = np.searchsorted(p_sorted, keys), np.searchsorted(r_sorted, keys)
    m = np.searchsorted(p_sorted, keys, "right") - p0
    n = np.searchsorted(r_sorted, keys, "right") - r0
    paired = (m > 0) & (n > 0)
    # the key-sorted rows hold each key's m (or n) rows in turn
    return (keys, m, n, np.flatnonzero(paired), p_order[np.repeat(paired, m)],
            r_order[np.repeat(paired, n)])


def _run_leads(p_rows, r_rows, bm, bn) -> np.ndarray:
    """The problem that starts the run of each problem. A problem continues
    the run of the problem before it when each side has the same rows in
    the same order; rows are (class, unit xyz) pairs of arrays, stored one
    problem after another, and units are compared by their bits."""
    # A first cut that per-frame DOA estimates seldom pass: the bits of the
    # first prediction's x.
    x = p_rows[1][np.cumsum(bm) - bm, 0].view(np.int64)
    same = np.zeros(len(bm), dtype=bool)
    same[1:] = (bm[1:] == bm[:-1]) & (bn[1:] == bn[:-1]) & (x[1:] == x[:-1])
    for (cls, unit), size in ((p_rows, bm), (r_rows, bn)):
        # Each row of a problem still the same as the one before against the same
        # row of that problem, which lies as many rows back as the problem has.
        q = np.flatnonzero(same)
        at = np.repeat(q, size[q])
        row = np.flatnonzero(np.repeat(same, size))
        back = row - size[at]
        differs = cls[row] != cls[back]
        for bits in unit.view(np.int64).T:
            differs |= bits[row] != bits[back]
        same[at[differs]] = False
    return np.flatnonzero(~same)[np.cumsum(~same) - 1]


def _pairs(pu, ru, bm, bn, lead) -> tuple:
    """(problem, distance) of each associated pair of the problems whose
    rows `pu` and `ru` hold one problem after another. Problem q takes the
    pairs of problem lead[q], which has the same rows; only the problems
    that lead themselves are solved."""
    new = lead == np.arange(len(lead))
    sm, sn = bm[new], bn[new]
    g = np.repeat(np.flatnonzero(new), sm * sn)
    e = ragged_arange(sm * sn)
    group, _, _, d = assign_batch(angles_between(pu[(np.cumsum(bm) - bm)[g] + e // bn[g]],
                                                 ru[(np.cumsum(bn) - bn)[g] + e % bn[g]]), sm, sn)
    if new.all():  # no repeats: d is already in problem order
        return group, d
    k = np.minimum(bm, bn)
    first = np.cumsum(k[new]) - k[new]  # in d, of each solved problem
    # Pair r of problem q is pair r of its lead, the (cumsum(new) - 1)[lead[q]]-th
    # problem solved: it sits in d that many places before pair r of q in the output.
    shift = np.cumsum(k) - k - first[(np.cumsum(new) - 1)[lead]]
    return np.repeat(np.arange(len(k)), k), d[np.arange(k.sum()) - np.repeat(shift, k)]


def score_file(ref_path, pred_path, vocabulary: Vocabulary, config: EvaluationConfig) -> FileContribution:
    """Parse one file pair and accumulate every metric on its columns."""
    profiles, n_cls, name = config.profiles, len(vocabulary), Path(ref_path).name
    c = FileContribution.zeros(len(profiles), n_cls)
    c.n_files = 1
    events = parse_reference(ref_path, vocabulary)
    pf, pc, pu = read_prediction_columns(pred_path, vocabulary)
    spans = [frame_span(ev.onset, ev.offset, config.frame_hop) for ev in events]
    end = max([last + 1 for _, last in spans], default=0)
    total = max(end, int(pf.max(initial=-1)) + 1)
    if config.duration is not None:
        fixed = math.ceil(config.duration / config.frame_hop - 1e-9)
        if total > fixed:
            raise ConfigError(f"{name}: file content extends past the configured duration "
                              f"{config.duration} s")
        total = fixed
    # Rows, stable-sorted by frame; a reference event has one per frame it covers.
    rf, rc, ru = expand_spans(
        spans, (np.array([vocabulary.index(e.label) for e in events], dtype=np.int64),
                np.array([e.direction.unit for e in events]).reshape(-1, 3)),
        config.frame_hop, name)
    if total == 0:
        return c
    order = np.argsort(pf, kind="stable")
    pf, pc, pu = pf[order], pc[order], pu[order]

    # Class-agnostic association (LocalizationAccumulator.update) per occupied frame.
    occ, m, n, both, p_rows, r_rows = _problems(pf, rf)
    bm, bn = m[both], n[both]
    pu_rows, ru_rows = pu[p_rows], ru[r_rows]
    lead = _run_leads((pc[p_rows], pu_rows), (rc[r_rows], ru_rows), bm, bn)
    pair_frame, d = _pairs(pu_rows, ru_rows, bm, bn, lead)
    k = np.minimum(bm, bn)
    totals = np.bincount(pair_frame, d, minlength=len(both))
    summed = (k > 2) & (lead == np.arange(len(lead)))
    for f, at in zip(np.flatnonzero(summed), (np.cumsum(k) - k)[summed]):
        totals[f] = sum(d[at:at + k[f]].tolist())  # sum(), as the accumulator takes it
    totals = totals[lead]  # a repeating frame takes the total of its run's first
    # np.cumsum adds left to right, frame after frame; 0.0 + x == x.
    c.loc_dist = float(np.cumsum(np.r_[0.0, totals])[-1])
    c.loc_frame_le_sum = float(np.cumsum(np.r_[0.0, totals / k])[-1])
    c.frames, c.loc_k, c.loc_n, c.loc_frame_le_count = total, int(k.sum()), len(rf), len(both)
    c.loc_eq = total - len(occ) + int(np.count_nonzero(m == n))
    for t, profile in enumerate(profiles):
        hit = d <= profile.theta + THRESHOLD_EPS
        c.loc_k_t[t] = int(hit.sum())
        within = np.bincount(pair_frame[hit], d[hit], minlength=len(both))
        c.loc_dist_t[t] = np.cumsum(np.r_[0.0, within])[-1]
        c.loc_eq_t[t] = total - int(np.count_nonzero(n)) + int(np.count_nonzero(
            np.bincount(pair_frame, hit, minlength=len(both)) == bn))

    # Per-class association (segmentize) per (frame, class); sums per (segment, class).
    pk = np.searchsorted(occ, pf) * n_cls + pc
    rk = np.searchsorted(occ, rf) * n_cls + rc
    keys, mc, nc, sl, p_rows, r_rows = _problems(pk, rk)
    # A slice leads itself unless its frame repeats: then the same class's slice of
    # the frame that leads, which has the same rows, gives its pairs.
    lead_frame = np.arange(len(occ))
    lead_frame[both] = both[lead]
    slice_keys = keys[sl]
    slice_lead = np.searchsorted(slice_keys, lead_frame[slice_keys // n_cls] * n_cls
                                 + slice_keys % n_cls)
    pair_slice, d = _pairs(pu[p_rows], ru[r_rows], mc[sl], nc[sl], slice_lead)
    spf = frames_per_segment(config.segment_length, config.frame_hop)
    segs, seg_id = sorted_unique(occ[keys // n_cls] // spf)
    sc, sc_of_key = sorted_unique(seg_id * n_cls + keys % n_cls)
    sc_seg, sc_cls = sc // n_cls, sc % n_cls
    pmax, rmax = np.zeros(len(sc), dtype=np.int64), np.zeros(len(sc), dtype=np.int64)
    np.maximum.at(pmax, sc_of_key, mc)
    np.maximum.at(rmax, sc_of_key, nc)
    pair_sc = sc_of_key[sl][pair_slice]
    n_pairs = np.bincount(pair_sc, minlength=len(sc))
    pair_sum = np.bincount(pair_sc, d, minlength=len(sc))

    def per_class(x):
        return np.bincount(sc_cls, x, minlength=n_cls).astype(np.int64)

    def sdi(fp, fn):  # S, D, I summed over segments
        u_fp, u_fn = np.bincount(sc_seg, fp), np.bincount(sc_seg, fn)
        s = np.minimum(u_fp, u_fn)
        return int(s.sum()), int((u_fn - s).sum()), int((u_fp - s).sum())

    c.segments = (total + spf - 1) // spf
    ref_on, pred_on = rmax > 0, pmax > 0
    fp_seg, fn_seg = pred_on & ~ref_on, ref_on & ~pred_on
    c.det_tp, c.det_fp, c.det_fn, c.det_nref = (
        int(np.count_nonzero(x)) for x in (ref_on & pred_on, fp_seg, fn_seg, ref_on))
    c.det_s, c.det_d, c.det_i = sdi(fp_seg, fn_seg)
    kk, fn = np.minimum(pmax, rmax), np.maximum(rmax - pmax, 0)
    c.j_dist_f, c.j_pairs_f = np.bincount(sc_cls, pair_sum, minlength=n_cls), per_class(n_pairs)
    c.j_n_f = per_class(np.bincount(sc_of_key, nc, minlength=len(sc)))
    c.j_k_seg, c.j_n_seg, c.j_m_seg, c.j_fn = (per_class(x) for x in (kk, rmax, pmax, fn))
    c.j_nref_seg = int(rmax.sum())

    # Joint counts (segment_class_counts), in the configured mode only.
    if config.loc_mode == "segment-mean":
        evidence = ref_on & pred_on
        means, warnings = [], set()
        for side, row_keys, units in (("prediction", pk, pu), ("reference", rk, ru)):
            sc_row = sc_of_key[np.searchsorted(keys, row_keys)]
            sums = np.stack([np.bincount(sc_row, u, minlength=len(sc)) for u in units.T], 1)
            first = np.full(len(sc), len(sc_row))
            np.minimum.at(first, sc_row, np.arange(len(sc_row)))
            sums, firsts = sums[evidence].tolist(), units[first[evidence]].tolist()
            means.append([])
            for q, (sx, sy, sz), unit in zip(np.flatnonzero(evidence), sums, firsts):
                if math.sqrt(sx * sx + sy * sy + sz * sz) > 1e-9:  # as spherical_mean
                    means[-1].append(Direction.from_unit_vector(sx, sy, sz).unit)
                else:
                    means[-1].append(tuple(unit))
                    warnings.add(f"degenerate {side} pool for {vocabulary.labels[sc_cls[q]]!r} "
                                 f"in segment {segs[sc_seg[q]]}; fell back to its first direction")
        rep = np.zeros(len(sc))
        rep[evidence] = [_angle_between_units(p, r) for p, r in zip(*means)]
        c.warnings = tuple(f"{name}: {w}" for w in sorted(warnings))
        c.j_dist = np.bincount(sc_cls, np.where(evidence, rep * kk, 0.0), minlength=n_cls)
        c.j_pairs = per_class(np.where(evidence, kk, 0))
    else:
        evidence = n_pairs > 0
        rep = pair_sum / np.maximum(n_pairs, 1)
        c.j_dist, c.j_pairs = c.j_dist_f, c.j_pairs_f
    thetas = np.array([[p.theta_for(label) for label in vocabulary] for p in profiles])
    for t, theta in enumerate(thetas[:, sc_cls]):
        k_theta = np.where((theta >= 180.0) | (evidence & (rep <= theta + THRESHOLD_EPS)), kk, 0)
        fp = np.maximum(pmax - rmax, 0) + kk - k_theta
        c.j_tp[t], c.j_fp[t] = per_class(k_theta), per_class(fp)
        c.j_s[t], c.j_d[t], c.j_i[t] = sdi(fp, fn)
    return c


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

    per_class: dict = {}
    le_cs, lr_cs, le_fs, lr_fs = [], [], [], []
    for ci, label in enumerate(vocabulary):
        if contrib.j_n_seg[ci] == 0 and contrib.j_m_seg[ci] == 0:
            continue  # class absent from references and predictions alike
        le_c = _ratio(float(contrib.j_dist[ci]), int(contrib.j_pairs[ci]))
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

    fn_total = int(contrib.j_fn.sum())
    for idx, profile in enumerate(config.profiles):
        key = profile.key
        tp = int(contrib.j_tp[idx].sum())
        fp = int(contrib.j_fp[idx].sum())
        errors = int(contrib.j_s[idx]) + int(contrib.j_d[idx]) + int(contrib.j_i[idx])
        m[f"er_theta:{key}"] = _ratio(errors, contrib.j_nref_seg)
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


def reference_files(ref_dir) -> list:
    """The reference files of a directory: its *.csv files, sorted."""
    return sorted(Path(ref_dir).glob("*.csv"))


def discover_pairs(ref_dir, pred_dir) -> list:
    """Filename-matched (name, ref_path, pred_path) triples, sorted."""
    ref_dir = Path(ref_dir)
    pred_dir = Path(pred_dir)
    refs = reference_files(ref_dir)
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

    def jackknife(self, keys: Sequence[str] | None = None) -> dict:
        """Leave-one-out confidence intervals for the given metric keys.

        The metrics are computed once on all files and once per
        leave-one-out subset (the total minus one file's contribution),
        then every key reads its values from those n + 1 metric maps.
        Returns {key: JackknifeEstimate} for metrics where the interval
        exists; undefined metrics and undefined partials map to an error
        string instead of being silently skipped.
        """
        point = compute_metrics(self.total, self.config, self.vocabulary)[0]
        partials = {name: compute_metrics(self.total - self.per_file[name], self.config,
                                          self.vocabulary)[0]
                    for name in sorted(self.per_file)}
        out: dict = {}
        for key in point if keys is None else keys:
            if point.get(key) is None:
                out[key] = "undefined"
                continue
            try:
                out[key] = jackknife_ci(point[key], {name: m[key] for name, m in partials.items()},
                                        self.config.confidence)
            except UndefinedPartial as exc:
                out[key] = f"{type(exc).__name__}: {exc}: metric {key!r} undefined on this subset"
        return out


def evaluate_directory(
    ref_dir,
    pred_dir,
    vocabulary: Vocabulary,
    config: EvaluationConfig,
) -> EvaluationResult:
    """Score a directory of filename-matched reference/prediction pairs."""
    for label, _ in config.theta_class:
        if label not in vocabulary:
            raise ConfigError(f"per-class threshold given for class {label!r}, "
                              f"which is not in the vocabulary")
    pairs = discover_pairs(ref_dir, pred_dir)
    tasks = [(ref, pred, vocabulary, config) for _, ref, pred in pairs]
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

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


def _system_values(ref_dir, systems: Sequence, vocabulary: Vocabulary,
                   config: EvaluationConfig, keys) -> dict:
    """Each metric key's values over the (id, prediction directory) systems, in order."""
    metrics = [evaluate_directory(ref_dir, pred_dir, vocabulary, config).report().metrics
               for _, pred_dir in systems]
    return {k: [m[k] for m in metrics] for k in keys}


def rank_systems(
    ref_dir,
    systems: Sequence,
    vocabulary: Vocabulary,
    config: EvaluationConfig,
    metric_set: str = "official",
) -> RankTable:
    """Evaluate and rank systems by the cumulative rank of a metric set."""
    if len(systems) < 2:
        raise ConfigError("ranking needs at least two systems")
    if metric_set == "official":
        keys = OFFICIAL_METRICS
    elif metric_set == "joint":
        keys = joint_metric_set(config)
    else:
        raise ConfigError(f"unknown metric set {metric_set!r}")
    directions = metric_directions(config)
    values = _system_values(ref_dir, systems, vocabulary, config, keys)
    return build_rank_table([system_id for system_id, _ in systems], values,
                            {k: directions[k] for k in keys})


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
    values = _system_values(ref_dir, systems, vocabulary, config, correlation_metric_keys(config))
    ids = [system_id for system_id, _ in systems]
    warnings: list = []

    columns: dict = {}
    for key, vals in values.items():
        if any(v is None for v in vals):
            warnings.append(f"metric {key!r} undefined for some system; skipped")
            continue
        columns[key] = [v if directions[key] is False else -v for v in vals]
    official_vals = {k: values[k] for k in OFFICIAL_METRICS}
    if all(v is not None for vals in official_vals.values() for v in vals):
        table = build_rank_table(ids, official_vals, {k: directions[k] for k in OFFICIAL_METRICS})
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
