"""Batch evaluation pipeline: per-file scoring, mergeable accumulators,
metrics, confidence intervals, ranking, and correlation.

A system's result is one table of commutative sums (FileContribution), a
row per file in sorted filename order, whatever the worker scheduling;
each sum is stored once: a sum that others give, such as deletions,
insertions or a class's joint FP and FN, is derived where it is used, in
integers (the field comments say from what). The total adds the rows left
to right; the jackknife's partials are the total less each row, at once.
`compute_metrics` forms every metric from one file's form of the sums,
under the keys `metric_keys` lists, and `evaluate_directory` keeps the
total's metrics on its result, once. Every per-threshold count reads
`class_thresholds`.

Scoring works on columns: `read_pair` reads one file pair, makes every
per-file check, and gives each side as rows (frame, class, unit xyz);
`score_batch` scores a batch of such pairs at once, and `score_file` is
its one-pair form. In a batch, each file's frames are offset by the
frame grids of the files before it, each grid rounded up to whole
segments, so no association problem, (frame, class) slice or segment
spans two files. The rows are stable-sorted by frame, so that a frame's
rows keep their file or event order. Each file's sums are split from the
batch's with `np.bincount` over a file index, which adds a file's values
in input order, one after another from 0.0: the same additions as
scoring that file alone, so every row is bit for bit the one-pair result.

`_score_pairs` reads a list of pairs in order and concatenates the tables
of batches of at most `MAX_BATCH_ROWS` rows; a larger pair is scored alone,
and a full batch is scored before the next pair is read: each file's grid
holds at most `annotations.MAX_FRAMES` frames, so no int64 frame offset or
sum wraps for fewer than 2**31 files. The batch core raises no error, so
the first error is the one that reading the pairs one after another raises.

A command scores its file pairs as one list, `_evaluate_systems`: every
system's pairs are looked up first and listed reference by reference,
every system's pair on the first reference, then on the next. `--jobs` N
cuts the list into slices of whole references, ceil(n / N) of the n in
each; one slice is scored in this process, more through one `pool.map`,
a worker per slice. Each reference is read once per command, and a
slice holds one reference's rows at a time. The slices' tables, errors
included, come back in list order and are concatenated, so system s of
S has rows s, s + S, ...; the first error, the first in reading order
(reference, then system), is the same for every N; a system whose pairs
cannot be looked up raises after the systems before it have scored.

Only occupied frames are touched; empty frames and segments are counted
arithmetically, so memory follows the rows, not the grid. A reference
event has one row per frame it covers (`annotations.expand_spans`). The
result equals the per-frame definition (`LocalizationAccumulator`,
`segmentize`, `segment_class_counts`) bit for bit: distances and segment
means come from `angles_between` and `mean_unit_vectors` (acos, asin and
atan2 from `math`: numpy's can be 1 ulp off); `assign_batch` gives every frame and (frame, class) slice
`hungarian`'s pairs, enumerating the pairings of each shape with at most
2520 of them (and of every 1 x N and M x 1) in numpy and handing
near-ties and larger shapes to the exact kernel; and float sums keep
their order, frame by frame and pair by pair, one addition after
another: `np.bincount` with weights adds each bin's values in input
order, `np.cumsum` runs left to right, while `np.sum` and
`np.add.reduceat` add pairwise and round differently.

Each association problem is solved once per run of repeats. A frame
with rows on both sides repeats the previous such frame when each side
has as many rows, and the same rows in the same order: the class index
and the bits of the unit vector (so 0.0 and -0.0 differ), as pair
indices and exact-tie breaks follow row order. Only the frame that
starts a run goes through `angles_between` and `assign_batch`; every
other frame of the run copies its min(M, N) pairs and distances, and
its per-frame total. A (frame, class) slice of a repeating frame has the
same rows as that class's slice of the frame starting the run, so it
copies that slice's pairs; no second comparison is made. The frames and
slices that start a run are solved in one call. The result is
bit for bit the one without reuse: `angles_between` works entry by
entry, and `assign_batch` solves each problem on its own block alone
(its enumeration sums, compares and picks within each block's row of
totals, and the exact kernel takes one block at a time), so equal
blocks give equal pairs and distances. Traffic whose directions change
every frame pays only for the comparison. A run may cross from one file
of a batch into the next only between equal rows, which give equal
pairs, so batching keeps this bit-identity too.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .annotations import (
    MAX_FRAMES,
    Vocabulary,
    expand_spans,
    frame_span,
    frames_per_segment,
    grid_frames,
    parse_reference,
    read_prediction_columns,
    reference_files,
)
from .assignment import THRESHOLD_EPS, assign_batch, ragged_arange
from .errors import ConfigError, DegenerateRanks, MissingPair, UndefinedPartial, UndefinedValue
from .geometry import angles_between, mean_unit_vectors, sorted_unique
from .stats import (build_rank_table, cumulative_rank, jackknife_ci, metric_ranks,
                    rank_correlation, rank_moments)

LOC_MODES = ("frame-average", "segment-mean")
LE_MODES = ("micro", "macro")


class EvaluationConfig:
    """Every evaluation setting, checked on construction (ConfigError)."""

    def __init__(self, frame_hop: float = 0.02, segment_length: float = 1.0,
                 thetas: tuple = (10.0, 30.0),
                 theta_class: tuple = (),  # ((label, theta), ...), each label at most once
                 loc_mode: str = "frame-average", le_mode: str = "micro",
                 confidence: float = 0.95, duration: float | None = None, jobs: int = 1):
        self.frame_hop, self.segment_length, self.thetas = frame_hop, segment_length, thetas
        self.theta_class, self.loc_mode, self.le_mode = theta_class, loc_mode, le_mode
        self.confidence, self.duration, self.jobs = confidence, duration, jobs
        if self.frame_hop <= 0:
            raise ConfigError(f"frame hop must be positive, got {self.frame_hop}")
        frames_per_segment(self.segment_length, self.frame_hop)
        if not self.thetas:
            raise ConfigError("at least one threshold is required")
        for t in self.thetas:
            if not 0.0 < t <= 180.0:
                raise ConfigError(f"threshold {t} outside (0, 180]")
        if len({f"{t:g}" for t in self.thetas}) != len(self.thetas):  # as metric_keys names them
            raise ConfigError("duplicate thresholds configured")
        for _, t in self.theta_class:
            if not 0.0 < t <= 180.0:
                raise ConfigError(f"per-class threshold {t} outside (0, 180]")
        labels = [label for label, _ in self.theta_class]
        twice = sorted({label for label in labels if labels.count(label) > 1})
        if twice:
            raise ConfigError("per-class threshold given more than once for class(es): "
                              + ", ".join(map(repr, twice)))
        if self.loc_mode not in LOC_MODES:
            raise ConfigError(f"localization mode must be one of {LOC_MODES}")
        if self.le_mode not in LE_MODES:
            raise ConfigError(f"LE mode must be one of {LE_MODES}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.duration is not None and not (
                self.duration > 0 and grid_frames(self.duration, self.frame_hop) <= MAX_FRAMES):
            raise ConfigError(f"duration must be positive and hold at most {MAX_FRAMES} frames "
                              f"at a {self.frame_hop} s hop, got {self.duration}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")

    def __repr__(self) -> str:
        return f"EvaluationConfig({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


def class_thresholds(config: EvaluationConfig, vocabulary: Vocabulary) -> np.ndarray:
    """The (threshold x class) angular thresholds: row t holds config.thetas[t]
    for every class, less the classes `config.theta_class` gives their own."""
    table = np.repeat(np.array(config.thetas, dtype=float)[:, None], len(vocabulary), axis=1)
    for label, theta in config.theta_class:
        if label not in vocabulary:
            raise ConfigError(f"per-class threshold given for class {label!r}, "
                              f"which is not in the vocabulary")
        table[:, vocabulary.index(label)] = theta
    return table


def metric_keys(thetas: Sequence[float]) -> list:
    """Every metric key the report emits for these thresholds, in the order
    `compute_metrics` emits them."""
    degs = [f"{t:g}" for t in thetas]
    return (["er", "f1", "le", "le_micro", "le_macro", "lr", "ecr"]
            + [f"{base}:{deg}" for deg in degs for base in ("le_theta", "lr_theta", "ecr_theta")]
            + ["le_cd", "lr_cd", "le_cd_f", "lr_cd_f"]
            + [f"{base}:{deg}" for deg in degs for base in ("er_theta", "f_theta")])


class FileContribution:
    """A table of commutative sums, one row per file: each sum's first axis
    is the file, and `warnings` holds a tuple per row. `table[i]` and
    `total()` give one file's form: Python ints and floats, and arrays per
    threshold ("t"), class ("c") or both ("tc"). `+` and `-` combine the
    sums, not the warnings, one file's form broadcast over a table."""

    SUMS = (
        "frames", "segments",
        # class-agnostic localization, frame level; "_t": per threshold
        "loc_dist", "loc_k", "loc_eq", "loc_frame_le_sum", "loc_frame_le_count",
        "loc_dist_t", "loc_k_t", "loc_eq_t",
        # location-agnostic detection, segment level, binary activity; D = FN - S, I = FP - S
        "det_tp", "det_fp", "det_fn",
        "det_s",        # substitutions, min(FN, FP) of each segment
        # joint metrics, per class; FN_c = N_c - min(M_c, N_c) and FP_c = M_c - K_theta
        "j_dist_f",     # c: frame-pair distance sums
        "j_pairs_f",    # c: frame-pair counts (= frame-level K_c)
        "j_n_f",        # c: frame-level reference counts
        "j_k_seg",      # c: segment-level min(M_c, N_c)
        "j_n_seg",      # c: segment-level N_c
        "j_m_seg",      # c: segment-level M_c
        "j_dist_mean",  # c: segment-mean LE_c sums over K_c; else 0
        "j_tp",         # tc: K_theta
        "j_s",          # t: min(FN, FP) of each segment, over classes
    )
    __slots__ = (*SUMS, "warnings")

    def __init__(self, warnings: tuple = (), **sums):
        if sums.keys() != set(self.SUMS):
            raise TypeError(f"FileContribution takes every one of {self.SUMS}, got {tuple(sums)}")
        for name, value in sums.items():
            setattr(self, name, value)
        self.warnings = warnings

    def _sums(self):  # (name, value) of every sum
        return ((name, getattr(self, name)) for name in self.SUMS)

    def __getitem__(self, rows) -> "FileContribution":
        """One row's sums (an int) in one file's form, or a table of rows (a slice)."""
        picked = ((name, v[rows]) for name, v in self._sums())
        return FileContribution(**{name: v if v.ndim else v.item() for name, v in picked},
                                warnings=self.warnings[rows] if self.warnings else ())

    def total(self) -> "FileContribution":
        """The rows' sums added left to right (`np.cumsum`; `np.sum` adds
        pairwise), and every row's warnings in row order."""
        last = {name: np.cumsum(v, axis=0)[-1:] for name, v in self._sums()}
        return FileContribution(**last, warnings=(tuple(itertools.chain(*self.warnings)),))[0]

    def __add__(self, other: "FileContribution") -> "FileContribution":
        return FileContribution(**{name: v + getattr(other, name) for name, v in self._sums()})

    def __sub__(self, other: "FileContribution") -> "FileContribution":
        return FileContribution(**{name: v - getattr(other, name) for name, v in self._sums()})


def _concat(tables: Sequence) -> FileContribution:
    """The rows of every table, one table after another."""
    return FileContribution(**{name: np.concatenate([getattr(t, name) for t in tables])
                               for name, _ in tables[0]._sums()},
                            warnings=tuple(itertools.chain(*(t.warnings for t in tables))))


def _problems(p_key, r_key) -> tuple:
    """The sorted distinct keys of both sides; the number of rows of each
    key on the prediction side (m) and on the reference side (n); the index
    of each key present on both (an association problem); each side's rows
    of those problems, one problem after another, a problem's rows in input
    order; and each side's key index of every row."""
    # stable: each side's rows of a key keep their order, the predictions first
    keys, at, order = sorted_unique(np.concatenate([p_key, r_key]))
    p_at, r_at = at[:len(p_key)], at[len(p_key):]
    m, n = np.bincount(p_at, minlength=len(keys)), np.bincount(r_at, minlength=len(keys))
    paired = (m > 0) & (n > 0)
    is_p = order < len(p_key)
    # the key-sorted rows hold each key's m (or n) rows in turn
    return (keys, m, n, np.flatnonzero(paired), order[is_p][np.repeat(paired, m)],
            order[~is_p][np.repeat(paired, n)] - len(p_key), p_at, r_at)


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
    *_, d = assign_batch(angles_between(pu[(np.cumsum(bm) - bm)[g] + e // bn[g]],
                                        ru[(np.cumsum(bn) - bn)[g] + e % bn[g]]), sm, sn)
    k = np.minimum(bm, bn)
    first = np.cumsum(k[new]) - k[new]  # in d, of each solved problem
    # Pair r of problem q is pair r of its lead, the (cumsum(new) - 1)[lead[q]]-th
    # problem solved: it sits in d that many places before pair r of q in the output.
    shift = np.cumsum(k) - k - first[(np.cumsum(new) - 1)[lead]]
    return np.repeat(np.arange(len(k)), k), d[np.arange(k.sum()) - np.repeat(shift, k)]


# Rows per batch of file pairs scored at once; a pair with more rows is scored alone.
# Two 60 s DCASE2019 pairs (about 7,000 rows each) fit. Scored together they took 16%
# less time than one at a time; four took 24% less, but raised a command's peak RSS
# by 3.7 MB where two raised it by 1 MB.
MAX_BATCH_ROWS = 2 ** 14


def read_pair(ref_path, pred_path, vocabulary: Vocabulary, config: EvaluationConfig,
              references: dict) -> tuple:
    """(name, frames, reference rows, prediction rows) of one file pair. Each
    side's rows are (frame, class, unit xyz) arrays, the reference's
    stable-sorted by frame, so that a frame's rows keep their event order.

    Every per-file check is made here, in this order: the reference, the
    prediction, the configured duration, the reference's length. A
    reference read and expanded once keeps its grid end and rows in
    `references`, keyed by its path, for the later pairs on it."""
    name = Path(ref_path).name
    known = references.get(ref_path)
    if known is None:
        events = parse_reference(ref_path, vocabulary)
        spans = [frame_span(ev.onset, ev.offset, config.frame_hop) for ev in events]
        end = max([last + 1 for _, last in spans], default=0)
    else:
        end, ref_rows = known
    pred_rows = read_prediction_columns(pred_path, vocabulary)
    total = max(end, int(pred_rows[0].max(initial=-1)) + 1)
    if config.duration is not None:
        fixed = grid_frames(config.duration, config.frame_hop)
        if total > fixed:
            raise ConfigError(f"{name}: file content extends past the configured duration "
                              f"{config.duration} s")
        total = fixed
    if known is None:  # a reference event has one row per frame it covers
        ref_rows = expand_spans(
            spans, (np.array([vocabulary.index(e.label) for e in events], dtype=np.int64),
                    np.array([e.direction.unit for e in events]).reshape(-1, 3)),
            config.frame_hop, name)
        references[ref_path] = end, ref_rows
    return name, total, ref_rows, pred_rows


def score_batch(pairs, vocabulary: Vocabulary, config: EvaluationConfig) -> FileContribution:
    """The table of the pairs that `read_pair` gives, a row per pair, scored at once.

    Each file's frames are offset by the grids of the files before it, each
    rounded up to whole segments, so that no association problem, (frame,
    class) slice or segment spans two files. Each file's sums are split
    from the batch's with `np.bincount` over a file index. Each grid holds
    at most `annotations.MAX_FRAMES` frames; the batch has fewer than 2**31."""
    n_cls, n_files, n_t = len(vocabulary), len(pairs), len(config.thetas)
    spf = frames_per_segment(config.segment_length, config.frame_hop)
    names, grids, ref_sides, pred_sides = zip(*pairs)
    grids = np.array(grids, dtype=np.int64)
    start = np.concatenate([[0], np.cumsum(-(-grids[:-1] // spf) * spf)])

    def rows(sides):  # one side's rows of every file, frames offset by the file's start
        frame, cls, unit = zip(*sides)
        return (np.concatenate([f + s for f, s in zip(frame, start)]), np.concatenate(cls),
                np.concatenate(unit))

    def file_of(frame):
        return np.searchsorted(start, frame, "right") - 1

    def per_file(at, x=None, dtype=np.int64):  # the sum over each file's entries, in input order
        return np.bincount(at, x, minlength=n_files).astype(dtype, copy=False)

    rf, rc, ru = rows(ref_sides)
    pf, pc, pu = rows(pred_sides)
    order = np.argsort(pf, kind="stable")
    pf, pc, pu = pf[order], pc[order], pu[order]

    # Association problems: every occupied frame, class-agnostic
    # (LocalizationAccumulator.update), then every (frame, class) slice (segmentize).
    occ, m, n, both, p_rows, r_rows, p_occ, r_occ = _problems(pf, rf)
    keys, mc, nc, sl, p_slice, r_slice, p_key, r_key = _problems(p_occ * n_cls + pc,
                                                                 r_occ * n_cls + rc)
    bm, bn, n_frames = m[both], n[both], len(both)
    pu_rows = pu[np.concatenate([p_rows, p_slice])]
    ru_rows = ru[np.concatenate([r_rows, r_slice])]
    lead = _run_leads((pc[p_rows], pu_rows[:len(p_rows)]), (rc[r_rows], ru_rows[:len(r_rows)]),
                      bm, bn)
    # A slice leads itself unless its frame repeats: then the same class's slice of
    # the frame that leads, which has the same rows, gives its pairs.
    lead_frame = np.arange(len(occ))
    lead_frame[both] = both[lead]
    slice_keys = keys[sl]
    slice_lead = np.searchsorted(slice_keys, lead_frame[slice_keys // n_cls] * n_cls
                                 + slice_keys % n_cls)
    # Both kinds solved in one call; the frames' pairs come first.
    problem, dist = _pairs(pu_rows, ru_rows, np.concatenate([bm, mc[sl]]),
                           np.concatenate([bn, nc[sl]]),
                           np.concatenate([lead, n_frames + slice_lead]))
    del p_rows, r_rows, p_slice, r_slice, pu_rows, ru_rows  # the largest temporaries
    cut = np.searchsorted(problem, n_frames)
    pair_frame, d, pair_slice = problem[:cut], dist[:cut], problem[cut:] - n_frames

    # Class-agnostic sums per frame, then per file.
    k = np.minimum(bm, bn)
    # added from 0.0 in input order, as the accumulator adds; a repeat takes its run's first
    totals = np.bincount(pair_frame, d, minlength=n_frames)[lead]
    occ_file = file_of(occ)
    both_file = occ_file[both]
    pair_file = both_file[pair_frame]
    # bincount adds a file's frame totals one after another from 0.0, as the accumulator
    sums = dict(frames=grids, segments=-(-grids // spf), loc_k=per_file(both_file, k),
                loc_eq=grids - per_file(occ_file) + per_file(occ_file[m == n]),
                loc_frame_le_count=per_file(both_file), loc_dist=per_file(both_file, totals, float),
                loc_frame_le_sum=per_file(both_file, totals / k, float),
                loc_dist_t=np.zeros((n_files, n_t)), loc_k_t=np.zeros((n_files, n_t), np.int64),
                loc_eq_t=np.repeat((grids - per_file(occ_file[n > 0]))[:, None], n_t, axis=1))
    for t, theta in enumerate(config.thetas):
        hit = d <= theta + THRESHOLD_EPS
        sums["loc_k_t"][:, t] = per_file(pair_file[hit])
        sums["loc_dist_t"][:, t] = per_file(
            both_file, np.bincount(pair_frame[hit], d[hit], minlength=n_frames), float)
        sums["loc_eq_t"][:, t] += per_file(
            both_file[np.bincount(pair_frame, hit, minlength=n_frames) == bn])

    # Per-class sums per (segment, class), then per (file, class).
    d = dist[cut:]
    segs, seg_id, _ = sorted_unique(occ[keys // n_cls] // spf)
    sc, sc_of_key, _ = sorted_unique(seg_id * n_cls + keys % n_cls)
    sc_seg, sc_cls = sc // n_cls, sc % n_cls
    seg_file = file_of(segs * spf)
    sc_file = seg_file[sc_seg]
    pmax, rmax = np.zeros(len(sc), dtype=np.int64), np.zeros(len(sc), dtype=np.int64)
    np.maximum.at(pmax, sc_of_key, mc)
    np.maximum.at(rmax, sc_of_key, nc)
    pair_sc = sc_of_key[sl][pair_slice]
    n_pairs = np.bincount(pair_sc, minlength=len(sc))
    pair_sum = np.bincount(pair_sc, d, minlength=len(sc))

    def per_class(x, dtype=np.int64):  # (file x class) sums over segment-classes, in order
        return np.bincount(sc_file * n_cls + sc_cls, x, minlength=n_files * n_cls).reshape(
            n_files, n_cls).astype(dtype, copy=False)

    def substitutions(fp, fn):  # S of each file: min(FP, FN) of each segment, summed
        u_fp, u_fn = (np.bincount(sc_seg, x, minlength=len(segs)) for x in (fp, fn))
        return per_file(seg_file, np.minimum(u_fp, u_fn))

    ref_on, pred_on = rmax > 0, pmax > 0
    fp_seg, fn_seg = pred_on & ~ref_on, ref_on & ~pred_on
    sums.update(zip(("det_tp", "det_fp", "det_fn"), (
        per_file(sc_file[x]) for x in (ref_on & pred_on, fp_seg, fn_seg))))
    sums.update(det_s=substitutions(fp_seg, fn_seg))
    kk = np.minimum(pmax, rmax)
    sums.update(j_dist_f=per_class(pair_sum, float), j_pairs_f=per_class(n_pairs),
                j_n_f=per_class(np.bincount(sc_of_key, nc, minlength=len(sc))))
    sums.update(zip(("j_k_seg", "j_n_seg", "j_m_seg"), (per_class(x) for x in (kk, rmax, pmax))))

    # Joint counts (segment_class_counts), in the configured mode only.
    warned = [set() for _ in pairs]
    if config.loc_mode == "segment-mean":
        evidence = ref_on & pred_on
        q = np.flatnonzero(evidence)
        seg_index = segs - start[seg_file] // spf  # each segment's index in its own file
        means = []
        for side, row_key, units in (("prediction", p_key, pu), ("reference", r_key, ru)):
            sc_row = sc_of_key[row_key]
            mean, degenerate = mean_unit_vectors(np.stack(
                [np.bincount(sc_row, u, minlength=len(sc))[q] for u in units.T], 1))
            for i, j in zip(np.flatnonzero(degenerate), q[degenerate]):
                mean[i] = units[np.argmax(sc_row == j)]  # the pool's first direction
                warned[sc_file[j]].add(
                    f"degenerate {side} pool for {vocabulary.labels[sc_cls[j]]!r} in segment "
                    f"{seg_index[sc_seg[j]]}; fell back to its first direction")
            means.append(mean)
        rep = np.zeros(len(sc))  # 0 where a side is off, as kk is
        rep[q] = angles_between(*means)
        sums.update(j_dist_mean=per_class(rep * kk, float))
    else:
        evidence = n_pairs > 0
        rep = pair_sum / np.maximum(n_pairs, 1)
        sums.update(j_dist_mean=np.zeros((n_files, n_cls)))
    j_tp, j_s = np.zeros((n_files, n_t, n_cls), np.int64), np.zeros((n_files, n_t), np.int64)
    for t, theta in enumerate(class_thresholds(config, vocabulary)[:, sc_cls]):
        k_theta = np.where((theta >= 180.0) | (evidence & (rep <= theta + THRESHOLD_EPS)), kk, 0)
        j_tp[:, t], j_s[:, t] = per_class(k_theta), substitutions(pmax - k_theta, rmax - kk)
    return FileContribution(j_tp=j_tp, j_s=j_s, **sums, warnings=tuple(
        tuple(f"{name}: {w}" for w in sorted(ws)) for name, ws in zip(names, warned)))


def score_file(ref_path, pred_path, vocabulary: Vocabulary, config: EvaluationConfig) -> FileContribution:
    """Parse one file pair and accumulate every metric on its columns: the
    one-pair form of `score_batch`."""
    return score_batch([read_pair(ref_path, pred_path, vocabulary, config, {})], vocabulary,
                       config)[0]


def _score_pairs(pairs, vocabulary: Vocabulary, config: EvaluationConfig) -> FileContribution:
    """The table of a non-empty list of (reference, prediction) path pairs, a
    row per pair in order. The pairs are read in order by `read_pair`, each
    reference once when its pairs come one after another: only the current
    reference's rows are kept, for its later pairs. They are scored by
    `score_batch` in batches of at most MAX_BATCH_ROWS rows, a larger pair
    alone, and a full batch is scored before the next pair is read."""
    references, tables, batch, rows = {}, [], [], 0
    for ref_path, pred_path in pairs:
        if ref_path not in references:
            references.clear()  # the pairs on the reference before are all read
        pair = read_pair(ref_path, pred_path, vocabulary, config, references)
        size = len(pair[2][0]) + len(pair[3][0])
        if batch and rows + size > MAX_BATCH_ROWS:
            tables.append(score_batch(batch, vocabulary, config))
            batch, rows = [], 0
        batch.append(pair)
        rows += size
        if rows >= MAX_BATCH_ROWS:
            tables.append(score_batch(batch, vocabulary, config))
            batch, rows = [], 0
    return _concat(tables + ([score_batch(batch, vocabulary, config)] if batch else []))


def _ratio(num, den):
    return num / den if den else None


def compute_metrics(contrib: FileContribution, config: EvaluationConfig,
                    vocabulary: Vocabulary) -> tuple:
    """All metric values, keyed by `metric_keys`, plus the per-class breakdown
    for a contribution; undefined metrics are None."""
    le_micro = _ratio(contrib.loc_dist, contrib.loc_k)
    le_macro = _ratio(contrib.loc_frame_le_sum, contrib.loc_frame_le_count)
    loc_n = int(contrib.j_n_f.sum())  # frame-level reference count
    values = [
        _ratio(contrib.det_fn + contrib.det_fp - contrib.det_s, contrib.det_tp + contrib.det_fn),
        _ratio(2 * contrib.det_tp, 2 * contrib.det_tp + contrib.det_fp + contrib.det_fn),
        le_macro if config.le_mode == "macro" else le_micro, le_micro, le_macro,
        _ratio(contrib.loc_k, loc_n),
        _ratio(contrib.loc_eq, contrib.frames),
    ]
    for t in range(len(config.thetas)):
        kt = int(contrib.loc_k_t[t])
        values += [_ratio(float(contrib.loc_dist_t[t]), kt), _ratio(kt, loc_n),
                   _ratio(int(contrib.loc_eq_t[t]), contrib.frames)]

    per_class: dict = {}
    rows = []  # each present class's LE_c and LR_c, segment level, then frame level
    for ci, label in enumerate(vocabulary):
        if contrib.j_n_seg[ci] == 0 and contrib.j_m_seg[ci] == 0:
            continue  # class absent from references and predictions alike
        le_f = _ratio(float(contrib.j_dist_f[ci]), int(contrib.j_pairs_f[ci]))
        le_c = (_ratio(float(contrib.j_dist_mean[ci]), int(contrib.j_k_seg[ci]))
                if config.loc_mode == "segment-mean" else le_f)
        lr_c = _ratio(int(contrib.j_k_seg[ci]), int(contrib.j_n_seg[ci]))
        per_class[label] = {"le_c": le_c, "lr_c": lr_c}
        rows.append((le_c, lr_c, le_f, _ratio(int(contrib.j_pairs_f[ci]), int(contrib.j_n_f[ci]))))
    # LE_CD, LR_CD, LE_CD(f), LR_CD(f): each the mean over the classes where it is defined
    for col in range(4):
        defined = [row[col] for row in rows if row[col] is not None]
        values.append(sum(defined) / len(defined) if defined else None)

    n_seg, m_seg = int(contrib.j_n_seg.sum()), int(contrib.j_m_seg.sum())
    fn = n_seg - int(contrib.j_k_seg.sum())
    for t in range(len(config.thetas)):
        tp = int(contrib.j_tp[t].sum())
        fp = m_seg - tp
        values += [_ratio(fn + fp - int(contrib.j_s[t]), n_seg), _ratio(2 * tp, 2 * tp + fp + fn)]
    return dict(zip(metric_keys(config.thetas), values, strict=True)), per_class


def metric_directions(config: EvaluationConfig) -> dict:
    """True = higher is better, for every metric key the report emits: ER and
    LE in all their forms are errors, every other metric a success rate."""
    return {key: not key.startswith(("er", "le")) for key in metric_keys(config.thetas)}


def discover_pairs(ref_dir, pred_dir) -> list:
    """Filename-matched (ref_path, pred_path) pairs, sorted."""
    ref_dir = Path(ref_dir)
    pred_dir = Path(pred_dir)
    refs = reference_files(ref_dir)
    if not refs:
        raise MissingPair(f"no reference files found in {ref_dir}")
    if not pred_dir.is_dir():
        raise MissingPair(f"prediction directory not found: {pred_dir}")
    preds = {p.name for p in pred_dir.glob("*.csv")}
    missing = [p.name for p in refs if p.name not in preds]
    if missing:
        raise MissingPair(f"no prediction in {pred_dir} for reference file(s): "
                          f"{', '.join(missing)}")
    extra = sorted(preds - {p.name for p in refs})
    if extra:
        raise MissingPair(f"prediction file(s) in {pred_dir} without a reference: "
                          f"{', '.join(extra)}")
    return [(p, pred_dir / p.name) for p in refs]


class EvaluationResult(NamedTuple):
    config: EvaluationConfig
    vocabulary: Vocabulary
    files: list                  # the reference file names, sorted
    per_file: FileContribution   # the table: one row per file, in `files` order
    total: FileContribution      # per_file.total()
    metrics: dict                # compute_metrics of the total
    per_class: dict

    def jackknife(self, keys: Sequence[str] | None = None) -> dict:
        """Leave-one-out confidence intervals for the given metric keys.

        The point estimate is `metrics`, and the metrics are computed once
        per leave-one-out subset (the total less one file's row of the table);
        every key reads its values from those n + 1 metric maps.
        Returns {key: (low, high)}, the `jackknife_ci` bounds at
        `config.confidence`, for metrics where the interval exists;
        undefined metrics and undefined partials map to an error string
        instead of being silently skipped.
        """
        rest = self.total - self.per_file  # row i: every file but file i
        partials = {name: compute_metrics(rest[i], self.config, self.vocabulary)[0]
                    for i, name in enumerate(self.files)}
        out: dict = {}
        for key in self.metrics if keys is None else keys:
            if self.metrics.get(key) is None:
                out[key] = "undefined"
                continue
            try:
                out[key] = jackknife_ci(self.metrics[key],
                                        {name: m[key] for name, m in partials.items()},
                                        self.config.confidence)
            except UndefinedPartial as exc:
                out[key] = f"{type(exc).__name__}: {exc}: metric {key!r} undefined on this subset"
        return out


def _evaluate_systems(ref_dir, systems: Sequence, vocabulary: Vocabulary,
                      config: EvaluationConfig) -> list:
    """The EvaluationResult of each (id, prediction directory) system, in
    order, scored as the module docstring sets out; where there are several
    systems, a `MissingPair` names the system."""
    class_thresholds(config, vocabulary)  # refuses a per-class threshold for an unknown class
    found, missing = [], None
    for system_id, pred_dir in systems:
        try:
            found.append(discover_pairs(ref_dir, pred_dir))
        except MissingPair as exc:
            missing = exc if len(systems) == 1 else MissingPair(f"system {system_id!r}: {exc}")
            break
    if not found:
        raise missing
    n = len(found[0])  # every system pairs the same references
    pairs = [pair for same_ref in zip(*found) for pair in same_ref]  # reference by reference
    step = -(-n // config.jobs) * len(found)  # the pairs of ceil(n / jobs) references
    score = functools.partial(_score_pairs, vocabulary=vocabulary, config=config)
    if len(pairs) <= step:
        table = score(pairs)
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        slices = [pairs[i:i + step] for i in range(0, len(pairs), step)]  # one per worker
        with ProcessPoolExecutor(max_workers=len(slices)) as pool:
            table = _concat(list(pool.map(score, slices)))
    if missing is not None:
        raise missing
    results = []
    for s, paths in enumerate(found):
        per_file = table[s::len(found)]
        total = per_file.total()
        results.append(EvaluationResult(config, vocabulary, [ref.name for ref, _ in paths],
                                        per_file, total,
                                        *compute_metrics(total, config, vocabulary)))
    return results


def evaluate_directory(ref_dir, pred_dir, vocabulary: Vocabulary,
                       config: EvaluationConfig) -> EvaluationResult:
    """Score a directory of filename-matched reference/prediction pairs: the
    one-system call of `_evaluate_systems`, which keeps no reference's rows
    beyond the batch that scores them."""
    return _evaluate_systems(ref_dir, [(None, pred_dir)], vocabulary, config)[0]


OFFICIAL_METRICS = ("er", "f1", "le", "ecr")


def joint_metric_set(config: EvaluationConfig) -> tuple:
    # LE_CD, LR_CD, and the first threshold's ER and F: the last two keys of its report
    return ("le_cd", "lr_cd", *metric_keys(config.thetas[:1])[-2:])


def _system_values(ref_dir, systems: Sequence, vocabulary: Vocabulary,
                   config: EvaluationConfig, keys) -> dict:
    """Each metric key's values over the (id, prediction directory) systems, in order."""
    results = _evaluate_systems(ref_dir, systems, vocabulary, config)
    return {k: [r.metrics[k] for r in results] for k in keys}


def rank_systems(
    ref_dir,
    systems: Sequence,
    vocabulary: Vocabulary,
    config: EvaluationConfig,
    metric_set: str = "official",
) -> tuple:
    """Evaluate and rank systems by the cumulative rank of a metric set.

    Returns (values, ranks, rank_sums, final_ranks): each metric key's
    values over the systems, in their order, and their `build_rank_table`.
    A metric undefined for some system raises UndefinedValue naming the
    metric and those systems, sorted.
    """
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
    for key, vals in values.items():
        undefined = sorted(system_id for (system_id, _), v in zip(systems, vals) if v is None)
        if undefined:
            raise UndefinedValue(f"cannot rank systems: metric {key!r} is undefined for "
                                 f"system(s) {', '.join(map(repr, undefined))}")
    return (values, *build_rank_table(values, {k: directions[k] for k in keys}))


def correlation_metric_keys(config: EvaluationConfig) -> list:
    """The report's metric keys less LE's micro and macro forms, one of which LE is."""
    return [k for k in metric_keys(config.thetas) if k not in ("le_micro", "le_macro")]


def correlate_systems(
    ref_dir,
    systems: Sequence,
    vocabulary: Vocabulary,
    config: EvaluationConfig,
) -> tuple:
    """Spearman correlation matrix between the challenge rankings of every
    metric: each defined metric's column is its `metric_ranks` (rank 1 =
    best), and the last, "official_rank", is the `cumulative_rank` of the
    er, f1, le and ecr columns when all four are defined.

    Returns (metrics, matrix, warnings): the keys of the defined columns,
    "official_rank" last; their rho matrix in that order, None where the
    ranks are degenerate; and the warnings for what was skipped.
    """
    if len(systems) < 3:
        raise ConfigError("correlation needs at least three systems")
    directions = metric_directions(config)
    values = _system_values(ref_dir, systems, vocabulary, config, correlation_metric_keys(config))
    warnings: list = []

    columns: dict = {}
    for key, vals in values.items():
        if any(v is None for v in vals):
            warnings.append(f"metric {key!r} undefined for some system; skipped")
            continue
        columns[key] = metric_ranks(vals, directions[key])
    if all(k in columns for k in OFFICIAL_METRICS):
        columns["official_rank"] = cumulative_rank([columns[k] for k in OFFICIAL_METRICS])[1]
    else:
        warnings.append("official cumulative rank undefined for some system; skipped")

    names = list(columns)
    ranked = {name: rank_moments(col) for name, col in columns.items()}  # once per column
    matrix = []
    for a in names:
        row = []
        for b in names:
            try:
                row.append(rank_correlation(ranked[a], ranked[b]))
            except DegenerateRanks:
                row.append(None)
                warnings.append(f"degenerate ranks for {a!r} vs {b!r}")
        matrix.append(row)
    return names, matrix, warnings
