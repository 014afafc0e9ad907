"""Whole-corpus relations that follow from the paper's definitions.

Every metric is a ratio of counts summed over every frame and segment of
the evaluation set, so splitting a file at a segment boundary into two
files changes no count: every count metric stays exactly equal, and the
localization errors (LE, LE_theta, LE_CD, summed in another order) stay
equal within summation-order rounding. Permuting the vocabulary, with the
prediction class indices remapped, changes no count of any class either:
each class's LE_c and LR_c stay exactly equal, and so does every metric but
the means over classes, which add the classes in another order and stay
within a few ulps.

On corpora whose predictions `synthesize` makes, negating every elevation
on both sides keeps every value exactly, and so does permuting the systems
of `rank` and `correlate`, each system keeping its own values and ranks.
Negating every azimuth keeps every value within rounding, and exactly on
quarter-degree azimuths under frame-average. The table's total less one
file's row, the jackknife's partial, scores as the corpus without that file.

In the split and vocabulary relations, times lie on whole 0.25 s hops, so
that shifting the second half back to 0 s is exact.
"""

import math
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from seldeval import evaluation
from seldeval.annotations import EventRecord, Vocabulary, write_prediction_rows, write_reference
from seldeval.evaluation import (EvaluationConfig, compute_metrics, correlate_systems,
                                 evaluate_directory, rank_systems)
from seldeval.errors import SeldEvalError
from seldeval.geometry import Direction
from seldeval.synth import PerturbationSpec, synthesize

VOCAB = Vocabulary(["dog", "cat", "speech"])
HOP, SPF = 0.25, 4  # 1 s segments
# exact duplicates give exact ties; (0, 0)/(180, 0) and the poles are antipodal
GRID = [(0.0, 0.0), (180.0, 0.0), (90.0, 0.0), (-90.0, 0.0), (45.0, 0.0), (0.0, 90.0),
        (0.0, -90.0), (30.0, 30.0), (10.0, 0.0), (25.0, 0.0)]


@st.composite
def scenes(draw):
    """(frames, reference events as (class, first frame, end frame, direction),
    prediction rows as (frame, class, direction)) of a file of 2-4 segments."""
    frames = draw(st.integers(2, 4)) * SPF
    events = []
    for _ in range(draw(st.integers(0, 6))):
        first = draw(st.integers(0, frames - 1))
        events.append((draw(st.integers(0, 2)), first, draw(st.integers(first + 1, frames)),
                       draw(st.sampled_from(GRID))))
    rows = draw(st.lists(st.tuples(st.integers(0, frames - 1), st.integers(0, 2),
                                   st.sampled_from(GRID)), max_size=24))
    return frames, events, rows


@st.composite
def splits(draw):
    """A corpus of 1-3 scenes, the scene to split and the segment boundary to
    cut it at (a frame index), and the configuration."""
    corpus = draw(st.lists(scenes(), min_size=1, max_size=3))
    which = draw(st.integers(0, len(corpus) - 1))
    frames, events, rows = corpus[which]
    cut = draw(st.integers(1, frames // SPF - 1)) * SPF
    # A file's grid ends at its last row: a row in the frame before the cut ends the
    # first half's grid there, as the whole file's grid goes on past it.
    rows = rows + [(cut - 1, draw(st.integers(0, 2)), draw(st.sampled_from(GRID)))]
    corpus[which] = frames, events, rows
    return corpus, which, cut, draw(configs())


def configs():
    return st.builds(
        EvaluationConfig, frame_hop=st.just(HOP),
        thetas=st.sampled_from([(10.0, 30.0), (20.0,), (180.0,)]),
        theta_class=st.sampled_from([(), (("dog", 45.0),)]),
        loc_mode=st.sampled_from(["frame-average", "segment-mean"]),
        le_mode=st.sampled_from(["micro", "macro"]))


def split_scene(events, rows, cut):
    """The two halves of a scene cut at frame `cut`, the second shifted back
    to frame 0; an event over the cut is cut in two. Each half keeps the
    order of the events and rows it gets."""
    halves = ([], []), ([], [])
    for cls, first, end, direction in events:
        if first < cut:
            halves[0][0].append((cls, first, min(end, cut), direction))
        if end > cut:
            halves[1][0].append((cls, max(first, cut) - cut, end - cut, direction))
    for frame, cls, direction in rows:
        halves[frame >= cut][1].append((frame - cut if frame >= cut else frame, cls, direction))
    return halves


def write_files(root, files):
    """Each (name, events, rows) as ref/name and pred/name under `root`."""
    for side in ("ref", "pred"):
        (root / side).mkdir(parents=True)
    for name, events, rows in files:
        write_reference(root / "ref" / name, [
            EventRecord(VOCAB.labels[cls], first * HOP, end * HOP, Direction(*direction))
            for cls, first, end, direction in events])
        write_prediction_rows(root / "pred" / name,
                              [(frame, cls, *direction) for frame, cls, direction in rows])
    return root / "ref", root / "pred"


def assert_equal_but_le_sums(whole, split):
    """Two results' frames and metrics equal, but their LE forms within
    summation-order rounding."""
    assert split.total.frames == whole.total.frames
    assert split.metrics.keys() == whole.metrics.keys()
    for key, want in whole.metrics.items():
        got = split.metrics[key]
        if key.startswith("le") and want is not None:  # a float sum, added in another order
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), key
        else:
            assert got == want, key
    assert split.per_class.keys() == whole.per_class.keys()
    for label, want in whole.per_class.items():
        got = split.per_class[label]
        assert got["lr_c"] == want["lr_c"], label
        assert got["le_c"] == (None if want["le_c"] is None
                               else pytest.approx(want["le_c"], rel=1e-12, abs=1e-12)), label


@pytest.mark.parametrize("jobs, cap", [(1, evaluation.MAX_BATCH_ROWS),
                                       (2, evaluation.MAX_BATCH_ROWS), (1, 1)],
                         ids=["one-batch", "jobs-2", "small-batches"])
@given(split=splits())
@settings(max_examples=40, deadline=None)
def test_splitting_a_file_at_a_segment_boundary_keeps_every_metric(jobs, cap, split):
    corpus, which, cut, config = split
    whole_files, split_files = [], []
    for i, (_, events, rows) in enumerate(corpus):
        whole_files.append((f"f{i}.csv", events, rows))
        if i == which:
            first, second = split_scene(events, rows, cut)
            split_files += [(f"f{i}a.csv", *first), (f"f{i}b.csv", *second)]
        else:
            split_files.append((f"f{i}.csv", events, rows))
    with tempfile.TemporaryDirectory() as tmp:
        whole = evaluate_directory(*write_files(Path(tmp) / "whole", whole_files), VOCAB, config)
        # the split corpus's table is concatenated from several batches, or workers
        with mock.patch.object(evaluation, "MAX_BATCH_ROWS", cap):
            split = evaluate_directory(*write_files(Path(tmp) / "split", split_files), VOCAB,
                                       EvaluationConfig(**{**vars(config), "jobs": jobs}))
    assert_equal_but_le_sums(whole, split)


# The class means: LE_CD, LR_CD and their frame-level forms, each a left-to-right
# sum over the classes in vocabulary order, divided by their number.
CLASS_MEANS = ("le_cd", "lr_cd", "le_cd_f", "lr_cd_f")


@given(corpus=st.lists(scenes(), min_size=1, max_size=3),
       order=st.permutations(range(len(VOCAB))), config=configs())
@settings(max_examples=60, deadline=None)
def test_permuting_the_vocabulary_keeps_every_metric(corpus, order, config):
    # class i of the permuted vocabulary is class order[i] of VOCAB; the
    # reference files name classes by label and stay as they are
    vocabulary = Vocabulary([VOCAB.labels[i] for i in order])
    files = [(f"f{i}.csv", events, rows) for i, (_, events, rows) in enumerate(corpus)]
    permuted = [(name, events, [(frame, order.index(cls), d) for frame, cls, d in rows])
                for name, events, rows in files]
    with tempfile.TemporaryDirectory() as tmp:
        want = evaluate_directory(*write_files(Path(tmp) / "a", files), VOCAB, config)
        got = evaluate_directory(*write_files(Path(tmp) / "b", permuted), vocabulary, config)
    assert got.per_class == want.per_class
    assert got.total.warnings == want.total.warnings
    assert got.metrics.keys() == want.metrics.keys()
    for key, value in want.metrics.items():
        if key in CLASS_MEANS and value is not None:  # classes added in another order
            assert abs(got.metrics[key] - value) <= 4 * math.ulp(value), key
        else:
            assert got.metrics[key] == value, key


# Synth-made corpora: 2-3 reference files of any directions and times on a 0.01 s
# grid within 4 s, whose predictions `synthesize` draws from a perturbation spec.
SYNTH_HOP = 0.02
elevations = st.floats(-90, 90) | st.sampled_from([-90.0, -0.0, 0.0, 90.0])


def events_at(azimuths):
    return st.builds(lambda label, onset, length, az, el: EventRecord(
        label, onset / 100, (onset + length) / 100, Direction(az, el)),
        st.sampled_from(VOCAB.labels), st.integers(0, 350), st.integers(1, 150),
        azimuths, elevations)


events = events_at(st.floats(-180, 180))
specs = st.builds(PerturbationSpec, doa_jitter_deg=st.sampled_from([0.0, 5.0, 30.0]),
                  deletion_prob=st.sampled_from([0.0, 0.3]),
                  insertion_rate=st.sampled_from([0.0, 40.0]),
                  substitution_prob=st.sampled_from([0.0, 0.3]),
                  swap_locations=st.booleans(), seed=st.integers(0, 2 ** 16))
references = st.lists(st.lists(events, max_size=5), min_size=2, max_size=3)


def write_synth_corpus(root, refs, systems: dict) -> Path:
    """ref/f{i}.csv under `root` for each event list of `refs`, and beside it one
    prediction directory per system, made by `synthesize` from its spec."""
    (root / "ref").mkdir(parents=True)
    for i, events in enumerate(refs):
        write_reference(root / "ref" / f"f{i}.csv", events)
    for name, spec in systems.items():
        synthesize(root / "ref", root / name, spec, VOCAB, SYNTH_HOP)
    return root / "ref"


def mirror(src: Path, dst: Path, field: int) -> Path:
    """`dst` holding each CSV file of `src` with its rows' `field` negated: -1
    the elevation, -2 the azimuth, in either format."""
    dst.mkdir()
    for path in src.glob("*.csv"):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        for row in rows:
            row[field] = repr(-float(row[field]))
        (dst / path.name).write_text("".join(",".join(row) + "\n" for row in rows))
    return dst


@pytest.mark.parametrize("loc_mode", ["frame-average", "segment-mean"])
@given(refs=references, spec=specs, thetas=st.sampled_from([(10.0, 30.0), (20.0,)]),
       le_mode=st.sampled_from(["micro", "macro"]))
@settings(max_examples=60, deadline=None)
def test_negating_every_elevation_keeps_every_value(loc_mode, refs, spec, thetas, le_mode):
    # sin is odd and cos even, so every unit vector's z flips sign on both sides and
    # every dot product, chord and segment mean's norm keeps its bits
    config = EvaluationConfig(thetas=thetas, loc_mode=loc_mode, le_mode=le_mode)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ref = write_synth_corpus(root, refs, {"pred": spec})
        want = evaluate_directory(ref, root / "pred", VOCAB, config)
        got = evaluate_directory(mirror(ref, root / "ref_m", -1),
                                 mirror(root / "pred", root / "pred_m", -1), VOCAB, config)
    assert got.metrics == want.metrics
    assert got.per_class == want.per_class
    assert got.total.warnings == want.total.warnings
    assert got.jackknife() == want.jackknife()


def quarter_degrees(directory: Path) -> bool:
    """Whether every azimuth of the CSV files of `directory` is a multiple of
    0.25 deg strictly inside (-180, 180)."""
    return all(-180 < az < 180 and (4 * az).is_integer()
               for path in directory.glob("*.csv")
               for az in (float(line.split(",")[-2]) for line in path.read_text().splitlines()))


def assert_close(got, want, tol, key=()):
    """`got` equal to `want`, but each float within `tol` (relative,
    absolute) of its counterpart."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), key
        for k, value in want.items():
            assert_close(got[k], value, tol, (*key, k))
    elif isinstance(want, tuple):
        assert type(got) is type(want) and len(got) == len(want), key
        for i, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, tol, (*key, i))
    elif isinstance(want, float):
        assert type(got) is float and math.isclose(got, want, rel_tol=tol[0],
                                                    abs_tol=tol[1]), (key, got, want)
    else:
        assert got == want, key


# Quarter-degree azimuths, which `unit_vectors` wraps to themselves and their
# negations to theirs; with no jitter and no insertions the predictions keep them.
quarter_corpora = st.tuples(
    st.lists(st.lists(events_at(st.integers(-719, 719).map(lambda q: q / 4)), max_size=5),
             min_size=2, max_size=3),
    specs.map(lambda spec: replace(spec, doa_jitter_deg=0.0, insertion_rate=0.0)))
# (relative, absolute) rounding of a value, and of a jackknife entry. The acos of
# an LE scales an ulp of a dot product by 1 / sin(angle): up to about 2e-13 deg
# here. A jackknife bound scales its partials' by up to n * t(0.975, n - 1) < 40.
ROUNDING, JACKKNIFE_ROUNDING = (1e-13, 1e-12), (1e-13, 1e-10)


@pytest.mark.parametrize("loc_mode", ["frame-average", "segment-mean"])
@given(corpus=quarter_corpora | st.tuples(references, specs),
       thetas=st.sampled_from([(10.0, 30.0), (20.0,)]), le_mode=st.sampled_from(["micro", "macro"]))
@settings(max_examples=60, deadline=None)
def test_negating_every_azimuth_keeps_every_value_within_ulps(loc_mode, corpus, thetas, le_mode):
    # cos is even and sin odd, so every unit vector's y flips sign on both sides, but
    # the wrap to [-180, 180) rounds az and -az apart unless both are exact (+-180
    # both wrap to -180, whose y does not flip). A segment mean's own azimuth is
    # wrapped too, so only frame-average scores quarter degrees exactly.
    refs, spec = corpus
    config = EvaluationConfig(thetas=thetas, loc_mode=loc_mode, le_mode=le_mode)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ref = write_synth_corpus(root, refs, {"pred": spec})
        exact = (loc_mode == "frame-average" and quarter_degrees(ref)
                 and quarter_degrees(root / "pred"))
        want = evaluate_directory(ref, root / "pred", VOCAB, config)
        got = evaluate_directory(mirror(ref, root / "ref_m", -2),
                                 mirror(root / "pred", root / "pred_m", -2), VOCAB, config)
    exactly = (0.0, 0.0)
    assert_close(got.metrics, want.metrics, exactly if exact else ROUNDING)
    assert_close(got.per_class, want.per_class, exactly if exact else ROUNDING)
    assert_close(got.jackknife(), want.jackknife(), exactly if exact else JACKKNIFE_ROUNDING)


@pytest.mark.parametrize("loc_mode", ["frame-average", "segment-mean"])
@given(refs=references, spec=specs, thetas=st.sampled_from([(10.0, 30.0), (20.0,)]),
       le_mode=st.sampled_from(["micro", "macro"]))
@settings(max_examples=40, deadline=None)
def test_leaving_out_a_file_is_evaluating_without_it(loc_mode, refs, spec, thetas, le_mode):
    # the jackknife's partial for file i is the metrics of the table's total less
    # row i: the metrics of the corpus without file i, but for LE's summation order
    config = EvaluationConfig(thetas=thetas, loc_mode=loc_mode, le_mode=le_mode)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ref = write_synth_corpus(root, refs, {"pred": spec})
        whole = evaluate_directory(ref, root / "pred", VOCAB, config)
        for i, name in enumerate(whole.files):
            for side in ("ref", "pred"):
                copy = shutil.copytree(root / side, root / f"{side}-{i}")
                (copy / name).unlink()
            without = evaluate_directory(root / f"ref-{i}", root / f"pred-{i}", VOCAB, config)
            rest = whole.total - whole.per_file[i]
            metrics, per_class = compute_metrics(rest, config, VOCAB)
            assert_equal_but_le_sums(
                without, whole._replace(total=rest, metrics=metrics, per_class=per_class))


def by_system(table) -> dict:
    """Each system's values, ranks, rank sum and final rank in a `RankTable`."""
    return {system: ({k: v[i] for k, v in table.values.items()},
                     {k: r[i] for k, r in table.ranks.items()},
                     table.rank_sums[i], table.final_ranks[i])
            for i, system in enumerate(table.systems)}


@given(refs=st.lists(st.lists(events, min_size=1, max_size=5), min_size=2, max_size=3),
       systems=st.lists(specs, min_size=3, max_size=4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_permuting_the_systems_keeps_each_systems_ranks(refs, systems, data):
    # a system's values, ranks and rank sum are its own, and Spearman's samples are
    # the systems, so their order changes neither the matrix nor its warnings; a
    # ranking refused in one order is refused with the same error in the other
    config = EvaluationConfig()
    names = [f"s{k}" for k in range(len(systems))]
    order = data.draw(st.permutations(names))
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ref = write_synth_corpus(root, refs, dict(zip(names, systems)))
        for ids in (names, order):
            pairs = [(name, root / name) for name in ids]
            try:
                runs.append(by_system(rank_systems(ref, pairs, VOCAB, config)))
            except SeldEvalError as exc:
                runs.append((type(exc), str(exc)))
            runs.append(correlate_systems(ref, pairs, VOCAB, config))
    want_rank, want_corr, got_rank, got_corr = runs
    assert got_rank == want_rank
    assert (want_corr.systems, got_corr.systems) == (names, order)
    assert (got_corr.metrics, got_corr.matrix, got_corr.warnings) == (
        want_corr.metrics, want_corr.matrix, want_corr.warnings)
