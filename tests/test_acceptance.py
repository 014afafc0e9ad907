"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines inline).
"""

import dataclasses
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from seldeval.annotations import (
    EventRecord,
    Vocabulary,
    parse_reference,
    rasterize,
    segmentize,
)
from seldeval.assignment import DistanceMatrix, hungarian
from seldeval.cli import main as cli_main
from seldeval.evaluation import (
    EvaluationConfig,
    evaluate_directory,
    rank_systems,
    score_file,
)
from seldeval.geometry import Direction
from seldeval.stats import jackknife_ci, metric_ranks, spearman
from seldeval.synth import PerturbationSpec, perturb, serialize_prediction
from conftest import make_corpus, write_corpus

VOCAB11 = Vocabulary([f"class_{i:02d}" for i in range(11)])


def _ok(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def _derive_predictions(ref_dir, out_dir, spec, vocabulary, hop=0.02):
    out_dir.mkdir(parents=True, exist_ok=True)
    logs = {}
    for index, ref_path in enumerate(sorted(ref_dir.glob("scene_*.csv"))):
        events = parse_reference(ref_path, vocabulary)
        out, log = perturb(
            events, dataclasses.replace(spec, seed=spec.seed + index), vocabulary
        )
        serialize_prediction(out, hop, vocabulary, out_dir / ref_path.name)
        logs[ref_path.name] = log
    return out_dir, logs


def test_criterion_01_fig3_golden(tmp_path):
    """Swapped-locations scene: perfect independent metrics, degraded joint."""
    start = time.perf_counter()
    vocab = Vocabulary(["speech", "dog"])
    ref_events = [
        EventRecord("speech", 0.0, 2.0, Direction(-80, 0)),
        EventRecord("dog", 0.0, 2.0, Direction(80, 0)),  # 160 deg cross distance
    ]
    ref_dir = write_corpus(tmp_path / "ref", {"scene_000.csv": ref_events}, vocab)
    twin_dir, _ = _derive_predictions(ref_dir, tmp_path / "twin", PerturbationSpec(seed=0), vocab)
    swapped_dir, logs = _derive_predictions(
        ref_dir, tmp_path / "swapped", PerturbationSpec(swap_locations=True, seed=0), vocab
    )
    assert [e["type"] for e in logs["scene_000.csv"]] == ["swap"]

    config = EvaluationConfig(thetas=(10.0, 30.0))
    twin = evaluate_directory(ref_dir, twin_dir, vocab, config).metrics
    swap = evaluate_directory(ref_dir, swapped_dir, vocab, config).metrics

    for metrics in (twin, swap):  # independent metrics identical and perfect
        assert metrics["er"] == pytest.approx(0.0, abs=1e-9)
        assert metrics["f1"] == pytest.approx(1.0, abs=1e-9)
        assert metrics["le"] == pytest.approx(0.0, abs=1e-6)
        assert metrics["ecr"] == pytest.approx(1.0, abs=1e-9)

    assert swap["er_theta:10"] == pytest.approx(1.0, abs=1e-9)
    assert swap["f_theta:10"] == pytest.approx(0.0, abs=1e-9)
    assert swap["le_cd"] == pytest.approx(160.0, abs=1e-6)
    assert swap["lr_cd"] == pytest.approx(1.0, abs=1e-9)

    assert twin["er_theta:10"] == pytest.approx(0.0, abs=1e-9)
    assert twin["f_theta:10"] == pytest.approx(1.0, abs=1e-9)
    assert twin["le_cd"] == pytest.approx(0.0, abs=1e-6)
    assert twin["lr_cd"] == pytest.approx(1.0, abs=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _ok("1 (fig3 golden)")


def test_criterion_02_fig4_golden(tmp_path):
    """4 references / 3 predictions with d1 <= 10 <= d2."""
    start = time.perf_counter()
    vocab = Vocabulary(["dog", "car_horn", "cat", "child"])
    d1, d2 = 5.0, 20.0
    # the scene as events filling one 1-second segment
    ref_events = [
        EventRecord("dog", 0.0, 1.0, Direction(0, 0)),
        EventRecord("dog", 0.0, 1.0, Direction(120, 0)),
        EventRecord("car_horn", 0.0, 1.0, Direction(-120, 0)),
        EventRecord("child", 0.0, 1.0, Direction(60, 30)),
    ]
    pred_events = [
        EventRecord("dog", 0.0, 1.0, Direction(d1, 0)),
        EventRecord("car_horn", 0.0, 1.0, Direction(-120 + d2, 0)),
        EventRecord("cat", 0.0, 1.0, Direction(-60, -30)),
    ]
    ref_dir = write_corpus(tmp_path / "ref", {"scene_000.csv": ref_events}, vocab)
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    serialize_prediction(pred_events, 0.02, vocab, pred_dir / "scene_000.csv")
    config = EvaluationConfig(thetas=(10.0, 30.0))
    contrib = score_file(ref_dir / "scene_000.csv", pred_dir / "scene_000.csv", vocab, config)
    tp = int(contrib.j_tp[0].sum())  # FP = M - TP, FN = N - min(M, N), as compute_metrics has them
    fp, fn = int(contrib.j_m_seg.sum()) - tp, int((contrib.j_n_seg - contrib.j_k_seg).sum())
    assert (tp, fp, fn) == (1, 2, 2)  # fn is one count for every threshold
    assert int(contrib.j_tp[1].sum()) == 2  # d2 is within 30 degrees
    report = evaluate_directory(ref_dir, pred_dir, vocab, config)
    assert report.metrics["f_theta:10"] == pytest.approx(1 / 3, abs=1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    _ok("2 (fig4 golden)")


def test_criterion_03_assignment_oracle():
    """Hungarian equals exhaustive minimum on 10,000 random matrices."""
    start = time.perf_counter()
    perm_cache = {}

    def brute_min(values, m, n):
        if m == 0 or n == 0:
            return 0.0
        arr = np.asarray(values)
        transposed = m > n
        if transposed:
            arr = arr.T
            m, n = n, m
        key = (m, n)
        if key not in perm_cache:
            perm_cache[key] = np.array(list(itertools.permutations(range(n), m)), dtype=np.intp)
        perms = perm_cache[key]
        costs = arr[np.arange(m)[None, :], perms].sum(axis=1)
        return float(costs.min())

    rng = random.Random(20260810)
    checked = 0
    for _ in range(10_000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        values = tuple(tuple(rng.uniform(0.0, 180.0) for _ in range(n)) for _ in range(m))
        d = DistanceMatrix(values, cols=n)
        a = hungarian(d)
        assert a.k == min(m, n)
        assert abs(a.cost(d) - brute_min(values, m, n)) <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 10_000
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"
    _ok(f"3 (assignment oracle, {checked} matrices in {elapsed:.1f}s)")


def test_criterion_04_jitter_oracle(tmp_path):
    """5-degree jitter over 100 files: LE_CD = 5 exactly up to rounding."""
    start = time.perf_counter()
    ref_dir = make_corpus(tmp_path / "ref", VOCAB11, 100, 10, seed=7_000)
    pred_dir, _ = _derive_predictions(
        ref_dir, tmp_path / "pred", PerturbationSpec(doa_jitter_deg=5.0, seed=0), VOCAB11
    )
    config = EvaluationConfig(thetas=(3.0, 10.0))
    metrics = evaluate_directory(ref_dir, pred_dir, VOCAB11, config).metrics
    assert metrics["le_cd"] == pytest.approx(5.0, abs=0.01)
    assert metrics["lr_cd"] == pytest.approx(1.0, abs=1e-9)
    assert metrics["f_theta:10"] == pytest.approx(1.0, abs=1e-9)
    assert metrics["f_theta:3"] == pytest.approx(0.0, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.2f}s"
    _ok(f"4 (jitter oracle, {elapsed:.1f}s)")


def test_criterion_05_deletion_oracle(tmp_path):
    """30% deletions over 2000 events: LR_CD drop and exact detection ER."""
    n_files, events_per_file = 50, 40  # 2000 events
    ref_dir = make_corpus(tmp_path / "ref", VOCAB11, n_files, events_per_file, seed=8_000)
    pred_dir, logs = _derive_predictions(
        ref_dir, tmp_path / "pred", PerturbationSpec(deletion_prob=0.3, seed=31), VOCAB11
    )
    config = EvaluationConfig()
    report = evaluate_directory(ref_dir, pred_dir, VOCAB11, config)

    assert abs((1.0 - report.metrics["lr_cd"]) - 0.3) <= 0.03

    # independent detection oracle: segment-level class activities from
    # raw event intervals, no rasterization involved
    def activities(events):
        active = set()
        for ev in events:
            seg = math.floor(ev.onset + 1e-9)
            while seg < ev.offset - 1e-9:
                active.add((seg, ev.label))
                seg += 1
        return active

    deleted_activity = 0
    total_activity = 0
    for ref_path in sorted(ref_dir.glob("scene_*.csv")):
        events = parse_reference(ref_path, VOCAB11)
        deleted_idx = {
            e["source_index"] for e in logs[ref_path.name] if e["type"] == "deletion"
        }
        survivors = [ev for i, ev in enumerate(events) if i not in deleted_idx]
        ref_act = activities(events)
        pred_act = activities(survivors)
        assert pred_act <= ref_act
        deleted_activity += len(ref_act - pred_act)
        total_activity += len(ref_act)
    expected_er = deleted_activity / total_activity
    assert report.metrics["er"] == pytest.approx(expected_er, abs=1e-12)
    _ok(f"5 (deletion oracle, 1-LR_CD={1 - report.metrics['lr_cd']:.3f}, ER={expected_er:.3f})")


def test_criterion_06_threshold_monotonicity(tmp_path):
    """F/ER/LR monotone over the sweep; theta=180 equals instance-level F."""
    thetas = (1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0, 180.0)
    ref_dir = make_corpus(tmp_path / "ref", VOCAB11, 10, 12, seed=9_000)
    pred_dir, _ = _derive_predictions(
        ref_dir, tmp_path / "pred",
        PerturbationSpec(doa_jitter_deg=8.0, deletion_prob=0.2, insertion_rate=6.0,
                         substitution_prob=0.1, seed=5),
        VOCAB11,
    )
    config = EvaluationConfig(thetas=thetas)
    metrics = evaluate_directory(ref_dir, pred_dir, VOCAB11, config).metrics

    keys = [f"{t:g}" for t in thetas]
    f_vals = [metrics[f"f_theta:{k}"] for k in keys]
    er_vals = [metrics[f"er_theta:{k}"] for k in keys]
    lr_vals = [metrics[f"lr_theta:{k}"] for k in keys]
    assert f_vals == sorted(f_vals)
    assert er_vals == sorted(er_vals, reverse=True)
    assert lr_vals == sorted(lr_vals)

    # location-agnostic instance-level F over the same segment multisets
    tp = fp = fn = 0
    for ref_path in sorted(ref_dir.glob("scene_*.csv")):
        events = parse_reference(ref_path, VOCAB11)
        from seldeval.annotations import densify, parse_prediction

        sparse = parse_prediction(pred_dir / ref_path.name, VOCAB11, 0.02)
        total = max(
            max((s.index + 1 for s in sparse), default=0),
            max(
                (math.ceil(ev.offset / 0.02 - 1e-9) for ev in events), default=0
            ),
        )
        views = segmentize(
            densify(sparse, total), rasterize(events, 0.02, total), 1.0, 0.02
        )
        for view in views:
            for stats in view.classes.values():
                k = min(stats.pred_max, stats.ref_max)
                tp += k
                fp += stats.pred_max - k
                fn += stats.ref_max - k
    f_instance = 2 * tp / (2 * tp + fp + fn)
    assert metrics["f_theta:180"] == pytest.approx(f_instance, abs=1e-12)
    _ok("6 (threshold monotonicity sweep)")


def test_criterion_07_jackknife_sanity(tmp_path):
    """Zero-width for constant metrics, pinned n=3 fixture, containment."""
    # (a) per-file-constant metric gives a zero-width interval
    vocab = Vocabulary(["speech", "dog"])
    ref_dir = make_corpus(tmp_path / "ref", vocab, 5, 6, seed=10_000)
    pred_dir, _ = _derive_predictions(ref_dir, tmp_path / "pred", PerturbationSpec(seed=0), vocab)
    result = evaluate_directory(ref_dir, pred_dir, vocab, EvaluationConfig())
    for key, est in result.jackknife(["er", "f1", "le", "lr_cd"]).items():
        assert not isinstance(est, str), key
        assert est.high - est.low == pytest.approx(0.0, abs=1e-9)
        assert est.point == pytest.approx(est.low, abs=1e-9)

    # (b) hand-computed n=3 pseudo-value fixture reproduces to 1e-9
    est = jackknife_ci(0.5, {"a": 0.4, "b": 0.5, "c": 0.6}, confidence=0.95)
    assert est.point == pytest.approx(0.5, abs=1e-12)
    assert est.low == pytest.approx(0.0031724576499337857, abs=1e-9)
    assert est.high == pytest.approx(0.9968275423500662, abs=1e-9)

    # (c) intervals contain the point estimate on 100 random fixtures
    for seed in range(100):
        rng = random.Random(seed)
        values = {f"f{i}": rng.uniform(0, 1) for i in range(rng.randint(3, 25))}
        names = sorted(values)

        def mean(subset):
            return sum(values[k] for k in subset) / len(subset)

        est = jackknife_ci(mean(names), {k: mean([n for n in names if n != k]) for k in names},
                           confidence=0.95)
        assert est.low <= est.point <= est.high
    _ok("7 (jackknife sanity)")


def test_criterion_08_ranking_and_correlation():
    assert metric_ranks([96.7, 95.5, 94.7], higher_better=True) == [1, 2, 3]
    assert spearman([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == 1.0
    assert spearman([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]) == -1.0
    assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-15)
    _ok("8 (ranking and correlation fixtures)")


def test_criterion_09_determinism(tmp_path):
    """Byte-identical JSON from evaluate and synth, serial and parallel."""
    ref_dir = make_corpus(tmp_path / "ref", VOCAB11, 6, 8, seed=11_000)

    synth_args = ["synth", "--ref", str(ref_dir), "--seed", "3", "--jitter", "6",
                  "--delete-prob", "0.2", "--insert-rate", "4", "--sub-prob", "0.1"]
    out1, out2 = tmp_path / "synth1", tmp_path / "synth2"
    assert cli_main(synth_args + ["--out", str(out1)]) == 0
    assert cli_main(synth_args + ["--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    reports = []
    for jobs, name in (("1", "r1.json"), ("1", "r2.json"), ("2", "r3.json")):
        path = tmp_path / name
        assert cli_main([
            "evaluate", "--ref", str(ref_dir), "--pred", str(out1),
            "--format", "json", "--jobs", jobs, "--out", str(path),
        ]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    _ok("9 (determinism incl. parallel)")


def test_criterion_10_rank_shift_on_misassociation(tmp_path):
    """Random/swapped DoA-to-class association slips in the joint ranking."""
    ref_dir = make_corpus(
        tmp_path / "ref", VOCAB11, 8, 12, seed=12_000, overlapping=True
    )
    systems = []
    specs = {
        "misassoc": PerturbationSpec(swap_locations=True, seed=1),
        "tight": PerturbationSpec(doa_jitter_deg=2.0, seed=2),
        "medium": PerturbationSpec(doa_jitter_deg=6.0, deletion_prob=0.05, seed=3),
        "loose": PerturbationSpec(doa_jitter_deg=12.0, deletion_prob=0.1, seed=4),
        "noisy": PerturbationSpec(doa_jitter_deg=20.0, deletion_prob=0.15,
                                  substitution_prob=0.1, seed=5),
    }
    for name, spec in specs.items():
        pred_dir, _ = _derive_predictions(ref_dir, tmp_path / name, spec, VOCAB11)
        systems.append((name, pred_dir))

    config = EvaluationConfig()
    official = rank_systems(ref_dir, systems, VOCAB11, config, "official")
    joint = rank_systems(ref_dir, systems, VOCAB11, config, "joint")
    idx = official.systems.index("misassoc")
    official_rank = official.final_ranks[idx]
    joint_rank = joint.final_ranks[joint.systems.index("misassoc")]
    assert official_rank == 1  # perfect on every independent metric
    assert official_rank < joint_rank
    _ok(f"10 (rank shift: official {official_rank} -> joint {joint_rank})")
