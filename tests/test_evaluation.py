import numpy as np
import pytest

from seldeval import evaluation
from seldeval.annotations import EventRecord, Vocabulary, parse_reference
from seldeval.errors import ConfigError, MissingPair
from seldeval.evaluation import (
    EvaluationConfig,
    FileContribution,
    compute_metrics,
    evaluate_directory,
    metric_directions,
    rank_systems,
    score_file,
)
from seldeval.geometry import Direction
from seldeval.synth import PerturbationSpec, perturb, serialize_prediction
from conftest import make_corpus, write_corpus

VOCAB = Vocabulary(["dog", "cat", "speech"])


def make_system(ref_dir, out_dir, spec, vocab=VOCAB, hop=0.02):
    """Derive a prediction directory from the references via the spec."""
    import dataclasses

    out_dir.mkdir(parents=True, exist_ok=True)
    for index, ref_path in enumerate(sorted(ref_dir.glob("scene_*.csv"))):
        events = parse_reference(ref_path, vocab)
        out, _ = perturb(events, dataclasses.replace(spec, seed=spec.seed + index), vocab)
        serialize_prediction(out, hop, vocab, out_dir / ref_path.name)
    return out_dir


class TestConfig:
    def test_defaults(self):
        cfg = EvaluationConfig()
        assert cfg.frame_hop == 0.02
        assert cfg.segment_length == 1.0
        assert cfg.thetas == (10.0, 30.0)
        assert [p.key for p in cfg.profiles] == ["10", "30"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            EvaluationConfig(thetas=())
        with pytest.raises(ConfigError):
            EvaluationConfig(thetas=(0.0,))
        with pytest.raises(ConfigError):
            EvaluationConfig(thetas=(190.0,))
        with pytest.raises(ConfigError):
            EvaluationConfig(segment_length=0.03, frame_hop=0.02)
        with pytest.raises(ConfigError):
            EvaluationConfig(loc_mode="bogus")
        with pytest.raises(ConfigError):
            EvaluationConfig(confidence=1.0)

    def test_per_class_override(self):
        cfg = EvaluationConfig(theta_class=(("dog", 5.0),))
        profile = cfg.profiles[0]
        assert profile.theta_for("dog") == 5.0
        assert profile.theta_for("cat") == 10.0


class TestPipeline:
    def test_perfect_copy_scores_perfect(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 3, 8, seed=0)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(seed=0))
        report = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig()).report()
        m = report.metrics
        assert m["er"] == 0.0 and m["f1"] == 1.0
        assert m["le"] == 0.0 and m["lr"] == 1.0 and m["ecr"] == 1.0
        assert m["le_cd"] == 0.0 and m["lr_cd"] == 1.0
        for key in ("er_theta:10", "er_theta:30"):
            assert m[key] == 0.0
        for key in ("f_theta:10", "f_theta:30"):
            assert m[key] == 1.0

    def test_missing_pair(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=1)
        empty = tmp_path / "pred"
        empty.mkdir()
        with pytest.raises(MissingPair):
            evaluate_directory(ref_dir, empty, VOCAB, EvaluationConfig())

    def test_extra_prediction_rejected(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=1)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(seed=0))
        (pred_dir / "stray.csv").write_text("0,0,0,0\n")
        with pytest.raises(MissingPair):
            evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig())

    def test_contribution_merge_is_associative(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 4, 8, seed=2)
        pred_dir = make_system(
            ref_dir, tmp_path / "pred", PerturbationSpec(doa_jitter_deg=6.0, seed=5)
        )
        config = EvaluationConfig()
        result = evaluate_directory(ref_dir, pred_dir, VOCAB, config)
        names = sorted(result.per_file)
        half_a = sum(
            (result.per_file[n] for n in names[:2]),
            FileContribution.zeros(len(config.profiles), len(VOCAB)),
        )
        half_b = sum(
            (result.per_file[n] for n in names[2:]),
            FileContribution.zeros(len(config.profiles), len(VOCAB)),
        )
        merged, _ = compute_metrics(half_a + half_b, config, VOCAB)
        full, _ = compute_metrics(result.total, config, VOCAB)
        for key, value in full.items():
            if value is None:
                assert merged[key] is None
            else:
                assert merged[key] == pytest.approx(value, abs=1e-9), key

    def test_subtraction_matches_resum(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 4, 8, seed=3)
        pred_dir = make_system(
            ref_dir, tmp_path / "pred", PerturbationSpec(deletion_prob=0.2, seed=6)
        )
        config = EvaluationConfig()
        result = evaluate_directory(ref_dir, pred_dir, VOCAB, config)
        names = sorted(result.per_file)
        left_out = names[1]
        by_sub = result.total - result.per_file[left_out]
        by_sum = sum(
            (result.per_file[n] for n in names if n != left_out),
            FileContribution.zeros(len(config.profiles), len(VOCAB)),
        )
        m_sub, _ = compute_metrics(by_sub, config, VOCAB)
        m_sum, _ = compute_metrics(by_sum, config, VOCAB)
        for key, value in m_sum.items():
            if value is None:
                assert m_sub[key] is None
            else:
                assert m_sub[key] == pytest.approx(value, abs=1e-9), key

    def test_parallel_jobs_identical(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 4, 6, seed=4)
        pred_dir = make_system(
            ref_dir, tmp_path / "pred", PerturbationSpec(doa_jitter_deg=3.0, seed=7)
        )
        serial = evaluate_directory(
            ref_dir, pred_dir, VOCAB, EvaluationConfig(jobs=1)
        ).report()
        parallel = evaluate_directory(
            ref_dir, pred_dir, VOCAB, EvaluationConfig(jobs=3)
        ).report()
        assert serial.metrics == parallel.metrics

    def test_duration_fixes_frame_count(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 1, 4, seed=5)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(seed=0))
        report = evaluate_directory(
            ref_dir, pred_dir, VOCAB, EvaluationConfig(duration=60.0)
        ).report()
        assert report.frames == 3000
        assert report.segments == 60

    def test_le_mode_macro_swaps_headline(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 8, seed=6)
        pred_dir = make_system(
            ref_dir, tmp_path / "pred", PerturbationSpec(doa_jitter_deg=5.0, seed=8)
        )
        micro = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig()).report()
        macro = evaluate_directory(
            ref_dir, pred_dir, VOCAB, EvaluationConfig(le_mode="macro")
        ).report()
        assert micro.metrics["le"] == micro.metrics["le_micro"]
        assert macro.metrics["le"] == macro.metrics["le_macro"]

    def test_per_class_threshold_changes_joint_counts(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 8, seed=7)
        pred_dir = make_system(
            ref_dir, tmp_path / "pred", PerturbationSpec(doa_jitter_deg=7.0, seed=9)
        )
        plain = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig()).report()
        strict = evaluate_directory(
            ref_dir, pred_dir, VOCAB,
            EvaluationConfig(theta_class=tuple((lb, 1.0) for lb in VOCAB)),
        ).report()
        assert plain.metrics["f_theta:10"] == 1.0
        assert strict.metrics["f_theta:10"] == 0.0


    def test_per_class_threshold_for_unknown_class(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 8, seed=7)
        with pytest.raises(ConfigError, match="'typo'"):
            evaluate_directory(ref_dir, ref_dir, VOCAB,
                               EvaluationConfig(theta_class=(("typo", 5.0),)))


class TestJackknifeIntegration:
    def test_constant_metric_zero_width(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 5, 6, seed=8)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(seed=0))
        result = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig())
        ci = result.jackknife(["er", "f1", "le_cd"])
        for key in ("er", "f1", "le_cd"):
            est = ci[key]
            assert est.low == pytest.approx(est.point, abs=1e-9)
            assert est.high == pytest.approx(est.point, abs=1e-9)

    def test_intervals_contain_point_on_noisy_system(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 8, 8, seed=9)
        pred_dir = make_system(
            ref_dir, tmp_path / "pred",
            PerturbationSpec(doa_jitter_deg=10.0, deletion_prob=0.2, seed=10),
        )
        result = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig())
        ci = result.jackknife(["er", "f1", "le", "lr", "ecr", "lr_cd"])
        for key, est in ci.items():
            assert not isinstance(est, str), (key, est)
            assert est.low <= est.point <= est.high

    def test_undefined_metric_reported_not_crashed(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 3, 6, seed=10)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(deletion_prob=1.0, seed=0))
        result = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig())
        ci = result.jackknife(["le"])
        assert ci["le"] == "undefined"

    def test_undefined_partial_names_the_file(self, tmp_path):
        # only a.csv has a prediction: leaving it out leaves LE without associations
        dog = [EventRecord("dog", 0.0, 1.0, Direction(0, 0))]
        ref_dir = write_corpus(tmp_path / "ref", {"a.csv": dog, "b.csv": dog}, VOCAB)
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        serialize_prediction(dog, 0.02, VOCAB, pred_dir / "a.csv")
        (pred_dir / "b.csv").write_text("")
        result = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig())
        ci = result.jackknife(["le", "lr"])
        assert ci["le"] == ("UndefinedPartial: metric undefined when leaving out 'a.csv': "
                            "metric 'le' undefined on this subset")
        assert ci["lr"].point == 0.5

    def test_scores_each_subset_once(self, tmp_path, monkeypatch):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 4, 6, seed=12)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(doa_jitter_deg=5.0, seed=2))
        result = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig())
        calls = []

        def counted(*args):
            calls.append(args[0])
            return compute_metrics(*args)

        monkeypatch.setattr(evaluation, "compute_metrics", counted)
        ci = result.jackknife()
        assert len(calls) == 4 + 1
        assert set(ci) == set(compute_metrics(result.total, result.config, VOCAB)[0])


class TestRanking:
    def test_strictly_better_system_ranks_first(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 3, 8, seed=11)
        good = make_system(ref_dir, tmp_path / "good", PerturbationSpec(doa_jitter_deg=2.0, seed=1))
        bad = make_system(
            ref_dir, tmp_path / "bad",
            PerturbationSpec(doa_jitter_deg=25.0, deletion_prob=0.3, seed=2),
        )
        table, _ = rank_systems(
            ref_dir, [("good", good), ("bad", bad)], VOCAB, EvaluationConfig(), "official"
        )
        assert table.final_ranks == [1, 2]
        joint_table, _ = rank_systems(
            ref_dir, [("good", good), ("bad", bad)], VOCAB, EvaluationConfig(), "joint"
        )
        assert joint_table.final_ranks == [1, 2]

    def test_identical_systems_tie(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=12)
        a = make_system(ref_dir, tmp_path / "a", PerturbationSpec(doa_jitter_deg=5.0, seed=3))
        b = make_system(ref_dir, tmp_path / "b", PerturbationSpec(doa_jitter_deg=5.0, seed=3))
        table, _ = rank_systems(
            ref_dir, [("a", a), ("b", b)], VOCAB, EvaluationConfig(), "official"
        )
        assert table.final_ranks == [1.5, 1.5]

    def test_needs_two_systems(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=13)
        a = make_system(ref_dir, tmp_path / "a", PerturbationSpec(seed=0))
        with pytest.raises(ConfigError):
            rank_systems(ref_dir, [("a", a)], VOCAB, EvaluationConfig(), "official")


class TestMetricDirections:
    def test_covers_all_report_keys(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 1, 4, seed=14)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(seed=0))
        config = EvaluationConfig()
        report = evaluate_directory(ref_dir, pred_dir, VOCAB, config).report()
        directions = metric_directions(config)
        assert set(report.metrics) == set(directions)
