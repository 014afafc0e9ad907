import concurrent.futures
import pickle
import weakref

import numpy as np
import pytest

from seldeval import evaluation
from seldeval.annotations import EventRecord, Vocabulary, parse_reference
from seldeval.errors import ConfigError, MissingPair
from seldeval.evaluation import (
    EvaluationConfig,
    class_thresholds,
    compute_metrics,
    evaluate_directory,
    metric_directions,
    metric_keys,
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


def shown(result):
    """Everything an `evaluate` report shows of a result."""
    total = result.total
    return (len(result.files), total.frames, total.segments, result.metrics, result.per_class,
            total.warnings)


class TestConfig:
    def test_defaults(self):
        cfg = EvaluationConfig()
        assert cfg.frame_hop == 0.02
        assert cfg.segment_length == 1.0
        assert cfg.thetas == (10.0, 30.0)
        assert [k.partition(":")[2] for k in metric_keys(cfg.thetas)
                if k.startswith("f_theta:")] == ["10", "30"]

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

    @pytest.mark.parametrize("bad", [
        dict(frame_hop=0.0), dict(frame_hop=0.02, segment_length=0.03), dict(thetas=()),
        dict(thetas=(0.0,)), dict(thetas=(181.0,)), dict(thetas=(10.0, 10.0)),
        dict(theta_class=(("dog", 0.0),)), dict(theta_class=(("dog", 5.0), ("dog", 6.0))),
        dict(loc_mode="bogus"), dict(le_mode="bogus"), dict(confidence=0.0),
        dict(duration=0.0), dict(duration=1e12), dict(jobs=0),
    ])
    def test_every_check_runs_on_construction(self, bad):
        # the checks are the constructor's: no value of the list makes a config
        with pytest.raises(ConfigError):
            EvaluationConfig(**bad)

    def test_per_class_override(self):
        cfg = EvaluationConfig(theta_class=(("dog", 5.0),))
        thresholds = class_thresholds(cfg, VOCAB)
        assert thresholds.shape == (2, 3)
        assert thresholds[0, VOCAB.index("dog")] == 5.0
        assert thresholds[0, VOCAB.index("cat")] == 10.0
        assert thresholds[1].tolist() == [5.0, 30.0, 30.0]

    def test_per_class_threshold_given_twice_refused(self):
        # the first would score while the report's config echo showed the last
        with pytest.raises(ConfigError, match="'cough'"):
            EvaluationConfig(theta_class=(("cough", 5.0), ("cough", 170.0)))
        with pytest.raises(ConfigError, match="'dog'"):
            EvaluationConfig(theta_class=(("dog", 5.0), ("cat", 7.0), ("dog", 5.0)))


class TestPipeline:
    def test_perfect_copy_scores_perfect(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 3, 8, seed=0)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(seed=0))
        report = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig())
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
        half_a = result.per_file[:2].total()
        half_b = result.per_file[2:].total()
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
        by_sub = result.total - result.per_file[1]
        by_sum = result.per_file[:1].total() + result.per_file[2:].total()
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
        )
        parallel = evaluate_directory(
            ref_dir, pred_dir, VOCAB, EvaluationConfig(jobs=3)
        )
        assert serial.metrics == parallel.metrics

    def test_duration_fixes_frame_count(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 1, 4, seed=5)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(seed=0))
        report = evaluate_directory(
            ref_dir, pred_dir, VOCAB, EvaluationConfig(duration=60.0)
        ).total
        assert report.frames == 3000
        assert report.segments == 60

    def test_le_mode_macro_swaps_headline(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 8, seed=6)
        pred_dir = make_system(
            ref_dir, tmp_path / "pred", PerturbationSpec(doa_jitter_deg=5.0, seed=8)
        )
        micro = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig())
        macro = evaluate_directory(
            ref_dir, pred_dir, VOCAB, EvaluationConfig(le_mode="macro")
        )
        assert micro.metrics["le"] == micro.metrics["le_micro"]
        assert macro.metrics["le"] == macro.metrics["le_macro"]

    def test_per_class_threshold_changes_joint_counts(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 8, seed=7)
        pred_dir = make_system(
            ref_dir, tmp_path / "pred", PerturbationSpec(doa_jitter_deg=7.0, seed=9)
        )
        plain = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig())
        strict = evaluate_directory(
            ref_dir, pred_dir, VOCAB,
            EvaluationConfig(theta_class=tuple((lb, 1.0) for lb in VOCAB)),
        )
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
        calls = []

        def counted(*args):
            calls.append(args[0])
            return compute_metrics(*args)

        monkeypatch.setattr(evaluation, "compute_metrics", counted)
        # the point estimate is the metrics evaluate_directory stored
        result = evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig())
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
        table = rank_systems(
            ref_dir, [("good", good), ("bad", bad)], VOCAB, EvaluationConfig(), "official"
        )
        assert table.final_ranks == [1, 2]
        joint_table = rank_systems(
            ref_dir, [("good", good), ("bad", bad)], VOCAB, EvaluationConfig(), "joint"
        )
        assert joint_table.final_ranks == [1, 2]

    def test_identical_systems_tie(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=12)
        a = make_system(ref_dir, tmp_path / "a", PerturbationSpec(doa_jitter_deg=5.0, seed=3))
        b = make_system(ref_dir, tmp_path / "b", PerturbationSpec(doa_jitter_deg=5.0, seed=3))
        table = rank_systems(
            ref_dir, [("a", a), ("b", b)], VOCAB, EvaluationConfig(), "official"
        )
        assert table.final_ranks == [1.5, 1.5]

    def test_needs_two_systems(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=13)
        a = make_system(ref_dir, tmp_path / "a", PerturbationSpec(seed=0))
        with pytest.raises(ConfigError):
            rank_systems(ref_dir, [("a", a)], VOCAB, EvaluationConfig(), "official")


class FakePool:
    """A ProcessPoolExecutor that starts no process. It logs its start, with
    the workers asked for, apart from each function it maps, and maps in this
    process on pickled copies of the function and its groups, as the workers
    would get them."""

    def __init__(self, log, max_workers):
        self.log = log
        log.append(("start", max_workers))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        self.log.append(("map", fn))
        return map(pickle.loads(pickle.dumps(fn)), *pickle.loads(pickle.dumps(iterables)))


def started(pools):
    """The workers of each pool started, in order."""
    return [size for event, size in pools if event == "start"]


COMMANDS = {"rank": evaluation.rank_systems, "correlate": evaluation.correlate_systems}


@pytest.fixture
def pools(monkeypatch):
    """The log of every FakePool the code under test starts instead of a
    ProcessPoolExecutor."""
    log = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: FakePool(log, max_workers))
    return log


class TestJobs:
    """Every --jobs value scores slices of whole references, each with every
    system's pairs on them, through `_score_pairs`: one slice in this
    process, more through one map of the command's one pool, started with
    one worker per slice. There are as many slices as --jobs cuts the
    reference files into groups."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("jobs")
        ref_dir = make_corpus(root / "ref", VOCAB, 4, 6, seed=17)
        return ref_dir, [(f"s{k}", make_system(ref_dir, root / f"s{k}", PerturbationSpec(
            doa_jitter_deg=6.0 * k, deletion_prob=0.2, seed=5 + k))) for k in range(3)]

    @pytest.mark.parametrize("files, jobs, workers", [(2, 8, [2]), (4, 3, [2]), (1, 4, [])])
    def test_one_worker_per_group(self, tmp_path, corpus, pools, files, jobs, workers):
        ref_dir, [(_, pred_dir), *_] = corpus
        for side, source in (("ref", ref_dir), ("pred", pred_dir)):
            (tmp_path / side).mkdir()
            for path in sorted(source.glob("scene_*.csv"))[:files]:
                (tmp_path / side / path.name).write_bytes(path.read_bytes())
        evaluate_directory(tmp_path / "ref", tmp_path / "pred", VOCAB, EvaluationConfig(jobs=jobs))
        assert started(pools) == workers
        # the workers read their own references, through no cache
        maps = [fn for event, fn in pools if event == "map"]
        assert len(maps) == len(workers)
        for fn in maps:
            assert fn.func is evaluation._score_pairs and not fn.args
            assert set(fn.keywords) == {"vocabulary", "config"}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_pool_per_command(self, corpus, pools, command):
        ref_dir, systems = corpus
        COMMANDS[command](ref_dir, systems, VOCAB, EvaluationConfig(jobs=2))
        assert pools[0] == ("start", 2)
        assert [event for event, _ in pools] == ["start", "map"]  # not one map per system

    def test_reports_equal_for_every_jobs(self, corpus, pools):
        ref_dir, systems = corpus
        want = evaluate_directory(ref_dir, systems[0][1], VOCAB, EvaluationConfig())
        for jobs in (2, 3, 8):
            got = evaluate_directory(ref_dir, systems[0][1], VOCAB, EvaluationConfig(jobs=jobs))
            assert shown(got) == shown(want)
            assert got.jackknife() == want.jackknife()
        assert started(pools) == [2, 2, 4]
        for run in COMMANDS.values():
            want = run(ref_dir, systems, VOCAB, EvaluationConfig())
            for jobs in (2, 3, 8):
                pools.clear()
                assert run(ref_dir, systems, VOCAB, EvaluationConfig(jobs=jobs)) == want
                assert started(pools) == [{2: 2, 3: 2, 8: 4}[jobs]]


class TestReferenceReuse:
    @pytest.fixture(scope="class")
    def systems(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("reuse")
        ref_dir = make_corpus(root / "ref", VOCAB, 3, 6, seed=16)
        return ref_dir, [(f"s{k}", make_system(ref_dir, root / f"s{k}", PerturbationSpec(
            doa_jitter_deg=4.0 * k, deletion_prob=0.1 * k, seed=k))) for k in range(3)]

    @pytest.mark.parametrize("command", ["rank", "correlate"])
    def test_each_reference_read_once_per_command(self, monkeypatch, systems, command):
        ref_dir, pred_dirs = systems
        run = COMMANDS[command]
        want = run(ref_dir, pred_dirs, VOCAB, EvaluationConfig())
        read = []
        parse = evaluation.parse_reference
        monkeypatch.setattr(evaluation, "parse_reference",
                            lambda path, vocab: read.append(path.name) or parse(path, vocab))
        assert run(ref_dir, pred_dirs, VOCAB, EvaluationConfig()) == want
        assert read == ["scene_000.csv", "scene_001.csv", "scene_002.csv"]

    def test_reused_rows_equal_a_fresh_read(self, monkeypatch, systems):
        # each system of rank and correlate scores as evaluate_directory alone
        ref_dir, pred_dirs = systems
        fresh = [shown(evaluate_directory(ref_dir, pred_dir, VOCAB, EvaluationConfig()))
                 for _, pred_dir in pred_dirs]
        score = evaluation._evaluate_systems
        for run in COMMANDS.values():
            got = []
            monkeypatch.setattr(evaluation, "_evaluate_systems",
                                lambda *a: got.extend(score(*a)) or got)
            run(ref_dir, pred_dirs, VOCAB, EvaluationConfig())
            assert [shown(result) for result in got] == fresh

    def test_each_reference_read_once_per_slice(self, monkeypatch, pools, systems):
        # --jobs 2 cuts the 9 pairs, reference by reference, into slices of whole
        # references, 2 and 1 of them: 3 reads, where system-major slices read 6
        ref_dir, pred_dirs = systems
        want = evaluation.rank_systems(ref_dir, pred_dirs, VOCAB, EvaluationConfig())
        read = []
        parse = evaluation.parse_reference
        monkeypatch.setattr(evaluation, "parse_reference",
                            lambda path, vocab: read.append(path.name) or parse(path, vocab))
        got = evaluation.rank_systems(ref_dir, pred_dirs, VOCAB, EvaluationConfig(jobs=2))
        assert got == want
        assert started(pools) == [2]
        assert read == ["scene_000.csv", "scene_001.csv", "scene_002.csv"]

    @pytest.mark.parametrize("command", ["evaluate", "rank"])
    def test_rows_cached_only_for_later_systems(self, monkeypatch, systems, command):
        # One pair per batch. Before each read, name the references read before
        # whose rows are still alive; a batch's last pair is held until the next
        # read returns.
        ref_dir, pred_dirs = systems
        held, rows = [], {}
        read = evaluation.read_pair

        def spy(*a):
            held.append(sorted(name for name, r in rows.items() if r() is not None))
            pair = read(*a)
            if pair[0] in rows:
                assert rows[pair[0]]() is pair[2][0], f"{pair[0]} read again"
            else:
                rows[pair[0]] = weakref.ref(pair[2][0])
            return pair

        monkeypatch.setattr(evaluation, "read_pair", spy)
        monkeypatch.setattr(evaluation, "MAX_BATCH_ROWS", 1)
        a, b, c = "scene_000.csv", "scene_001.csv", "scene_002.csv"
        if command == "evaluate":
            evaluate_directory(ref_dir, pred_dirs[0][1], VOCAB, EvaluationConfig())
            assert held == [[], [a], [b]]  # the previous pair's, never a cache
        else:
            evaluation.rank_systems(ref_dir, pred_dirs, VOCAB, EvaluationConfig())
            # every system's pair on a reference comes before the next reference's:
            # only the current reference is kept, and the pair before b's first
            # read (a's last) is held until that read returns
            assert held == [[], [a], [a], [a], [b], [b], [b], [c], [c]]
        assert len(rows) == 3 and all(r() is None for r in rows.values())


class TestMetricDirections:
    def test_covers_all_report_keys(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 1, 4, seed=14)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(seed=0))
        config = EvaluationConfig()
        report = evaluate_directory(ref_dir, pred_dir, VOCAB, config)
        directions = metric_directions(config)
        assert set(report.metrics) == set(directions)


class TestMetricKeys:
    """`metric_keys` is the one declaration of the report's keys."""

    @pytest.fixture(scope="class")
    def system(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("keys")
        ref_dir = make_corpus(root / "ref", VOCAB, 2, 6, seed=15)
        return ref_dir, make_system(ref_dir, root / "pred", PerturbationSpec(doa_jitter_deg=8.0,
                                                                             seed=3))

    @pytest.mark.parametrize("thetas", [(20.0,), (10.0, 30.0), (1.5, 45.0, 180.0)])
    @pytest.mark.parametrize("theta_class", [(), (("dog", 5.0), ("speech", 90.0))])
    def test_compute_metrics_emits_the_keys_in_order(self, system, thetas, theta_class):
        config = EvaluationConfig(thetas=thetas, theta_class=theta_class)
        report = evaluate_directory(*system, VOCAB, config)
        keys = metric_keys(thetas)
        assert list(report.metrics) == keys
        assert len(keys) == 11 + 5 * len(thetas)
        assert list(metric_directions(config)) == keys
        assert evaluation.correlation_metric_keys(config) == [
            k for k in keys if k not in ("le_micro", "le_macro")]

    def test_directions_by_base_name(self):
        directions = metric_directions(EvaluationConfig(thetas=(10.0, 30.0)))
        assert list(directions) == [
            "er", "f1", "le", "le_micro", "le_macro", "lr", "ecr",
            "le_theta:10", "lr_theta:10", "ecr_theta:10", "le_theta:30", "lr_theta:30",
            "ecr_theta:30", "le_cd", "lr_cd", "le_cd_f", "lr_cd_f",
            "er_theta:10", "f_theta:10", "er_theta:30", "f_theta:30"]
        lower = {k for k, higher in directions.items() if not higher}
        assert lower == {"er", "le", "le_micro", "le_macro", "le_theta:10", "le_theta:30",
                         "le_cd", "le_cd_f", "er_theta:10", "er_theta:30"}

    def test_joint_metric_set_uses_the_first_threshold(self):
        assert evaluation.joint_metric_set(EvaluationConfig(thetas=(20.0, 2.5))) == (
            "le_cd", "lr_cd", "er_theta:20", "f_theta:20")

    @pytest.mark.parametrize("thetas", [(20.0,), (10.0, 30.0), (1.5, 45.0, 180.0)])
    def test_every_shown_key_has_a_display_name(self, thetas):
        from seldeval import cli

        config = EvaluationConfig(thetas=thetas)
        shown = (evaluation.correlation_metric_keys(config) + ["official_rank"]
                 + list(evaluation.OFFICIAL_METRICS) + list(evaluation.joint_metric_set(config)))
        for key in shown:
            assert key.partition(":")[0] in cli._DISPLAY_NAMES, key
