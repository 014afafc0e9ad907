import codecs
import hashlib
import inspect
import json

import pytest

from seldeval import cli
from seldeval.annotations import MAX_FRAMES, Vocabulary
from seldeval.cli import main
from seldeval.evaluation import EvaluationConfig
from seldeval.stats import build_rank_table
from seldeval.synth import PerturbationSpec
from conftest import make_corpus
from test_evaluation import make_system
from test_stats import run_fresh

VOCAB = Vocabulary(["dog", "cat", "speech"])


@pytest.fixture
def corpus(tmp_path):
    ref_dir = make_corpus(tmp_path / "ref", VOCAB, 3, 8, seed=21)
    pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(doa_jitter_deg=4.0, seed=1))
    return ref_dir, pred_dir


def run(argv):
    return main([str(a) for a in argv])


class TestEvaluate:
    def test_json_report(self, corpus, tmp_path, capsys):
        ref_dir, pred_dir = corpus
        out = tmp_path / "report.json"
        code = run(["evaluate", "--ref", ref_dir, "--pred", pred_dir,
                    "--format", "json", "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "seldeval-report/1"
        assert report["metrics"]["er"] == 0.0
        assert report["metrics"]["f1"] == 1.0
        assert report["metrics"]["le_cd"] == pytest.approx(4.0, abs=1e-5)
        assert report["files"] == 3

    def test_table_output(self, corpus, capsys):
        ref_dir, pred_dir = corpus
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir]) == 0
        text = capsys.readouterr().out
        assert "ER" in text and "LE_CD" in text and "F_10" in text

    def test_undefined_rendered_as_text(self, tmp_path, capsys):
        # silence predictions against silence references: many undefined
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        (ref_dir / "vocabulary.txt").write_text("dog\n")
        (ref_dir / "empty.csv").write_text("")
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        (pred_dir / "empty.csv").write_text("")
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir]) == 0
        text = capsys.readouterr().out
        assert "undefined" in text

    def test_missing_pair_error_json_exit_code(self, corpus, tmp_path, capsys):
        ref_dir, _ = corpus
        empty = tmp_path / "nopred"
        empty.mkdir()
        code = run(["evaluate", "--ref", ref_dir, "--pred", empty])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingPair"

    def test_per_class_breakdown(self, corpus, capsys):
        ref_dir, pred_dir = corpus
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--per-class"]) == 0
        text = capsys.readouterr().out
        assert "LE_c" in text

    def test_flags_override_config_file(self, corpus, tmp_path):
        ref_dir, pred_dir = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thetas": [2.0], "loc_mode": "frame-average"}))
        out = tmp_path / "r.json"
        code = run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--config", cfg,
                    "--theta", "25", "--format", "json", "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["thetas"] == [25.0]
        assert "f_theta:25" in report["metrics"]

    def test_config_file_used_when_no_flag(self, corpus, tmp_path):
        ref_dir, pred_dir = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thetas": [2.0]}))
        out = tmp_path / "r.json"
        run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--config", cfg,
             "--format", "json", "--out", out])
        assert json.loads(out.read_text())["config"]["thetas"] == [2.0]

    @pytest.mark.parametrize("command", ["evaluate", "jackknife"])
    def test_flags_and_config_file_give_the_same_bytes(self, corpus, tmp_path, command):
        # whole numbers: the config file's once echoed as 1 and 60, the flags' as 1.0 and 60.0
        ref_dir, _ = corpus
        pred_dir = make_system(ref_dir, tmp_path / "pred1", PerturbationSpec(seed=1), hop=1.0)
        settings = {"segment_length": 1, "duration": 60, "frame_hop": 1}
        flag_argv = ["--segment", "1", "--duration", "60", "--hop", "1"]
        if command == "jackknife":
            settings["confidence"] = 0.9
            flag_argv += ["--confidence", "0.9"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        argv = [command, "--ref", ref_dir, "--pred", pred_dir, "--format", "json", "--out"]
        flags, config = tmp_path / "flags.json", tmp_path / "config.json"
        assert run(argv + [flags, *flag_argv]) == 0
        assert run(argv + [config, "--config", cfg]) == 0
        assert flags.read_bytes() == config.read_bytes()
        assert json.loads(config.read_text())["config"]["duration"] == 60.0

    def test_vocab_flag(self, corpus, tmp_path):
        ref_dir, pred_dir = corpus
        vocab_copy = tmp_path / "labels.txt"
        vocab_copy.write_text((ref_dir / "vocabulary.txt").read_text())
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir,
                    "--vocab", vocab_copy, "--format", "json",
                    "--out", tmp_path / "x.json"]) == 0

    def test_json_bytes_deterministic(self, corpus, tmp_path):
        ref_dir, pred_dir = corpus
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--format", "json", "--out", out1])
        run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--format", "json", "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("content", ["dog\ncat\ndog\n", "\n"], ids=["duplicate", "empty"])
    def test_bad_vocabulary_error_json(self, corpus, tmp_path, capsys, content):
        ref_dir, pred_dir = corpus
        vocab = tmp_path / "labels.txt"
        vocab.write_text(content)
        code = run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--vocab", vocab])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert str(vocab) in err["message"]

    def test_unknown_theta_class_error_json(self, corpus, capsys):
        ref_dir, pred_dir = corpus
        code = run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--theta-class", "typo=5"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "'typo'" in err["message"]

    # a mistyped value, and JSON nested deeper than the decoder recurses
    @pytest.mark.parametrize("text", ['{"frame_hop": "fast"}', "[" * 100_000,
                                      '{"thetas": ' + "[" * 100_000],
                             ids=["mistyped", "deep-array", "deep-thetas"])
    def test_bad_config_value_error_json(self, corpus, tmp_path, capsys, text):
        ref_dir, pred_dir = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--config", cfg])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("which", ["prediction", "reference", "vocabulary", "config"])
    def test_byte_order_mark_ignored(self, corpus, tmp_path, which):
        ref_dir, pred_dir = corpus
        config = tmp_path / "config.json"
        config.write_text('{"thetas": [15.0, 30.0]}', encoding="utf-8")
        argv = ["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--config", config,
                "--format", "json", "--out"]
        assert run(argv + [tmp_path / "plain.json"]) == 0
        target = {"prediction": pred_dir / "scene_000.csv", "reference": ref_dir / "scene_000.csv",
                  "vocabulary": ref_dir / "vocabulary.txt", "config": config}[which]
        target.write_bytes(codecs.BOM_UTF8 + target.read_bytes())
        assert run(argv + [tmp_path / "bom.json"]) == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize("which, error", [("prediction", "ParseError"),
                                              ("reference", "ParseError"),
                                              ("config", "ConfigError")])
    def test_bytes_that_are_not_utf8_refused(self, corpus, tmp_path, capsys, which, error):
        ref_dir, pred_dir = corpus
        config = tmp_path / "config.json"
        config.write_text('{"thetas": [15.0, 30.0]}', encoding="utf-8")
        target = {"prediction": pred_dir / "scene_000.csv", "reference": ref_dir / "scene_000.csv",
                  "config": config}[which]
        target.write_bytes(target.read_bytes() + b"\n1,0,10,0\xe9\n")
        capsys.readouterr()
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--config", config]) == 1
        envelope = json.loads(capsys.readouterr().err)
        assert envelope["error"] == error and str(target) in envelope["message"]

    @pytest.mark.parametrize("which", ["reference", "prediction"])
    def test_field_over_the_csv_limit_refused(self, corpus, capsys, which):
        # the csv module refuses a field of more than 131,072 characters
        ref_dir, pred_dir = corpus
        target, row = {"reference": (ref_dir, "x" * 200_000 + ",0.0,1.0,10.0,0.0"),
                       "prediction": (pred_dir, '"' + "x" * 200_000 + '"')}[which]
        target = target / "scene_000.csv"
        first, *rest = target.read_text(encoding="utf-8").splitlines()
        target.write_text("\n".join([first, row, *rest]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir]) == 1
        envelope = json.loads(capsys.readouterr().err)
        assert envelope["error"] == "ParseError"
        assert envelope["message"].endswith(f"(131072) [{target}:2]")

    def test_parallel_bytes_match_serial(self, corpus, tmp_path):
        ref_dir, pred_dir = corpus
        out1, out2 = tmp_path / "s.json", tmp_path / "p.json"
        run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--format", "json",
             "--jobs", "1", "--out", out1])
        run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--format", "json",
             "--jobs", "2", "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()


class TestJackknifeCommand:
    def test_ci_present(self, corpus, tmp_path):
        ref_dir, pred_dir = corpus
        out = tmp_path / "r.json"
        code = run(["jackknife", "--ref", ref_dir, "--pred", pred_dir,
                    "--format", "json", "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert "ci" in report
        est = report["ci"]["le_cd"]
        assert est["low"] <= est["point"] <= est["high"]

    def test_confidence_flag(self, corpus, tmp_path):
        ref_dir, pred_dir = corpus
        out = tmp_path / "r.json"
        run(["jackknife", "--ref", ref_dir, "--pred", pred_dir, "--confidence", "0.9",
             "--format", "json", "--out", out])
        assert json.loads(out.read_text())["config"]["confidence"] == 0.9

    @pytest.mark.parametrize("confidence, label", [("0.57", "57% CI"), ("0.975", "97.5% CI")])
    def test_table_names_the_confidence(self, corpus, capsys, confidence, label):
        # int(confidence * 100) named these 56% and 97%
        ref_dir, pred_dir = corpus
        assert run(["jackknife", "--ref", ref_dir, "--pred", pred_dir,
                    "--confidence", confidence]) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert header == f"{'metric':<12} {'value':>12}  {label}"

    def test_one_file_too_few_error_json(self, tmp_path, capsys):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 1, 6, seed=23)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(seed=0))
        assert run(["jackknife", "--ref", ref_dir, "--pred", pred_dir]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "TooFewFiles", "message": "jackknife needs at least 2 files, got 1"}


class TestRankCommand:
    def test_official_and_joint_sets(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 3, 8, seed=22)
        good = make_system(ref_dir, tmp_path / "good", PerturbationSpec(doa_jitter_deg=2.0, seed=1))
        bad = make_system(ref_dir, tmp_path / "bad",
                          PerturbationSpec(doa_jitter_deg=30.0, deletion_prob=0.4, seed=2))
        out = tmp_path / "rank.json"
        code = run(["rank", "--ref", ref_dir, "--pred", f"good={good}", "--pred", f"bad={bad}",
                    "--format", "json", "--out", out])
        assert code == 0
        table = json.loads(out.read_text())
        assert table["schema"] == "seldeval-rank/1"
        by_id = {s["id"]: s for s in table["systems"]}
        assert by_id["good"]["final_rank"] == 1
        assert by_id["bad"]["final_rank"] == 2

        code = run(["rank", "--ref", ref_dir, "--pred", f"good={good}", "--pred", f"bad={bad}",
                    "--metric-set", "joint", "--format", "json", "--out", out])
        assert code == 0
        table = json.loads(out.read_text())
        assert set(table["metrics"]) == {"le_cd", "lr_cd", "er_theta:10", "f_theta:10"}

    def test_table_format(self, tmp_path, capsys):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=23)
        a = make_system(ref_dir, tmp_path / "a", PerturbationSpec(doa_jitter_deg=2.0, seed=1))
        b = make_system(ref_dir, tmp_path / "b", PerturbationSpec(doa_jitter_deg=9.0, seed=2))
        assert run(["rank", "--ref", ref_dir, "--pred", f"a={a}", "--pred", f"b={b}"]) == 0
        text = capsys.readouterr().out
        assert "system" in text and "rank" in text

    def test_table_columns_fit_their_widest_entry(self, monkeypatch, tmp_path, capsys):
        # values of 1 to 9 characters, fractional ranks, and a system id longer
        # than the 18 characters the system column once had
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 1, 6, seed=24)
        systems = ["a-system-id-of-28-characters", "b", "c"]
        values = {"er": [0.0754717, 1.0, 0.0754717], "f1": [1.0, 0.5, 0.25],
                  "le": [3.0, 19.2374, 114.006], "ecr": [1.0, 0.539749, 1.0]}
        ranking = (values, *build_rank_table(values, {"er": False, "f1": True, "le": False,
                                                      "ecr": True}))
        monkeypatch.setattr(cli, "rank_systems", lambda *args: ranking)
        assert run(["rank", "--ref", ref_dir, *(f"--pred={s}=unused" for s in systems)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "system                                    ER       F1          LE          ECR sum rank",
            "-" * 87,
            "a-system-id-of-28-characters 0.0754717 (1.5)    1 (1)       3 (1)      1 (1.5)   5    1",
            "c                            0.0754717 (1.5) 0.25 (3) 114.006 (3)      1 (1.5)   9    2",
            "b                                      1 (3)  0.5 (2) 19.2374 (2) 0.539749 (3)  10    3",
        ]
        assert {len(line) for line in lines} == {len(lines[0])}

    def test_bad_system_syntax(self, tmp_path, capsys):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=24)
        code = run(["rank", "--ref", ref_dir, "--pred", "no-equals-sign"])
        assert code == 1

    @pytest.mark.parametrize("metric_set, key", [("official", "le"), ("joint", "le_cd")])
    def test_undefined_metric_names_the_metric_and_systems(self, tmp_path, capsys,
                                                           metric_set, key):
        # systems c and b predict nothing, so no frame associates and LE is undefined
        (tmp_path / "ref").mkdir()
        (tmp_path / "ref" / "vocabulary.txt").write_text("dog\ncat\n")
        (tmp_path / "ref" / "x.csv").write_text("dog,0.0,1.0,10,0\ncat,0.0,1.0,10,0\n")
        for name in "abc":
            (tmp_path / name).mkdir()
        (tmp_path / "a" / "x.csv").write_text(
            "".join(f"{frame},{c},10,0\n" for frame in range(50) for c in (0, 1)))
        (tmp_path / "b" / "x.csv").write_text("")
        (tmp_path / "c" / "x.csv").write_text("")
        code = run(["rank", "--ref", tmp_path / "ref", "--metric-set", metric_set,
                    *(f"--pred={name}={tmp_path / name}" for name in "cab")])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "UndefinedValue",
            "message": f"cannot rank systems: metric {key!r} is undefined for system(s) 'b', 'c'"}


class TestCorrelateCommand:
    def test_matrix_diag_is_one(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 3, 8, seed=25)
        systems = []
        for i, jitter in enumerate((2.0, 8.0, 20.0, 45.0)):
            d = make_system(ref_dir, tmp_path / f"s{i}",
                            PerturbationSpec(doa_jitter_deg=jitter, deletion_prob=0.1 * i, seed=i))
            systems += ["--pred", f"s{i}={d}"]
        out = tmp_path / "corr.json"
        code = run(["correlate", "--ref", ref_dir] + systems + ["--format", "json", "--out", out])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["schema"] == "seldeval-correlation/1"
        n = len(result["metrics"])
        for i in range(n):
            assert result["spearman"][i][i] == 1.0
        assert "official_rank" in result["metrics"]
        # symmetric
        for i in range(n):
            for j in range(n):
                assert result["spearman"][i][j] == result["spearman"][j][i]

    def test_needs_three_systems(self, tmp_path, capsys):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=26)
        a = make_system(ref_dir, tmp_path / "a", PerturbationSpec(seed=0))
        code = run(["correlate", "--ref", ref_dir, "--pred", f"a={a}", "--pred", f"b={a}"])
        assert code == 1


class TestSynthCommand:
    def test_roundtrip_zero_spec(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=27)
        out_dir = tmp_path / "synth"
        code = run(["synth", "--ref", ref_dir, "--out", out_dir, "--seed", "5"])
        assert code == 0
        report = tmp_path / "r.json"
        assert run(["evaluate", "--ref", ref_dir, "--pred", out_dir,
                    "--format", "json", "--out", report]) == 0
        metrics = json.loads(report.read_text())["metrics"]
        assert metrics["er"] == 0.0 and metrics["f1"] == 1.0 and metrics["le"] == 0.0

    def test_byte_identical_across_runs(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=28)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        argv = ["synth", "--ref", ref_dir, "--seed", "9", "--jitter", "5",
                "--delete-prob", "0.2", "--insert-rate", "6", "--sub-prob", "0.1"]
        assert run(argv + ["--out", out1]) == 0
        assert run(argv + ["--out", out2]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_injection_log_written(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=29)
        out_dir = tmp_path / "synth"
        run(["synth", "--ref", ref_dir, "--out", out_dir, "--seed", "1",
             "--delete-prob", "0.5"])
        log = json.loads((out_dir / "injection_log.json").read_text())
        assert log["schema"] == "seldeval-injections/1"
        assert log["spec"]["deletion_prob"] == 0.5
        assert set(log["files"]) == {"scene_000.csv", "scene_001.csv"}
        types = {e["type"] for entries in log["files"].values() for e in entries["injections"]}
        assert types <= {"deletion"}

    def test_config_file_values_applied(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=30)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"doa_jitter_deg": 20, "seed": 7}))
        plain, configured = tmp_path / "plain", tmp_path / "configured"
        assert run(["synth", "--ref", ref_dir, "--out", plain]) == 0
        assert run(["synth", "--ref", ref_dir, "--out", configured, "--config", cfg]) == 0
        log = json.loads((configured / "injection_log.json").read_text())
        assert log["seed"] == 7
        assert log["spec"]["doa_jitter_deg"] == 20.0
        assert log["files"]["scene_000.csv"]["seed"] == 7
        assert (plain / "scene_000.csv").read_bytes() != (configured / "scene_000.csv").read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=31)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"doa_jitter_deg": 20, "seed": 7, "deletion_prob": 0.5}))
        out_dir = tmp_path / "synth"
        assert run(["synth", "--ref", ref_dir, "--out", out_dir, "--config", cfg,
                    "--jitter", "5", "--seed", "3"]) == 0
        log = json.loads((out_dir / "injection_log.json").read_text())
        assert log["seed"] == 3
        assert log["spec"]["doa_jitter_deg"] == 5.0
        assert log["spec"]["deletion_prob"] == 0.5

    def test_bad_parameter_error_json(self, tmp_path, capsys):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=32)
        code = run(["synth", "--ref", ref_dir, "--out", tmp_path / "synth", "--delete-prob", "2"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "deletion_prob" in err["message"]

    def test_duration_shorter_than_references_error_json(self, tmp_path, capsys):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=33)
        code = run(["synth", "--ref", ref_dir, "--out", tmp_path / "synth", "--duration", "0.5"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "scene_000.csv" in err["message"]
        assert "exceeds the 25-frame grid" in err["message"]

    def test_evaluate_duration_error_names_file(self, tmp_path, capsys):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 1, 6, seed=34)
        pred_dir = make_system(ref_dir, tmp_path / "pred", PerturbationSpec(seed=0))
        code = run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--duration", "0.5"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "scene_000.csv" in err["message"]


class TestReferenceLength:
    def _write(self, tmp_path, row):
        ref_dir, pred_dir = tmp_path / "ref", tmp_path / "pred"
        ref_dir.mkdir()
        pred_dir.mkdir()
        (ref_dir / "vocabulary.txt").write_text("dog\ncat\n")
        (ref_dir / "long.csv").write_text(row + "\n")
        (pred_dir / "long.csv").write_text("0,0,10,0\n")
        return ref_dir, pred_dir

    @pytest.mark.parametrize("row", [
        "dog,0.0,1e30,10,0",                       # once an OverflowError
        "dog,0.0,1e12,10,0",                       # once a 364 TiB allocation
        "dog,1e18,1.0000000000000002e18,10,0",     # 8192 frames, all past int64
    ])
    def test_unscoreable_reference_error_json(self, tmp_path, capsys, row):
        ref_dir, pred_dir = self._write(tmp_path, row)
        code = run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--format", "json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ReferenceTooLong"
        assert "long.csv" in err["message"]

    @pytest.mark.parametrize("row", ["dog,0.0,1e30,10,0", "dog,0.0,1e12,10,0"])
    def test_synth_unwritable_reference_error_json(self, tmp_path, capsys, row):
        ref_dir, _ = self._write(tmp_path, row)  # once a MemoryError, or memory exhausted
        code = run(["synth", "--ref", ref_dir, "--out", tmp_path / "synth"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ReferenceTooLong"
        assert "long.csv" in err["message"]
        assert not (tmp_path / "synth" / "long.csv").exists()

    @pytest.mark.parametrize("row", ["dog,0.0,1e30,10,0", "dog,0.0,1e12,10,0"])
    def test_synth_insertions_over_unwritable_reference_error_json(self, tmp_path, capsys, row):
        # refused before the insertion count is drawn over the reference's length
        ref_dir, _ = self._write(tmp_path, row)
        code = run(["synth", "--ref", ref_dir, "--out", tmp_path / "synth", "--insert-rate", "1"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ReferenceTooLong"
        assert "long.csv" in err["message"]

    @pytest.fixture
    def bound(self, monkeypatch):
        # a row bound of 1000, and every expansion of spans into rows recorded
        from seldeval import annotations

        expanded = []
        ragged_arange = annotations.ragged_arange
        monkeypatch.setattr(annotations, "MAX_REFERENCE_ROWS", 1000)
        monkeypatch.setattr(annotations, "ragged_arange",
                            lambda counts: expanded.append(counts) or ragged_arange(counts))
        return expanded

    @pytest.mark.parametrize("command", [["evaluate"], ["synth", "--insert-rate", "1"]])
    def test_reference_over_row_bound_refused_unexpanded(self, tmp_path, capsys, bound, command):
        ref_dir, pred_dir = self._write(tmp_path, "dog,0.0,30.0,10,0")  # 1500 rows
        extra = ["--pred", pred_dir] if command[0] == "evaluate" else ["--out", tmp_path / "s"]
        assert run(command + ["--ref", ref_dir, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ReferenceTooLong"
        assert "long.csv" in err["message"] and "1000 rows" in err["message"]
        assert bound == []

    def test_reference_at_row_bound_scores(self, tmp_path, capsys, bound):
        ref_dir, pred_dir = self._write(tmp_path, "dog,0.0,20.0,10,0")  # 1000 rows
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["frames"] == 1000
        assert [int(counts.sum()) for counts in bound] == [1000]

    def test_synth_insertions_past_the_row_bound_name_the_prediction(self, tmp_path, capsys,
                                                                      bound):
        # the reference's 1,000 rows fit; those that its insertions add do not
        ref_dir, _ = self._write(tmp_path, "dog,0.0,20.0,10,0")
        out = tmp_path / "out"
        assert run(["synth", "--ref", ref_dir, "--out", out, "--insert-rate", "30"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"prediction {out / 'long.csv'}: events cover ")
        assert "1000 rows" in err["message"]
        assert not (out / "long.csv").exists()

    @pytest.mark.parametrize("row, code", [
        ("dog,42949672.94,42949672.96,10,0", 0),   # ends in frame MAX_FRAMES - 1
        ("dog,42949672.96,42949672.98,10,0", 1),   # frame MAX_FRAMES alone
        ("dog,1e308,1.5e308,10,0", 1),             # frame indices infinite as floats
        ("dog,0,1e308,10,0", 1),
    ])
    def test_reference_ending_at_the_frame_bound(self, tmp_path, capsys, row, code):
        ref_dir, pred_dir = self._write(tmp_path, row)
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--format", "json"]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert json.loads(captured.out)["frames"] == MAX_FRAMES
        else:
            err = json.loads(captured.err)
            assert err["error"] == "ReferenceTooLong"
            # the spans are capped at the bound, so no count of them is the file's
            assert err["message"] == (f"long.csv: events cover frames past frame {MAX_FRAMES - 1} "
                                      f"at a 0.02 s hop; a file's frames lie below frame "
                                      f"{MAX_FRAMES}")

    @pytest.mark.parametrize("command, row, flags", [
        *((command, row, []) for command in ("evaluate", "synth") for row in (
            "dog,0,1e308,10,0",           # the offset's frame index is inf as a float
            "dog,1e308,1.5e308,10,0")),   # the onset's as well
        ("evaluate", "dog,0,1e300,10,0", ["--hop", "1e-10", "--segment", "1e-10"]),
    ])
    def test_infinite_frame_index_error_json(self, tmp_path, capsys, command, row, flags):
        # once an OverflowError traceback out of main
        ref_dir, pred_dir = self._write(tmp_path, row)
        extra = ["--pred", pred_dir] if command == "evaluate" else ["--out", tmp_path / "s"]
        assert run([command, "--ref", ref_dir, *extra, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ReferenceTooLong"
        assert err["message"].startswith("long.csv: events cover ")
        assert f"below frame {MAX_FRAMES}" in err["message"]

    def test_synth_insertions_expand_only_the_written_file(self, tmp_path, capsys, bound):
        ref_dir, _ = self._write(tmp_path, "dog,0.0,10.0,10,0")  # 500 rows, counted unexpanded
        assert run(["synth", "--ref", ref_dir, "--out", tmp_path / "s", "--insert-rate", "1"]) == 0
        assert len(bound) == 1

    def test_long_reference_still_scores(self, tmp_path, capsys):
        ref_dir, pred_dir = self._write(tmp_path, "dog,0.0,3600,10,0")  # 180000 frames
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["frames"] == 180_000
        assert report["metrics"]["lr"] == pytest.approx(1 / 180_000)


@pytest.mark.parametrize("where", ["loadtxt", "text"])
def test_prediction_out_of_memory_error_json(corpus, capsys, monkeypatch, where):
    # once a MemoryError traceback out of main
    from seldeval import annotations

    ref_dir, pred_dir = corpus

    def no_memory(*args, **kwargs):
        raise MemoryError

    if where == "loadtxt":
        monkeypatch.setattr(annotations.np, "loadtxt", no_memory)
    else:
        read_text = annotations._read_text
        monkeypatch.setattr(annotations, "_read_text", lambda path: no_memory()
                            if path.parent == pred_dir else read_text(path))
    assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ParseError",
        "message": f"more prediction rows than memory holds [{pred_dir / 'scene_000.csv'}]"}


@pytest.mark.parametrize("over", [0, 1])
def test_prediction_byte_bound_error_json(corpus, capsys, monkeypatch, over):
    # a file one byte over the bound is refused by its size, before its text is read
    from seldeval import annotations

    ref_dir, pred_dir = corpus
    largest = max(p.stat().st_size for p in pred_dir.glob("*.csv"))
    monkeypatch.setattr(annotations, "MAX_PREDICTION_BYTES", largest - over)
    read, read_text = [], annotations._read_text
    monkeypatch.setattr(annotations, "_read_text",
                        lambda path: read.append(path) or read_text(path))
    code = run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--format", "json"])
    captured = capsys.readouterr()
    if not over:
        assert code == 0 and json.loads(captured.out)["files"] == 3
        return
    # the first pair whose prediction is over the bound is named
    first = next(p for p in sorted(pred_dir.glob("*.csv")) if p.stat().st_size == largest)
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ParseError",
        "message": f"file of {largest} bytes; a prediction file may hold {largest - 1} [{first}]"}
    assert first not in read


def test_reference_out_of_memory_error_json(corpus, capsys, monkeypatch):
    # once a MemoryError traceback out of main
    from seldeval import annotations

    ref_dir, pred_dir = corpus
    read_text = annotations._read_text

    def text(path):
        if path.parent == ref_dir:
            raise MemoryError
        return read_text(path)

    monkeypatch.setattr(annotations, "_read_text", text)
    assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ParseError",
        "message": f"more reference rows than memory holds [{ref_dir / 'scene_000.csv'}]"}


class TestUsageErrors:
    @pytest.mark.parametrize("extra, needs_ref", [
        (["--hop", "abc"], True),                 # not a float
        (["--loc-mode", "nearest"], True),        # not a choice
        (["--bogus"], True),                      # unknown flag
        (["--confidence", "0.9"], True),          # jackknife only
        ([], False),                              # --ref is required
    ])
    def test_usage_error_json(self, corpus, capsys, extra, needs_ref):
        ref_dir, pred_dir = corpus
        argv = ["evaluate", "--pred", pred_dir] + (["--ref", ref_dir] if needs_ref else [])
        assert run(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ConfigError"

    @pytest.mark.parametrize("command", ["evaluate", "jackknife", "rank", "correlate", "synth"])
    def test_help_exits_zero_and_lists_config_keys(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        settings = PerturbationSpec if command == "synth" else EvaluationConfig
        assert all(name in text for name in inspect.signature(settings).parameters)
        if command == "synth":  # --insert-rate names the per-file cap
            from seldeval.synth import MAX_INSERTIONS

            assert f"{MAX_INSERTIONS:,}" in " ".join(text.split())


# one hop past the bound of MAX_FRAMES frames at the default 0.02 s hop
PAST_THE_BOUND = repr((MAX_FRAMES + 1) * 0.02)


class TestDuration:
    # each was once a traceback: OverflowError, ValueError, or numpy's `lam value too large`;
    # a grid one frame past the bound was once scored
    @pytest.mark.parametrize("value", ["1e20", "1e30", "inf", "nan", PAST_THE_BOUND])
    def test_evaluate_unusable_duration_error_json(self, corpus, capsys, value):
        ref_dir, pred_dir = corpus
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--duration", value]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"at most {MAX_FRAMES} frames" in err["message"]

    @pytest.mark.parametrize("value", ["1e20", "1e30", "inf", "nan", PAST_THE_BOUND])
    def test_synth_unusable_duration_error_json(self, tmp_path, capsys, value):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 1, 4, seed=35)
        code = run(["synth", "--ref", ref_dir, "--out", tmp_path / "synth",
                    "--insert-rate", "1", "--duration", value])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "synth").exists()

    def test_config_file_duration_past_the_grid(self, corpus, tmp_path, capsys):
        ref_dir, pred_dir = corpus
        cfg = tmp_path / "cfg.json"
        for value in ("1e300", "1" + "0" * 400):
            cfg.write_text(f'{{"duration": {value}}}')
            assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--config", cfg]) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


class TestOutputBytes:
    """The rendered outputs, byte for byte, on one seeded corpus.

    The hashes were recorded before the renderers were merged into one
    path per command, the rank tables' again when their columns took the
    width of their widest entry, and the config-file case's again when a
    config file's whole number (``"segment_length": 1``) came to echo as
    the float a flag gives; any change to a table or log byte shows here.
    Each table case is also rendered from the report that ``--format json``
    prints, which must give the same bytes.
    """

    PINNED = {  # case: (sha256, argv)
        "evaluate": ("9e97bab0f903b34ea3ea88cfe04bb2e139d498da1224c3458c25e36db520c01e",
            ["evaluate", "--ref", "{ref}", "--pred", "{s0}"]),
        "evaluate-settings": ("6721c8eab9787152786c5c070c9e20f87e4c448cafef55593e6bb0c45a6aafd2",
            ["evaluate", "--ref", "{ref}", "--pred", "{s1}", "--per-class", "--theta", "20",
             "--theta-class", "cat=45", "--loc-mode", "segment-mean", "--le-mode", "macro"]),
        "evaluate-config-json": ("1f17a1674b9fd512dd72623c46b15b7952071b4d0b97751228fd403ac990c3fd",
            ["evaluate", "--ref", "{ref}", "--pred", "{s2}", "--config", "{cfg}", "--format",
             "json"]),
        "jackknife-per-class": ("e5107d2f2ad343ab9250744eb9b66d33172c3c12768276b79ed0952ed95798eb",
            ["jackknife", "--ref", "{ref}", "--pred", "{s1}", "--per-class"]),
        "rank-official": ("ef1118fcf2540e13cdc6de759998e4515d6b6a109fd4fa250ea94d7363485f1f",
            ["rank", "--ref", "{ref}", "--pred", "a={s0}", "--pred", "b={s1}", "--pred",
             "c={s2}"]),
        "rank-joint": ("6b95486b952ff0f305f38eeb901ead0ffd87a2fe86ad9e1178580984b2064cfc",
            ["rank", "--ref", "{ref}", "--pred", "a={s0}", "--pred", "b={s1}", "--pred", "c={s2}",
             "--metric-set", "joint"]),
        "correlate": ("3a6a5c7fb79ef5a7362209b11cc6d2cd7d002339985945e36f08560e814c1977",
            ["correlate", "--ref", "{ref}", "--pred", "a={s0}", "--pred", "b={s1}", "--pred",
             "c={s2}"]),
        "synth-log": ("51f7975b7e39d5dcb313e347e4c87ad1c91534ee6ba9e4b0fcd25bd3fcd9e8e0",
            ["synth", "--ref", "{ref}", "--out", "{synth}", "--seed", "5", "--jitter", "7",
             "--delete-prob", "0.2", "--insert-rate", "30", "--sub-prob", "0.3",
             "--swap-locations", "--duration", "20"]),
    }

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pinned")
        ref_dir = make_corpus(root / "ref", VOCAB, 3, 10, seed=41, overlapping=True)
        paths = {"ref": ref_dir, "synth": root / "synth", "cfg": root / "cfg.json"}
        specs = (PerturbationSpec(doa_jitter_deg=3.0, seed=1),
                 PerturbationSpec(doa_jitter_deg=15.0, deletion_prob=0.2, insertion_rate=20.0,
                                  seed=2),
                 PerturbationSpec(doa_jitter_deg=40.0, substitution_prob=0.3,
                                  swap_locations=True, seed=3))
        for i, spec in enumerate(specs):
            paths[f"s{i}"] = make_system(ref_dir, root / f"s{i}", spec)
        paths["cfg"].write_text(json.dumps({"frame_hop": 0.1, "segment_length": 1,
                                            "thetas": [20, 90], "theta_class": {"cat": 45},
                                            "confidence": 0.9, "jobs": 1}))
        return paths

    TABLES = sorted(case for case, (_, argv) in PINNED.items()
                    if argv[0] != "synth" and "--format" not in argv)

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_sha256(self, case, paths, capsys):
        expected, argv = self.PINNED[case]
        assert run([a.format(**paths) for a in argv]) == 0
        out = capsys.readouterr().out
        if case == "synth-log":
            out = (paths["synth"] / "injection_log.json").read_text(encoding="utf-8")
        assert hashlib.sha256(out.encode()).hexdigest() == expected

    @pytest.mark.parametrize("case", TABLES)
    def test_table_renders_the_json_report(self, case, paths, monkeypatch, capsys):
        # the report that --format json prints, as plain JSON data in the order
        # it was built, rendered by its schema's table alone
        expected, argv = self.PINNED[case]
        dump, dumped = cli._dump_json, []
        monkeypatch.setattr(cli, "_dump_json", lambda obj: dumped.append(obj) or dump(obj))
        assert run([a.format(**paths) for a in argv] + ["--format", "json"]) == 0
        report = json.loads(json.dumps(dumped.pop()))
        assert dumped == [] and capsys.readouterr().out == dump(report)
        table = "\n".join(cli._TABLES[report["schema"]](report)) + "\n"
        assert hashlib.sha256(table.encode()).hexdigest() == expected

    def test_json_format_renders_no_table(self, paths, monkeypatch, capsys):
        rendered = []
        for schema, render in list(cli._TABLES.items()):
            monkeypatch.setitem(cli._TABLES, schema,
                                lambda obj, render=render: rendered.append(obj) or render(obj))
        for case in self.TABLES:
            argv = [a.format(**paths) for a in self.PINNED[case][1]]
            assert run(argv + ["--format", "json"]) == 0
        assert rendered == []
        assert run(argv) == 0  # the spies are the renderers main calls
        assert len(rendered) == 1


class TestProcessExit:
    """Each command as a real process in development mode, ResourceWarning an
    error: it exits 0 with nothing on stderr and writes the bytes of the
    in-process call, so no file is closed or flushed by the collector's pass
    at exit, which `import seldeval.cli` spares the objects it froze."""

    SCRIPT = "import sys; from seldeval.cli import main; sys.exit(main())"
    SYSTEMS = ["--pred", "a={s0}", "--pred", "b={s1}", "--pred", "c={s2}"]
    CASES = {
        "evaluate": ["evaluate", "--ref", "{ref}", "--pred", "{s0}"],
        "evaluate-out": ["evaluate", "--ref", "{ref}", "--pred", "{s1}", "--format", "json",
                         "--out", "{out}"],
        "jackknife": ["jackknife", "--ref", "{ref}", "--pred", "{s2}", "--format", "json"],
        "rank": ["rank", "--ref", "{ref}", *SYSTEMS],
        "correlate": ["correlate", "--ref", "{ref}", *SYSTEMS, "--format", "json"],
        "synth": ["synth", "--ref", "{ref}", "--out", "{out}", "--seed", "4", "--jitter", "5",
                  "--insert-rate", "20"],
    }

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("exit")
        paths = {"ref": make_corpus(root / "ref", VOCAB, 3, 6, seed=31)}
        for i in range(3):
            paths[f"s{i}"] = make_system(paths["ref"], root / f"s{i}",
                                         PerturbationSpec(doa_jitter_deg=10.0 * i, seed=i))
        return paths

    @staticmethod
    def _written(out):
        if out.is_dir():
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return out.read_bytes() if out.exists() else None

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_process_writes_the_in_process_bytes(self, case, paths, tmp_path, capsys):
        outputs = []
        for fresh in (False, True):
            out = tmp_path / ("fresh" if fresh else "in-process")
            argv = [a.format(**paths, out=out) for a in self.CASES[case]]
            if fresh:
                stdout = run_fresh(self.SCRIPT, *argv,
                                   options=("-X", "dev", "-W", "error::ResourceWarning"))
            else:
                assert run(argv) == 0
                stdout = capsys.readouterr().out
            outputs.append((stdout.replace(str(out), "{out}"), self._written(out)))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] or outputs[0][1]
