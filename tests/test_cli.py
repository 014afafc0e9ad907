import json

import pytest

from seldeval.annotations import Vocabulary
from seldeval.cli import main
from seldeval.evaluation import EvaluationConfig
from seldeval.synth import PerturbationSpec
from conftest import make_corpus
from test_evaluation import make_system

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

    def test_bad_config_value_error_json(self, corpus, tmp_path, capsys):
        ref_dir, pred_dir = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frame_hop": "fast"}))
        code = run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--config", cfg])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

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

    def test_bad_system_syntax(self, tmp_path, capsys):
        ref_dir = make_corpus(tmp_path / "ref", VOCAB, 2, 6, seed=24)
        code = run(["rank", "--ref", ref_dir, "--pred", "no-equals-sign"])
        assert code == 1


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

    def test_long_reference_still_scores(self, tmp_path, capsys):
        ref_dir, pred_dir = self._write(tmp_path, "dog,0.0,3600,10,0")  # 180000 frames
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["frames"] == 180_000
        assert report["metrics"]["lr"] == pytest.approx(1 / 180_000)
