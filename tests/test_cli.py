import codecs
import dataclasses
import json

import pytest

from seldeval.annotations import Vocabulary
from seldeval.cli import main
from seldeval.evaluation import EvaluationConfig
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

    @pytest.mark.parametrize("row", ["dog,0.0,1e30,10,0", "dog,0.0,1e12,10,0"])
    def test_synth_insertions_over_unwritable_reference_error_json(self, tmp_path, capsys, row):
        # refused before the insertion count is drawn over the reference's length
        ref_dir, _ = self._write(tmp_path, row)
        code = run(["synth", "--ref", ref_dir, "--out", tmp_path / "synth", "--insert-rate", "1"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ReferenceTooLong"
        assert "long.csv" in err["message"]

    def test_long_reference_still_scores(self, tmp_path, capsys):
        ref_dir, pred_dir = self._write(tmp_path, "dog,0.0,3600,10,0")  # 180000 frames
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["frames"] == 180_000
        assert report["metrics"]["lr"] == pytest.approx(1 / 180_000)


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
        assert all(f.name in text for f in dataclasses.fields(settings))


class TestDuration:
    # each was once a traceback: OverflowError, ValueError, or numpy's `lam value too large`
    @pytest.mark.parametrize("value", ["1e20", "1e30", "inf", "nan"])
    def test_evaluate_unusable_duration_error_json(self, corpus, capsys, value):
        ref_dir, pred_dir = corpus
        assert run(["evaluate", "--ref", ref_dir, "--pred", pred_dir, "--duration", value]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "2**63" in err["message"]

    @pytest.mark.parametrize("value", ["1e20", "1e30", "inf", "nan"])
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
    path per command; any change to a table or log byte shows here.
    """

    PINNED = {  # case: (sha256, argv)
        "evaluate": ("9e97bab0f903b34ea3ea88cfe04bb2e139d498da1224c3458c25e36db520c01e",
            ["evaluate", "--ref", "{ref}", "--pred", "{s0}"]),
        "evaluate-settings": ("6721c8eab9787152786c5c070c9e20f87e4c448cafef55593e6bb0c45a6aafd2",
            ["evaluate", "--ref", "{ref}", "--pred", "{s1}", "--per-class", "--theta", "20",
             "--theta-class", "cat=45", "--loc-mode", "segment-mean", "--le-mode", "macro"]),
        "evaluate-config-json": ("dfcbdb7b2c3d42b6b743304e7fe21ef41436d45521cdd01a35459553ca2bb885",
            ["evaluate", "--ref", "{ref}", "--pred", "{s2}", "--config", "{cfg}", "--format",
             "json"]),
        "jackknife-per-class": ("e5107d2f2ad343ab9250744eb9b66d33172c3c12768276b79ed0952ed95798eb",
            ["jackknife", "--ref", "{ref}", "--pred", "{s1}", "--per-class"]),
        "rank-official": ("b95e15b23c9a3a61847e2d3b51ae2ced3a0a94739133bb2382ed0752c35885f0",
            ["rank", "--ref", "{ref}", "--pred", "a={s0}", "--pred", "b={s1}", "--pred",
             "c={s2}"]),
        "rank-joint": ("11c9774d57655891a2c6cd3fec21e2fc4828079d6950e72c4e9ced1bb5b246da",
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

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_sha256(self, case, paths, capsys):
        import hashlib

        expected, argv = self.PINNED[case]
        assert run([a.format(**paths) for a in argv]) == 0
        out = capsys.readouterr().out
        if case == "synth-log":
            out = (paths["synth"] / "injection_log.json").read_text(encoding="utf-8")
        assert hashlib.sha256(out.encode()).hexdigest() == expected


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
