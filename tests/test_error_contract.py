"""Malformed input ends in exit 1 and a JSON error envelope on stderr.

Hypothesis writes a reference, a prediction and a config file, one of
them malformed (bad values, a field longer than the csv module reads,
bytes that are not UTF-8, or a config key that names no setting or holds
a value of another JSON type than its setting takes), and runs `cli.main` on them: every command
that reads the broken file must return 1 and print
`{"error": ..., "message": ...}`, never raise. A broken row always
follows a valid one, so it cannot be taken for a header. The
multi-system commands, `rank` and `correlate`, must do the same for a
malformed, repeated or empty system and for one broken file among good
systems. A missing or empty prediction directory is named in the message,
after the system's id where there are several; `synth` refuses at once a
file expecting more than `synth.MAX_INSERTIONS` insertions. A setting given
twice, by two flags or by a key repeated in a config file's object, is
refused too, as are a negative `synth` seed (before `--out` is made) and a
segment of 2**63 frames or more; `correlate` with no metric defined for
every system still reports, with its warnings.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seldeval import cli
from seldeval.cli import main
from seldeval.evaluation import EvaluationConfig
from seldeval.synth import MAX_INSERTIONS, PerturbationSpec

# every key a config file may hold
SETTINGS = {f.name for cls in (EvaluationConfig, PerturbationSpec) for f in dataclasses.fields(cls)}

REF_ROW = "dog,0.0,1.0,10.0,0.0"
PRED_ROW = "0,0,10.0,0.0"

# No float() accepts a string drawn from this alphabet (no digits, no "nan"/"inf").
garbage = st.text(alphabet="bcxz-. ", min_size=1).filter(str.strip)
non_finite = st.sampled_from(["nan", "inf", "-inf"])
bad_number = garbage | non_finite
steep = (st.floats(min_value=90.001, max_value=1e300)
         | st.floats(min_value=-1e300, max_value=-90.001))
offsets = st.floats(min_value=0.0, max_value=100.0)
# No UTF-8 decoder accepts these: a lone continuation byte, a lead byte without
# its continuation, an overlong form, an encoded surrogate, a byte never used.
not_utf8 = st.sampled_from([b"\x80", b"\xe9", b"\xc3(", b"\xc0\xaf", b"\xed\xa0\x80", b"\xff"])
# Longer than the 131,072 characters the csv module reads in one field, bare or quoted.
overlong = st.integers(131_073, 140_000).map(lambda n: "x" * n)
overlong = overlong | overlong.map(lambda text: f'"{text}"')


def undecodable(text):
    """`text` as UTF-8 bytes with bytes that are not UTF-8 put in somewhere."""
    raw = text.encode()
    return st.tuples(st.integers(0, len(raw)), not_utf8).map(
        lambda at: raw[:at[0]] + at[1] + raw[at[0]:])


def wrong_width(allowed):
    sizes = st.integers(1, 9).filter(lambda n: n not in allowed)
    return sizes.flatmap(lambda n: st.lists(st.sampled_from(["dog", "0", "1.0", "bcx"]),
                                            min_size=n, max_size=n)).map(",".join)


def ref_row(label=st.just("dog"), onset=st.just("0.0"), offset=st.just("1.0"),
            az=st.just("10.0"), el=st.just("0.0")):
    return st.tuples(label, onset, offset, az, el).map(",".join)


bad_reference_rows = st.one_of(
    wrong_width((5, 6)),
    ref_row(label=garbage),
    ref_row(onset=bad_number),
    ref_row(offset=bad_number),
    ref_row(az=bad_number),
    ref_row(el=bad_number),
    ref_row(el=steep.map(repr)),
    ref_row(onset=st.floats(min_value=-1e9, max_value=-1e-9).map(repr)),
    offsets.flatmap(lambda t: ref_row(onset=st.just(repr(t)),
                                      offset=st.floats(0.0, t).map(repr))),
    # reaches past frame 2**63 at a 0.02 s hop
    ref_row(offset=st.floats(min_value=1e18, max_value=1e300).map(repr)),
    ref_row(label=overlong),
    undecodable(REF_ROW),
)


def pred_row(frame=st.just("1"), cls=st.just("0"), az=st.just("10.0"), el=st.just("0.0")):
    return st.tuples(frame, cls, az, el).map(",".join)


bad_prediction_rows = st.one_of(
    wrong_width((4,)),
    pred_row(frame=garbage | st.integers(max_value=-1).map(str) | st.just("1.5")
             | st.integers(min_value=2 ** 63).map(str)),
    pred_row(cls=garbage | st.integers(max_value=-1).map(str)
             | st.integers(min_value=2).map(str)),
    pred_row(az=bad_number),
    pred_row(el=bad_number),
    pred_row(el=steep.map(repr)),
    pred_row(az=overlong),
    undecodable(PRED_ROW),
)


def setting(key, values):
    return values.map(lambda v: json.dumps({key: v}))


# Each of these is a configuration error for every command.
bad_configs = st.one_of(
    st.sampled_from(["", "{", "[1, 2]", "3", '"evaluate"', "null"]),
    setting("frame_hop", st.floats(max_value=0.0) | garbage | st.just([])),
    setting("segment_length", st.sampled_from([0.0, -1.0, 0.03, 1.01, "x", 2e17, 1e300])),
    setting("thetas", st.just([]) | st.just([10, 10]) | garbage
            | st.lists(st.floats(min_value=180.001) | st.floats(max_value=0.0), min_size=1)),
    setting("theta_class", st.just([1, 2]) | st.fixed_dictionaries(
        {"dog": st.floats(min_value=180.001) | st.floats(max_value=0.0) | garbage})),
    setting("loc_mode", st.text().filter(lambda t: t not in ("frame-average", "segment-mean"))),
    setting("le_mode", st.text().filter(lambda t: t not in ("micro", "macro"))),
    setting("confidence", st.floats(max_value=0.0) | st.floats(min_value=1.0)),
    # not positive, not finite, or a grid reaching frame 2**63 at the default 0.02 s hop
    setting("duration", st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])
            | st.floats(min_value=2 ** 63 * 0.02) | st.integers(min_value=2 ** 63 // 50 + 1)),
    setting("jobs", st.integers(max_value=0) | garbage),
    undecodable('{"thetas": [10.0]}'),
    # a key that names no setting, or a value of a JSON type its setting does not take
    st.just('{"theta": [45], "loc-mode": "segment-mean"}'),
    st.text().filter(lambda key: key not in SETTINGS).map(lambda key: json.dumps({key: 1})),
    st.sampled_from([{"thetas": "45"}, {"thetas": [True]}, {"thetas": 45},
                     {"swap_locations": "false"}, {"swap_locations": 0},
                     {"jobs": 1.9}, {"jobs": 2.0}, {"jobs": True},
                     {"seed": 1.5}, {"duration": True}, {"frame_hop": True}, {"confidence": "0.9"},
                     {"theta_class": {"dog": "45"}}, {"theta_class": [["dog", 45]]},
                     {"loc_mode": 1}, {"doa_jitter_deg": None}]).map(json.dumps),
)

COMMANDS = st.sampled_from(["evaluate", "jackknife", "synth"])


def _bytes(content):
    return content if isinstance(content, bytes) else content.encode()


def write_files(directory, valid, row):
    """`directory` with a.csv holding the row `valid`, and b.csv holding
    `valid` then `row` (text, or bytes written as they are)."""
    directory.mkdir()
    (directory / "a.csv").write_text(f"{valid}\n", encoding="utf-8")
    (directory / "b.csv").write_bytes(f"{valid}\n".encode() + _bytes(row) + b"\n")


def run_main(argv):
    """Exit code and stderr of `cli.main(argv)`."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_in_corpus(command, ref=REF_ROW, pred=PRED_ROW, config="{}", extra=()):
    """Exit code and stderr of one command on a two-file corpus; `ref`,
    `pred` and `config` (text, or bytes written as they are) go into the
    second file and the config file, and `extra` is appended to the
    command's arguments."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_files(root / "ref", REF_ROW, ref)
        write_files(root / "pred", PRED_ROW, pred)
        (root / "ref" / "vocabulary.txt").write_text("dog\ncat\n", encoding="utf-8")
        (root / "config.json").write_bytes(_bytes(config))
        argv = [command, "--ref", str(root / "ref"), "--config", str(root / "config.json")]
        if command == "synth":
            argv += ["--out", str(root / "synth")]
        else:
            argv += ["--pred", str(root / "pred"), "--format", "json"]
        return run_main(argv + list(extra))


MULTI_SYSTEM = ["rank", "correlate"]
GOOD_SYSTEMS = ["a={root}/good", "b={root}/good", "c={root}/good"]


def run_systems(command, systems, bad_row=PRED_ROW, jobs="1"):
    """Exit code and stderr of a scoring command on the two-file corpus
    with one --pred per entry of `systems`, where ``{root}`` names a
    directory holding ``good`` (valid predictions), ``bad`` (`bad_row` as
    the second row of b.csv) and ``empty`` (no files), run with `jobs`
    workers."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_files(root / "ref", REF_ROW, REF_ROW.replace("dog", "cat"))
        (root / "ref" / "vocabulary.txt").write_text("dog\ncat\n", encoding="utf-8")
        write_files(root / "good", PRED_ROW, PRED_ROW)
        write_files(root / "bad", PRED_ROW, bad_row)
        (root / "empty").mkdir()
        argv = [command, "--ref", str(root / "ref"), "--format", "json", "--jobs", jobs]
        for system in systems:
            argv += ["--pred", system.format(root=root)]
        return run_main(argv)


def assert_error_envelope(code, err):
    assert code == 1
    envelope = json.loads(err)
    assert set(envelope) == {"error", "message"}
    assert isinstance(envelope["error"], str) and isinstance(envelope["message"], str)


def test_well_formed_corpus_succeeds():
    for command in ("evaluate", "jackknife", "synth"):
        assert run_in_corpus(command, ref=REF_ROW.replace("dog", "cat")) == (0, "")
    for command in MULTI_SYSTEM:
        assert run_systems(command, GOOD_SYSTEMS) == (0, "")


@given(COMMANDS, bad_reference_rows)
@settings(max_examples=100, deadline=None)
def test_malformed_reference(command, row):
    assert_error_envelope(*run_in_corpus(command, ref=row))


@given(st.sampled_from(["evaluate", "jackknife"]), bad_prediction_rows)
@settings(max_examples=100, deadline=None)
def test_malformed_prediction(command, row):
    assert_error_envelope(*run_in_corpus(command, pred=row))


@given(COMMANDS, bad_configs)
@settings(max_examples=100, deadline=None)
def test_malformed_config(command, config):
    assert_error_envelope(*run_in_corpus(command, config=config))


def test_config_naming_every_setting_accepted():
    # one value of each setting's JSON type; the integers are numbers too
    config = {"frame_hop": 0.02, "segment_length": 1, "thetas": [20, 90.5],
              "theta_class": {"dog": 45}, "loc_mode": "segment-mean", "le_mode": "macro",
              "confidence": 0.9, "duration": None, "jobs": 1, "doa_jitter_deg": 5,
              "deletion_prob": 0, "insertion_rate": 0.5, "substitution_prob": 0.0,
              "swap_locations": True, "seed": 3}
    assert set(config) == SETTINGS == set(cli._SETTINGS)
    for command in ("evaluate", "jackknife", "synth"):
        cat = REF_ROW.replace("dog", "cat")
        assert run_in_corpus(command, ref=cat, config=json.dumps(config)) == (0, ""), command


@given(st.floats(min_value=0.01, max_value=60.0),
       ref_row(offset=st.floats(min_value=1e18, max_value=1e300).map(repr)))
@settings(max_examples=50, deadline=None)
def test_synth_insertions_over_long_reference(rate, row):
    # insertions are drawn over the reference's length, so it is checked first
    code, err = run_in_corpus("synth", ref=row, extra=("--insert-rate", repr(rate)))
    assert_error_envelope(code, err)
    assert json.loads(err)["error"] == "ReferenceTooLong"


def test_merged_frame_count_reaching_2_63_refused():
    # Each file is accepted alone, but loc_eq_t, an int64 count of frames per
    # threshold, wrapped in the merge: `ecr_theta:10` read -0.844674.
    cat = REF_ROW.replace("dog", "cat")
    code, err = run_in_corpus("evaluate", ref=cat, extra=("--duration", "1e17"))
    assert_error_envelope(code, err)
    assert json.loads(err)["error"] == "ReferenceTooLong"
    # 2 x 4.6e18 frames stay below 2**63
    for command in ("evaluate", "jackknife"):
        assert run_in_corpus(command, ref=cat, extra=("--duration", "9.2e16")) == (0, "")


@pytest.mark.parametrize("command", MULTI_SYSTEM)
@pytest.mark.parametrize("system", ["{root}/good", "={root}/good", "d=", "d", "=", ""])
def test_malformed_system_refused(command, system):
    code, err = run_systems(command, GOOD_SYSTEMS + [system])
    assert_error_envelope(code, err)
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError" and "NAME=DIR" in envelope["message"]


@pytest.mark.parametrize("command", MULTI_SYSTEM)
def test_duplicate_system_names_refused(command):
    code, err = run_systems(command, GOOD_SYSTEMS + ["b={root}/good"])
    assert_error_envelope(code, err)
    assert json.loads(err) == {"error": "ConfigError", "message": "duplicate system names in --pred"}


NO_PREDICTIONS = {  # directory: its message, where d is the directory's path
    "missing": r"prediction directory not found: (?P<d>.+)",
    "empty": r"no prediction in (?P<d>.+) for reference file\(s\): a\.csv, b\.csv",
}


def assert_no_predictions(code, err, directory, system=None):
    assert_error_envelope(code, err)
    envelope = json.loads(err)
    assert envelope["error"] == "MissingPair"
    prefix = "" if system is None else f"system {system!r}: "
    match = re.fullmatch(re.escape(prefix) + NO_PREDICTIONS[directory], envelope["message"])
    assert match and Path(match["d"]).name == directory, envelope["message"]


@pytest.mark.parametrize("command", ["evaluate", "jackknife"])
@pytest.mark.parametrize("directory", sorted(NO_PREDICTIONS))
def test_directory_without_predictions_named(command, directory):
    assert_no_predictions(*run_systems(command, ["{root}/" + directory]), directory)


@pytest.mark.parametrize("command", MULTI_SYSTEM)
@pytest.mark.parametrize("directory", sorted(NO_PREDICTIONS))
def test_system_without_predictions_refused(command, directory):
    # among good systems, so the message must name the one at fault
    systems = GOOD_SYSTEMS[:1] + ["d={root}/" + directory] + GOOD_SYSTEMS[1:]
    assert_no_predictions(*run_systems(command, systems), directory, system="d")


def test_synth_expecting_too_many_insertions_returns_at_once(tmp_path):
    # 1 insertion per minute over 1e12 s expects 1.7e10 of them, each drawn in turn;
    # in a process of its own, so that a loop fails the test instead of hanging it
    write_files(tmp_path / "ref", REF_ROW, REF_ROW)
    (tmp_path / "ref" / "vocabulary.txt").write_text("dog\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from seldeval.cli import main; sys.exit(main())",
         "synth", "--ref", str(tmp_path / "ref"), "--out", str(tmp_path / "out"),
         "--insert-rate", "1", "--duration", "1e12"],
        capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": path})
    code, err = proc.returncode, proc.stderr
    assert_error_envelope(code, err)
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert f"above {MAX_INSERTIONS} per file" in envelope["message"]


@given(st.sampled_from(MULTI_SYSTEM), st.integers(0, 3), bad_prediction_rows)
@settings(max_examples=100, deadline=None)
def test_malformed_file_among_good_systems(command, position, row):
    systems = GOOD_SYSTEMS[:position] + ["d={root}/bad"] + GOOD_SYSTEMS[position:]
    assert_error_envelope(*run_systems(command, systems, bad_row=row))


@pytest.mark.parametrize("command", MULTI_SYSTEM)
def test_malformed_system_reported_before_a_later_missing_one(command):
    # Systems are scored in order: s1's bad file is read before s2's directory is
    # looked up, in this process or, at --jobs 2, in the command's one pool.
    for jobs in ("1", "2"):
        code, err = run_systems(command, ["s1={root}/bad", "s2={root}/missing",
                                          *GOOD_SYSTEMS[1:]], bad_row="1,0,bcx,0.0", jobs=jobs)
        assert_error_envelope(code, err)
        envelope = json.loads(err)
        assert envelope["error"] == "ParseError", jobs
        match = re.fullmatch(r"cannot parse azimuth from 'bcx' \[(?P<d>.+)[/\\]b\.csv:2\]",
                             envelope["message"])
        assert match and Path(match["d"]).name == "bad", envelope["message"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("bad_row", ["1,0,bcx,0.0", "1,0,10.0", "1,0,10.0,91.0", b"\xff"])
def test_first_malformed_file_named(tmp_path, jobs, bad_row):
    # Files 2 and 5 of six are malformed; one batch, or one group per worker,
    # holds both, and file 2 is read first.
    ref, pred = tmp_path / "ref", tmp_path / "pred"
    ref.mkdir()
    pred.mkdir()
    (ref / "vocabulary.txt").write_text("dog\ncat\n", encoding="utf-8")
    for i in range(1, 7):
        (ref / f"f{i}.csv").write_text(f"{REF_ROW}\n", encoding="utf-8")
        tail = _bytes(bad_row) + b"\n" if i in (2, 5) else b""
        (pred / f"f{i}.csv").write_bytes(f"{PRED_ROW}\n".encode() + tail)
    code, err = run_main(["evaluate", "--ref", str(ref), "--pred", str(pred), "--jobs", jobs,
                          "--format", "json"])
    assert_error_envelope(code, err)
    envelope = json.loads(err)
    assert envelope["error"] == "ParseError"
    assert "f2.csv" in envelope["message"] and "f5.csv" not in envelope["message"]


@pytest.mark.parametrize("where", ["flag", "config"])
def test_synth_nan_insertion_rate_refused(where):
    # nan < 0 is false: the rate once passed, inserted nothing, and wrote
    # "insertion_rate": NaN into injection_log.json, which strict JSON refuses
    if where == "flag":
        code, err = run_in_corpus("synth", extra=("--insert-rate", "nan"))
    else:
        code, err = run_in_corpus("synth", config='{"insertion_rate": NaN}')
    assert_error_envelope(code, err)
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError" and "insertion_rate" in envelope["message"]


@pytest.mark.parametrize("where", ["flag", "config"])
def test_synth_negative_seed_refused(tmp_path, where):
    # numpy's generators take no negative seed: a traceback once, after --out was made
    (tmp_path / "ref").mkdir()
    (tmp_path / "ref" / "vocabulary.txt").write_text("dog\n", encoding="utf-8")
    (tmp_path / "ref" / "a.csv").write_text(f"{REF_ROW}\n", encoding="utf-8")
    (tmp_path / "config.json").write_text('{"seed": -3}' if where == "config" else "{}")
    code, err = run_main(["synth", "--ref", str(tmp_path / "ref"), "--out", str(tmp_path / "out"),
                          "--config", str(tmp_path / "config.json")]
                         + (["--seed=-1"] if where == "flag" else []))
    assert_error_envelope(code, err)
    seed = -1 if where == "flag" else -3
    assert json.loads(err) == {"error": "ConfigError", "message":
                               f"bad perturbation parameter: seed must be non-negative, got {seed}"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, config, message", [
    (("--segment", "2e17"), "{}",
     "segment length 2e+17 s holds 2**63 frames or more at a 0.02 s hop"),
    (("--segment", "1e300"), "{}",
     "segment length 1e+300 s holds 2**63 frames or more at a 0.02 s hop"),
    ((), '{"segment_length": 1e300}',
     "segment length 1e+300 s holds 2**63 frames or more at a 0.02 s hop"),
    (("--hop", "1e-300"), "{}",
     "segment length 1.0 s holds 2**63 frames or more at a 1e-300 s hop"),
], ids=["2e17", "1e300", "config", "hop"])
def test_segment_of_2_63_frames_refused(extra, config, message):
    # segment indices are int64: such a segment once ended in an OverflowError traceback
    code, err = run_in_corpus("evaluate", config=config, extra=extra)
    assert_error_envelope(code, err)
    assert json.loads(err) == {"error": "ConfigError", "message": message}


@pytest.mark.parametrize("item, message", [("foo", "--theta-class expects CLASS=DEG, got 'foo'"),
                                           ("dog=abc", "bad per-class threshold 'dog=abc'")])
def test_malformed_theta_class_flag(item, message):
    code, err = run_in_corpus("evaluate", extra=("--theta-class", item))
    assert_error_envelope(code, err)
    assert json.loads(err) == {"error": "ConfigError", "message": message}


@pytest.mark.parametrize("where, config, message", [
    ("flag", "{}", "per-class threshold given more than once for class(es): 'dog'"),
    ("config", '{"theta_class": {"dog": 10, "dog": 20}}', "key 'dog' given more than once"),
    ("config", '{"thetas": [10], "thetas": [20]}', "key 'thetas' given more than once"),
], ids=["flags", "nested-key", "key"])
def test_setting_given_twice_refused(where, config, message):
    # json.loads keeps the last of a repeated key, and the flags' pairs once went
    # through dict(): either way the second value was scored, silently
    extra = ("--theta-class", "dog=10", "--theta-class", "dog=20") if where == "flag" else ()
    code, err = run_in_corpus("evaluate", config=config, extra=extra)
    assert_error_envelope(code, err)
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError" and envelope["message"].endswith(message)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_correlate_with_no_metric_defined_for_every_system(tmp_path, fmt):
    # one empty reference, three empty systems and no --duration: no frame, so
    # no metric is defined; the table's column width once came from max() of none
    for name in ("ref", "a", "b", "c"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "x.csv").write_text("", encoding="utf-8")
    argv = ["correlate", "--ref", str(tmp_path / "ref"), "--format", fmt,
            "--pred", f"a={tmp_path / 'a'}", "--pred", f"b={tmp_path / 'b'}",
            "--pred", f"c={tmp_path / 'c'}"]
    (tmp_path / "ref" / "vocabulary.txt").write_text("dog\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) == 0
    assert err.getvalue() == ""
    warnings = [f"metric {key!r} undefined for some system; skipped"
                for key in cli.correlation_metric_keys(EvaluationConfig())]
    warnings.append("official cumulative rank undefined for some system; skipped")
    if fmt == "json":
        report = json.loads(out.getvalue())
        assert (report["metrics"], report["spearman"], report["warnings"]) == ([], [], warnings)
    else:
        assert out.getvalue() == "".join(f"warning: {w}\n" for w in warnings)


def test_missing_vocabulary_file(tmp_path):
    code, err = run_in_corpus("evaluate", extra=("--vocab", str(tmp_path / "labels.txt")))
    assert_error_envelope(code, err)
    envelope = json.loads(err)
    assert envelope["error"] == "ConfigError"
    assert envelope["message"].startswith(f"vocabulary file not found: {tmp_path / 'labels.txt'} ")


def test_synth_without_reference_files(tmp_path):
    (tmp_path / "ref").mkdir()
    (tmp_path / "ref" / "vocabulary.txt").write_text("dog\n", encoding="utf-8")
    code, err = run_main(["synth", "--ref", str(tmp_path / "ref"), "--out", str(tmp_path / "out")])
    assert_error_envelope(code, err)
    assert json.loads(err) == {"error": "ConfigError",
                               "message": f"no reference files found in {tmp_path / 'ref'}"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "jackknife"])
def test_unwritable_out_path(tmp_path, command):
    out = tmp_path / "missing" / "report.json"
    code, err = run_in_corpus(command, ref=REF_ROW.replace("dog", "cat"), extra=("--out", str(out)))
    assert_error_envelope(code, err)
    envelope = json.loads(err)
    assert envelope["error"] == "OSError" and str(out) in envelope["message"]


def test_blank_reference_rows_score_like_none(tmp_path):
    rows = [REF_ROW, REF_ROW.replace("dog", "cat").replace("0.0,1.0", "0.5,2.0")]
    outputs = []
    for name, text in (("plain", "".join(f"{row}\n" for row in rows)),
                       ("blank", f"\n   \n{rows[0]}\n\t\n , ,\n{rows[1]}\n\n  ")):
        root = tmp_path / name
        (root / "ref").mkdir(parents=True)
        (root / "ref" / "vocabulary.txt").write_text("dog\ncat\n", encoding="utf-8")
        (root / "ref" / "a.csv").write_text(text, encoding="utf-8")
        (root / "pred").mkdir()
        (root / "pred" / "a.csv").write_text(f"{PRED_ROW}\n10,1,10.0,0.0\n", encoding="utf-8")
        out = root / "report.json"
        assert run_main(["evaluate", "--ref", str(root / "ref"), "--pred", str(root / "pred"),
                         "--format", "json", "--out", str(out)]) == (0, "")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_numeric_first_prediction_row_is_no_header(tmp_path):
    # a first row is a header only when float() refuses its frame index; the
    # row "1.0,0,10,0" was once dropped as one, and the file scored as empty
    for name, text in (("ref", f"{REF_ROW}\n"), ("pred", "1.0,0,10,0\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "a.csv").write_text(text, encoding="utf-8")
    (tmp_path / "ref" / "vocabulary.txt").write_text("dog\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["evaluate", "--ref", str(tmp_path / "ref"), "--pred", str(tmp_path / "pred"),
                     "--format", "json"])
    assert_error_envelope(code, err.getvalue())
    assert out.getvalue() == ""
    envelope = json.loads(err.getvalue())
    assert envelope["error"] == "ParseError"
    assert envelope["message"].endswith(f"[{tmp_path / 'pred' / 'a.csv'}:1]")


@pytest.mark.parametrize("side", ["ref", "pred"])
def test_blank_line_before_a_header_scores_like_none(tmp_path, side):
    # the first non-blank row is the header, wherever it starts
    files = {"ref": "dog,0.0,1.5,10,0", "pred": "0,0,10.0,0.0"}
    headers = {"ref": "label,onset,offset,azimuth,elevation", "pred": "frame,class,azimuth,elevation"}
    outputs = []
    for name in ("plain", "header"):
        root = tmp_path / name
        for d, text in files.items():
            (root / d).mkdir(parents=True)
            if name == "header" and d == side:
                text = f"\n{headers[d]}\n{text}"
            (root / d / "a.csv").write_text(text, encoding="utf-8")
        (root / "ref" / "vocabulary.txt").write_text("dog\n", encoding="utf-8")
        out = root / "report.json"
        assert run_main(["evaluate", "--ref", str(root / "ref"), "--pred", str(root / "pred"),
                         "--format", "json", "--out", str(out)]) == (0, "")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
