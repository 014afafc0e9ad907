"""Malformed input ends in exit 1 and a JSON error envelope on stderr.

Hypothesis writes a reference, a prediction and a config file, one of
them malformed (bad values, or bytes that are not UTF-8), and runs
`cli.main` on them: every command that reads the broken file must return
1 and print `{"error": ..., "message": ...}`, never raise. A broken row
always follows a valid one, so it cannot be taken for a header.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from seldeval.cli import main

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
    undecodable(PRED_ROW),
)


def setting(key, values):
    return values.map(lambda v: json.dumps({key: v}))


# Each of these is a configuration error for every command.
bad_configs = st.one_of(
    st.sampled_from(["", "{", "[1, 2]", "3", '"evaluate"', "null"]),
    setting("frame_hop", st.floats(max_value=0.0) | garbage | st.just([])),
    setting("segment_length", st.sampled_from([0.0, -1.0, 0.03, 1.01, "x"])),
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
)

COMMANDS = st.sampled_from(["evaluate", "jackknife", "synth"])


def _bytes(content):
    return content if isinstance(content, bytes) else content.encode()


def run_in_corpus(command, ref=REF_ROW, pred=PRED_ROW, config="{}", extra=()):
    """Exit code and stderr of one command on a two-file corpus; `ref`,
    `pred` and `config` (text, or bytes written as they are) go into the
    second file and the config file, and `extra` is appended to the
    command's arguments."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for side, valid, row in (("ref", REF_ROW, ref), ("pred", PRED_ROW, pred)):
            (root / side).mkdir()
            (root / side / "a.csv").write_text(f"{valid}\n", encoding="utf-8")
            (root / side / "b.csv").write_bytes(f"{valid}\n".encode() + _bytes(row) + b"\n")
        (root / "ref" / "vocabulary.txt").write_text("dog\ncat\n", encoding="utf-8")
        (root / "config.json").write_bytes(_bytes(config))
        argv = [command, "--ref", str(root / "ref"), "--config", str(root / "config.json")]
        if command == "synth":
            argv += ["--out", str(root / "synth")]
        else:
            argv += ["--pred", str(root / "pred"), "--format", "json"]
        argv += list(extra)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


def assert_error_envelope(code, err):
    assert code == 1
    envelope = json.loads(err)
    assert set(envelope) == {"error", "message"}
    assert isinstance(envelope["error"], str) and isinstance(envelope["message"], str)


def test_well_formed_corpus_succeeds():
    for command in ("evaluate", "jackknife", "synth"):
        assert run_in_corpus(command, ref=REF_ROW.replace("dog", "cat")) == (0, "")


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
