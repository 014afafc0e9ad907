"""Harmful lines in an input file end `evaluate` with the parser's own error.

Hypothesis writes a valid reference and prediction file, then puts one
harmful line into one of them, at a drawn row after a valid row or after a
header: a wrong field count, a frame or class that is not an integer, an
angle that is NaN or infinite, |elevation| > 90, a class outside the
vocabulary, a frame of 2**63 or more, or bytes that are not UTF-8.
`cli.main(["evaluate", ...])` must exit 1 with the JSON envelope of the
exception that `parse_prediction` (or `parse_reference`) raises on that file,
its message and line number included, whichever path
`read_prediction_columns` took to find it.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seldeval import cli
from seldeval.annotations import parse_prediction, parse_reference
from seldeval.errors import SeldEvalError
from test_error_contract import non_finite, steep, undecodable, wrong_width
from test_file_rewrites import HEADERS, VOCAB, reference_rows, report_prediction_rows

PRED_ROW = ("0", "0", "10.0", "0.0")
REF_ROW = ("dog", "0.0", "1.0", "10.0", "0.0")

not_integer = st.sampled_from(["1.5", "1.0", "1e3", "0x1", "x", "nan", "inf", ""])
not_finite = non_finite | st.sampled_from(["NaN", "Infinity", "1e400"])


def with_field(row, at, values):
    """Lines of `row` with field `at` drawn from `values`."""
    return values.map(lambda v: ",".join(row[:at] + (v,) + row[at + 1:]))


harmful = {
    "pred": st.one_of(
        wrong_width((4,)),
        with_field(PRED_ROW, 0, not_integer),
        with_field(PRED_ROW, 1, not_integer),
        with_field(PRED_ROW, 2, not_finite),
        with_field(PRED_ROW, 3, not_finite | steep.map(repr)),
        with_field(PRED_ROW, 1, (st.integers(len(VOCAB), 2 ** 70)
                                 | st.integers(-2 ** 70, -1)).map(str)),
        with_field(PRED_ROW, 0, st.integers(2 ** 63, 2 ** 70).map(str) | st.just(str(2 ** 63))),
        undecodable(",".join(PRED_ROW)),
    ),
    "ref": st.one_of(
        wrong_width((5, 6)),
        with_field(REF_ROW, 0, st.sampled_from(["bird", "Dog", "0"])),
        with_field(REF_ROW, 1, not_finite | st.sampled_from(["x", "-1.0", "1.0", "2.5"])),
        with_field(REF_ROW, 3, not_finite),
        with_field(REF_ROW, 4, not_finite | steep.map(repr)),
        undecodable(",".join(REF_ROW)),
    ),
}
valid = {"pred": report_prediction_rows, "ref": reference_rows}


@st.composite
def mutated(draw, side):
    """Bytes of a valid `side` file with one harmful line put after a valid
    row or after a header."""
    lines = [line.encode() for line in draw(valid[side].filter(bool))]
    if draw(st.booleans()):
        lines.insert(0, HEADERS[side].encode())
    line = draw(harmful[side])
    lines.insert(draw(st.integers(1, len(lines))),
                 line if isinstance(line, bytes) else line.encode())
    return b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("side", ["pred", "ref"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_harmful_line_refused_with_the_parsers_error(side, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("ref", "pred"):
            (root / name).mkdir()
        (root / "ref" / "vocabulary.txt").write_text("\n".join(VOCAB.labels) + "\n")
        (root / "ref" / "f.csv").write_text(",".join(REF_ROW) + "\n")
        (root / "pred" / "f.csv").write_text(",".join(PRED_ROW) + "\n")
        path = root / side / "f.csv"
        path.write_bytes(data.draw(mutated(side)))
        parse = parse_prediction if side == "pred" else parse_reference
        with pytest.raises(SeldEvalError) as want:
            parse(path, VOCAB)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["evaluate", "--ref", str(root / "ref"), "--pred", str(root / "pred"),
                             "--format", "json"])
        assert (code, out.getvalue()) == (1, "")
        assert json.loads(err.getvalue()) == {"error": type(want.value).__name__,
                                              "message": str(want.value)}
