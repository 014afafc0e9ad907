"""Harmless rewrites of valid input files change nothing that is read from them.

Hypothesis writes a valid reference and prediction file, then rewrites each
in a way the file format allows: a header row, blank or whitespace-only
lines (the first line included), a line of only commas and whitespace,
CRLF line ends, a byte-order mark, spaces or tabs around fields, no final
newline. Each rewrite, and all of them at once, must leave `parse_reference`
equal and `read_prediction_columns` bit for bit identical, and, applied to
every file of a small corpus, the JSON report of `evaluate` byte for byte.
`read_prediction_columns` on its `np.loadtxt` path must also give the
per-row parser's arrays, bit for bit, in file order, and every rewrite of a
file with rows must stay on that path, in one `np.loadtxt` call.
"""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from seldeval import annotations, cli
from seldeval.annotations import MAX_FRAMES, Vocabulary, parse_reference, read_prediction_columns

VOCAB = Vocabulary(["dog", "cat", "speech"])
HEADERS = {"ref": "label,onset,offset,azimuth,elevation", "pred": "frame,class,azimuth,elevation"}
REWRITES = ("header", "blank", "commas", "crlf", "bom", "padding", "no_final_newline")

azimuths = st.floats(-720, 720, allow_nan=False) | st.sampled_from([-180.0, 180.0, -0.0, 1e-300])
elevations = st.floats(-90, 90, allow_nan=False) | st.sampled_from([-90.0, 90.0, -0.0])
number_text = st.sampled_from([repr, "{:.3f}".format, "{:e}".format])
reference_rows = st.lists(st.builds(
    lambda label, onset, length, az, el, fmt, distance: ",".join(
        [label, repr(onset), repr(onset + length), fmt(az), fmt(el)] + distance),
    st.sampled_from(VOCAB.labels), st.floats(0, 100), st.floats(0.5, 10), azimuths, elevations,
    number_text, st.sampled_from([[], ["1.5"]])), max_size=8)


def prediction_lines(frames):
    """Lists of prediction rows whose frame indices `frames` draws."""
    return st.lists(st.builds(lambda frame, cls, az, el, fmt: f"{frame},{cls},{fmt(az)},{fmt(el)}",
                              frames, st.integers(0, 2), azimuths, elevations, number_text),
                    max_size=12)


prediction_rows = prediction_lines(st.integers(0, 200) | st.just(MAX_FRAMES - 1))
report_prediction_rows = prediction_lines(st.integers(0, 200))  # a small grid to score
whitespace = st.text(" \t", max_size=3)


@st.composite
def rewritten(draw, side, rows, rewrites):
    """The text of a file of `rows` with each of `rewrites` applied."""
    lines = list(rows)
    if "header" in rewrites:
        lines.insert(0, HEADERS[side])
    if "padding" in rewrites:
        lines = [",".join(draw(whitespace) + cell + draw(whitespace) for cell in line.split(","))
                 for line in lines]
    if "blank" in rewrites:
        for _ in range(draw(st.integers(1, 4))):
            lines.insert(draw(st.integers(0, len(lines))), draw(whitespace))
    if "commas" in rewrites:  # a blank row to the csv module, refused by np.loadtxt
        lines.insert(draw(st.integers(0, len(lines))), " , , , ")
    end = "\r\n" if "crlf" in rewrites else "\n"
    text = end.join(lines) + ("" if "no_final_newline" in rewrites or not lines else end)
    return ("\ufeff" if "bom" in rewrites else "") + text


def fast_path(path, has_rows):
    """`read_prediction_columns` in one `np.loadtxt` call, with its per-row
    parser refusing to run; a file without rows is read row by row, with no
    `np.loadtxt` call."""
    loadtxt = mock.Mock(wraps=annotations.np.loadtxt)
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(annotations.np, "loadtxt", loadtxt))
        if has_rows:
            stack.enter_context(mock.patch.object(annotations, "_prediction_rows",
                                                  side_effect=AssertionError("row by row")))
        got = read_prediction_columns(path, VOCAB)
    assert loadtxt.call_count == int(has_rows)
    return got


def per_row(path):
    """`read_prediction_columns` with `np.loadtxt` refusing every file."""
    with mock.patch.object(annotations.np, "loadtxt", side_effect=ValueError):
        return read_prediction_columns(path, VOCAB)


def assert_bit_equal(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def event_key(events):
    return [(e.label, e.onset.hex(), e.offset.hex(), e.direction.azimuth.hex(),
             e.direction.elevation.hex()) for e in events]


@given(reference_rows, prediction_rows, st.data())
@settings(max_examples=40, deadline=None)
def test_rewrites_leave_the_read_unchanged(ref_rows, pred_rows, data):
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, text):
            path = Path(tmp) / name
            path.write_bytes(text.encode("utf-8"))
            return path

        ref = parse_reference(write("ref.csv", data.draw(rewritten("ref", ref_rows, ()))), VOCAB)
        pred = write("pred.csv", data.draw(rewritten("pred", pred_rows, ())))
        want = fast_path(pred, bool(pred_rows))
        assert_bit_equal(per_row(pred), want)
        assert want[0].tolist() == [int(row.split(",")[0]) for row in pred_rows]
        for rewrites in [(r,) for r in REWRITES] + [REWRITES]:
            got = parse_reference(write("ref.csv", data.draw(rewritten("ref", ref_rows, rewrites))),
                                  VOCAB)
            assert event_key(got) == event_key(ref), rewrites
            path = write("pred.csv", data.draw(rewritten("pred", pred_rows, rewrites)))
            assert_bit_equal(fast_path(path, bool(pred_rows)), want)
            assert_bit_equal(per_row(path), want)


@given(st.lists(st.tuples(reference_rows, report_prediction_rows), min_size=1, max_size=3),
       st.data())
@settings(max_examples=15, deadline=None)
def test_rewrites_leave_the_report_unchanged(files, data):
    with tempfile.TemporaryDirectory() as tmp:
        def report(rewrites):
            root = Path(tmp) / ("-".join(rewrites) or "plain")
            for side in ("ref", "pred"):
                (root / side).mkdir(parents=True)
            (root / "ref" / "vocabulary.txt").write_text("\n".join(VOCAB.labels) + "\n")
            for i, (ref_rows, pred_rows) in enumerate(files):
                for side, rows in (("ref", ref_rows), ("pred", pred_rows)):
                    text = data.draw(rewritten(side, rows, rewrites))
                    (root / side / f"f{i}.csv").write_bytes(text.encode("utf-8"))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["evaluate", "--ref", str(root / "ref"), "--pred",
                                 str(root / "pred"), "--format", "json", "--per-class"])
            assert (code, err.getvalue()) == (0, ""), rewrites
            return out.getvalue()

        want = report(())
        for rewrites in [(r,) for r in REWRITES] + [REWRITES]:
            assert report(rewrites) == want, rewrites
