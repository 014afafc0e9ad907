"""The console script, as a user runs it: each command in a fresh process.

`seldeval --help` and each command's ``--help`` exit 0 with their text on
stdout and nothing on stderr, and ``import seldeval.cli`` loads no
``dataclasses``. On a two-reference corpus and the three systems that
``seldeval synth`` makes from it (built once per module), every scoring
command writes its JSON report and its tables with nothing on stderr. The
same settings give the same bytes from flags and from a config file, at
every ``--jobs``, and from CSV files with headers, blank rows, quoted fields
and non-ASCII digits. Each refused input exits 1 with nothing on stdout and
the JSON error envelope on stderr, of the error type and naming the file,
line or bound that the refusal names.

Each process runs in development mode with ResourceWarning an error, so a
file left for the collector to close or flush at exit shows on stderr, and
each is stopped after `TIMEOUT_S`. The installed `seldeval` script runs
when it is on PATH; otherwise ``python -m seldeval.cli`` runs on this
checkout's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from seldeval.annotations import MAX_PREDICTION_BYTES

SRC = Path(__file__).resolve().parents[1] / "src"
SCRIPT = shutil.which("seldeval")
COMMANDS = ["evaluate", "jackknife", "rank", "correlate", "synth"]
TIMEOUT_S = 120  # the benchmark's COMMAND_TIMEOUT_S
SYSTEMS = "--pred a={d}/s0 --pred b={d}/s1 --pred c={d}/s2"
SCORING = {"evaluate": "evaluate --pred {d}/s1", "jackknife": "jackknife --pred {d}/s2",
           "rank": "rank " + SYSTEMS, "correlate": "correlate " + SYSTEMS}


def run(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error::ResourceWarning"}
    if SCRIPT is None:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=TIMEOUT_S)


def seldeval(command: str, **dirs: Path) -> subprocess.CompletedProcess:
    """`seldeval` run with the words of `command`, each formatted with `dirs`."""
    script = [SCRIPT] if SCRIPT else [sys.executable, "-m", "seldeval.cli"]
    return run(*script, *(word.format(**dirs) for word in command.split()))


def ok(command: str, **dirs: Path) -> str:
    """The stdout of a command that exits 0 with nothing on stderr."""
    proc = seldeval(command, **dirs)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return proc.stdout


def refusal(command: str, **dirs: Path) -> dict:
    """The error envelope of a command that exits 1 with nothing on stdout."""
    proc = seldeval(command, **dirs)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    return json.loads(proc.stderr)


@pytest.mark.parametrize("command", ["", *COMMANDS], ids=["seldeval", *COMMANDS])
def test_help_exits_zero(command):
    proc = seldeval(f"{command} --help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip()


def test_startup_loads_no_dataclasses():
    # no command generates dataclass code at start-up
    proc = run(sys.executable, "-c",
               "import seldeval.cli, sys; assert 'dataclasses' not in sys.modules")
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A directory holding ref/, two references of two classes, and the systems
    s0-s2 that `synth` makes from it; and the three `synth` processes."""
    d = tmp_path_factory.mktemp("console")
    (d / "ref").mkdir()
    (d / "ref" / "vocabulary.txt").write_text("dog\ncat\n")
    (d / "ref" / "a.csv").write_text("dog,0.0,1.5,10,0\ncat,1.0,2.5,-40,20\n")
    (d / "ref" / "b.csv").write_text("cat,0.5,2.0,90,-10\ndog,2.0,3.0,0,0\n")
    return d, [seldeval(f"synth --ref {{d}}/ref --out {{d}}/s{i} --seed {i} --jitter {10 * i} "
                        "--delete-prob 0.2", d=d) for i in range(3)]


@pytest.fixture
def d(built) -> Path:
    return built[0]


def copy_csv(src: Path, dst: Path) -> Path:
    """`dst`, made, holding a copy of each CSV file of `src`."""
    return shutil.copytree(src, dst, ignore=shutil.ignore_patterns("*.json"))


@pytest.mark.parametrize("i", range(3))
def test_synth_writes_each_system(built, i):
    d, procs = built
    assert (procs[i].returncode, procs[i].stderr) == (0, "")
    json.loads((d / f"s{i}" / "injection_log.json").read_text())


@pytest.mark.parametrize("name", SCORING)
def test_json_report(d, name):
    json.loads(ok(SCORING[name] + " --ref {d}/ref --format json", d=d))


@pytest.mark.parametrize("command", [
    "evaluate --pred {d}/s1 --loc-mode segment-mean --le-mode macro", "jackknife --pred {d}/s2"],
    ids=["evaluate", "jackknife"])
def test_table_has_the_keys_of_two_thetas_and_a_class_threshold(d, command):
    out = ok(command + " --ref {d}/ref --per-class --theta 10 --theta 30 --theta-class dog=45", d=d)
    assert re.search(r"^F_30 ", out, re.M)


@pytest.mark.parametrize("name, line", [("rank", r"^system .* sum rank$"),
                                        ("correlate", r"^official rank ")])
def test_rank_and_correlate_tables(d, name, line):
    out = ok(SCORING[name] + " --ref {d}/ref --format table", d=d)
    assert re.search(line, out, re.M)


def test_flags_and_config_file_give_the_same_bytes(d, tmp_path):
    # the same settings, whole numbers included
    (tmp_path / "cfg.json").write_text('{"segment_length": 1, "duration": 60, "confidence": 0.9}')
    flags, config = (seldeval("jackknife --ref {d}/ref --pred {d}/s1 " + settings
                              + " --format json", d=d, t=tmp_path)
                     for settings in ("--segment 1 --duration 60 --confidence 0.9",
                                      "--config {t}/cfg.json"))
    assert (flags.returncode, config.returncode) == (0, 0)
    assert flags.stdout == config.stdout


@pytest.mark.parametrize("name", SCORING)
def test_every_jobs_gives_the_same_bytes(d, name):
    # --jobs 2 workers score contiguous groups of file pairs and inherit
    # OPENBLAS_NUM_THREADS from the CLI process; --jobs 5 asks for more groups
    # than the 2 files make
    one, two, five = (ok(SCORING[name] + f" --ref {{d}}/ref --jobs {jobs} --format json", d=d)
                      for jobs in (1, 2, 5))
    assert one == two == five


def test_blank_and_header_lines_score_like_none(d, tmp_path):
    # a blank first line, a header, a whitespace-only line and a line of only
    # commas and whitespace in every CSV file
    (tmp_path / "href").mkdir()
    (tmp_path / "hs1").mkdir()
    shutil.copy(d / "ref" / "vocabulary.txt", tmp_path / "href")
    for f in (d / "ref").glob("*.csv"):
        (tmp_path / "href" / f.name).write_text(
            "\nlabel,onset,offset,azimuth,elevation\n \t\n" + f.read_text() + " , , , \n")
    for f in (d / "s1").glob("*.csv"):
        (tmp_path / "hs1" / f.name).write_text(
            "\nframe,class,azimuth,elevation\n" + f.read_text() + " \t\n , , , \n")
    plain = seldeval("evaluate --ref {d}/ref --pred {d}/s1 --format json", d=d)
    assert plain.returncode == 0
    assert ok("evaluate --ref {t}/href --pred {t}/hs1 --format json", t=tmp_path) == plain.stdout


def test_quotes_separators_and_non_ascii_digits_score_as_the_ascii_twin(d, tmp_path):
    # a quoted field, `_` digit separators and an Arabic-Indic digit zero, which
    # np.loadtxt refuses and the per-row path reads
    for name, text in [("twin", b"0,0,10,0\n12,1,-40,20\n75,0,10.5,0\n"),
                       ("uni", b'"0",0,1_0,0\n1_2,1,-4\xd9\xa0,2\xd9\xa0\n75,0,1_0.5,0\n')]:
        (tmp_path / name).mkdir()
        shutil.copy(d / "s1" / "b.csv", tmp_path / name)
        (tmp_path / name / "a.csv").write_bytes(text)
    twin = seldeval("evaluate --ref {d}/ref --pred {t}/twin --format json", d=d, t=tmp_path)
    assert twin.returncode == 0
    assert ok("evaluate --ref {d}/ref --pred {t}/uni --format json", d=d, t=tmp_path) == twin.stdout


def test_config_deeper_than_the_decoder_recurses_is_a_config_error(d, tmp_path):
    # a configuration error, not a traceback
    (tmp_path / "deep.json").write_text("[" * 100000)
    e = refusal("evaluate --ref {d}/ref --pred {d}/s1 --config {t}/deep.json", d=d, t=tmp_path)
    assert set(e) == {"error", "message"} and e["error"] == "ConfigError", e


@pytest.mark.parametrize("extra", ["--theta-class dog=10 --theta-class dog=20",
                                   "--hop 0.02 --hop 0.04"], ids=["theta-class", "hop"])
def test_a_setting_given_twice_is_refused(d, extra):
    # a class given two per-class thresholds, and a single-valued flag given twice
    e = refusal("evaluate --ref {d}/ref --pred {d}/s1 " + extra, d=d)
    assert set(e) == {"error", "message"}


def test_header_only_and_blank_only_predictions_score_as_empty(d, tmp_path):
    # np.loadtxt is never handed no lines
    (tmp_path / "p0").mkdir()
    (tmp_path / "p0" / "a.csv").write_text("frame,class,azimuth,elevation\n")
    (tmp_path / "p0" / "b.csv").write_text(" , , , \n  \n , , , \n")
    json.loads(ok("evaluate --ref {d}/ref --pred {t}/p0 --format json", d=d, t=tmp_path))


@pytest.mark.parametrize("command", ["synth --out {t}/neg --seed=-1",
                                     "evaluate --pred {d}/s1 --segment 2e17"],
                         ids=["negative-seed", "segment-past-2**31-frames"])
def test_negative_seed_and_huge_segment_are_refused(d, tmp_path, command):
    e = refusal(command + " --ref {d}/ref", d=d, t=tmp_path)
    assert set(e) == {"error", "message"}
    assert not (tmp_path / "neg").exists()


def predictions_with_a(d: Path, tmp_path: Path, row: str) -> Path:
    """p1: s1's prediction files with a.csv holding the one row `row`."""
    p1 = copy_csv(d / "s1", tmp_path / "p1")
    (p1 / "a.csv").write_text(row + "\n")
    return p1


def test_numeric_first_row_is_no_header(d, tmp_path):
    # the frame index 1.0 is refused
    predictions_with_a(d, tmp_path, "1.0,0,10,0")
    e = refusal("evaluate --ref {d}/ref --pred {t}/p1", d=d, t=tmp_path)
    assert set(e) == {"error", "message"}


def test_class_index_outside_the_vocabulary_names_the_line(d, tmp_path):
    predictions_with_a(d, tmp_path, "0,2,10,0")
    e = refusal("evaluate --ref {d}/ref --pred {t}/p1", d=d, t=tmp_path)
    assert set(e) == {"error", "message"} and e["error"] == "UnknownClass", e
    assert "a.csv:1" in e["message"], e


def test_grid_past_2_31_frames_is_a_config_error(d):
    e = refusal("evaluate --ref {d}/ref --pred {d}/s1 --duration 42949673", d=d)
    assert set(e) == {"error", "message"} and e["error"] == "ConfigError", e
    assert "2147483648 frames" in e["message"], e


def test_frame_index_at_the_2_31_bound_names_the_line(d, tmp_path):
    predictions_with_a(d, tmp_path, "2147483648,0,10,0")
    e = refusal("evaluate --ref {d}/ref --pred {t}/p1", d=d, t=tmp_path)
    assert set(e) == {"error", "message"} and e["error"] == "ParseError", e
    assert "a.csv:1" in e["message"], e


@pytest.mark.parametrize("row, command", [
    ("dog,0.0,1e6,10,0", "evaluate --pred {t}/bigp"),
    ("dog,0.0,1e6,10,0", "synth --out {t}/bigs --insert-rate 1"),
    ("dog,0,1e308,10,0", "evaluate --pred {t}/bigp"),
    ("dog,0,1e308,10,0", "synth --out {t}/infs")],
    ids=["rows-evaluate", "rows-synth", "infinite-evaluate", "infinite-synth"])
def test_too_long_reference_is_refused_naming_it(d, tmp_path, row, command):
    # 1e6 s is 5*10**7 rows, above the 2**22-row bound, refused before any row is
    # made, by synth in its insertion pre-check; 1e308 s is an infinite frame index
    # at the default hop
    (tmp_path / "ref").mkdir()
    shutil.copy(d / "ref" / "vocabulary.txt", tmp_path / "ref")
    (tmp_path / "ref" / "a.csv").write_text(row + "\n")
    (tmp_path / "bigp").mkdir()
    (tmp_path / "bigp" / "a.csv").write_text("0,0,10,0\n")
    e = refusal(command + " --ref {t}/ref", t=tmp_path)
    assert set(e) == {"error", "message"} and e["error"] == "ReferenceTooLong", e
    assert "a.csv" in e["message"], e


def test_prediction_one_byte_over_the_bound_is_refused_by_its_size(d, tmp_path):
    # sparse, so no byte of it is written or read
    (tmp_path / "huge").mkdir()
    shutil.copy(d / "s1" / "b.csv", tmp_path / "huge")
    with open(tmp_path / "huge" / "a.csv", "wb") as f:
        f.truncate(MAX_PREDICTION_BYTES + 1)
    e = refusal("evaluate --ref {d}/ref --pred {t}/huge", d=d, t=tmp_path)
    assert set(e) == {"error", "message"} and e["error"] == "ParseError", e
    assert "/huge/a.csv" in e["message"], e
    # read through, its NUL bytes are refused too, naming the same file
    assert f"file of {MAX_PREDICTION_BYTES + 1} bytes" in e["message"], e


def test_bad_rows_in_two_systems_name_the_first_reference_at_every_jobs(d, tmp_path):
    # pairs are read reference by reference, so y's a.csv is named, with the same
    # envelope at --jobs 1 and 2
    for system, name, path in (("s1", "x", "b.csv"), ("s2", "y", "a.csv")):
        with open(copy_csv(d / system, tmp_path / name) / path, "a") as f:
            f.write("0,0,10,0\n0,0,bcx,0\n")
    procs = [seldeval(f"rank --ref {{d}}/ref --pred x={{t}}/x --pred y={{t}}/y --jobs {jobs}",
                      d=d, t=tmp_path) for jobs in (1, 2)]
    assert [(p.returncode, p.stdout) for p in procs] == [(1, "")] * 2
    assert procs[0].stderr == procs[1].stderr
    e = json.loads(procs[0].stderr)
    assert e["error"] == "ParseError" and "/y/a.csv:" in e["message"], e
