"""Deterministic corpora and command sequences of the benchmark workloads.

Every workload is built offline from its seed with the package's own
public functions (`grid_directions`, `write_reference`, `perturb`,
`serialize_prediction`), so a change to the package that alters the
corpus bytes shows as a changed corpus fingerprint.

All files are 60 s long on the 20 ms hop (3000 frames), and every
command is run with `--duration 60 --jobs 1`: one closed-loop batch job
at a time, from one process.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seldeval.annotations import EventRecord, Vocabulary, write_reference
from seldeval.geometry import Direction
from seldeval.synth import PerturbationSpec, grid_directions, perturb, serialize_prediction

FILE_SECONDS = 60.0
HOP = 0.02
FRAMES_PER_FILE = 3000
VOCAB_NAME = "vocabulary.txt"

# The DCASE2019 SELD class set.
DCASE_CLASSES = (
    "clearthroat", "cough", "doorslam", "drawer", "keyboard",
    "keysdrop", "knock", "laughter", "pageturn", "phone", "speech",
)
POLY_CLASSES = ("dog", "phone", "speech")
# The class that gets its own threshold in the polyphonic workload.
POLY_THETA_CLASS = "dog"

# Files per workload. "full" is the measured size; "tiny" exists for the
# smoke test. The challenge references are the first files of the
# dcase2019 corpus of the same seed.
SIZES = {
    "full": {"dcase2019": 8, "polyphonic": 3, "challenge": 2},
    "tiny": {"dcase2019": 2, "polyphonic": 2, "challenge": 1},
}

MIXED = PerturbationSpec(
    doa_jitter_deg=8.0, deletion_prob=0.1, insertion_rate=12.0, substitution_prob=0.1
)
POLY_SYSTEM = PerturbationSpec(
    doa_jitter_deg=10.0, deletion_prob=0.1, insertion_rate=6.0, substitution_prob=0.1
)
ORACLE_JITTER_DEG = 3.0


def challenge_systems() -> dict:
    """Eight systems with graded error levels; `s0` is jitter-only."""
    systems = {"s0": PerturbationSpec(doa_jitter_deg=ORACLE_JITTER_DEG)}
    for k in range(1, 8):
        systems[f"s{k}"] = PerturbationSpec(
            doa_jitter_deg=ORACLE_JITTER_DEG + 2.0 * k,
            deletion_prob=0.03 * k,
            insertion_rate=2.0 * k,
            substitution_prob=0.02 * k,
            swap_locations=k == 4,
        )
    return systems


def _tracks(rng, classes, grid, n_tracks, length=(0.5, 3.0), gap=(0.3, 2.0)) -> list:
    """Independent tracks of consecutive events; tracks overlap each other partly."""
    events = []
    for _ in range(n_tracks):
        t = float(rng.uniform(0.0, 2.0))
        while True:
            dur = float(rng.uniform(*length))
            onset, offset = round(t, 3), round(t + dur, 3)
            if offset > FILE_SECONDS:
                break
            label = classes[int(rng.integers(len(classes)))]
            direction = grid[int(rng.integers(len(grid)))]
            events.append(EventRecord(label, onset, offset, direction))
            t += dur + float(rng.uniform(*gap))
    return events


def _antipodal_twins(rng, classes, grid) -> list:
    """Same-class pairs at opposite grid points over one interval.

    Where no other instance of the class shares the segment, the pooled
    reference DoAs cancel out and the segment-mean measurement falls back
    to its first direction with a warning.
    """
    events = []
    t = float(rng.uniform(0.0, 4.0))
    while True:
        dur = float(rng.uniform(1.0, 3.0))
        onset, offset = round(t, 3), round(t + dur, 3)
        if offset > FILE_SECONDS:
            break
        label = classes[int(rng.integers(len(classes)))]
        d = grid[int(rng.integers(len(grid)))]
        events.append(EventRecord(label, onset, offset, d))
        events.append(EventRecord(label, onset, offset, Direction(d.azimuth + 180.0, -d.elevation)))
        t += dur + float(rng.uniform(1.0, 4.0))
    return events


def _sorted(events) -> list:
    return sorted(events, key=lambda e: (e.onset, e.offset, e.label,
                                         e.direction.azimuth, e.direction.elevation))


def dcase_scene(seed: int, index: int) -> list:
    """Two partly overlapping tracks of the 11 DCASE2019 classes on the 10-degree grid."""
    rng = np.random.default_rng([seed, 2019, index])
    return _sorted(_tracks(rng, DCASE_CLASSES, grid_directions(), 2))


def poly_scene(seed: int, index: int) -> list:
    """Up to six simultaneous sources of three classes: four tracks plus antipodal twins."""
    rng = np.random.default_rng([seed, 6, index])
    grid = grid_directions()
    tracks = _tracks(rng, POLY_CLASSES, grid, 4, length=(1.0, 4.0), gap=(0.2, 1.0))
    return _sorted(tracks + _antipodal_twins(rng, POLY_CLASSES, grid))


@dataclass(frozen=True)
class Command:
    """One CLI call of a workload."""

    argv: tuple      # CLI arguments after `seldeval`
    systems: int     # prediction systems the call scores
    oracle: bool = False

    @property
    def name(self) -> str:
        return self.argv[0] + ("-oracle" if self.oracle else "")


@dataclass(frozen=True)
class Corpus:
    """A built corpus: `commands` are timed in a loop, `checks` run once."""

    workload: str
    root: Path
    files: int
    commands: tuple
    checks: tuple
    fingerprint: str

    @property
    def frames(self) -> int:
        """Reference frames scored per system."""
        return self.files * FRAMES_PER_FILE


def _write_scenes(ref_dir: Path, classes, scenes: dict) -> None:
    ref_dir.mkdir(parents=True, exist_ok=True)
    (ref_dir / VOCAB_NAME).write_text("".join(c + "\n" for c in classes), encoding="utf-8")
    for name, events in scenes.items():
        write_reference(ref_dir / name, events)


def _write_system(ref_scenes: dict, spec: PerturbationSpec, seed: int, vocabulary, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, (name, events) in enumerate(ref_scenes.items()):
        file_spec = dataclasses.replace(spec, seed=(seed * 1000 + index) * 16 + spec.seed)
        perturbed, _ = perturb(events, file_spec, vocabulary, FILE_SECONDS)
        serialize_prediction(perturbed, HOP, vocabulary, out_dir / name, FRAMES_PER_FILE)


def fingerprint(root: Path) -> str:
    """sha256 over the relative path and bytes of every corpus file."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


_COMMON = ("--duration", "60", "--jobs", "1", "--format", "json")
_POLY_FLAGS = ("--loc-mode", "segment-mean", "--le-mode", "macro", "--theta", "20",
               "--theta-class", f"{POLY_THETA_CLASS}=45")


def build(workload: str, seed: int, size: str, root: Path) -> Corpus:
    """Write the workload's corpus for `seed` under `root` and return its commands."""
    n_files = SIZES[size][workload]
    ref = root / "ref"
    if workload == "polyphonic":
        classes = POLY_CLASSES
        scenes = {f"poly_{i:03d}.csv": poly_scene(seed, i) for i in range(n_files)}
        systems = {"system": dataclasses.replace(POLY_SYSTEM, seed=1)}
    else:
        classes = DCASE_CLASSES
        scenes = {f"fold_{i:03d}.csv": dcase_scene(seed, i) for i in range(n_files)}
        if workload == "dcase2019":
            systems = {"mixed": dataclasses.replace(MIXED, seed=1)}
        elif workload == "challenge":
            systems = {name: dataclasses.replace(spec, seed=k)
                       for k, (name, spec) in enumerate(challenge_systems().items())}
        else:
            raise ValueError(f"unknown workload {workload!r}")
    _write_scenes(ref, classes, scenes)
    vocabulary = Vocabulary(classes)
    for name, spec in systems.items():
        _write_system(scenes, spec, seed, vocabulary, root / name)

    # Paths are relative to the corpus root, the commands' working directory.
    refs = ("--ref", "ref")
    if workload == "challenge":
        preds = tuple(a for name in systems for a in ("--pred", f"{name}={name}"))
        commands = (
            Command(("rank", *refs, *preds, "--metric-set", "official", *_COMMON), len(systems)),
            Command(("correlate", *refs, *preds, *_COMMON), len(systems)),
        )
        checks = (Command(("evaluate", *refs, "--pred", "s0", *_COMMON), 1, oracle=True),)
    else:
        (name,) = systems
        flags = _POLY_FLAGS if workload == "polyphonic" else ()
        pred = ("--pred", name)
        commands = (
            Command(("evaluate", *refs, *pred, *flags, *_COMMON), 1),
            Command(("jackknife", *refs, *pred, *flags, *_COMMON), 1),
        )
        checks = ()
    return Corpus(workload, root, n_files, commands, checks, fingerprint(root))


def check_report(corpus: Corpus, command: Command, report: dict) -> list:
    """Problems with one command's JSON report; empty when it is sound."""
    kind = command.argv[0]
    problems = []
    if kind in ("evaluate", "jackknife"):
        if report.get("schema") != "seldeval-report/1":
            problems.append("wrong report schema")
        expected = {"files": corpus.files, "frames": corpus.frames,
                    "segments": corpus.files * int(FILE_SECONDS)}
        for key, value in expected.items():
            if report.get(key) != value:
                problems.append(f"{key} = {report.get(key)}, expected {value}")
        if kind == "jackknife" and not report.get("ci"):
            problems.append("jackknife report has no intervals")
    elif kind == "rank":
        ranks = [s.get("final_rank", 0) for s in report.get("systems", [])]
        n = command.systems
        if len(ranks) != n or abs(sum(ranks) - n * (n + 1) / 2) > 1e-9:
            problems.append("rank table does not cover every system once")
    elif kind == "correlate":
        matrix = report.get("spearman", [])
        if len(matrix) != len(report.get("metrics", [])) or any(
                row[i] is not None and abs(row[i] - 1.0) > 1e-9 for i, row in enumerate(matrix)):
            problems.append("correlation matrix is not square with a unit diagonal")
    if command.oracle:
        # Jitter-only predictions: the identity matching keeps M = N in
        # every frame at cost `jitter` per pair, and the optimum is no worse.
        m = report.get("metrics", {})
        if m.get("lr") != 1.0 or m.get("ecr") != 1.0:
            problems.append(f"oracle LR/ECR {m.get('lr')}/{m.get('ecr')} != 1")
        if m.get("le_micro") is None or m["le_micro"] > ORACLE_JITTER_DEG + 1e-9:
            problems.append(f"oracle LE(micro) {m.get('le_micro')} > jitter {ORACLE_JITTER_DEG}")
    return problems
