#!/usr/bin/env python3
"""Benchmark of the `seldeval` command line on fixed, seeded corpora.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload dcase2019 --seed 1 --seconds 38 --trace 0

Workloads (BENCHMARK.json says why each exists):

    dcase2019   `evaluate` and `jackknife` of one mixed-error system on
                DCASE2019-shaped references.
    polyphonic  the same two commands on up-to-six-source scenes, with
                segment-mean localization, macro LE and a per-class threshold.
    challenge   `rank` and `correlate` of eight graded systems on the
                dcase2019 references. `evaluate` of the jitter-only oracle
                system runs once per run, as a check.

The corpus is built offline from `--seed` with the package's own public
functions. The workload's commands then run as fresh processes, one at a
time (a closed loop with one client, `--jobs 1`), until `--seconds` have
passed. Each command's JSON stdout is checked: its sha256 against the
hash recorded in golden.json for this workload and seed (for a seed with
no record, against the first run of the same command), its structure,
and, on the challenge oracle, the analytic bounds LR = ECR = 1 and
LE(micro) <= jitter.

The gated times are scaled to a reference host speed. CALIB_PROBE, a
fresh interpreter importing numpy and scipy.stats, runs before every
timed step and once after the last; each step's wall time is multiplied
by CALIB_REFERENCE_S over the mean probe time on either side of it,
which gives seconds on a host where the probe takes exactly that long.
Shared hosts change speed by a quarter within minutes, and the scaling
takes most of that drift out. The table also shows the wall times as
measured.

With `--trace 0` the last line of stdout is one JSON object with the
end-to-end metrics; with `--trace 1` the commands run in-process under
the tracer and the object holds the per-layer metrics. The lines before
it are a human-readable table. `--record` (re)writes the golden.json
entry of the given workload and seed instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORK = CHECKOUT / ".bench_build" / "seldeval"
WORKLOADS = ("dcase2019", "polyphonic", "challenge")
CLI = "import sys; from seldeval.cli import main; sys.exit(main())"
# What every CLI call pays before any work: interpreter start, importing
# the CLI module, and loading the vocabulary.
SETUP_PROBE = ("import sys; from seldeval.cli import main; "
               "from seldeval.annotations import Vocabulary; Vocabulary.from_file(sys.argv[1])")
# The host-speed probe: a fresh interpreter that imports the package's
# external dependencies and runs no code of this repository. On a shared
# 2-core VM, wall times of the same command drifted by up to 25% between
# runs a few minutes apart and varied by 9% (coefficient of variation)
# within a run; divided by the mean time of the probes run just before and
# after them, they varied by 5-6% within a run, and the medians of runs
# on ten seeds spread 4-9% (quartile distance over median). A pure-Python
# loop timed the same way tracked the host less well.
CALIB_PROBE = "import numpy, scipy.stats"
# Gated times are scaled to a host on which CALIB_PROBE takes this long.
CALIB_REFERENCE_S = 1.0
COMMAND_TIMEOUT_S = 120


@dataclass
class Child:
    wall_s: float
    code: int
    stdout: bytes
    stderr: bytes
    rss_mb: float


def run_child(code: str, args, cwd: Path) -> Child:
    """Run `python -c code args...` against the checkout's sources.

    The child is reaped with wait4, which gives its own peak RSS; a timer
    kills it if it outlives COMMAND_TIMEOUT_S.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(WORK / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Child(wall, proc.returncode, out, stderr, usage.ru_maxrss / 1024.0)


def calib() -> float:
    """Wall time of CALIB_PROBE in a fresh process: the host's current speed."""
    child = run_child(CALIB_PROBE, [], CHECKOUT)
    if child.code != 0:
        raise SystemExit(f"calibration probe failed:\n{child.stderr.decode(errors='replace')[-800:]}")
    return child.wall_s


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "seldeval").rglob("*.py")))


class Checker:
    """Correctness gate: report hash, report structure and the oracle bounds."""

    def __init__(self, corpus, golden: dict, check_report):
        self.corpus = corpus
        self.golden = golden
        self.check_report = check_report
        self.seen = {}

    def __call__(self, command, stdout: bytes) -> list:
        digest = hashlib.sha256(stdout).hexdigest()
        expected = self.golden.get(command.name) or self.seen.setdefault(command.name, digest)
        problems = [] if digest == expected else [f"report sha256 {digest[:12]} != recorded {expected[:12]}"]
        try:
            report = json.loads(stdout)
        except ValueError:
            return problems + ["stdout is not JSON"]
        return problems + self.check_report(self.corpus, command, report)


def run_checked(command, corpus, checker, res: dict) -> Child:
    """Run one CLI command, check its report and count it in `res`."""
    child = run_child(CLI, command.argv, corpus.root)
    res["attempted"] += 1
    problems = checker(command, child.stdout) if child.code == 0 else [f"exit code {child.code}"]
    if problems:
        res["failed"] += 1
        print(f"FAILED {command.name}: {'; '.join(problems)}\n"
              f"{child.stderr.decode(errors='replace')[-800:]}", file=sys.stderr)
    return child


def measure(corpus, checker, seconds: float, tally: dict) -> dict:
    """Closed loop over the workload's commands until `seconds` have passed.

    The steps, the set-up probe ("setup") and then each command, repeat in
    that order. The calibration probe runs before each step and once more
    at the end, so every step lies between two calibrations. After one
    full lap, a step starts only if it and the calibrations should end in
    time, judged by its previous run. Commands are counted on top of
    `tally`.
    """
    vocab = str(corpus.root / "ref" / "vocabulary.txt")
    res = {"steps": [], "calib": [], "rss": {}, **tally}
    run_child(SETUP_PROBE, [vocab], corpus.root)  # fills the import caches, untimed
    order = [None, *corpus.commands]  # None is the set-up probe
    last_s = {}
    started = time.perf_counter()
    for k in itertools.count():
        step = order[k % len(order)]
        name = "setup" if step is None else step.name
        if k >= len(order) and (time.perf_counter() - started + 2 * res["calib"][-1]
                                + last_s[name] > seconds):
            break
        res["calib"].append(calib())
        if step is None:
            child = run_child(SETUP_PROBE, [vocab], corpus.root)
            if child.code != 0:
                raise SystemExit(f"set-up probe failed:\n{child.stderr.decode(errors='replace')[-800:]}")
        else:
            child = run_checked(step, corpus, checker, res)
            res["rss"].setdefault(name, []).append(child.rss_mb)
        res["steps"].append((name, child.wall_s))
        last_s[name] = child.wall_s
    res["calib"].append(calib())
    return res


def _row(name, scaled, walls, unit):
    def quartiles(values):
        if len(values) < 2:
            return [values[0]] * 3
        return statistics.quantiles(values, n=4, method="inclusive")

    (q1, med, q3), (_, wall, _) = quartiles(scaled), quartiles(walls)
    return (f"{name:<22} {med:>12.6g} {unit:<5} q1 {q1:<10.6g} q3 {q3:<10.6g} "
            f"wall {wall:<10.6g} n {len(walls)}")


def end_to_end(corpus, res) -> dict:
    """The gated metrics; the table also shows the wall times behind them.

    Each step is scaled to the reference host speed by CALIB_REFERENCE_S
    over the mean of the two calibrations around it, which ran within
    seconds of it, and a time is the median of its scaled steps.
    `sequence_s`, one pass over the workload's commands, is the sum of
    each command's median: a median over the pooled times of commands
    that differ in length would sit in the gap between them and jump with
    single slow runs.
    """
    walls, scaled = {}, {}
    for k, (name, wall) in enumerate(res["steps"]):
        around = (res["calib"][k] + res["calib"][k + 1]) / 2
        walls.setdefault(name, []).append(wall)
        scaled.setdefault(name, []).append(wall * CALIB_REFERENCE_S / around)
    commands = [command.name for command in corpus.commands]
    sequence_s = sum(statistics.median(scaled[name]) for name in commands)
    frames = sum(command.systems for command in corpus.commands) * corpus.frames
    metrics = {
        "setup_s": (statistics.median(scaled["setup"]), "s"),
        "sequence_s": (sequence_s, "s"),
        "frames_per_s": (frames / sequence_s, "1/s"),
        "peak_rss_mb": (max(statistics.median(v) for v in res["rss"].values()), "MB"),
    }
    print(f"workload {corpus.workload}: {corpus.files} files x {corpus.frames // corpus.files} frames, "
          f"{len(walls['setup'])} laps, corpus sha256 {corpus.fingerprint[:16]}")
    print(f"{'host.calib_s':<22} {statistics.median(res['calib']):>12.6g} s     "
          f"median wall time of the calibration probe, n {len(res['calib'])}")
    print(_row("setup_s", scaled["setup"], walls["setup"], "s"))
    print(f"{'sequence_s':<22} {sequence_s:>12.6g} s     sum of the command medians:")
    for name in commands:
        print(_row(f"  {name}_s", scaled[name], walls[name], "s"))
    print(f"{'frames_per_s':<22} {metrics['frames_per_s'][0]:>12.6g} 1/s")
    print(f"{'peak_rss_mb':<22} {metrics['peak_rss_mb'][0]:>12.6g} MB    "
          f"median of the largest command's peaks")
    print(f"{'failed_frac':<22} {res['failed'] / res['attempted']:>12.6g} frac  "
          f"({res['failed']} of {res['attempted']} commands)")
    return metrics


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}


def record(workload, seed, size, corpus, check_report) -> int:
    """Run each command once and store the corpus and report hashes."""
    entry = {"corpus": corpus.fingerprint}
    for command in corpus.commands + corpus.checks:
        child = run_child(CLI, command.argv, corpus.root)
        problems = [f"exit code {child.code}"] if child.code else check_report(
            corpus, command, json.loads(child.stdout))
        if problems:
            print(f"cannot record {command.name}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        entry[command.name] = hashlib.sha256(child.stdout).hexdigest()
    golden = load_golden()
    golden[f"{workload}:{size}:{seed}"] = entry
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {workload}:{size}:{seed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="corpus size; tiny is for the smoke test")
    parser.add_argument("--record", action="store_true",
                        help="record the golden hashes of this workload and seed, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "seldeval" / "__init__.py").is_file():
        print(f"no seldeval sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import seldeval
    import workloads

    if SRC.resolve() not in Path(seldeval.__file__).resolve().parents:
        print(f"imported seldeval from {seldeval.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    root = WORK / "corpus"
    shutil.rmtree(root, ignore_errors=True)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        corpus = workloads.build(args.workload, args.seed, args.size, root)
        corpus_s = time.perf_counter() - start
        if args.record:
            return record(args.workload, args.seed, args.size, corpus, workloads.check_report)
        golden = load_golden().get(f"{args.workload}:{args.size}:{args.seed}", {})
        if golden and golden["corpus"] != corpus.fingerprint:
            print(f"corpus fingerprint {corpus.fingerprint} differs from the recorded "
                  f"{golden['corpus']}: the inputs changed, so results are not comparable",
                  file=sys.stderr)
            return 1
        if not golden:
            print(f"no recorded hashes for seed {args.seed}; checking run-to-run identity only")
        checker = Checker(corpus, golden, workloads.check_report)
        tally = {"attempted": 0, "failed": 0}
        for command in corpus.checks:
            run_checked(command, corpus, checker, tally)

        if args.trace:
            import tracer

            spans = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
            layer = tracer.run(corpus, args.seconds, checker, calib, spans, tally)
            layer["src.lines"] = src_lines()
            layer["bench.corpus_s"] = corpus_s
            for name, value in layer.items():
                print(f"{name:<34} {value:>14.6g}")
            print(f"spans written to {spans}")
            metrics = {name: {"value": value, "unit": tracer.unit(name)} for name, value in layer.items()}
        else:
            tally = measure(corpus, checker, args.seconds, tally)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in end_to_end(corpus, tally).items()}
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
