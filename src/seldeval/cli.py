"""Command-line entry point.

Subcommands: ``evaluate`` (score one system), ``jackknife`` (evaluate
with confidence intervals), ``rank`` (cumulative ranking of several
systems), ``correlate`` (Spearman matrix between metric rankings), and
``synth`` (`synth.synthesize`, then the injection log of what it did).

Every setting is a field of `EvaluationConfig` (frame_hop,
segment_length, thetas, theta_class, loc_mode, le_mode, confidence,
duration, jobs) or, for ``synth``, of `PerturbationSpec` (doa_jitter_deg,
deletion_prob, insertion_rate, substitution_prob, swap_locations, seed).
Its flag stores under the field's name, and a JSON config file
(``--config``) sets it under the same key; flags override the file, and
the file overrides the field's default. A config file key that names no
field or comes twice in one object, or a value of a JSON type its field
does not take (see `_SETTINGS`), is refused. JSON output is stable: keys
are sorted and numbers carry 6 significant digits, so reports diff cleanly
in CI. A table (``--format table``, the default) is a view of the JSON
report, rendered from that report alone. Exit code is 0 iff the command
completed without errors;
otherwise, usage errors included, a machine-readable error summary goes
to stderr. Importing this module suspends automatic garbage collection
while its imports load, then freezes every object tracked at that point
(`gc.freeze`), which is never collected; objects created afterwards are
collected as usual.

Importing this module loads numpy and, of the package, `annotations`,
`assignment`, `errors`, `evaluation`, `geometry` and `stats`; it loads no
scipy, `dataclasses` or `multiprocessing`. The rest loads in the command
that needs it: the `synth` module in ``synth``, the process pool with
``--jobs`` above 1, and scipy in a jackknife at a level other than 0.95 or
of more than 201 files.

Importing this module also sets ``OPENBLAS_NUM_THREADS=1`` in the
environment, unless it is already set: a value the user sets wins. The
OpenBLAS that numpy's wheels bundle reads it once, when numpy loads, and
otherwise starts a worker thread for each further core. Each worker
busy-waits once started; on a 2-core host it took the CPU from the main
thread and added up to 70 ms to ``import numpy``. No command makes a
BLAS call, so the reports do not change. The variable stays set, so
``--jobs`` workers, which import numpy again, inherit it. Only the CLI
sets it: ``import seldeval`` and the library modules leave the
environment as they find it.
"""

from __future__ import annotations

import gc
import os

# One short command runs per process, and the objects these imports build
# (numpy's included) live until it exits: load them without automatic
# collection, then freeze them, so that no later collection walks them, the
# one at exit included.
_collecting = gc.isenabled()
gc.disable()
try:
    # before numpy loads: no command calls BLAS, so start none of its threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    import argparse
    import functools
    import inspect
    import json
    import sys
    from collections import Counter
    from pathlib import Path

    from .annotations import Vocabulary
    from .errors import ConfigError, SeldEvalError
    from .evaluation import (LE_MODES, LOC_MODES, EvaluationConfig, correlate_systems,
                             evaluate_directory, rank_systems)
finally:
    gc.freeze()
    if _collecting:
        gc.enable()

REPORT_SCHEMA = "seldeval-report/1"
RANK_SCHEMA = "seldeval-rank/1"
CORRELATION_SCHEMA = "seldeval-correlation/1"
INJECTION_SCHEMA = "seldeval-injections/1"

_VOCAB_NAME = "vocabulary.txt"


def _round6(x):
    return None if x is None else float(f"{x:.6g}")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# A metric key's base name (before any ":θ") as tables show it.
_DISPLAY_NAMES = {
    "er": "ER", "f1": "F1", "le": "LE", "lr": "LR", "ecr": "ECR",
    "le_cd": "LE_CD", "lr_cd": "LR_CD",
    "le_cd_f": "LE_CD(f)", "lr_cd_f": "LR_CD(f)",
    "le_theta": "LE", "lr_theta": "LR", "ecr_theta": "ECR",
    "er_theta": "ER", "f_theta": "F",
    "official_rank": "official rank",
}


def _display_name(key: str) -> str:
    base, _, theta = key.partition(":")
    label = _DISPLAY_NAMES.get(base, base)
    return f"{label}_{theta}" if theta else label


def _cell(v) -> str:
    return "undefined" if v is None else f"{v:g}"


# ---------------------------------------------------------------------------
# settings


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# Every key a config file may hold, a field of EvaluationConfig or of
# PerturbationSpec: the JSON type its value must have, and the type that the
# file's or the flag's value is converted to, the same from either source.
_SETTINGS = {
    **dict.fromkeys(("frame_hop", "segment_length", "confidence", "doa_jitter_deg",
                     "deletion_prob", "insertion_rate", "substitution_prob"),
                    ("a number", _is_number, float)),
    "thetas": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)),
               lambda v: tuple(float(t) for t in v)),
    "theta_class": ("an object of numbers",
                    lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
                    lambda v: tuple(sorted((str(k), float(t))
                                           for k, t in (v.items() if isinstance(v, dict) else v)))),
    **dict.fromkeys(("loc_mode", "le_mode"), ("a string", lambda v: isinstance(v, str), str)),
    "duration": ("a number or null", lambda v: v is None or _is_number(v),
                 lambda v: None if v is None else float(v)),
    **dict.fromkeys(("jobs", "seed"),
                    ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int)),
    "swap_locations": ("a boolean", lambda v: isinstance(v, bool), bool),
}


@functools.cache  # the parser reads EvaluationConfig's about ten times
def _fields(cls) -> dict:
    """Each field of the settings class `cls`, EvaluationConfig or
    PerturbationSpec, and its default: its constructor's parameters. An
    instance's values are `vars(instance)`."""
    return {name: p.default for name, p in inspect.signature(cls).parameters.items()}


def _settings(cls, args, file_cfg: dict, what: str):
    """A `cls` whose every field comes from its flag, else from the config
    file's key of the same name, else from the field's default."""
    values = {}
    for name, default in _fields(cls).items():
        flag = getattr(args, name, None)
        values[name] = file_cfg.get(name, default) if flag is None else flag
    try:
        return cls(**{name: _SETTINGS[name][2](v) for name, v in values.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from None


def _theta_class(item: str) -> tuple:
    """One --theta-class CLASS=DEG override, as a (label, degrees) pair."""
    label, sep, deg = item.partition("=")
    if not sep or not label:
        raise ConfigError(f"--theta-class expects CLASS=DEG, got {item!r}")
    try:
        return label, float(deg)
    except ValueError:
        raise ConfigError(f"bad per-class threshold {item!r}") from None


def _load_config_file(path) -> dict:
    """The --config file's settings, or {} when none was given."""
    if not path:
        return {}

    def unique(pairs):  # each object of the file: a key given twice is refused
        for key, count in Counter(key for key, _ in pairs).items():
            if count > 1:
                raise ConfigError(f"config file {path}: key {key!r} given more than once")
        return dict(pairs)

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"), object_pairs_hook=unique)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key, value in data.items():
        if key not in _SETTINGS:
            raise ConfigError(f"config file {path}: unknown key {key!r}")
        kind, fits, _ = _SETTINGS[key]
        if not fits(value):
            raise ConfigError(f"config file {path}: {key} must be {kind}, got {json.dumps(value)}")
    return data


def _load_vocabulary(args) -> Vocabulary:
    vocab_path = args.vocab or Path(args.ref) / _VOCAB_NAME
    if not Path(vocab_path).is_file():
        raise ConfigError(
            f"vocabulary file not found: {vocab_path} (pass --vocab or place "
            f"{_VOCAB_NAME} beside the references)"
        )
    try:
        return Vocabulary.from_file(vocab_path)
    except ValueError as exc:
        raise ConfigError(f"bad vocabulary file {vocab_path}: {exc}") from None


def _parse_systems(items) -> list:
    systems = []
    for item in items:
        name, sep, directory = item.partition("=")
        if not sep or not name or not directory:
            raise ConfigError(f"--pred expects NAME=DIR for multi-system commands, got {item!r}")
        systems.append((name, directory))
    if len({n for n, _ in systems}) != len(systems):
        raise ConfigError("duplicate system names in --pred")
    return systems


# ---------------------------------------------------------------------------
# subcommands: each scoring command returns its JSON report, and the table of
# that report's schema renders it from the report alone


def _evaluate(args, config, vocabulary) -> dict:
    result = evaluate_directory(args.ref, args.pred, vocabulary, config)
    total = result.total
    echo = {**vars(config), "theta_class": dict(config.theta_class)}
    del echo["jobs"]  # the report is the same for any number of workers
    obj = {"schema": REPORT_SCHEMA, "config": echo, "files": len(result.files),
           "frames": total.frames, "segments": total.segments,
           "metrics": {k: _round6(v) for k, v in result.metrics.items()},
           "warnings": list(total.warnings)}
    if args.command == "jackknife":
        obj["ci"] = {key: {"error": est} if isinstance(est, str) else
                     {"point": _round6(result.metrics[key]), "low": _round6(est[0]),
                      "high": _round6(est[1]), "confidence": config.confidence}
                     for key, est in result.jackknife().items()}
    if args.per_class:
        obj["per_class"] = {label: {k: _round6(v) for k, v in vals.items()}
                            for label, vals in result.per_class.items()}
    return obj


def _report_table(obj) -> list:
    ci = obj.get("ci", {})
    header = f"{'metric':<12} {'value':>12}"
    if ci:
        header += f"  {obj['config']['confidence'] * 100:g}% CI"
    lines = [f"files {obj['files']} | frames {obj['frames']} | segments {obj['segments']}",
             header, "-" * len(header)]
    # every metric in the order the report was built, less LE's micro and macro
    # forms (LE is one of them) and the frame-level class means
    for key, value in obj["metrics"].items():
        if key in ("le_micro", "le_macro", "le_cd_f", "lr_cd_f"):
            continue
        row = f"{_display_name(key):<12} {_cell(value):>12}"
        est = ci.get(key)
        if est is not None:
            row += f"  ({est['error']})" if "error" in est else f"  [{est['low']:g}, {est['high']:g}]"
        lines.append(row)
    if obj.get("per_class"):
        lines += ["", f"{'class':<20} {'LE_c':>12} {'LR_c':>12}"]
        lines += [f"{label:<20} {_cell(vals['le_c']):>12} {_cell(vals['lr_c']):>12}"
                  for label, vals in sorted(obj["per_class"].items())]
    return lines + [f"warning: {w}" for w in obj["warnings"]]


def _rank(args, config, vocabulary) -> dict:
    systems = _parse_systems(args.pred)
    values, ranks, rank_sums, final_ranks = rank_systems(args.ref, systems, vocabulary, config,
                                                         args.metric_set)
    return {"schema": RANK_SCHEMA, "metric_set": args.metric_set, "metrics": list(values),
            "systems": [{"id": system_id,
                         "values": {k: _round6(v[i]) for k, v in values.items()},
                         "ranks": {k: r[i] for k, r in ranks.items()},
                         "rank_sum": rank_sums[i],
                         "final_rank": final_ranks[i]}
                        for i, (system_id, _) in enumerate(systems)]}


def _rank_table(obj) -> list:
    keys = obj["metrics"]
    cells = [["system", *map(_display_name, keys), "sum", "rank"]]
    cells += [[s["id"], *(f"{_cell(s['values'][k])} ({s['ranks'][k]:g})" for k in keys),
               f"{s['rank_sum']:g}", f"{s['final_rank']:g}"]
              for s in sorted(obj["systems"], key=lambda s: (s["final_rank"], s["id"]))]
    widths = [max(map(len, column)) for column in zip(*cells)]  # each column's widest entry
    lines = [f"{row[0]:<{widths[0]}}" + "".join(f" {c:>{w}}" for c, w in zip(row[1:], widths[1:]))
             for row in cells]
    return lines[:1] + ["-" * len(lines[0])] + lines[1:]


def _correlate(args, config, vocabulary) -> dict:
    systems = _parse_systems(args.pred)
    metrics, matrix, warnings = correlate_systems(args.ref, systems, vocabulary, config)
    return {"schema": CORRELATION_SCHEMA, "systems": [system_id for system_id, _ in systems],
            "metrics": metrics, "spearman": [[_round6(v) for v in row] for row in matrix],
            "warnings": warnings}


def _correlation_table(obj) -> list:
    names = [_display_name(k) for k in obj["metrics"]]
    width = max(map(len, names), default=0) + 1
    lines = [" " * width + "".join(f"{n:>{width}}" for n in names)] if names else []
    for name, row in zip(names, obj["spearman"]):
        lines.append(f"{name:<{width}}" + "".join(
            f"{'n/a':>{width}}" if v is None else f"{v:>{width}g}" for v in row))
    return lines + [f"warning: {w}" for w in obj["warnings"]]


def _synth(args, config, vocabulary, file_cfg: dict) -> None:
    from .synth import PerturbationSpec, synthesize  # only synth needs it

    spec = _settings(PerturbationSpec, args, file_cfg, "perturbation parameter")
    files = synthesize(args.ref, args.out, spec, vocabulary, config.frame_hop, config.duration)
    settings = dict(vars(spec))
    log = {"schema": INJECTION_SCHEMA, "seed": settings.pop("seed"), "spec": settings,
           "files": files}
    out_dir = Path(args.out)
    (out_dir / "injection_log.json").write_text(_dump_json(log), encoding="utf-8")
    sys.stdout.write(f"wrote {len(files)} prediction file(s) and injection_log.json to {out_dir}\n")


# ---------------------------------------------------------------------------
# argument parsing


class _StoreOnce(argparse.Action):
    """A single-valued option, refused when given twice instead of keeping the last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())  # the options stored in this parse
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it ends in the JSON envelope.
    An option stores once (`_StoreOnce`) unless it appends, as --theta,
    --theta-class and the multi-system --pred do."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_inputs(p, config_keys: str, duration_help: str) -> None:
    """The flags every subcommand has."""
    p.add_argument("--ref", required=True, help="directory of reference CSV files")
    p.add_argument("--vocab", help=f"vocabulary file (default: {_VOCAB_NAME} beside --ref)")
    p.add_argument("--config", help=f"JSON config file keyed by field name ({config_keys}); "
                                    "flags override its values")
    p.add_argument("--hop", dest="frame_hop", type=float,
                   help=f"frame hop in seconds (default {_fields(EvaluationConfig)['frame_hop']})")
    p.add_argument("--duration", type=float, help=duration_help)


def _add_scoring(p, multi_system: bool = False) -> None:
    """The flags of the commands that score predictions."""
    d = _fields(EvaluationConfig)
    _add_inputs(p, "EvaluationConfig: " + ", ".join(d),
                "fixed file duration in seconds (default: derived per file)")
    if multi_system:
        p.add_argument("--pred", required=True, action="append", metavar="NAME=DIR",
                       help="system id and its prediction directory (repeatable)")
    else:
        p.add_argument("--pred", required=True, help="directory of prediction CSV files")
    p.add_argument("--segment", dest="segment_length", type=float,
                   help=f"segment length in seconds (default {d['segment_length']})")
    p.add_argument("--theta", dest="thetas", type=float, action="append",
                   help="angular threshold in degrees (repeatable; default "
                        + " and ".join(f"{t:g}" for t in d['thetas']) + ")")
    p.add_argument("--theta-class", type=_theta_class, action="append", metavar="CLASS=DEG",
                   help="per-class threshold override, applied within every --theta profile")
    p.add_argument("--loc-mode", choices=LOC_MODES,
                   help=f"segment localization evidence (default {d['loc_mode']})")
    p.add_argument("--le-mode", choices=LE_MODES,
                   help=f"multi-frame LE accumulation reported as LE (default {d['le_mode']})")
    p.add_argument("--jobs", type=int,
                   help="score the file pairs in at most this many slices of whole reference "
                        "files, each in a worker process of its own when there are several; "
                        "a slice reads each reference once and holds one reference's rows at a "
                        f"time (default {d['jobs']})")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seldeval",
        description="Evaluate sound event localization and detection outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("evaluate", "score one system against references"),
                       ("jackknife", "evaluate with leave-one-out confidence intervals")):
        p = sub.add_parser(name, help=text)
        _add_scoring(p)
        p.add_argument("--per-class", action="store_true", help="include the per-class breakdown")
        if name == "jackknife":
            p.add_argument("--confidence", type=float,
                           help="confidence level for the intervals "
                                f"(default {_fields(EvaluationConfig)['confidence']})")

    p = sub.add_parser("rank", help="rank several systems by cumulative metric ranks")
    _add_scoring(p, multi_system=True)
    p.add_argument("--metric-set", choices=["official", "joint"], default="official")

    p = sub.add_parser("correlate", help="Spearman correlation between metric rankings")
    _add_scoring(p, multi_system=True)

    p = sub.add_parser("synth", help="derive perturbed prediction files from references")
    _add_inputs(p, "EvaluationConfig, of which synth uses frame_hop and duration; "
                   "PerturbationSpec: doa_jitter_deg, deletion_prob, insertion_rate, "
                   "substitution_prob, swap_locations, seed",
                "fixed file duration in seconds (bounds insertions)")
    p.add_argument("--out", required=True, help="output directory for prediction files")
    p.add_argument("--seed", type=int, help="base RNG seed (per-file: seed + index)")
    p.add_argument("--jitter", dest="doa_jitter_deg", type=float,
                   help="DoA jitter magnitude in degrees")
    p.add_argument("--delete-prob", dest="deletion_prob", type=float,
                   help="event deletion probability")
    p.add_argument("--insert-rate", dest="insertion_rate", type=float,
                   help="expected spurious events per minute; a file may expect at most "
                        "1,000,000 (synth.MAX_INSERTIONS)")
    p.add_argument("--sub-prob", dest="substitution_prob", type=float,
                   help="class substitution probability")
    p.add_argument("--swap-locations", action="store_true", default=None,
                   help="exchange DoAs of simultaneously active event pairs")
    return parser


_COMMANDS = {"evaluate": _evaluate, "jackknife": _evaluate, "rank": _rank,
             "correlate": _correlate}
_TABLES = {REPORT_SCHEMA: _report_table, RANK_SCHEMA: _rank_table,
           CORRELATION_SCHEMA: _correlation_table}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        file_cfg = _load_config_file(args.config)
        config = _settings(EvaluationConfig, args, file_cfg, "configuration value")
        vocabulary = _load_vocabulary(args)
        if args.command == "synth":
            _synth(args, config, vocabulary, file_cfg)
            return 0
        obj = _COMMANDS[args.command](args, config, vocabulary)
        text = (_dump_json(obj) if args.format == "json"
                else "\n".join(_TABLES[obj["schema"]](obj)) + "\n")
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    except SeldEvalError as exc:
        sys.stderr.write(_dump_json({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    except OSError as exc:
        sys.stderr.write(_dump_json({"error": "OSError", "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
