"""Command-line entry point.

Subcommands: ``evaluate`` (score one system), ``jackknife`` (evaluate
with confidence intervals), ``rank`` (cumulative ranking of several
systems), ``correlate`` (Spearman matrix between metric rankings), and
``synth`` (derive perturbed prediction files from references).

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
in CI. Exit code is 0 iff the command completed without errors;
otherwise, usage errors included, a machine-readable error summary goes
to stderr. Importing this module suspends automatic garbage collection
while its imports load, then freezes every object tracked at that point
(`gc.freeze`), which is never collected; objects created afterwards are
collected as usual.

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
    import dataclasses
    import json
    import math
    import sys
    from collections import Counter
    from pathlib import Path

    from .annotations import Vocabulary, expand_spans, frame_span, parse_reference
    from .errors import ConfigError, GridOverflow, SeldEvalError
    from .evaluation import (
        LE_MODES,
        LOC_MODES,
        EvaluationConfig,
        correlate_systems,
        correlation_metric_keys,
        evaluate_directory,
        rank_systems,
        reference_files,
    )
    from .stats import JackknifeEstimate
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
    if x is None:
        return None
    return float(f"{x:.6g}")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# A metric key's base name (before any ":θ") as tables show it.
_DISPLAY_NAMES = {
    "er": "ER", "f1": "F1", "le": "LE", "le_micro": "LE(micro)",
    "le_macro": "LE(macro)", "lr": "LR", "ecr": "ECR",
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


def _fmt_value(v) -> str:
    return "undefined" if v is None else f"{_round6(v):g}"


# ---------------------------------------------------------------------------
# settings


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# Every key a config file may hold, a field of EvaluationConfig or of
# PerturbationSpec: the JSON type its value must have, and the conversion, if
# any, that the file's or the flag's value takes on its way to the field.
_SETTINGS = {
    **dict.fromkeys(("frame_hop", "segment_length", "confidence"), ("a number", _is_number, None)),
    "thetas": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)),
               lambda v: tuple(float(t) for t in v)),
    "theta_class": ("an object of numbers",
                    lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
                    lambda v: tuple(sorted((str(k), float(t))
                                           for k, t in (v.items() if isinstance(v, dict) else v)))),
    **dict.fromkeys(("loc_mode", "le_mode"), ("a string", lambda v: isinstance(v, str), None)),
    "duration": ("a number or null", lambda v: v is None or _is_number(v), None),
    **dict.fromkeys(("jobs", "seed"),
                    ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), None)),
    **dict.fromkeys(("doa_jitter_deg", "deletion_prob", "insertion_rate", "substitution_prob"),
                    ("a number", _is_number, float)),
    "swap_locations": ("a boolean", lambda v: isinstance(v, bool), None),
}


def _settings(cls, args, file_cfg: dict, what: str):
    """A `cls` whose every field comes from its flag, else from the config
    file's key of the same name, else from the field's default."""
    values = {}
    for f in dataclasses.fields(cls):
        flag = getattr(args, f.name, None)
        values[f.name] = file_cfg.get(f.name, f.default) if flag is None else flag
    try:
        return cls(**{name: (_SETTINGS[name][2] or (lambda v: v))(v) for name, v in values.items()})
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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
# subcommands: each scoring command returns its JSON object and table lines


def _evaluate(args, config, vocabulary) -> tuple:
    result = evaluate_directory(args.ref, args.pred, vocabulary, config)
    total = result.total
    ci = result.jackknife() if args.command == "jackknife" else {}
    echo = {**dataclasses.asdict(config), "theta_class": dict(config.theta_class)}
    del echo["jobs"]  # the report is the same for any number of workers
    obj = {
        "schema": REPORT_SCHEMA,
        "config": echo,
        "files": total.n_files,
        "frames": total.frames,
        "segments": total.segments,
        "metrics": {k: _round6(v) for k, v in result.metrics.items()},
        "warnings": list(total.warnings),
    }
    header = f"{'metric':<12} {'value':>12}"
    if ci:
        header += f"  {int(config.confidence * 100)}% CI"
        obj["ci"] = {key: {"point": _round6(est.point), "low": _round6(est.low),
                           "high": _round6(est.high), "confidence": est.confidence}
                     if isinstance(est, JackknifeEstimate) else {"error": est}
                     for key, est in ci.items()}
    lines = [f"files {total.n_files} | frames {total.frames} | segments {total.segments}",
             header, "-" * len(header)]
    # the correlation's metric keys, less the frame-level class means
    for key in correlation_metric_keys(config):
        if key in ("le_cd_f", "lr_cd_f"):
            continue
        row = f"{_display_name(key):<12} {_fmt_value(result.metrics[key]):>12}"
        est = ci.get(key)
        if isinstance(est, JackknifeEstimate):
            row += f"  [{_round6(est.low):g}, {_round6(est.high):g}]"
        elif est is not None:
            row += f"  ({est})"
        lines.append(row)
    if args.per_class:
        obj["per_class"] = {label: {k: _round6(v) for k, v in vals.items()}
                            for label, vals in result.per_class.items()}
        if result.per_class:
            lines += ["", f"{'class':<20} {'LE_c':>12} {'LR_c':>12}"]
            lines += [f"{label:<20} {_fmt_value(vals['le_c']):>12} {_fmt_value(vals['lr_c']):>12}"
                      for label, vals in sorted(result.per_class.items())]
    return obj, lines + [f"warning: {w}" for w in total.warnings]


def _rank(args, config, vocabulary) -> tuple:
    table = rank_systems(args.ref, _parse_systems(args.pred), vocabulary, config, args.metric_set)
    keys = list(table.values)
    obj = {
        "schema": RANK_SCHEMA,
        "metric_set": args.metric_set,
        "metrics": keys,
        "systems": [{"id": system_id,
                     "values": {k: _round6(table.values[k][i]) for k in keys},
                     "ranks": {k: table.ranks[k][i] for k in table.ranks},
                     "rank_sum": table.rank_sums[i],
                     "final_rank": table.final_ranks[i]}
                    for i, system_id in enumerate(table.systems)],
    }
    header = (f"{'system':<18}" + "".join(f" {_display_name(k):>14}" for k in keys)
              + f" {'sum':>6} {'rank':>6}")
    lines = [header, "-" * len(header)]
    for i in sorted(range(len(table.systems)),
                    key=lambda i: (table.final_ranks[i], table.systems[i])):
        lines.append(f"{table.systems[i]:<18}"
                     + "".join(f" {_fmt_value(table.values[k][i]):>8} ({table.ranks[k][i]:g})"
                               for k in keys)
                     + f" {table.rank_sums[i]:>6g} {table.final_ranks[i]:>6g}")
    return obj, lines


def _correlate(args, config, vocabulary) -> tuple:
    result = correlate_systems(args.ref, _parse_systems(args.pred), vocabulary, config)
    obj = {
        "schema": CORRELATION_SCHEMA,
        "systems": result.systems,
        "metrics": result.metrics,
        "spearman": [[_round6(v) for v in row] for row in result.matrix],
        "warnings": result.warnings,
    }
    names = [_display_name(k) for k in result.metrics]
    width = max(map(len, names), default=0) + 1
    lines = [" " * width + "".join(f"{n:>{width}}" for n in names)] if names else []
    for name, row in zip(names, result.matrix):
        lines.append(f"{name:<{width}}" + "".join(
            f"{'n/a':>{width}}" if v is None else f"{_round6(v):>{width}g}" for v in row))
    return obj, lines + [f"warning: {w}" for w in result.warnings]


def _synth(args, config, vocabulary, file_cfg: dict) -> None:
    from .synth import PerturbationSpec, perturb, serialize_prediction  # only synth needs it

    spec = _settings(PerturbationSpec, args, file_cfg, "perturbation parameter")
    refs = reference_files(args.ref)
    if not refs:
        raise ConfigError(f"no reference files found in {Path(args.ref)}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    total_frames = None
    if config.duration is not None:
        total_frames = math.ceil(config.duration / config.frame_hop - 1e-9)
    settings = dataclasses.asdict(spec)
    log = {"schema": INJECTION_SCHEMA, "seed": settings.pop("seed"), "spec": settings, "files": {}}
    for index, ref_path in enumerate(refs):
        events = parse_reference(ref_path, vocabulary)
        if spec.insertion_rate > 0 and config.duration is None:
            # Insertions are drawn over the references' length: refuse a file
            # that serialize_prediction could not write before counting them.
            expand_spans([frame_span(ev.onset, ev.offset, config.frame_hop) for ev in events],
                         (), config.frame_hop, ref_path.name)
        file_spec = dataclasses.replace(spec, seed=spec.seed + index)
        try:
            perturbed, entries = perturb(events, file_spec, vocabulary, config.duration)
            serialize_prediction(
                perturbed, config.frame_hop, vocabulary, out_dir / ref_path.name, total_frames
            )
        except GridOverflow as exc:
            raise ConfigError(f"{ref_path}: {exc} (--duration {config.duration} s)") from None
        except ConfigError as exc:  # too many insertions expected
            raise ConfigError(f"{ref_path}: {exc}") from None
        log["files"][ref_path.name] = {"seed": file_spec.seed, "injections": entries}
    (out_dir / "injection_log.json").write_text(_dump_json(log), encoding="utf-8")
    sys.stdout.write(
        f"wrote {len(refs)} prediction file(s) and injection_log.json to {out_dir}\n"
    )


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it ends in the JSON envelope."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_inputs(p, config_keys: str, duration_help: str) -> None:
    """The flags every subcommand has."""
    p.add_argument("--ref", required=True, help="directory of reference CSV files")
    p.add_argument("--vocab", help=f"vocabulary file (default: {_VOCAB_NAME} beside --ref)")
    p.add_argument("--config", help=f"JSON config file keyed by field name ({config_keys}); "
                                    "flags override its values")
    p.add_argument("--hop", dest="frame_hop", type=float,
                   help=f"frame hop in seconds (default {EvaluationConfig.frame_hop})")
    p.add_argument("--duration", type=float, help=duration_help)


def _add_scoring(p, multi_system: bool = False) -> None:
    """The flags of the commands that score predictions."""
    d = EvaluationConfig
    _add_inputs(p, "EvaluationConfig: " + ", ".join(f.name for f in dataclasses.fields(d)),
                "fixed file duration in seconds (default: derived per file)")
    if multi_system:
        p.add_argument("--pred", required=True, action="append", metavar="NAME=DIR",
                       help="system id and its prediction directory (repeatable)")
    else:
        p.add_argument("--pred", required=True, help="directory of prediction CSV files")
    p.add_argument("--segment", dest="segment_length", type=float,
                   help=f"segment length in seconds (default {d.segment_length})")
    p.add_argument("--theta", dest="thetas", type=float, action="append",
                   help="angular threshold in degrees (repeatable; default "
                        + " and ".join(f"{t:g}" for t in d.thetas) + ")")
    p.add_argument("--theta-class", type=_theta_class, action="append", metavar="CLASS=DEG",
                   help="per-class threshold override, applied within every --theta profile")
    p.add_argument("--loc-mode", choices=LOC_MODES,
                   help=f"segment localization evidence (default {d.loc_mode})")
    p.add_argument("--le-mode", choices=LE_MODES,
                   help=f"multi-frame LE accumulation reported as LE (default {d.le_mode})")
    p.add_argument("--jobs", type=int,
                   help="score the files in at most this many contiguous groups, each group in "
                        f"a worker process of its own when there are several (default {d.jobs})")
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
                                f"(default {EvaluationConfig.confidence})")

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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        file_cfg = _load_config_file(args.config)
        config = _settings(EvaluationConfig, args, file_cfg, "configuration value")
        vocabulary = _load_vocabulary(args)
        if args.command == "synth":
            _synth(args, config, vocabulary, file_cfg)
            return 0
        obj, lines = _COMMANDS[args.command](args, config, vocabulary)
        text = _dump_json(obj) if args.format == "json" else "\n".join(lines) + "\n"
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
