"""Command-line entry point.

Subcommands: ``evaluate`` (score one system), ``jackknife`` (evaluate
with confidence intervals), ``rank`` (cumulative ranking of several
systems), ``correlate`` (Spearman matrix between metric rankings), and
``synth`` (derive perturbed prediction files from references).

All configuration is accepted both as flags and as a JSON config file
(``--config``); flags override the file. JSON output is stable: keys are
sorted and numbers carry 6 significant digits, so reports diff cleanly
in CI. Exit code is 0 iff the command completed without errors;
otherwise a machine-readable error summary goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .annotations import Vocabulary, parse_reference
from .errors import ConfigError, GridOverflow, SeldEvalError
from .evaluation import (
    EvaluationConfig,
    correlate_systems,
    evaluate_directory,
    rank_systems,
)
from .stats import JackknifeEstimate

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


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _display_name(key: str) -> str:
    base, _, theta = key.partition(":")
    names = {
        "er": "ER", "f1": "F1", "le": "LE", "le_micro": "LE(micro)",
        "le_macro": "LE(macro)", "lr": "LR", "ecr": "ECR",
        "le_cd": "LE_CD", "lr_cd": "LR_CD",
        "le_cd_f": "LE_CD(f)", "lr_cd_f": "LR_CD(f)",
        "le_theta": "LE", "lr_theta": "LR", "ecr_theta": "ECR",
        "er_theta": "ER", "f_theta": "F",
        "official_rank": "official rank",
    }
    label = names.get(base, base)
    return f"{label}_{theta}" if theta else label


def _fmt_value(v) -> str:
    return "undefined" if v is None else f"{_round6(v):g}"


# ---------------------------------------------------------------------------
# configuration assembly


def _parse_theta_class(items) -> dict:
    out = {}
    for item in items or ():
        label, sep, deg = item.partition("=")
        if not sep or not label:
            raise ConfigError(f"--theta-class expects CLASS=DEG, got {item!r}")
        try:
            out[label] = float(deg)
        except ValueError:
            raise ConfigError(f"bad per-class threshold {item!r}") from None
    return out


def _load_config_file(args) -> dict:
    """The --config file's settings, or {} when none was given."""
    path = args.config
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _build_config(args, file_cfg: dict) -> EvaluationConfig:
    def pick(flag, key, default):
        return flag if flag is not None else file_cfg.get(key, default)

    thetas = args.theta if args.theta else file_cfg.get("thetas", [10.0, 30.0])
    overrides = _parse_theta_class(getattr(args, "theta_class", None))
    try:
        if not overrides:
            overrides = dict(file_cfg.get("theta_class", {}))
        return EvaluationConfig(
            frame_hop=pick(args.hop, "frame_hop", 0.02),
            segment_length=pick(args.segment, "segment_length", 1.0),
            thetas=tuple(float(t) for t in thetas),
            theta_class=tuple(sorted((str(k), float(v)) for k, v in overrides.items())),
            loc_mode=pick(args.loc_mode, "loc_mode", "frame-average"),
            le_mode=pick(args.le_mode, "le_mode", "micro"),
            confidence=pick(getattr(args, "confidence", None), "confidence", 0.95),
            duration=pick(args.duration, "duration", None),
            jobs=int(pick(getattr(args, "jobs", None), "jobs", 1)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration value: {exc}") from None


def _config_json(config: EvaluationConfig) -> dict:
    return {
        "frame_hop": config.frame_hop,
        "segment_length": config.segment_length,
        "thetas": list(config.thetas),
        "theta_class": {k: v for k, v in config.theta_class},
        "loc_mode": config.loc_mode,
        "le_mode": config.le_mode,
        "confidence": config.confidence,
        "duration": config.duration,
    }


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
# rendering


def _report_json(report, config, with_per_class: bool) -> dict:
    obj = {
        "schema": REPORT_SCHEMA,
        "config": _config_json(config),
        "files": report.files,
        "frames": report.frames,
        "segments": report.segments,
        "metrics": {k: _round6(v) for k, v in report.metrics.items()},
        "warnings": list(report.warnings),
    }
    if with_per_class:
        obj["per_class"] = {
            label: {k: _round6(v) for k, v in vals.items()}
            for label, vals in report.per_class.items()
        }
    if report.ci:
        ci = {}
        for key, est in report.ci.items():
            if isinstance(est, JackknifeEstimate):
                ci[key] = {
                    "point": _round6(est.point),
                    "low": _round6(est.low),
                    "high": _round6(est.high),
                    "confidence": est.confidence,
                }
            else:
                ci[key] = {"error": est}
        obj["ci"] = ci
    return obj


_TABLE_ORDER = ("er", "f1", "le", "lr", "ecr")


def _table_keys(report, config) -> list:
    keys = [k for k in _TABLE_ORDER if k in report.metrics]
    for profile in config.profiles:
        keys += [f"le_theta:{profile.key}", f"lr_theta:{profile.key}",
                 f"ecr_theta:{profile.key}"]
    keys += ["le_cd", "lr_cd"]
    for profile in config.profiles:
        keys += [f"er_theta:{profile.key}", f"f_theta:{profile.key}"]
    return keys


def _report_table(report, config, with_per_class: bool) -> str:
    lines = [f"files {report.files} | frames {report.frames} | segments {report.segments}"]
    has_ci = bool(report.ci)
    header = f"{'metric':<12} {'value':>12}"
    if has_ci:
        header += f"  {int(config.confidence * 100)}% CI"
    lines.append(header)
    lines.append("-" * len(header))
    for key in _table_keys(report, config):
        row = f"{_display_name(key):<12} {_fmt_value(report.metrics[key]):>12}"
        if has_ci:
            est = report.ci.get(key)
            if isinstance(est, JackknifeEstimate):
                row += f"  [{_round6(est.low):g}, {_round6(est.high):g}]"
            elif est is not None:
                row += f"  ({est})"
        lines.append(row)
    if with_per_class and report.per_class:
        lines.append("")
        lines.append(f"{'class':<20} {'LE_c':>12} {'LR_c':>12}")
        for label in sorted(report.per_class):
            vals = report.per_class[label]
            lines.append(
                f"{label:<20} {_fmt_value(vals['le_c']):>12} {_fmt_value(vals['lr_c']):>12}"
            )
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _rank_json(table, metric_set: str) -> dict:
    systems = []
    for i, system_id in enumerate(table.systems):
        systems.append({
            "id": system_id,
            "values": {k: _round6(table.values[k][i]) for k in table.values},
            "ranks": {k: table.ranks[k][i] for k in table.ranks},
            "rank_sum": table.rank_sums[i],
            "final_rank": table.final_ranks[i],
        })
    return {
        "schema": RANK_SCHEMA,
        "metric_set": metric_set,
        "metrics": list(table.values),
        "systems": systems,
    }


def _rank_table_text(table) -> str:
    keys = list(table.values)
    header = f"{'system':<18}"
    for k in keys:
        header += f" {_display_name(k):>14}"
    header += f" {'sum':>6} {'rank':>6}"
    lines = [header, "-" * len(header)]
    order = sorted(range(len(table.systems)), key=lambda i: (table.final_ranks[i], table.systems[i]))
    for i in order:
        row = f"{table.systems[i]:<18}"
        for k in keys:
            row += f" {_fmt_value(table.values[k][i]):>8} ({table.ranks[k][i]:g})"
        row += f" {table.rank_sums[i]:>6g} {table.final_ranks[i]:>6g}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _correlation_json(result) -> dict:
    return {
        "schema": CORRELATION_SCHEMA,
        "systems": result.systems,
        "metrics": result.metrics,
        "spearman": [[_round6(v) for v in row] for row in result.matrix],
        "warnings": result.warnings,
    }


def _correlation_table(result) -> str:
    names = [_display_name(k) for k in result.metrics]
    width = max(len(n) for n in names) + 1
    header = " " * width + "".join(f"{n:>{width}}" for n in names)
    lines = [header]
    for name, row in zip(names, result.matrix):
        cells = "".join(
            f"{'n/a':>{width}}" if v is None else f"{_round6(v):>{width}g}" for v in row
        )
        lines.append(f"{name:<{width}}" + cells)
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_evaluate(args, with_ci: bool) -> int:
    config = _build_config(args, _load_config_file(args))
    vocabulary = _load_vocabulary(args)
    result = evaluate_directory(args.ref, args.pred, vocabulary, config, _VOCAB_NAME)
    report = result.report()
    if with_ci:
        report.ci = result.jackknife()
    if args.format == "json":
        _emit(_dump_json(_report_json(report, config, args.per_class)), args.out)
    else:
        _emit(_report_table(report, config, args.per_class), args.out)
    return 0


def _cmd_rank(args) -> int:
    config = _build_config(args, _load_config_file(args))
    vocabulary = _load_vocabulary(args)
    systems = _parse_systems(args.pred)
    table, _ = rank_systems(args.ref, systems, vocabulary, config, args.metric_set)
    if args.format == "json":
        _emit(_dump_json(_rank_json(table, args.metric_set)), args.out)
    else:
        _emit(_rank_table_text(table), args.out)
    return 0


def _cmd_correlate(args) -> int:
    config = _build_config(args, _load_config_file(args))
    vocabulary = _load_vocabulary(args)
    systems = _parse_systems(args.pred)
    result = correlate_systems(args.ref, systems, vocabulary, config)
    if args.format == "json":
        _emit(_dump_json(_correlation_json(result)), args.out)
    else:
        _emit(_correlation_table(result), args.out)
    return 0


def _cmd_synth(args) -> int:
    from .synth import PerturbationSpec, perturb, serialize_prediction  # only synth needs it

    file_cfg = _load_config_file(args)
    config = _build_config(args, file_cfg)
    vocabulary = _load_vocabulary(args)

    def pick(flag, key, default):
        return flag if flag is not None else file_cfg.get(key, default)

    try:
        spec = PerturbationSpec(
            doa_jitter_deg=float(pick(args.jitter, "doa_jitter_deg", 0.0)),
            deletion_prob=float(pick(args.delete_prob, "deletion_prob", 0.0)),
            insertion_rate=float(pick(args.insert_rate, "insertion_rate", 0.0)),
            substitution_prob=float(pick(args.sub_prob, "substitution_prob", 0.0)),
            swap_locations=bool(pick(args.swap_locations, "swap_locations", False)),
            seed=int(pick(args.seed, "seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad perturbation parameter: {exc}") from None
    ref_dir = Path(args.ref)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    refs = sorted(p for p in ref_dir.glob("*.csv") if p.name != _VOCAB_NAME)
    if not refs:
        raise ConfigError(f"no reference files found in {ref_dir}")
    total_frames = None
    if config.duration is not None:
        total_frames = math.ceil(config.duration / config.frame_hop - 1e-9)
    log = {
        "schema": INJECTION_SCHEMA,
        "seed": spec.seed,
        "spec": {
            "doa_jitter_deg": spec.doa_jitter_deg,
            "deletion_prob": spec.deletion_prob,
            "insertion_rate": spec.insertion_rate,
            "substitution_prob": spec.substitution_prob,
            "swap_locations": spec.swap_locations,
        },
        "files": {},
    }
    for index, ref_path in enumerate(refs):
        events = parse_reference(ref_path, vocabulary)
        file_spec = dataclasses.replace(spec, seed=spec.seed + index)
        perturbed, entries = perturb(events, file_spec, vocabulary, config.duration)
        try:
            serialize_prediction(
                perturbed, config.frame_hop, vocabulary, out_dir / ref_path.name, total_frames
            )
        except GridOverflow as exc:
            raise ConfigError(f"{ref_path}: {exc} (--duration {config.duration} s)") from None
        log["files"][ref_path.name] = {"seed": file_spec.seed, "injections": entries}
    (out_dir / "injection_log.json").write_text(_dump_json(log), encoding="utf-8")
    sys.stdout.write(
        f"wrote {len(refs)} prediction file(s) and injection_log.json to {out_dir}\n"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p, multi_system: bool = False) -> None:
    p.add_argument("--ref", required=True, help="directory of reference CSV files")
    if multi_system:
        p.add_argument("--pred", required=True, action="append", metavar="NAME=DIR",
                       help="system id and its prediction directory (repeatable)")
    else:
        p.add_argument("--pred", required=True, help="directory of prediction CSV files")
    p.add_argument("--vocab", help=f"vocabulary file (default: {_VOCAB_NAME} beside --ref)")
    p.add_argument("--hop", type=float, default=None, help="frame hop in seconds (default 0.02)")
    p.add_argument("--segment", type=float, default=None,
                   help="segment length in seconds (default 1.0)")
    p.add_argument("--theta", type=float, action="append",
                   help="angular threshold in degrees (repeatable; default 10 and 30)")
    p.add_argument("--theta-class", action="append", metavar="CLASS=DEG",
                   help="per-class threshold override, applied within every --theta profile")
    p.add_argument("--loc-mode", choices=["frame-average", "segment-mean"], default=None,
                   help="segment localization evidence (default frame-average)")
    p.add_argument("--le-mode", choices=["micro", "macro"], default=None,
                   help="multi-frame LE accumulation reported as LE (default micro)")
    p.add_argument("--duration", type=float, default=None,
                   help="fixed file duration in seconds (default: derived per file)")
    p.add_argument("--jobs", type=int, default=None, help="parallel file workers (default 1)")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seldeval",
        description="Evaluate sound event localization and detection outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score one system against references")
    _add_common(p)
    p.add_argument("--per-class", action="store_true", help="include the per-class breakdown")
    p.add_argument("--confidence", type=float, default=None, help=argparse.SUPPRESS)

    p = sub.add_parser("jackknife", help="evaluate with leave-one-out confidence intervals")
    _add_common(p)
    p.add_argument("--per-class", action="store_true", help="include the per-class breakdown")
    p.add_argument("--confidence", type=float, default=None,
                   help="confidence level for the intervals (default 0.95)")

    p = sub.add_parser("rank", help="rank several systems by cumulative metric ranks")
    _add_common(p, multi_system=True)
    p.add_argument("--metric-set", choices=["official", "joint"], default="official")

    p = sub.add_parser("correlate", help="Spearman correlation between metric rankings")
    _add_common(p, multi_system=True)

    p = sub.add_parser("synth", help="derive perturbed prediction files from references")
    p.add_argument("--ref", required=True, help="directory of reference CSV files")
    p.add_argument("--out", required=True, help="output directory for prediction files")
    p.add_argument("--vocab", help=f"vocabulary file (default: {_VOCAB_NAME} beside --ref)")
    p.add_argument("--hop", type=float, default=None, help="frame hop in seconds (default 0.02)")
    p.add_argument("--duration", type=float, default=None,
                   help="fixed file duration in seconds (bounds insertions)")
    p.add_argument("--seed", type=int, help="base RNG seed (per-file: seed + index)")
    p.add_argument("--jitter", type=float, help="DoA jitter magnitude in degrees")
    p.add_argument("--delete-prob", type=float, help="event deletion probability")
    p.add_argument("--insert-rate", type=float, help="expected spurious events per minute")
    p.add_argument("--sub-prob", type=float, help="class substitution probability")
    p.add_argument("--swap-locations", action="store_true", default=None,
                   help="exchange DoAs of simultaneously active event pairs")
    p.add_argument("--config", help="JSON config file; flags override its values")
    for name in ("segment", "theta", "loc_mode", "le_mode", "jobs"):
        p.set_defaults(**{name: None})
    p.set_defaults(theta_class=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "evaluate": lambda a: _cmd_evaluate(a, with_ci=False),
        "jackknife": lambda a: _cmd_evaluate(a, with_ci=True),
        "rank": _cmd_rank,
        "correlate": _cmd_correlate,
        "synth": _cmd_synth,
    }
    try:
        return handlers[args.command](args)
    except SeldEvalError as exc:
        sys.stderr.write(_dump_json({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    except OSError as exc:
        sys.stderr.write(_dump_json({"error": "OSError", "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
