"""Traced run: per-layer self times and counts, measured from outside.

The tracer wraps public functions of the `seldeval` modules, runs the
workload's commands in-process through `seldeval.cli.main`, and keeps
every span in memory until the run ends. A layer's self time is its
span's duration minus the time of the traced calls nested in it.
Per-frame calls (`LocalizationAccumulator.update`,
`segment_class_counts`) are timed the same way but aggregated instead
of stored as spans, which keeps the trace small.

Association is not wrapped: it runs once per frame and per class
slice, tens of thousands of times per command. It is replayed per
frame with the public `build_distance_matrix` and `hungarian`, bucketed
by frame shape, which also gives the exact shape census.

Only `run.py --trace 1` imports this module; untraced runs never do.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# layer -> (targets, hot). A target is "module:attribute[.attribute]".
# The "cli" layer is the span around each `cli.main` call.
LAYERS = {
    "annotations.parse_reference": (("seldeval.annotations:parse_reference",), False),
    "annotations.parse_prediction": (("seldeval.annotations:parse_prediction",), False),
    "annotations.rasterize": (("seldeval.annotations:rasterize", "seldeval.annotations:densify"), False),
    "annotations.segmentize": (("seldeval.annotations:segmentize",), False),
    "localization.update": (("seldeval.localization:LocalizationAccumulator.update",), True),
    "detection.counts": (("seldeval.detection:detection_counts",), False),
    "joint.segment_class_counts": (("seldeval.joint:segment_class_counts",), True),
    "evaluation.score_file": (("seldeval.evaluation:score_file",), False),
    "evaluation.batch": (("seldeval.evaluation:evaluate_directory", "seldeval.evaluation:rank_systems",
                          "seldeval.evaluation:correlate_systems",
                          "seldeval.evaluation:EvaluationResult.jackknife"), False),
    "evaluation.merge": (("seldeval.evaluation:FileContribution.__add__",
                          "seldeval.evaluation:FileContribution.__sub__"), False),
    "evaluation.compute_metrics": (("seldeval.evaluation:compute_metrics",), False),
    "stats.jackknife": (("seldeval.stats:jackknife_ci",), False),
    "stats.rank_table": (("seldeval.stats:build_rank_table",), False),
    "stats.spearman": (("seldeval.stats:spearman",), False),
}
ASSIGNMENT_TARGETS = ("seldeval.assignment:build_distance_matrix", "seldeval.assignment:hungarian")
ANNOTATION_REPLAY_TARGETS = (
    "seldeval.annotations:parse_reference", "seldeval.annotations:parse_prediction",
    "seldeval.annotations:rasterize", "seldeval.annotations:densify",
)


def _resolve(target):
    """(owner, attribute name, object) of a target, or None if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


class Tracer:
    """Spans kept in memory, plus per-layer self time and call counts."""

    def __init__(self):
        self.spans = []          # (trace_id, span_id, parent_id, layer, start_ns, end_ns, self_ns)
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.missing = []
        self.score_calls = []    # (args, kwargs, duration_ns, covered_ns) of score_file
        self.trace_id = 0
        self._stack = []         # [span_id, child_ns]
        self._next_id = 0
        self._patches = []

    def _enter(self):
        self._next_id += 1
        entry = [self._next_id, 0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(entry)
        return entry, parent

    def _exit(self, layer, hot, entry, parent, start, end):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        own = duration - entry[1]
        self.self_ns[layer] += own
        self.calls[layer] += 1
        if not hot:
            self.spans.append((self.trace_id, entry[0], parent, layer, start, end, own))
        return duration, entry[1]

    @contextlib.contextmanager
    def span(self, layer):
        entry, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(layer, False, entry, parent, start, time.perf_counter_ns())

    def _wrap(self, layer, hot, fn):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            entry, parent = tracer._enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration, covered = tracer._exit(layer, hot, entry, parent, start, clock())
            try:
                tracer._observe(layer, args, kwargs, result, duration, covered)
            except (AttributeError, TypeError, IndexError):
                # The function's result no longer has the shape the counts expect.
                if layer not in tracer.missing:
                    tracer.missing.append(layer)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, layer, args, kwargs, result, duration, covered):
        if layer == "annotations.parse_prediction":
            self.counts["annotations.pred_rows"] += sum(len(s.instances) for s in result)
        elif layer == "annotations.segmentize":
            self.counts["annotations.frames"] += len(args[0])
            self.counts["annotations.segments"] += len(result)
            self.counts["joint.no_coactivity"] += sum(
                1 for view in result for st in view.classes.values()
                if st.pred_active and st.ref_active and st.pair_count == 0
            )
        elif layer == "evaluation.score_file":
            self.counts["joint.degenerate_means"] += sum(
                1 for w in result.warnings if "degenerate" in w
            )
            self.score_calls.append((args, kwargs, duration, covered))

    def install(self):
        """Wrap every target in every `seldeval` module namespace that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "seldeval" or n.startswith("seldeval."))]
        for layer, (targets, hot) in LAYERS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, name, original = found
                wrapper = self._wrap(layer, hot, original)
                self._patch(owner, name, original, wrapper)
                if isinstance(owner, type):
                    continue
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric in ("trace.coverage", "trace.overhead"):
        return "frac"
    return "count"


def _shape_bucket(m, n):
    if m == 0 or n == 0:
        return "empty"
    if m == 1 or n == 1 or (m == 2 and n == 2):
        return "trivial"
    if m <= 3 and n <= 3:
        return "le3x3"
    return "gt3x3"


def replay_association(pairs, vocabulary, config):
    """Shape census and association time over the given file pairs.

    Returns (counts, seconds): the class-agnostic frame shapes, the
    per-class slice shapes (both sides present), and the time spent in
    `build_distance_matrix` and in `hungarian` for frames up to 3x3 (or
    with a single row or column) and larger frames.
    """
    from seldeval.annotations import densify, parse_prediction, parse_reference, rasterize
    from seldeval.assignment import build_distance_matrix, hungarian

    inputs = {"small": [], "exact": []}
    counts = Counter()
    for ref_path, pred_path in pairs:
        events = parse_reference(ref_path, vocabulary)
        sparse = parse_prediction(pred_path, vocabulary, config.frame_hop)
        # Every workload command passes --duration, which fixes the grid.
        total = math.ceil(config.duration / config.frame_hop - 1e-9)
        refs = rasterize(events, config.frame_hop, total)
        preds = densify(sparse, total)
        for pred, ref in zip(preds, refs):
            p = [d for _, d in pred.instances]
            r = [d for _, d in ref.instances]
            bucket = _shape_bucket(len(p), len(r))
            counts[f"assignment.frames_{bucket}"] += 1
            if bucket != "empty":
                inputs["exact" if bucket == "gt3x3" else "small"].append((p, r))
            by_label = defaultdict(lambda: ([], []))
            for label, d in pred.instances:
                by_label[label][0].append(d)
            for label, d in ref.instances:
                by_label[label][1].append(d)
            for p_dirs, r_dirs in by_label.values():
                if p_dirs and r_dirs:
                    bucket = _shape_bucket(len(p_dirs), len(r_dirs))
                    counts[f"assignment.slices_{bucket}"] += 1
                    inputs["exact" if bucket == "gt3x3" else "small"].append((p_dirs, r_dirs))
    seconds = {}
    distance_s = 0.0
    for kind, frames in inputs.items():
        start = time.perf_counter()
        matrices = [build_distance_matrix(p, r) for p, r in frames]
        mid = time.perf_counter()
        for d in matrices:
            hungarian(d)
        distance_s += mid - start
        seconds[f"assignment.hungarian_{kind}_s"] = time.perf_counter() - mid
    seconds["assignment.distance_matrix_s"] = distance_s
    return counts, seconds


def _replay_score_file(calls):
    """Untraced time of the given score_file calls, with their traced time
    and the part of it that traced layers cover, all in ns."""
    from seldeval.evaluation import score_file

    untraced = traced = covered = 0
    for args, kwargs, duration, covered_ns in calls:
        start = time.perf_counter_ns()
        score_file(*args, **kwargs)
        untraced += time.perf_counter_ns() - start
        traced += duration
        covered += covered_ns
    return untraced, traced, covered


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(corpus, seconds, check, calib, spans_path, tally):
    """Traced passes over the workload's commands, then the replays.

    `check(command, stdout_bytes)` returns a list of problems; commands
    and failures are counted in `tally`. Returns the per-layer metrics.
    """
    from seldeval import cli

    tracer = Tracer()
    per_pass = []            # Counter of self ns per layer, per pass
    pass_counts = []
    calib_s = []
    last_calls = []
    started = time.perf_counter()
    cwd = os.getcwd()
    try:
        tracer.install()
        os.chdir(corpus.root)
        while not per_pass or time.perf_counter() - started < seconds / 2:
            before_ns, before_counts = Counter(tracer.self_ns), Counter(tracer.counts)
            before_calls = Counter(tracer.calls)
            calib_s.append(calib())
            for command in corpus.commands:
                tracer.trace_id += 1
                out = io.StringIO()
                code = None
                with tracer.span("cli"), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = cli.main(list(command.argv))
                    except SystemExit as exc:
                        code = exc.code
                tally["attempted"] += 1
                problems = check(command, out.getvalue().encode("utf-8")) if code == 0 else [
                    f"exit code {code}"]
                if problems:
                    tally["failed"] += 1
                    print(f"FAILED traced {command.argv[0]}: {'; '.join(problems)}", file=sys.stderr)
            per_pass.append(tracer.self_ns - before_ns)
            pass_counts.append((tracer.counts - before_counts) + Counter(
                {f"{k}_n": v for k, v in (tracer.calls - before_calls).items()}))
            last_calls, tracer.score_calls = tracer.score_calls, []
        tracer.uninstall()
        untraced_ns, traced_ns, covered_ns = _replay_score_file(last_calls)
        missing = [t for t in ASSIGNMENT_TARGETS + ANNOTATION_REPLAY_TARGETS if _resolve(t) is None]
        tracer.missing.extend(t for t in missing if t not in tracer.missing)
        census, replay = Counter(), {}
        if last_calls and not missing:
            unique = list(dict.fromkeys((a[0], a[1]) for a, _, _, _ in last_calls))
            vocabulary, config = last_calls[0][0][2], last_calls[0][0][3]
            try:
                runs = [replay_association(unique, vocabulary, config) for _ in range(3)]
            except (AttributeError, TypeError, IndexError):
                tracer.missing.append("assignment replay")
            else:
                census = runs[0][0]
                replay = {k: _median([r[1][k] for r in runs]) for k in runs[0][1]}
    finally:
        tracer.uninstall()
        os.chdir(cwd)

    def layer_s(*layers):
        return _median([sum(p[layer] for layer in layers) / 1e9 for p in per_pass])

    first = pass_counts[0]
    durations = [s[5] - s[4] for s in tracer.spans if s[3] == "evaluation.score_file"]
    metrics = {
        "annotations.parse_reference_s": layer_s("annotations.parse_reference"),
        "annotations.parse_prediction_s": layer_s("annotations.parse_prediction"),
        "annotations.pred_rows": first["annotations.pred_rows"],
        "annotations.rasterize_s": layer_s("annotations.rasterize"),
        "annotations.segmentize_s": layer_s("annotations.segmentize"),
        "annotations.frames": first["annotations.frames"],
        "annotations.segments": first["annotations.segments"],
        "assignment.distance_matrix_s": replay.get("assignment.distance_matrix_s", 0.0),
        "assignment.hungarian_small_s": replay.get("assignment.hungarian_small_s", 0.0),
        "assignment.hungarian_exact_s": replay.get("assignment.hungarian_exact_s", 0.0),
        **{f"assignment.{kind}_{bucket}": census[f"assignment.{kind}_{bucket}"]
           for kind, buckets in (("frames", ("empty", "trivial", "le3x3", "gt3x3")),
                                 ("slices", ("trivial", "le3x3", "gt3x3")))
           for bucket in buckets},
        "localization.update_s": layer_s("localization.update"),
        "detection.counts_s": layer_s("detection.counts"),
        "joint.segment_class_counts_s": layer_s("joint.segment_class_counts"),
        "joint.no_coactivity": first["joint.no_coactivity"],
        "joint.degenerate_means": first["joint.degenerate_means"],
        "evaluation.score_file_p50_s": _quantile(durations, 50) / 1e9,
        "evaluation.score_file_p90_s": _quantile(durations, 90) / 1e9,
        "evaluation.score_file_n": len(durations),
        "evaluation.self_s": layer_s("evaluation.score_file", "evaluation.batch"),
        "evaluation.merge_s": layer_s("evaluation.merge"),
        "evaluation.merge_n": first["evaluation.merge_n"],
        "evaluation.compute_metrics_s": layer_s("evaluation.compute_metrics"),
        "evaluation.compute_metrics_n": first["evaluation.compute_metrics_n"],
        "stats.self_s": layer_s("stats.jackknife", "stats.rank_table", "stats.spearman"),
        "stats.jackknife_n": first["stats.jackknife_n"],
        "stats.rank_table_n": first["stats.rank_table_n"],
        "stats.spearman_n": first["stats.spearman_n"],
        "cli.render_s": layer_s("cli"),
        "trace.coverage": covered_ns / untraced_ns if untraced_ns else 0.0,
        "trace.overhead": traced_ns / untraced_ns - 1.0 if untraced_ns else 0.0,
        "trace.passes": len(per_pass),
        "trace.missing_layers": len(tracer.missing),
        "host.calib_s": _median(calib_s),
    }
    for target in tracer.missing:
        print(f"layer missing or changed: {target}", file=sys.stderr)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(
                ("trace", "span", "parent", "layer", "start_ns", "end_ns", "self_ns"), span))) + "\n")
    return metrics
