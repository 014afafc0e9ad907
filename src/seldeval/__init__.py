"""Evaluation toolkit for sound event localization and detection outputs.

Every metric is computed from one counting core: `evaluation.read_pair`
reads each file pair into columns, `evaluation.score_batch` sums each
file's counts into a row of a table, and `evaluation.compute_metrics`
forms every metric from a row, the rows' total or the total less a row. The `localization`, `detection` and `joint` modules keep only the
per-frame and per-segment definitions that core reproduces, for the
scalar test oracle and the benchmark tracer.

The public names below are imported from their submodule on first
access, not when the package is: every command starts with
``import seldeval.cli``, which then loads only the modules the scoring
pipeline uses: not ``joint``, ``localization`` or ``detection``, and
``synth`` only in the ``synth`` command. Nor does it load ``dataclasses``:
the types on that path are plain classes and ``typing.NamedTuple``s, which
take far less to create than dataclasses, whose methods are generated and
compiled when their module loads.
"""

from importlib import import_module

_EXPORTS = {
    "annotations": "EventRecord FrameSnapshot SegmentView Vocabulary densify parse_prediction "
                   "parse_reference rasterize segmentize write_reference",
    "assignment": "Assignment DistanceMatrix build_distance_matrix hungarian",
    "detection": "DetectionCounts detection_counts",
    "errors": "SeldEvalError",
    "evaluation": "EvaluationConfig EvaluationResult FileContribution "
                  "compute_metrics correlate_systems evaluate_directory metric_directions "
                  "rank_systems score_file",
    "geometry": "Direction angular_distance spherical_mean",
    "joint": "ClassCounts segment_class_counts",
    "stats": "JackknifeEstimate RankTable build_rank_table cumulative_rank jackknife_ci "
             "metric_ranks spearman",
    "synth": "PerturbationSpec grid_directions jitter_direction perturb serialize_prediction",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value
