"""Evaluation toolkit for sound event localization and detection outputs.

The public names below are imported from their submodule on first
access, not when the package is: every command starts with
``import seldeval.cli``, which then loads only the modules the scoring
pipeline uses: not ``joint``, ``localization`` or ``detection``, and
``synth`` only in the ``synth`` command.
"""

from importlib import import_module

_EXPORTS = {
    "annotations": "EventRecord FrameSnapshot SegmentView Vocabulary densify parse_prediction "
                   "parse_reference parse_vocabulary rasterize segmentize write_prediction "
                   "write_reference",
    "assignment": "Assignment DistanceMatrix build_distance_matrix hungarian",
    "detection": "DetectionCounts detection_counts error_rate f1_score",
    "errors": "SeldEvalError",
    "evaluation": "EvaluationConfig EvaluationResult FileContribution MetricReport "
                  "compute_metrics correlate_systems evaluate_directory metric_directions "
                  "rank_systems score_file",
    "geometry": "Direction angular_distance spherical_mean",
    "joint": "ClassCounts ClassSlice class_aware_localization class_slices joint_counts "
             "location_aware_detection segment_class_counts",
    "localization": "LocalizationReport localization_metrics",
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
