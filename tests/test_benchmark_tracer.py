"""Every function the benchmark tracer wraps or replays still exists.

`benchmarks/tracer.py` names its targets as "module:attribute" strings;
one it cannot resolve only shows up as a missing layer in a traced
benchmark run. The tracer module imports nothing of the package at load
time, so it is executed here from its source, without writing bytecode
next to it, and every target is resolved.
"""

import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    tracer = types.ModuleType("benchmark_tracer")
    tracer.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"),
         tracer.__dict__)
    return tracer


tracer = load_tracer()
TARGETS = sorted({target for targets, _ in tracer.LAYERS.values() for target in targets}
                 | set(tracer.ASSIGNMENT_TARGETS) | set(tracer.ANNOTATION_REPLAY_TARGETS))


def test_targets_listed():
    assert "seldeval.localization:LocalizationAccumulator.update" in TARGETS
    assert "seldeval.assignment:hungarian" in TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    assert tracer._resolve(target) is not None, f"{target} is gone"
