"""Deterministic perturbation of reference scenes into prediction files.

Each error mode is analytically characterizable so the generated
predictions act as oracles for the metric suite: DoA jitter displaces a
direction by an exact angular magnitude in a uniformly random
great-circle direction (making the expected localization error equal to
the jitter itself), deletions and substitutions are per-event Bernoulli
draws, insertions are Poisson-distributed spurious events drawn from a
10-degree-spaced direction grid within elevation [-40, 40], and location
swaps exchange the DoAs of simultaneously active event pairs.

Randomness comes from NumPy's PCG64 generator seeded explicitly, so a
fixed (events, spec, seed) triple always produces identical output on
any platform. Draws are made per event in input order: deletion first,
then substitution, then jitter; the swap pass and insertions follow.
Every injected error is logged so tests can compute expected metric
deltas from the log. A file may expect at most `MAX_INSERTIONS`
insertions (rate x duration / 60); a larger expectation is refused
before the Poisson draw, whatever the host's memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .annotations import EventRecord, Vocabulary, expand_spans, frame_span, write_prediction_rows
from .errors import ConfigError, GridOverflow, ReferenceTooLong
from .geometry import Direction

# The most insertions one file may expect; each one is drawn and logged in turn.
MAX_INSERTIONS = 10 ** 6
# The direction grid's spacing and elevation limit, in whole degrees.
GRID_STEP_DEG = 10
GRID_ELEVATION_LIMIT_DEG = 40


@dataclass(frozen=True)
class PerturbationSpec:
    """Controlled error injection parameters.

    doa_jitter_deg: fixed angular offset applied to every surviving event.
    deletion_prob: probability of dropping an event entirely.
    insertion_rate: expected spurious events per minute of material.
    substitution_prob: probability of relabeling an event to a uniformly
        chosen other class.
    swap_locations: exchange DoAs within pairs of overlapping events.
    """

    doa_jitter_deg: float = 0.0
    deletion_prob: float = 0.0
    insertion_rate: float = 0.0
    substitution_prob: float = 0.0
    swap_locations: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("deletion_prob", "substitution_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 <= self.doa_jitter_deg <= 180.0:
            raise ValueError(f"doa_jitter_deg must be in [0, 180], got {self.doa_jitter_deg}")
        if not self.insertion_rate >= 0:  # NaN too
            raise ValueError(f"insertion_rate must be non-negative, got {self.insertion_rate}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def grid_directions() -> list:
    """Azimuth/elevation grid mirroring the measurement geometry of the
    spatialized recordings (10-degree spacing, elevations within +/-40)."""
    limit = GRID_ELEVATION_LIMIT_DEG
    return [Direction(az, el) for az in range(-180, 180, GRID_STEP_DEG)
            for el in range(-limit, limit + 1, GRID_STEP_DEG)]


def _orthonormal_tangent(unit, psi: float):
    ux, uy, uz = unit
    # Any vector not parallel to `unit` seeds the tangent basis.
    if abs(uz) < 0.9:
        ax, ay, az = 0.0, 0.0, 1.0
    else:
        ax, ay, az = 1.0, 0.0, 0.0
    e1 = (uy * az - uz * ay, uz * ax - ux * az, ux * ay - uy * ax)
    n1 = math.sqrt(e1[0] ** 2 + e1[1] ** 2 + e1[2] ** 2)
    e1 = (e1[0] / n1, e1[1] / n1, e1[2] / n1)
    e2 = (uy * e1[2] - uz * e1[1], uz * e1[0] - ux * e1[2], ux * e1[1] - uy * e1[0])
    c, s = math.cos(psi), math.sin(psi)
    return (
        c * e1[0] + s * e2[0],
        c * e1[1] + s * e2[1],
        c * e1[2] + s * e2[2],
    )


def jitter_direction(d: Direction, magnitude_deg: float, psi: float) -> Direction:
    """Rotate `d` by exactly `magnitude_deg` towards tangent angle `psi`."""
    t = _orthonormal_tangent(d.unit, psi)
    ang = math.radians(magnitude_deg)
    c, s = math.cos(ang), math.sin(ang)
    ux, uy, uz = d.unit
    return Direction.from_unit_vector(
        c * ux + s * t[0], c * uy + s * t[1], c * uz + s * t[2]
    )


def _overlaps(a: EventRecord, b: EventRecord) -> bool:
    return a.onset < b.offset and b.onset < a.offset


def perturb(
    events: list,
    spec: PerturbationSpec,
    vocabulary: Vocabulary,
    duration: float | None = None,
) -> tuple:
    """Apply the spec to a reference scene.

    Returns (perturbed events, injection log); the log is a list of dicts
    with a "type" key and enough detail to reconstruct the expected
    metric impact. `duration` bounds where insertions may be placed and
    defaults to the last reference offset. An expected insertion count
    above `MAX_INSERTIONS` raises ConfigError before any draw.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    log = []
    survivors = []
    for idx, ev in enumerate(events):
        if spec.deletion_prob > 0 and rng.random() < spec.deletion_prob:
            log.append({
                "type": "deletion", "source_index": idx, "label": ev.label,
                "onset": ev.onset, "offset": ev.offset,
            })
            continue
        label = ev.label
        if spec.substitution_prob > 0 and rng.random() < spec.substitution_prob:
            others = [lb for lb in vocabulary if lb != label]
            if others:
                label = others[int(rng.integers(len(others)))]
                log.append({
                    "type": "substitution", "source_index": idx,
                    "old_label": ev.label, "new_label": label,
                    "onset": ev.onset, "offset": ev.offset,
                })
        direction = ev.direction
        if spec.doa_jitter_deg > 0:
            psi = float(rng.uniform(0.0, 2.0 * math.pi))
            direction = jitter_direction(direction, spec.doa_jitter_deg, psi)
            log.append({
                "type": "jitter", "source_index": idx, "label": label,
                "magnitude_deg": spec.doa_jitter_deg,
            })
        survivors.append(EventRecord(label, ev.onset, ev.offset, direction))

    if spec.swap_locations:
        order = sorted(
            range(len(survivors)),
            key=lambda i: (
                survivors[i].onset, survivors[i].offset, survivors[i].label,
                survivors[i].direction.azimuth, survivors[i].direction.elevation,
            ),
        )
        swapped: set = set()
        for pos, i in enumerate(order):
            if i in swapped:
                continue
            for j in order[pos + 1:]:
                if j in swapped or not _overlaps(survivors[i], survivors[j]):
                    continue
                a, b = survivors[i], survivors[j]
                survivors[i] = EventRecord(a.label, a.onset, a.offset, b.direction)
                survivors[j] = EventRecord(b.label, b.onset, b.offset, a.direction)
                swapped.update((i, j))
                lo, hi = min(i, j), max(i, j)
                log.append({"type": "swap", "source_indices": [lo, hi],
                            "labels": [survivors[lo].label, survivors[hi].label]})
                break

    if spec.insertion_rate > 0:
        if duration is None:
            duration = max((ev.offset for ev in events), default=0.0)
        expected = spec.insertion_rate * duration / 60.0 if duration > 0 else 0.0
        if not expected <= MAX_INSERTIONS:
            raise ConfigError(f"insertion rate {spec.insertion_rate} per minute over {duration} s "
                              f"expects {expected:g} insertions, above {MAX_INSERTIONS} per file")
        count = int(rng.poisson(expected))
        grid = grid_directions()
        for _ in range(count):
            label = vocabulary.labels[int(rng.integers(len(vocabulary)))]
            length = float(rng.uniform(0.3, 1.5))
            onset = float(rng.uniform(0.0, max(duration - length, 1e-3)))
            direction = grid[int(rng.integers(len(grid)))]
            survivors.append(EventRecord(label, onset, onset + length, direction))
            log.append({
                "type": "insertion", "label": label, "onset": onset,
                "offset": onset + length,
                "azimuth": direction.azimuth, "elevation": direction.elevation,
            })

    return survivors, log


def serialize_prediction(
    events: list,
    frame_hop: float,
    vocabulary: Vocabulary,
    path,
    total_frames: int | None = None,
) -> None:
    """Write the frames the events cover in the frame-level prediction
    format, the rows of a frame sorted by class index, then DoA: the rows
    of `rasterize(events, frame_hop, total_frames)`, without building the
    frame grid. Events that `expand_spans` refuses for a reference (past frame
    `annotations.MAX_FRAMES` - 1, more than `annotations.MAX_REFERENCE_ROWS`
    rows, or more than memory holds) raise `ConfigError` naming `path`."""
    if frame_hop <= 0:
        raise ConfigError(f"frame hop must be positive, got {frame_hop}")
    spans = [frame_span(ev.onset, ev.offset, frame_hop) for ev in events]
    for ev, (_, last) in zip(events, spans):
        if total_frames is not None and last >= total_frames:
            raise GridOverflow(
                f"event ending at {ev.offset} s exceeds the {total_frames}-frame grid")
    columns = (np.array([vocabulary.index(ev.label) for ev in events], dtype=np.int64),
               np.array([ev.direction.azimuth for ev in events], dtype=float),
               np.array([ev.direction.elevation for ev in events], dtype=float))
    try:
        rows = expand_spans(spans, columns, frame_hop, f"prediction {path}")
    except ReferenceTooLong as exc:  # the file to write, not a reference, is too long
        raise ConfigError(str(exc)) from None
    order = np.lexsort(rows[::-1])  # stable: equal rows keep the events' order
    try:
        write_prediction_rows(path, zip(*(col[order].tolist() for col in rows)))
    except OSError as exc:
        raise OSError(f"cannot write prediction file {path}: {exc}") from exc
