import json

import numpy as np
import pytest

from seldeval.annotations import (
    EventRecord,
    Vocabulary,
    parse_prediction,
    rasterize,
)
from seldeval.errors import ConfigError
from seldeval.evaluation import EvaluationConfig, evaluate_directory
from seldeval.geometry import Direction, angular_distance
from seldeval.synth import (
    MAX_INSERTIONS,
    PerturbationSpec,
    grid_directions,
    jitter_direction,
    perturb,
    serialize_prediction,
)
from conftest import make_corpus, make_nonoverlapping_events, write_corpus

VOCAB = Vocabulary(["dog", "cat", "speech"])

BASE_EVENTS = [
    EventRecord("dog", 0.1, 1.2, Direction(30, 10)),
    EventRecord("cat", 1.5, 2.4, Direction(-60, -20)),
    EventRecord("speech", 2.6, 3.9, Direction(120, 0)),
]


class TestSpecValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            PerturbationSpec(deletion_prob=1.5)
        with pytest.raises(ValueError):
            PerturbationSpec(substitution_prob=-0.1)
        with pytest.raises(ValueError):
            PerturbationSpec(doa_jitter_deg=181.0)
        with pytest.raises(ValueError):
            PerturbationSpec(insertion_rate=-1.0)


class TestPerturb:
    def test_zero_spec_is_identity(self):
        out, log = perturb(BASE_EVENTS, PerturbationSpec(seed=5), VOCAB)
        assert out == BASE_EVENTS
        assert log == []

    def test_deterministic_for_fixed_seed(self):
        spec = PerturbationSpec(
            doa_jitter_deg=4.0, deletion_prob=0.3, insertion_rate=8.0,
            substitution_prob=0.2, seed=42,
        )
        a_events, a_log = perturb(BASE_EVENTS, spec, VOCAB)
        b_events, b_log = perturb(BASE_EVENTS, spec, VOCAB)
        assert a_events == b_events
        assert a_log == b_log

    def test_different_seed_differs(self):
        spec1 = PerturbationSpec(doa_jitter_deg=4.0, seed=1)
        spec2 = PerturbationSpec(doa_jitter_deg=4.0, seed=2)
        a, _ = perturb(BASE_EVENTS, spec1, VOCAB)
        b, _ = perturb(BASE_EVENTS, spec2, VOCAB)
        assert a != b

    def test_jitter_exact_magnitude(self):
        rng = np.random.default_rng(0)
        events = make_nonoverlapping_events(rng, list(VOCAB), 40)
        out, log = perturb(events, PerturbationSpec(doa_jitter_deg=5.0, seed=9), VOCAB)
        assert len(out) == len(events)
        for before, after in zip(events, out):
            assert angular_distance(before.direction, after.direction) == pytest.approx(
                5.0, abs=1e-9
            )
        assert all(entry["type"] == "jitter" for entry in log)

    def test_jitter_direction_helper_exact(self):
        d = Direction(12, 34)
        for psi in (0.0, 1.0, 2.5, 4.0):
            assert angular_distance(d, jitter_direction(d, 17.0, psi)) == pytest.approx(
                17.0, abs=1e-9
            )

    def test_deletion_only_removes_and_logs(self):
        spec = PerturbationSpec(deletion_prob=0.5, seed=3)
        out, log = perturb(BASE_EVENTS * 20, spec, VOCAB)
        deletions = [e for e in log if e["type"] == "deletion"]
        assert len(out) + len(deletions) == 60
        assert all(e["type"] == "deletion" for e in log)

    def test_deletion_prob_one_gives_silence(self):
        out, log = perturb(BASE_EVENTS, PerturbationSpec(deletion_prob=1.0, seed=0), VOCAB)
        assert out == []
        assert len(log) == 3

    def test_substitution_changes_label_only(self):
        spec = PerturbationSpec(substitution_prob=1.0, seed=7)
        out, log = perturb(BASE_EVENTS, spec, VOCAB)
        assert len(out) == 3
        for before, after, entry in zip(BASE_EVENTS, out, log):
            assert entry["type"] == "substitution"
            assert after.label != before.label
            assert after.direction == before.direction
            assert (after.onset, after.offset) == (before.onset, before.offset)

    def test_swap_locations_two_event_scene(self):
        events = [
            EventRecord("dog", 0.0, 2.0, Direction(-80, 0)),
            EventRecord("cat", 0.0, 2.0, Direction(80, 0)),
        ]
        out, log = perturb(events, PerturbationSpec(swap_locations=True, seed=0), VOCAB)
        assert out[0].direction == Direction(80, 0)
        assert out[1].direction == Direction(-80, 0)
        assert out[0].label == "dog" and out[1].label == "cat"
        assert log == [{"type": "swap", "source_indices": [0, 1], "labels": ["dog", "cat"]}]

    def test_swap_ignores_non_overlapping(self):
        out, log = perturb(BASE_EVENTS, PerturbationSpec(swap_locations=True, seed=0), VOCAB)
        assert out == BASE_EVENTS
        assert log == []

    def test_insertions_on_grid(self):
        spec = PerturbationSpec(insertion_rate=60.0, seed=11)
        out, log = perturb(BASE_EVENTS, spec, VOCAB, duration=60.0)
        inserted = [e for e in log if e["type"] == "insertion"]
        assert len(out) == 3 + len(inserted)
        assert len(inserted) > 10  # expectation is 60
        grid = {(d.azimuth, d.elevation) for d in grid_directions()}
        for entry in inserted:
            assert (entry["azimuth"], entry["elevation"]) in grid
            assert -40 <= entry["elevation"] <= 40

    @pytest.mark.parametrize("rate, duration", [(1.0, 1e12), (float("inf"), 60.0),
                                                (MAX_INSERTIONS + 1.0, 60.0)])
    def test_insertions_above_the_cap_refused_before_drawing(self, rate, duration):
        spec = PerturbationSpec(insertion_rate=rate, seed=11)
        with pytest.raises(ConfigError, match=f"above {MAX_INSERTIONS} per file"):
            perturb(BASE_EVENTS, spec, VOCAB, duration=duration)


class TestSerializePrediction:
    def test_empty_events_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        serialize_prediction([], 0.02, VOCAB, path)
        assert path.read_text() == ""

    def test_two_frame_event(self, tmp_path):
        path = tmp_path / "p.csv"
        serialize_prediction(
            [EventRecord("dog", 1.0, 1.04, Direction(10, 0))], 0.02, VOCAB, path
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [ln.split(",")[0] for ln in lines] == ["50", "51"]

    def test_roundtrip_matches_rasterized_source(self, tmp_path):
        path = tmp_path / "p.csv"
        serialize_prediction(BASE_EVENTS, 0.02, VOCAB, path)
        parsed = parse_prediction(path, VOCAB)
        total = max(s.index for s in parsed) + 1
        expect = rasterize(BASE_EVENTS, 0.02, total)
        sparse_expect = {
            f.index: sorted((VOCAB.index(lb), d.azimuth, d.elevation) for lb, d in f.instances)
            for f in expect
            if f.instances
        }
        sparse_got = {
            s.index: sorted((VOCAB.index(lb), d.azimuth, d.elevation) for lb, d in s.instances)
            for s in parsed
        }
        assert sparse_got == sparse_expect


class TestMetricOracles:
    """Perturbations with analytically known metric impact."""

    def _evaluate(self, tmp_path, spec, thetas=(10.0, 30.0), n_files=4, events_per_file=12):
        vocab = Vocabulary(list(VOCAB))
        ref_dir = make_corpus(tmp_path / "ref", vocab, n_files, events_per_file, seed=100)
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        import dataclasses

        for index, ref_path in enumerate(sorted(ref_dir.glob("scene_*.csv"))):
            from seldeval.annotations import parse_reference

            events = parse_reference(ref_path, vocab)
            out, _ = perturb(events, dataclasses.replace(spec, seed=spec.seed + index), vocab)
            serialize_prediction(out, 0.02, vocab, pred_dir / ref_path.name)
        config = EvaluationConfig(thetas=tuple(thetas))
        return evaluate_directory(ref_dir, pred_dir, vocab, config)

    def test_full_deletion_floor(self, tmp_path):
        rep = self._evaluate(tmp_path, PerturbationSpec(deletion_prob=1.0, seed=1))
        assert rep.metrics["lr"] == 0.0
        assert rep.metrics["er"] == 1.0
        assert rep.metrics["f1"] == 0.0
        assert rep.metrics["lr_cd"] == 0.0

    def test_small_jitter_keeps_f_theta_perfect(self, tmp_path):
        rep = self._evaluate(tmp_path, PerturbationSpec(doa_jitter_deg=4.0, seed=2))
        assert rep.metrics["f_theta:10"] == 1.0
        assert rep.metrics["le_cd"] == pytest.approx(4.0, abs=1e-9)

    def test_jitter_beyond_theta_zeroes_f_theta(self, tmp_path):
        rep = self._evaluate(
            tmp_path, PerturbationSpec(doa_jitter_deg=20.0, seed=3), thetas=(10.0, 30.0)
        )
        assert rep.metrics["f_theta:10"] == 0.0
        assert rep.metrics["f_theta:30"] == 1.0

    def test_degradation_monotone_in_jitter(self, tmp_path):
        les = []
        for i, mag in enumerate((2.0, 8.0, 25.0)):
            rep = self._evaluate(
                tmp_path / f"j{i}", PerturbationSpec(doa_jitter_deg=mag, seed=4)
            )
            les.append(rep.metrics["le_cd"])
        assert les == sorted(les)

    def test_degradation_monotone_in_deletion(self, tmp_path):
        lrs = []
        for i, p in enumerate((0.0, 0.3, 0.7)):
            rep = self._evaluate(
                tmp_path / f"d{i}", PerturbationSpec(deletion_prob=p, seed=5)
            )
            lrs.append(rep.metrics["lr_cd"])
        assert lrs == sorted(lrs, reverse=True)
