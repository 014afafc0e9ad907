import pytest

from seldeval.annotations import (
    EventRecord,
    FrameSnapshot,
    Vocabulary,
    densify,
    frame_span,
    frames_per_segment,
    parse_prediction,
    parse_reference,
    rasterize,
    segmentize,
    write_prediction_rows,
    write_reference,
)
from seldeval.errors import ConfigError, InvalidInterval, ParseError, UnknownClass
from seldeval.geometry import Direction


@pytest.fixture
def vocab():
    return Vocabulary(["speech", "dog", "car", "cat"])


class TestVocabulary:
    def test_roundtrip_indexing(self, vocab):
        assert vocab.index("dog") == 1
        assert vocab.labels[1] == "dog"
        assert len(vocab) == 4
        assert "car" in vocab and "horse" not in vocab

    def test_unknown(self, vocab):
        with pytest.raises(UnknownClass):
            vocab.index("horse")

    def test_from_file(self, tmp_path):
        path = tmp_path / "vocabulary.txt"
        path.write_text("speech\ndog\n\n")
        v = Vocabulary.from_file(path)
        assert list(v) == ["speech", "dog"]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"])


class TestParseReference:
    def test_single_row(self, tmp_path, vocab):
        f = tmp_path / "r.csv"
        f.write_text("speech,1.00,2.50,30,-20\n")
        events = parse_reference(f, vocab)
        assert events == [EventRecord("speech", 1.0, 2.5, Direction(30, -20))]

    def test_invalid_interval(self, tmp_path, vocab):
        f = tmp_path / "r.csv"
        f.write_text("speech,2.0,1.0,0,0\n")
        with pytest.raises(InvalidInterval):
            parse_reference(f, vocab)

    def test_negative_onset_rejected(self, tmp_path, vocab):
        f = tmp_path / "r.csv"
        f.write_text("speech,-0.5,1.0,0,0\n")
        with pytest.raises(InvalidInterval):
            parse_reference(f, vocab)

    def test_overlapping_same_class_allowed(self, tmp_path, vocab):
        f = tmp_path / "r.csv"
        f.write_text("dog,0,1,30,0\ndog,0.5,1.5,-30,0\n")
        events = parse_reference(f, vocab)
        assert len(events) == 2
        assert {e.label for e in events} == {"dog"}

    def test_header_autodetected(self, tmp_path, vocab):
        f = tmp_path / "r.csv"
        f.write_text("class_label,onset_s,offset_s,azimuth_deg,elevation_deg\nspeech,0,1,10,5\n")
        assert len(parse_reference(f, vocab)) == 1

    def test_distance_column_ignored(self, tmp_path, vocab):
        f = tmp_path / "r.csv"
        f.write_text("speech,0,1,10,5,1.5\n")
        events = parse_reference(f, vocab)
        assert events[0].direction == Direction(10, 5)

    def test_unknown_class(self, tmp_path, vocab):
        f = tmp_path / "r.csv"
        f.write_text("horse,0,1,0,0\n")
        with pytest.raises(UnknownClass):
            parse_reference(f, vocab)

    def test_malformed_row_reports_line(self, tmp_path, vocab):
        f = tmp_path / "r.csv"
        f.write_text("speech,0,1,0,0\nspeech,zero,1,0,0\n")
        with pytest.raises(ParseError) as err:
            parse_reference(f, vocab)
        assert ":2" in str(err.value)

    def test_bad_elevation_is_parse_error(self, tmp_path, vocab):
        f = tmp_path / "r.csv"
        f.write_text("speech,0,1,0,95\n")
        with pytest.raises(ParseError):
            parse_reference(f, vocab)

    def test_crlf_accepted(self, tmp_path, vocab):
        f = tmp_path / "r.csv"
        f.write_bytes(b"speech,0,1,10,5\r\ndog,1,2,0,0\r\n")
        assert len(parse_reference(f, vocab)) == 2


class TestParsePrediction:
    def test_single_row_frame_time(self, tmp_path, vocab):
        f = tmp_path / "p.csv"
        f.write_text("50,3,10,0\n")
        snaps = parse_prediction(f, vocab, frame_hop=0.02)
        assert len(snaps) == 1
        assert snaps[0].index == 50  # frame 50 at hop 0.02 covers t = 1.00 s
        assert snaps[0].instances == [("cat", Direction(10, 0))]

    def test_empty_file_means_silence(self, tmp_path, vocab):
        f = tmp_path / "p.csv"
        f.write_text("")
        assert parse_prediction(f, vocab) == []

    def test_same_frame_same_class_multiset(self, tmp_path, vocab):
        f = tmp_path / "p.csv"
        f.write_text("7,1,10,0\n7,1,-10,0\n")
        snaps = parse_prediction(f, vocab)
        assert len(snaps) == 1
        assert len(snaps[0].instances) == 2

    def test_class_index_out_of_range(self, tmp_path, vocab):
        f = tmp_path / "p.csv"
        f.write_text("0,4,0,0\n")
        with pytest.raises(UnknownClass, match=r"p\.csv:1\)$"):
            parse_prediction(f, vocab)

    def test_sorted_by_frame(self, tmp_path, vocab):
        f = tmp_path / "p.csv"
        f.write_text("9,0,0,0\n2,0,0,0\n")
        assert [s.index for s in parse_prediction(f, vocab)] == [2, 9]

    def test_malformed(self, tmp_path, vocab):
        f = tmp_path / "p.csv"
        f.write_text("0,0,0\n")
        with pytest.raises(ParseError):
            parse_prediction(f, vocab)


class TestEventRecord:
    def test_equal_by_value_and_hashable(self):
        # as perturb and its tests compare events: equal fields, equal records
        a = EventRecord("dog", 0.5, 1.5, Direction(30, 10))
        b = EventRecord("dog", 0.5, 1.5, Direction(30 + 360, 10))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != EventRecord("cat", 0.5, 1.5, Direction(30, 10))
        assert a != EventRecord("dog", 0.5, 1.5, Direction(31, 10))
        with pytest.raises(AttributeError):
            a.onset = 0.0


class TestRoundTrips:
    def test_reference_roundtrip(self, tmp_path, vocab):
        events = [
            EventRecord("speech", 0.37, 1.253, Direction(-170.25, 33.33)),
            EventRecord("dog", 2.0, 2.5, Direction(10, -40)),
        ]
        path = tmp_path / "r.csv"
        write_reference(path, events)
        assert parse_reference(path, vocab) == events

    def test_prediction_roundtrip(self, tmp_path, vocab):
        frames = [
            FrameSnapshot(3, [("dog", Direction(12.5, -7.25)), ("speech", Direction(0, 0))]),
            FrameSnapshot(10, [("cat", Direction(-120, 40))]),
        ]
        path = tmp_path / "p.csv"
        write_prediction_rows(path, [(frame.index, vocab.index(label), d.azimuth, d.elevation)
                                     for frame in frames for label, d in frame.instances])
        parsed = parse_prediction(path, vocab)
        assert [s.index for s in parsed] == [3, 10]
        assert sorted(parsed[0].instances, key=lambda x: x[0]) == sorted(
            frames[0].instances, key=lambda x: x[0]
        )
        assert parsed[1].instances == frames[1].instances


class TestRasterize:
    def test_one_second_event_occupies_frames_50_to_99(self, vocab):
        events = [EventRecord("speech", 1.00, 2.00, Direction(0, 0))]
        frames = rasterize(events, 0.02, 120)
        active = [f.index for f in frames if f.instances]
        assert active == list(range(50, 100))

    def test_sub_hop_event_single_frame(self):
        events = [EventRecord("speech", 0.205, 0.210, Direction(0, 0))]
        frames = rasterize(events, 0.02, 20)
        assert [f.index for f in frames if f.instances] == [10]

    def test_no_events(self):
        frames = rasterize([], 0.02, 10)
        assert len(frames) == 10
        assert all(not f.instances for f in frames)

    def test_event_past_grid_rejected(self):
        with pytest.raises(ValueError):
            rasterize([EventRecord("speech", 0.0, 1.0, Direction(0, 0))], 0.02, 10)

    def test_instance_count_invariant_under_event_order(self):
        events = [
            EventRecord("speech", 0.0, 0.5, Direction(0, 0)),
            EventRecord("dog", 0.2, 0.9, Direction(10, 0)),
            EventRecord("speech", 0.1, 0.3, Direction(20, 0)),
        ]
        a = rasterize(events, 0.02, 60)
        b = rasterize(list(reversed(events)), 0.02, 60)
        assert [len(f.instances) for f in a] == [len(f.instances) for f in b]

    def test_derasterize_recovers_bounds_within_one_hop(self):
        hop = 0.02
        events = [EventRecord("speech", 0.13, 1.61, Direction(0, 0))]
        frames = rasterize(events, hop, 100)
        active = [f.index for f in frames if f.instances]
        onset_rec, offset_rec = active[0] * hop, (active[-1] + 1) * hop
        assert abs(onset_rec - 0.13) <= hop
        assert abs(offset_rec - 1.61) <= hop

    def test_frame_span_boundary_exact(self):
        assert frame_span(1.0, 2.0, 0.02) == (50, 99)
        assert frame_span(0.0, 0.02, 0.02) == (0, 0)


class TestSegmentize:
    def test_single_active_frame_marks_segment(self, vocab):
        ref = rasterize([EventRecord("dog", 0.0, 0.02, Direction(0, 0))], 0.02, 50)
        pred = densify([], 50)
        views = segmentize(pred, ref, 1.0, 0.02)
        assert len(views) == 1
        assert views[0].classes["dog"].ref_active
        assert not views[0].classes["dog"].pred_active

    def test_absent_class_inactive(self, vocab):
        views = segmentize(densify([], 50), densify([], 50), 1.0, 0.02)
        assert views[0].classes == {}

    def test_simultaneous_same_class_max_count(self, vocab):
        events = [
            EventRecord("dog", 0.0, 0.5, Direction(30, 0)),
            EventRecord("dog", 0.1, 0.4, Direction(-30, 0)),
        ]
        ref = rasterize(events, 0.02, 50)
        views = segmentize(densify([], 50), ref, 1.0, 0.02)
        assert views[0].classes["dog"].ref_max == 2

    def test_partial_trailing_segment(self, vocab):
        views = segmentize(densify([], 75), densify([], 75), 1.0, 0.02)
        assert len(views) == 2

    def test_non_multiple_segment_rejected(self):
        with pytest.raises(ConfigError):
            frames_per_segment(1.0, 0.03)

    def test_pair_evidence_accumulated(self, vocab):
        ref = rasterize([EventRecord("dog", 0.0, 1.0, Direction(10, 0))], 0.02, 50)
        pred = rasterize([EventRecord("dog", 0.0, 1.0, Direction(16, 0))], 0.02, 50)
        views = segmentize(pred, ref, 1.0, 0.02)
        stats = views[0].classes["dog"]
        assert stats.pair_count == 50
        assert stats.pair_dist_sum / stats.pair_count == pytest.approx(6.0, abs=1e-9)
