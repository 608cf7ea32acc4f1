"""Frame-journey recording and reconstruction."""

import pytest

from repro.core.errors import ConfigurationError
from repro.obs.flowspans import (
    FlowSpanRecorder,
    FrameJourney,
    HopEvent,
    flow_stats,
)


class _Frame:
    """Minimal stand-in carrying the three identity fields."""

    def __init__(self, frame_id, flow_id=0, seq=0):
        self.frame_id = frame_id
        self.flow_id = flow_id
        self.seq = seq


def _journey(events, flow_id=0, seq=0, frame_id=0):
    journey = FrameJourney(frame_id, flow_id, seq)
    journey.events = [HopEvent(*e) for e in events]
    return journey


class TestRecorder:
    def test_events_grouped_per_frame(self):
        recorder = FlowSpanRecorder()
        a, b = _Frame(1, flow_id=0, seq=0), _Frame(2, flow_id=0, seq=1)
        recorder.record(0, "gen", "flow0", a)
        recorder.record(5, "gen", "flow0", b)
        recorder.record(10, "rx", "listener", a)
        recorder.record(15, "rx", "listener", b)
        journeys = recorder.journeys()
        assert [j.seq for j in journeys] == [0, 1]
        assert [e.kind for e in journeys[0].events] == ["gen", "rx"]

    def test_journeys_sorted_by_flow_then_seq(self):
        recorder = FlowSpanRecorder()
        recorder.record(0, "gen", "f", _Frame(10, flow_id=3, seq=0))
        recorder.record(1, "gen", "f", _Frame(11, flow_id=1, seq=1))
        recorder.record(2, "gen", "f", _Frame(12, flow_id=1, seq=0))
        ordering = [(j.flow_id, j.seq) for j in recorder.journeys()]
        assert ordering == [(1, 0), (1, 1), (3, 0)]

    def test_event_order_within_journey_is_recording_order(self):
        recorder = FlowSpanRecorder()
        frame = _Frame(1)
        for time_ns, kind in [(0, "gen"), (2, "inject"), (7, "enqueue"),
                              (9, "dequeue"), (12, "tx"), (20, "rx")]:
            recorder.record(time_ns, kind, "n", frame)
        [journey] = recorder.journeys()
        assert [e.time_ns for e in journey.events] == [0, 2, 7, 9, 12, 20]

    def test_cap_counts_dropped_events(self):
        recorder = FlowSpanRecorder(max_events=3)
        frame = _Frame(1)
        for i in range(5):
            recorder.record(i, "gen", "n", frame)
        assert len(recorder) == 3
        assert recorder.dropped_events == 2

    def test_zero_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowSpanRecorder(max_events=0)

    def test_hop_records_rebuild_port_events_and_fold_switch_ingress(self):
        recorder = FlowSpanRecorder()
        recorder.add_switch_port("sw0.p1", "sw0", 480)
        frame = _Frame(1, flow_id=2, seq=3)
        recorder.record(0, "gen", "flow2", frame)
        recorder.record(0, "inject", "talker0", frame)
        recorder.hop((600, "talker0.nic", 1, 2, 3, 7, 0, 88))
        recorder.hop((2_000, "sw0.p1", 1, 2, 3, 6, 1_100, 1_400))
        recorder.record(2_050, "rx", "listener", frame)
        [journey] = recorder.journeys()
        assert [(e.time_ns, e.kind, e.node, e.detail)
                for e in journey.events] == [
            (0, "gen", "flow2", -1),
            (0, "inject", "talker0", -1),
            (0, "enqueue", "talker0.nic", 7),
            (88, "dequeue", "talker0.nic", 7),
            (600, "tx", "talker0.nic", 7),
            (620, "ingress", "sw0", -1),
            (1_100, "enqueue", "sw0.p1", 6),
            (1_400, "dequeue", "sw0.p1", 6),
            (2_000, "tx", "sw0.p1", 6),
            (2_050, "rx", "listener", -1),
        ]
        assert len(recorder) == len(recorder.events) == 10

    def test_same_instant_events_keep_path_order(self):
        # Zero propagation and processing delay: tx, the next ingress, its
        # enqueue and dequeue share an instant.
        recorder = FlowSpanRecorder()
        recorder.add_switch_port("sw0.p0", "sw0", 0)
        recorder.hop((562, "sw0.p0", 1, 0, 0, 7, 50, 50))
        recorder.hop((50, "h.nic", 1, 0, 0, 7, 0, 0))
        recorder.record(562, "rx", "listener", _Frame(1))
        assert [kind for _, kind, *_ in recorder.events] == [
            "enqueue", "dequeue", "tx", "ingress", "enqueue", "dequeue",
            "tx", "rx",
        ]

    def test_held_hop_records_yield_the_instants_reached(self):
        recorder = FlowSpanRecorder()
        recorder.add_switch_port("sw0.p0", "sw0", 480)
        recorder.hold((-1, "sw0.p0", 1, 0, 0, 7, 980, -1))  # still queued
        recorder.hold((-1, "sw0.p0", 2, 0, 1, 7, 990, 1_000))  # on the wire
        assert len(recorder) == 5
        queued, on_wire = recorder.journeys()
        assert [e.kind for e in queued.events] == ["ingress", "enqueue"]
        assert [e.kind for e in on_wire.events] == [
            "ingress", "enqueue", "dequeue",
        ]
        [span] = on_wire.hop_spans()
        assert span.arrived_ns == 510 and span.tx_ns is None

    def test_cap_sheds_a_hop_record_whole(self):
        recorder = FlowSpanRecorder(max_events=5)
        recorder.add_switch_port("sw0.p0", "sw0", 480)
        frame = _Frame(1)
        recorder.record(0, "gen", "n", frame)
        recorder.record(0, "inject", "n", frame)
        recorder.hop((900, "sw0.p0", 1, 0, 0, 7, 500, 500))  # 4 events
        assert len(recorder) == 2 and recorder.dropped_events == 4
        recorder.hop((600, "n.nic", 1, 0, 0, 7, 0, 0))  # 3 events: fit
        recorder.record(950, "rx", "l", frame)
        assert len(recorder) == 5 and recorder.dropped_events == 5
        assert len(recorder.events) == 5

    def test_unfolded_frames_keep_their_recorded_ingress(self):
        recorder = FlowSpanRecorder()
        recorder.add_switch_port("sw0.p0", "sw0", 480)
        recorder.add_switch_port("sw0.p1", "sw0", 480)
        frame = _Frame(1)
        recorder.ingress(20, "sw0", frame, ["sw0.p0", "sw0.p1"])
        recorder.hop((900, "sw0.p0", 1, 0, 0, 7, 500, 500))
        recorder.hold((-1, "sw0.p1", 1, 0, 0, 7, 500, -1))
        assert len(recorder) == 1 + 3 + 1
        [journey] = recorder.journeys()
        assert [(e.kind, e.node) for e in journey.events] == [
            ("ingress", "sw0"), ("enqueue", "sw0.p0"), ("dequeue", "sw0.p0"),
            ("enqueue", "sw0.p1"), ("tx", "sw0.p0"),
        ]

    def test_frer_replicas_stay_distinct_journeys(self):
        # Same (flow, seq), different frames: two member streams.
        recorder = FlowSpanRecorder()
        recorder.record(0, "gen", "f", _Frame(1, flow_id=0, seq=0))
        recorder.record(0, "gen", "f", _Frame(2, flow_id=0, seq=0))
        assert len(recorder.journeys()) == 2


class TestJourney:
    def test_delivered_and_end_to_end(self):
        journey = _journey([(5, "gen", "f"), (105, "rx", "listener")])
        assert journey.delivered and not journey.dropped
        assert journey.end_to_end_ns == 100

    def test_dropped_journey_names_the_node(self):
        journey = _journey(
            [(0, "gen", "f"), (3, "ingress", "sw0"), (3, "drop", "sw0")]
        )
        assert journey.dropped and not journey.delivered
        assert [e.node for e in journey.events if e.kind == "drop"] == ["sw0"]
        assert journey.end_to_end_ns is None

    def test_hop_span_reconstruction(self):
        recorder = FlowSpanRecorder()
        recorder.add_switch_port("sw0.p1", "sw0", 2)
        frame = _Frame(0)
        recorder.record(0, "gen", "flow0", frame)
        recorder.record(1, "inject", "talker0", frame)
        recorder.hop((5, "talker0.nic", 0, 0, 0, 7, 2, 3))
        recorder.hop((75, "sw0.p1", 0, 0, 0, 6, 8, 70))
        recorder.record(80, "rx", "listener", frame)
        [journey] = recorder.journeys()
        nic, hop = journey.hop_spans()
        assert nic.node == "talker0.nic" and nic.arrived_ns is None
        assert nic.gate_wait_ns == 1 and nic.residence_ns == 3
        assert hop.node == "sw0.p1" and hop.queue_id == 6
        assert hop.arrived_ns == 6
        assert hop.gate_wait_ns == 62 and hop.residence_ns == 67

    def test_partial_hop_closed_without_tx(self):
        recorder = FlowSpanRecorder()
        recorder.add_switch_port("sw0.p0", "sw0", 0)
        recorder.hold((-1, "sw0.p0", 0, 0, 0, 7, 0, 4))
        [journey] = recorder.journeys()
        [span] = journey.hop_spans()
        assert span.dequeued_ns == 4 and span.tx_ns is None
        assert span.residence_ns is None


class TestFlowStats:
    def test_interior_sequence_gap_is_loss(self):
        journeys = [
            _journey([(0, "gen", "f"), (9, "rx", "l")], seq=s, frame_id=s)
            for s in (0, 2, 3)
        ]
        stats = flow_stats(journeys)
        assert stats[0].missing_seqs == (1,)
        assert stats[0].lost == 1
        assert stats[0].delivered == 3

    def test_expected_counts_extend_the_horizon(self):
        journeys = [
            _journey([(0, "gen", "f"), (9, "rx", "l")], seq=0, frame_id=0)
        ]
        stats = flow_stats(journeys, expected_by_flow={0: 3})
        assert stats[0].missing_seqs == (1, 2)

    def test_duplicate_seq_counted_not_double_delivered(self):
        journeys = [
            _journey([(0, "gen", "f"), (9, "rx", "l")], seq=0, frame_id=0),
            _journey([(0, "gen", "f"), (9, "rx", "l")], seq=0, frame_id=1),
        ]
        stats = flow_stats(journeys)
        assert stats[0].delivered == 1
        assert stats[0].duplicates == 1

    def test_in_flight_neither_lost_nor_delivered(self):
        journeys = [
            _journey([(0, "gen", "f"), (2, "enqueue", "n", 7)],
                     seq=0, frame_id=0)
        ]
        stats = flow_stats(journeys)
        assert stats[0].in_flight == 1 and stats[0].delivered == 0

    def test_every_undelivered_seq_is_lost_past_the_listing_cap(self):
        journeys = [
            _journey([(0, "gen", "f"), (2, "enqueue", "n", 7)],
                     seq=s, frame_id=s)
            for s in range(300)
        ]
        [stats] = flow_stats(journeys, expected_by_flow={0: 300}).values()
        assert stats.lost == 300 and stats.in_flight == 300
        assert stats.dropped == 0 and len(stats.missing_seqs) == 256

    def test_latency_watermarks(self):
        journeys = [
            _journey([(0, "gen", "f"), (100, "rx", "l")], seq=0, frame_id=0),
            _journey([(0, "gen", "f"), (300, "rx", "l")], seq=1, frame_id=1),
        ]
        stats = flow_stats(journeys)
        assert stats[0].max_end_to_end_ns == 300
        assert stats[0].mean_end_to_end_ns == 200.0
