"""The TSN analyzer's statistics."""

import math

import pytest

from repro.core.errors import SimulationError
from repro.core.units import ms
from repro.network.analyzer import LatencySummary, TsnAnalyzer
from repro.obs.flowspans import FlowSpanRecorder, flow_stats
from repro.obs.slo import SloMonitor, SloPolicy
from repro.sim.kernel import Simulator
from repro.switch.packet import EthernetFrame, make_mac
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass


def _flows():
    return FlowSet(
        [
            FlowSpec(0, TrafficClass.TS, "t", "l", 64, period_ns=ms(10),
                     deadline_ns=1_000_000),
            FlowSpec(1, TrafficClass.TS, "t", "l", 64, period_ns=ms(10)),
            FlowSpec(2, TrafficClass.BE, "t", "l", 1024, rate_bps=10**6),
        ]
    )


def _frame(flow_id, seq, created_ns):
    return EthernetFrame(make_mac(1), make_mac(2), 1, 7, 64,
                         flow_id=flow_id, seq=seq, created_ns=created_ns)


def _arrive(sim, analyzer, flow_id, seq, created, arrival):
    sim.schedule_at(arrival, lambda: analyzer.record(_frame(flow_id, seq, created)))


class TestLatencySummary:
    def test_basic_stats(self):
        summary = LatencySummary.of([100, 200, 300])
        assert summary.count == 3
        assert summary.min_ns == 100 and summary.max_ns == 300
        assert summary.mean_ns == 200
        assert summary.jitter_ns == pytest.approx(math.sqrt(2 / 3) * 100)

    def test_p99(self):
        values = list(range(1, 101))
        assert LatencySummary.of(values).p99_ns == 99

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            LatencySummary.of([])


class TestAnalyzer:
    def test_latency_recorded_per_flow(self):
        sim = Simulator()
        analyzer = TsnAnalyzer(sim, _flows())
        _arrive(sim, analyzer, 0, 0, created=100, arrival=600)
        _arrive(sim, analyzer, 0, 1, created=10_100, arrival=10_700)
        sim.run()
        record = analyzer.records[0]
        assert record.latencies_ns == [500, 600]

    def test_unknown_flow_counted(self):
        sim = Simulator()
        analyzer = TsnAnalyzer(sim, _flows())
        analyzer.record(_frame(999, 0, 0))
        assert analyzer.unknown_frames == 1

    def test_missing_timestamp_rejected(self):
        sim = Simulator()
        analyzer = TsnAnalyzer(sim, _flows())
        with pytest.raises(SimulationError):
            analyzer.record(_frame(0, 0, created_ns=-1))

    def test_class_summary(self):
        sim = Simulator()
        analyzer = TsnAnalyzer(sim, _flows())
        _arrive(sim, analyzer, 0, 0, 0, 500)
        _arrive(sim, analyzer, 1, 0, 0, 700)
        sim.run()
        summary = analyzer.class_summary(TrafficClass.TS)
        assert summary.count == 2 and summary.mean_ns == 600

    def test_deadline_misses(self):
        sim = Simulator()
        analyzer = TsnAnalyzer(sim, _flows())
        _arrive(sim, analyzer, 0, 0, 0, 2_000_000)  # > 1 ms deadline
        _arrive(sim, analyzer, 0, 1, ms(10), ms(10) + 500)
        sim.run()
        assert analyzer.deadline_misses(TrafficClass.TS) == 1

    def test_loss_rate(self):
        sim = Simulator()
        analyzer = TsnAnalyzer(sim, _flows())
        _arrive(sim, analyzer, 0, 0, 0, 500)
        sim.run()
        expected = {0: 2, 1: 2}
        assert analyzer.loss_rate(expected, TrafficClass.TS) == 0.75

    def test_loss_rate_zero_expected(self):
        sim = Simulator()
        analyzer = TsnAnalyzer(sim, _flows())
        assert analyzer.loss_rate({}, TrafficClass.TS) == 0.0

    def test_duplicates_and_reorders(self):
        sim = Simulator()
        analyzer = TsnAnalyzer(sim, _flows())
        for seq, t in [(0, 100), (1, 200), (1, 300), (0, 400)]:
            _arrive(sim, analyzer, 0, seq, 0, t)
        sim.run()
        record = analyzer.records[0]
        # Both late arrivals repeat a seq already received.
        assert record.duplicates == 2
        assert record.reorders == 0
        assert record.received == 2 and record.latencies_ns == [100, 200]

    def test_a_skipped_seq_arriving_late_is_a_reorder(self):
        sim = Simulator()
        analyzer = TsnAnalyzer(sim, _flows())
        for seq, t in [(0, 100), (3, 200), (1, 300), (2, 400), (1, 500)]:
            _arrive(sim, analyzer, 0, seq, 0, t)
        sim.run()
        record = analyzer.records[0]
        assert record.reorders == 2 and record.duplicates == 1
        assert record.received == 4

    def test_per_flow_jitter_near_zero_for_constant_latency(self):
        sim = Simulator()
        analyzer = TsnAnalyzer(sim, _flows())
        for k in range(4):
            _arrive(sim, analyzer, 0, k, k * ms(10), k * ms(10) + 500)
        sim.run()
        summary = LatencySummary.of(analyzer.records[0].latencies_ns)
        assert summary.jitter_ns == 0.0


def test_analyzer_monitor_and_span_reader_agree_on_a_duplicate():
    """Seqs 0, 1, 0 of 3 expected: every reader counts 2 received, 1
    duplicate, 0 reorders and 1 lost."""
    sim = Simulator()
    analyzer = TsnAnalyzer(sim, _flows())
    monitor = SloMonitor(SloPolicy(), analyzer)
    spans = FlowSpanRecorder()
    for frame_id, seq in enumerate((0, 1, 0)):
        frame = EthernetFrame(make_mac(1), make_mac(2), 1, 7, 64, flow_id=0,
                              seq=seq, created_ns=frame_id * 100,
                              frame_id=frame_id)
        spans.record(frame.created_ns, "gen", "flow0", frame)

        def arrive(frame=frame):
            spans.record(sim.now, "rx", "listener", frame)
            analyzer.record(frame)

        sim.schedule_at(frame.created_ns + 50, arrive)
    sim.run()
    expected = {0: 3}
    record = analyzer.records[0]
    assert (record.received, record.duplicates, record.reorders) == (2, 1, 0)
    assert analyzer.loss_rate(expected, TrafficClass.TS) == pytest.approx(
        1 / 3
    )
    verdict = monitor.report(expected).verdicts[0]
    assert (verdict.received, verdict.duplicates, verdict.lost) == (2, 1, 1)
    stats = flow_stats(spans.journeys(), expected)[0]
    assert (stats.delivered, stats.duplicates, stats.lost) == (2, 1, 1)
