"""SLO spec parsing, policy resolution, and monitor verdicts."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.units import ms
from repro.network.analyzer import TsnAnalyzer
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloMonitor, SloPolicy, SloSpec
from repro.sim.kernel import Simulator
from repro.switch.packet import EthernetFrame, make_mac
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass


def _flow(flow_id=0, traffic_class=TrafficClass.TS, deadline_ns=None):
    return FlowSpec(
        flow_id=flow_id,
        traffic_class=traffic_class,
        src="talker0",
        dst="listener",
        size_bytes=64,
        period_ns=ms(10) if traffic_class is TrafficClass.TS else None,
        rate_bps=None if traffic_class is TrafficClass.TS else 1_000_000,
        deadline_ns=deadline_ns,
    )


class TestSpec:
    def test_us_keys_scale_to_ns(self):
        spec = SloSpec.from_dict({"latency_us": 500, "jitter_us": 1.5})
        assert spec.latency_ns == 500_000
        assert spec.jitter_ns == 1_500

    def test_ns_and_us_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            SloSpec.from_dict({"latency_us": 1, "latency_ns": 1000})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            SloSpec.from_dict({"latencyus": 1})

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            SloSpec(latency_ns=0)
        with pytest.raises(ConfigurationError):
            SloSpec(max_loss=1.5)

    def test_merge_layers_field_by_field(self):
        base = SloSpec(latency_ns=100, jitter_ns=50)
        over = SloSpec(latency_ns=10, allow_duplicates=False)
        merged = over.merged_over(base)
        assert merged.latency_ns == 10          # override wins
        assert merged.jitter_ns == 50           # base fills the gap
        assert merged.allow_duplicates is False


class TestPolicy:
    def test_resolution_precedence(self):
        policy = SloPolicy.from_dict(
            {
                "default": {"max_loss": 0.0},
                "class": {"TS": {"latency_us": 500}},
                "flows": {"7": {"latency_us": 50}},
            }
        )
        plain = policy.resolve(_flow(1))
        tight = policy.resolve(_flow(7))
        assert plain.latency_ns == 500_000 and plain.max_loss == 0.0
        assert tight.latency_ns == 50_000 and tight.max_loss == 0.0

    def test_flow_definition_deadline_is_the_bottom_layer(self):
        policy = SloPolicy()
        spec = policy.resolve(_flow(0, deadline_ns=123_000))
        assert spec.deadline_ns == 123_000
        assert not spec.is_empty

    def test_policy_deadline_overrides_flow_definition(self):
        policy = SloPolicy.from_dict(
            {"class": {"TS": {"deadline_us": 1}}}
        )
        spec = policy.resolve(_flow(0, deadline_ns=999_000))
        assert spec.deadline_ns == 1_000

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            SloPolicy.from_dict({"class": {"XX": {}}})


class _Monitored:
    """An analyzer with a monitor attached; arrivals go through the
    analyzer's ``record`` hook, as in a run."""

    def __init__(self, policy, flows=None, metrics=None):
        self.sim = Simulator()
        self.analyzer = TsnAnalyzer(self.sim, FlowSet(flows or [_flow(0)]))
        self.monitor = SloMonitor(policy, self.analyzer, metrics=metrics)

    def observe(self, flow_id, seq, latency_ns, now_ns):
        frame = EthernetFrame(make_mac(1), make_mac(2), 1, 7, 64,
                              flow_id=flow_id, seq=seq,
                              created_ns=now_ns - latency_ns)
        self.sim.schedule_at(now_ns, lambda: self.analyzer.record(frame))
        self.sim.run()

    def report(self, expected_by_flow, end_ns=0):
        return self.monitor.report(expected_by_flow, end_ns=end_ns)


class TestMonitor:
    def test_latency_violation_recorded(self):
        monitor = _Monitored(SloPolicy(default=SloSpec(latency_ns=100)))
        monitor.observe(0, seq=0, latency_ns=99, now_ns=99)
        monitor.observe(0, seq=1, latency_ns=150, now_ns=250)
        report = monitor.report({0: 2})
        verdict = report.verdicts[0]
        assert not verdict.passed and verdict.failures == ("latency",)
        [violation] = verdict.violations
        assert violation.seq == 1 and violation.observed == 150

    def test_max_latency_watermark(self):
        monitor = _Monitored(SloPolicy(default=SloSpec(latency_ns=1000)))
        for seq, latency in enumerate((10, 400, 200)):
            monitor.observe(0, seq=seq, latency_ns=latency,
                            now_ns=1000 * seq + latency)
        verdict = monitor.report({0: 3}).verdicts[0]
        assert verdict.passed
        assert verdict.max_latency_ns == 400

    def test_jitter_checked_at_report_time(self):
        monitor = _Monitored(SloPolicy(default=SloSpec(jitter_ns=10)))
        monitor.observe(0, seq=0, latency_ns=100, now_ns=100)
        monitor.observe(0, seq=1, latency_ns=300, now_ns=300)
        report = monitor.report({0: 2}, end_ns=1000)
        verdict = report.verdicts[0]
        assert verdict.failures == ("jitter",)
        assert verdict.jitter_ns == pytest.approx(100.0)
        assert verdict.violations[0].time_ns == 1000

    def test_loss_budget(self):
        monitor = _Monitored(
            SloPolicy(default=SloSpec(max_loss=0.4))
        )
        monitor.observe(0, seq=0, latency_ns=1, now_ns=1)
        # 1 of 3 delivered: 66% loss > 40% budget.
        report = monitor.report({0: 3})
        assert report.verdicts[0].failures == ("loss",)
        assert report.verdicts[0].lost == 2

    def test_duplicates_tolerated_by_default_but_not_redelivered(self):
        monitor = _Monitored(SloPolicy(default=SloSpec(max_loss=0.0)))
        monitor.observe(0, seq=0, latency_ns=1, now_ns=1)
        monitor.observe(0, seq=0, latency_ns=2, now_ns=2)
        verdict = monitor.report({0: 1}).verdicts[0]
        assert verdict.passed
        assert verdict.received == 1 and verdict.duplicates == 1

    def test_duplicate_violation_when_disallowed(self):
        monitor = _Monitored(
            SloPolicy(default=SloSpec(allow_duplicates=False))
        )
        monitor.observe(0, seq=0, latency_ns=1, now_ns=1)
        monitor.observe(0, seq=0, latency_ns=2, now_ns=2)
        verdict = monitor.report({0: 1}).verdicts[0]
        assert verdict.failures == ("duplicate",)

    def test_deadline_misses_counted(self):
        flow = _flow(0, deadline_ns=100)
        monitor = _Monitored(SloPolicy(), flows=[flow])
        monitor.observe(0, seq=0, latency_ns=150, now_ns=150)
        verdict = monitor.report({0: 1}).verdicts[0]
        assert verdict.deadline_misses == 1
        assert verdict.failures == ("deadline",)

    def test_unknown_flow_ignored(self):
        monitor = _Monitored(SloPolicy(default=SloSpec(latency_ns=1)))
        monitor.observe(999, seq=0, latency_ns=100, now_ns=100)
        assert 999 not in monitor.report({}).verdicts

    def test_violations_mirror_into_registry(self):
        registry = MetricsRegistry()
        monitor = _Monitored(
            SloPolicy(default=SloSpec(latency_ns=10)), metrics=registry
        )
        monitor.observe(0, seq=0, latency_ns=100, now_ns=100)
        counter = registry.counter("slo_violations_total")
        assert counter.value(flow=0, kind="latency") == 1

    def test_report_is_a_read(self):
        """A second report lists no violation twice and counts none
        again."""
        registry = MetricsRegistry()
        monitor = _Monitored(
            SloPolicy(default=SloSpec(max_loss=0.0, jitter_ns=1)),
            metrics=registry,
        )
        first = monitor.report({0: 1}, end_ns=10)
        assert [v.kind for v in first.verdicts[0].violations] == ["loss"]
        assert monitor.report({0: 1}, end_ns=10) == first
        counter = registry.counter("slo_violations_total")
        assert counter.value(flow=0, kind="loss") == 1

    def test_report_shape_round_trips_to_json(self):
        monitor = _Monitored(SloPolicy(default=SloSpec(latency_ns=10)))
        monitor.observe(0, seq=0, latency_ns=100, now_ns=100)
        report = monitor.report({0: 1})
        data = report.as_dict()
        assert data["passed"] is False
        assert data["failed_flows"] == [0]
        assert data["flows"]["0"]["failures"] == ["latency"]

    def test_empty_policy_unmonitored_flow_passes(self):
        monitor = _Monitored(SloPolicy())
        monitor.observe(0, seq=0, latency_ns=10**9, now_ns=10**9)
        report = monitor.report({0: 1})
        assert report.passed
        assert report.monitored == 0
