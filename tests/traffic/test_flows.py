"""Flow specs and flow sets."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.units import ms, mbps
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass


def _ts(flow_id=0, **kwargs):
    defaults = dict(
        flow_id=flow_id, traffic_class=TrafficClass.TS, src="t", dst="l",
        size_bytes=64, period_ns=ms(10),
    )
    defaults.update(kwargs)
    return FlowSpec(**defaults)


def _be(flow_id=0, **kwargs):
    defaults = dict(
        flow_id=flow_id, traffic_class=TrafficClass.BE, src="t", dst="l",
        size_bytes=1024, rate_bps=mbps(100),
    )
    defaults.update(kwargs)
    return FlowSpec(**defaults)


class TestFlowSpec:
    def test_ts_requires_period(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(0, TrafficClass.TS, "t", "l", 64)

    def test_rc_requires_rate(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(0, TrafficClass.RC, "t", "l", 64)

    def test_undersized_frame_rejected(self):
        with pytest.raises(ConfigurationError):
            _ts(size_bytes=32)

    def test_bad_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            _ts(deadline_ns=0)

    def test_bad_pcp_rejected(self):
        with pytest.raises(ConfigurationError):
            _ts(pcp=9)

    def test_default_pcps(self):
        assert _ts().effective_pcp == 7
        assert _be().effective_pcp == 0
        rc = FlowSpec(0, TrafficClass.RC, "t", "l", 1024, rate_bps=mbps(10))
        assert rc.effective_pcp == 5

    def test_pcp_override(self):
        assert _ts(pcp=6).effective_pcp == 6

    def test_ts_rate_derived_from_period(self):
        # 64B every 10ms = 51200 bps
        assert _ts().effective_rate_bps == 51_200

    def test_be_gap_derived_from_rate(self):
        # 1024B at 100 Mbps -> 81.92 us between frames
        assert _be().inter_frame_ns == 81_920

    def test_with_updates(self):
        assert _ts().with_updates(size_bytes=128).size_bytes == 128


class TestFlowSet:
    def _set(self):
        return FlowSet([_ts(0), _ts(1, period_ns=ms(5)), _be(2)])

    def test_duplicate_id_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowSet([_ts(0), _be(0)])

    def test_len_iter_getitem(self):
        flows = self._set()
        assert len(flows) == 3
        assert flows[1].period_ns == ms(5)
        assert [f.flow_id for f in flows] == [0, 1, 2]

    def test_by_class(self):
        flows = self._set()
        assert len(flows.ts_flows) == 2
        assert len(flows.by_class(TrafficClass.BE)) == 1
        assert flows.rc_flows == []

    def test_ts_periods(self):
        assert sorted(self._set().ts_periods()) == [ms(5), ms(10)]

    def test_endpoints(self):
        srcs, dsts = self._set().endpoints()
        assert srcs == ["t"] and dsts == ["l"]
