"""MSRP-style RC stream admission."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.units import mbps
from repro.network.admission import admit_flows
from repro.network.topology import ring_topology, star_topology
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass


def _rc(flow_id, rate, src="talker0", dst="listener"):
    return FlowSpec(flow_id, TrafficClass.RC, src, dst, 1024, rate_bps=rate)


def _topo(hops=3):
    return ring_topology(hops, talkers=["talker0"])


class TestAdmission:
    def test_within_budget_admitted(self):
        # budget/port = 0.75 * 0.5 * 1G = 375 Mbps
        flows = FlowSet([_rc(1, mbps(100)), _rc(2, mbps(100))])
        report = admit_flows(_topo(), flows)
        assert len(report.admitted) == 2 and not report.rejected

    def test_oversubscription_rejected_in_order(self):
        flows = FlowSet([_rc(1, mbps(200)), _rc(2, mbps(200)),
                         _rc(3, mbps(200))])
        report = admit_flows(_topo(), flows)
        assert [v.flow_id for v in report.admitted] == [1]
        assert [v.flow_id for v in report.rejected] == [2, 3]

    def test_rejection_names_hop_and_shortfall(self):
        flows = FlowSet([_rc(1, mbps(300)), _rc(2, mbps(300))])
        report = admit_flows(_topo(), flows)
        verdict = report.verdict(2)
        assert not verdict.admitted
        assert verdict.rejecting_hop == ("sw0", 0)
        assert verdict.shortfall_bps == mbps(600) - mbps(375)

    def test_rejected_flow_leaves_no_reservation(self):
        flows = FlowSet([_rc(1, mbps(300)), _rc(2, mbps(300)),
                         _rc(3, mbps(50))])
        report = admit_flows(_topo(), flows)
        # flow 2 rejected; flow 3 still fits in the remainder
        assert report.verdict(3).admitted
        assert report.port_reserved_bps[("sw0", 0)] == mbps(350)
        assert report.port_budget_bps[("sw0", 0)] == mbps(375)

    def test_disjoint_paths_do_not_compete(self):
        """Star: two talkers on different leaves only share the core->leaf
        downlink, so each uplink carries only its own flow."""
        topo = star_topology(talkers=("talker0", "talker1"))
        flows = FlowSet([
            _rc(1, mbps(300), src="talker0"),
            _rc(2, mbps(300), src="talker1"),
        ])
        report = admit_flows(topo, flows)
        # the shared final hop (core -> listener leaf -> listener) carries
        # 600 Mbps > 375 budget: the second flow must be rejected there
        assert report.verdict(1).admitted
        assert not report.verdict(2).admitted
        assert report.verdict(2).rejecting_hop[0] == "core"

    def test_reservation_margin(self):
        flows = FlowSet([_rc(1, mbps(200))])
        report = admit_flows(_topo(), flows, reservation_margin=1.5)
        assert report.verdict(1).reserved_bps == mbps(300)

    def test_ts_share_shrinks_budget(self):
        flows = FlowSet([_rc(1, mbps(300))])
        tight = admit_flows(_topo(), flows, ts_utilization=0.7)
        # 0.75 * 0.3 * 1G = 225 Mbps < 300
        assert not tight.verdict(1).admitted

    def test_non_rc_flows_ignored(self):
        flows = FlowSet([
            FlowSpec(1, TrafficClass.TS, "talker0", "listener", 64,
                     period_ns=10_000_000),
            FlowSpec(2, TrafficClass.BE, "talker0", "listener", 1024,
                     rate_bps=mbps(900)),
        ])
        report = admit_flows(_topo(), flows)
        assert report.verdicts == []

    @pytest.mark.parametrize("kwargs", [
        {"rc_limit": 0.0}, {"rc_limit": 1.5},
        {"ts_utilization": 1.0}, {"reservation_margin": 0.5},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            admit_flows(_topo(), FlowSet(), **kwargs)

    def test_admitted_set_runs_clean_in_simulation(self):
        """Admission's promise: the accepted flows really fit."""
        from repro.core.presets import customized_config
        from repro.core.units import ms
        from repro.network.testbed import RunPlan, Testbed
        from repro.traffic.iec60802 import production_cell_flows

        rc_requests = FlowSet([_rc(900_000 + i, mbps(150), src="talker0")
                               for i in range(4)])
        report = admit_flows(_topo(), rc_requests)
        assert len(report.admitted) == 2  # 2 x 150 fits the 375 budget
        flows = production_cell_flows(["talker0"], "listener", flow_count=16)
        for verdict in report.admitted:
            original = rc_requests[verdict.flow_id]
            flows.add(original)
        result = Testbed(RunPlan(_topo(), customized_config(1), flows,
                                 slot_ns=62_500)).run(duration_ns=ms(20))
        assert result.ts_loss == 0.0
        assert result.loss_rate(TrafficClass.RC) == 0.0
