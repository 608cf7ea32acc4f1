"""Pre-flight deployment checks: ``check_deployment(RunPlan(...))``."""

import pytest

from repro.core.presets import customized_config, ring_config
from repro.core.units import ms
from repro.cqf.gating import MULTI_CQF
from repro.network.program import Severity, check_deployment
from repro.network.testbed import RunPlan
from repro.network.topology import ring_topology
from repro.sched import plan_flows
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass
from repro.traffic.iec60802 import background_flows, production_cell_flows

SLOT = 62_500


def _flows(count=64, deadline_ns=None, rc=0, be=0):
    flows = production_cell_flows(["t0"], "listener", flow_count=count)
    if deadline_ns is not None:
        rebuilt = FlowSet()
        for flow in flows:
            rebuilt.add(flow.with_updates(deadline_ns=deadline_ns))
        flows = rebuilt
    if rc or be:
        for flow in background_flows(["t0"], "listener", rc, be):
            flows.add(flow)
    return flows


def _topo(hops=3):
    return ring_topology(hops, talkers=["t0"])


def _check(config, topology, flows, slot_ns=SLOT, **knobs):
    return check_deployment(
        RunPlan(topology, config, flows, slot_ns=slot_ns, **knobs)
    )


def _errors(violations):
    return [v for v in violations if v.severity is Severity.ERROR]


class TestCleanDeployments:
    def test_paper_configuration_is_clean(self):
        violations = _check(
            customized_config(1, flow_count=64), _topo(), _flows(), SLOT
        )
        assert _errors(violations) == []

    def test_derived_configuration_is_clean(self):
        from repro.core.sizing import derive_config

        flows = _flows(count=256)
        result = derive_config(_topo(), flows, SLOT)
        assert _errors(
            _check(result.config, _topo(), flows, SLOT)
        ) == []


class TestTableChecks:
    def test_undersized_classification_flagged(self):
        config = customized_config(1, flow_count=32)
        violations = _check(config, _topo(), _flows(64), SLOT)
        assert any(v.subject == "class_tbl" for v in _errors(violations))

    def test_aggregation_relaxes_unicast_requirement(self):
        config = customized_config(1, flow_count=64).with_updates(
            unicast_size=1
        )
        plain = _check(config, _topo(), _flows(), SLOT)
        aggregated = _check(
            config, _topo(), _flows(), SLOT, aggregate_routes=True
        )
        assert any(v.subject == "unicast_tbl" for v in _errors(plain))
        assert not any(
            v.subject == "unicast_tbl" for v in _errors(aggregated)
        )

    def test_small_meter_table_warns_only(self):
        config = customized_config(1, flow_count=64).with_updates(
            meter_size=8
        )
        violations = _check(config, _topo(), _flows(), SLOT)
        meter = [v for v in violations if v.subject == "meter_tbl"]
        assert meter and meter[0].severity is Severity.WARNING


class TestCapacityChecks:
    def test_port_num_below_the_topology_is_not_flagged(self):
        # Each switch is synthesized with its own port count; a config's
        # port_num does not bound the topology.
        config = customized_config(1, flow_count=64)
        from repro.network.topology import star_topology

        topo = star_topology(talkers=("t0",))
        assert _errors(_check(config, topo, _flows(), SLOT)) == []

    def test_queue_depth_below_itp_bound_flagged(self):
        config = customized_config(1, flow_count=640).with_updates(
            queue_depth=2, buffer_num=96
        )
        violations = _check(config, _topo(), _flows(640), SLOT)
        assert any(v.subject == "queue_depth" for v in _errors(violations))

    def test_exact_depth_warns(self):
        # 640 flows / 160 slots = 4 per slot
        config = customized_config(1, flow_count=640).with_updates(
            queue_depth=4, buffer_num=96
        )
        violations = _check(config, _topo(), _flows(640), SLOT)
        depth = [v for v in violations if v.subject == "queue_depth"]
        assert depth and depth[0].severity is Severity.WARNING

    def test_overprovisioned_buffers_warn(self):
        config = customized_config(1, flow_count=64).with_updates(
            buffer_num=500
        )
        violations = _check(config, _topo(), _flows(), SLOT)
        assert any(
            v.subject == "buffers" and v.severity is Severity.WARNING
            for v in violations
        )

    def test_rc_queue_overflow_flagged(self):
        config = customized_config(1, flow_count=64).with_updates(
            cbs_map_size=1, cbs_size=1
        )
        flows = _flows(rc=10**8, be=0)
        # spread RC over 2 queues via explicit PCPs
        flows.add(FlowSpec(999_000, TrafficClass.RC, "t0", "listener",
                           1024, rate_bps=10**7, pcp=4))
        violations = _check(config, _topo(), flows, SLOT)
        assert any(v.subject == "cbs" for v in _errors(violations))


class TestScheduleChecks:
    def test_deadline_violation_flagged(self):
        violations = _check(
            customized_config(1, flow_count=64),
            _topo(hops=6),
            _flows(deadline_ns=200_000),  # (6+1)*62.5us = 437.5us > 200us
            SLOT,
        )
        assert any(v.subject == "deadline" for v in _errors(violations))

    def test_multi_cqf_deadline_judged_at_the_flows_slot(self):
        # 375us sits between the Eq. (1) bound at the base slot, (3+1) x
        # 62.5us = 250us, and the one at the slot2 system Multi-CQF plans
        # these flows on, (3+1) x 125us = 500us.
        flows = FlowSet(
            [FlowSpec(i, TrafficClass.TS, "t0", "listener", 64,
                      period_ns=ms(1), deadline_ns=375_000)
             for i in range(8)]
        )
        violations = _check(
            customized_config(1, flow_count=64), _topo(), flows, SLOT,
            discipline=MULTI_CQF,
        )
        deadlines = [v for v in _errors(violations) if v.subject == "deadline"]
        assert len(deadlines) == 8
        assert "500000ns" in deadlines[0].message

    def test_unaligned_slot_flagged(self):
        # Planning itself refuses a 65us slot, so the plan is handed in.
        flows = _flows(16)
        violations = _check(
            customized_config(1, flow_count=16), _topo(), flows,
            slot_ns=65_000, sched_plan=plan_flows(list(flows), SLOT),
        )
        assert any(v.subject == "slotting" for v in _errors(violations))

    def test_itp_infeasible_flagged(self):
        flows = FlowSet(
            [FlowSpec(i, TrafficClass.TS, "t0", "listener", 1500,
                      period_ns=ms(10)) for i in range(4000)]
        )
        violations = _check(
            customized_config(1, flow_count=4096), _topo(), flows, SLOT
        )
        assert any(v.subject == "itp" for v in _errors(violations))

    def test_no_ts_flows_short_circuits(self):
        flows = background_flows(["t0"], "listener", 10**7, 10**7)
        violations = _check(
            customized_config(1), _topo(), FlowSet(list(flows)), SLOT
        )
        assert not any(v.subject == "queue_depth" for v in violations)

    def test_violation_str(self):
        violations = _check(
            customized_config(1, flow_count=32), _topo(), _flows(64), SLOT
        )
        text = str(_errors(violations)[0])
        assert text.startswith("[error]")


class TestRcAdmissionCheck:
    def test_oversubscribed_rc_flagged(self):
        from repro.core.units import mbps

        flows = _flows(count=16, rc=mbps(800), be=0)
        violations = _check(
            customized_config(1, flow_count=16), _topo(), flows, SLOT
        )
        assert any(
            v.subject == "rc_admission" for v in _errors(violations)
        )

    def test_modest_rc_clean(self):
        from repro.core.units import mbps

        flows = _flows(count=16, rc=mbps(100), be=0)
        violations = _check(
            customized_config(1, flow_count=16), _topo(), flows, SLOT
        )
        assert not any(v.subject == "rc_admission" for v in violations)
