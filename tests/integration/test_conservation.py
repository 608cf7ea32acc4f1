"""Frame conservation: nothing is silently created or destroyed.

The accounting invariant every QoS number rests on: after a run drains,

    emitted == delivered + (counted drops at switches)
                        + (counted losses on links)

holds per class and in total.  Checked over randomized small scenarios
(hypothesis chooses flow counts, sizes, background rates, seeds) and over
deliberately undersized/lossy runs where the drop paths are exercised.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.presets import customized_config
from repro.core.units import mbps, ms
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import ring_topology
from repro.sched import SchedPolicy
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import background_flows, production_cell_flows

SLOT = 62_500


def _accounting(testbed, result):
    emitted = sum(result.expected_by_flow.values())
    delivered = result.analyzer.received() + result.analyzer.unknown_frames
    switch_drops = sum(
        c["dropped_total"] for c in result.counters().values()
    )
    link_losses = sum(
        link.frames_corrupted + link.frames_blackholed
        for link in testbed.links
    )
    return emitted, delivered, switch_drops, link_losses


def _build(count, size, rc, be, seed, config=None, drain_slots=64, **kwargs):
    topology = ring_topology(switch_count=3, talkers=["talker0"])
    flows = production_cell_flows(["talker0"], "listener",
                                  flow_count=count, size_bytes=size)
    if rc or be:
        for flow in background_flows(["talker0"], "listener",
                                     mbps(rc), mbps(be)):
            flows.add(flow)
    testbed = Testbed(RunPlan(
        topology, config or customized_config(1), flows, slot_ns=SLOT,
        seed=seed, **kwargs
    ))
    result = testbed.run(duration_ns=ms(25), drain_slots=drain_slots)
    return testbed, result


class TestConservation:
    @settings(max_examples=8, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=48),
        size=st.sampled_from([64, 256, 1024]),
        rc=st.sampled_from([0, 50]),
        be=st.sampled_from([0, 50]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_lossless_scenarios_conserve_exactly(self, count, size, rc, be,
                                                 seed):
        testbed, result = _build(count, size, rc, be, seed)
        emitted, delivered, switch_drops, link_losses = _accounting(
            testbed, result
        )
        assert switch_drops == 0 and link_losses == 0
        assert emitted == delivered

    def test_undersized_queues_conserve_with_drops(self):
        config = customized_config(1, queue_depth=1, buffer_num=8)
        testbed, result = _build(
            count=48, size=64, rc=0, be=0, seed=0, config=config,
            # slam everything into slot 0
            sched=SchedPolicy(backend="unplanned"),
        )
        emitted, delivered, switch_drops, link_losses = _accounting(
            testbed, result
        )
        assert switch_drops > 0
        assert emitted == delivered + switch_drops

    def test_lossy_links_conserve_with_corruptions(self):
        testbed, result = _build(
            count=32, size=64, rc=0, be=0, seed=1, trunk_error_rate=0.1
        )
        emitted, delivered, switch_drops, link_losses = _accounting(
            testbed, result
        )
        assert link_losses > 0
        assert emitted == delivered + switch_drops + link_losses

    def test_per_flow_accounting_matches_class_totals(self):
        testbed, result = _build(count=16, size=64, rc=20, be=20, seed=2)
        for flow in result.flows:
            record = result.analyzer.records[flow.flow_id]
            assert record.received == result.expected_by_flow[flow.flow_id]
            assert record.duplicates == 0 and record.reorders == 0

    def test_buffer_pools_fully_released_after_drain(self):
        testbed, result = _build(count=32, size=64, rc=30, be=30, seed=3)
        for switch in result.switches.values():
            for port in switch.ports:
                assert port.pool.in_use == 0
                assert not any(port.queues)
