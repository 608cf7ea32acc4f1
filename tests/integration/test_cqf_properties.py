"""Property-based end-to-end CQF invariants.

Hypothesis drives randomized scenarios (flow counts, sizes, hop counts,
slot sizes, seeds) through the full stack and checks the properties the
paper's evaluation rests on:

* every delivered TS packet obeys Eq. (1);
* with planned (ITP) injection each flow's latency is *constant* -- CQF is
  deterministic per flow, not merely bounded;
* the simulator's observed queue occupancy equals the ITP plan's per-slot
  bound -- the planner and the dataplane agree about the world.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.presets import customized_config
from repro.core.units import ms
from repro.cqf.bounds import cqf_bounds
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import ring_topology
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import production_cell_flows

SLOTS = [31_250, 62_500, 125_000]


def _run(flow_count, size, hops, slot_ns, seed):
    topology = ring_topology(switch_count=hops, talkers=["talker0"])
    flows = production_cell_flows(["talker0"], "listener",
                                  flow_count=flow_count, size_bytes=size)
    testbed = Testbed(RunPlan(
        topology, customized_config(1), flows, slot_ns=slot_ns, seed=seed
    ))
    return testbed, testbed.run(duration_ns=ms(25))


class TestCqfProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        flow_count=st.integers(min_value=1, max_value=40),
        size=st.sampled_from([64, 256, 1024]),
        hops=st.integers(min_value=1, max_value=4),
        slot_ns=st.sampled_from(SLOTS),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_eq1_and_per_flow_determinism(self, flow_count, size, hops,
                                          slot_ns, seed):
        _, result = _run(flow_count, size, hops, slot_ns, seed)
        assert result.ts_loss == 0.0
        bounds = cqf_bounds(hops, slot_ns)
        for flow in result.flows.ts_flows:
            latencies = result.analyzer.records[flow.flow_id].latencies_ns
            assert latencies, flow.flow_id
            assert all(bounds.contains(x) for x in latencies)
            # deterministic per flow: every packet takes the same time
            assert max(latencies) - min(latencies) == 0

    @settings(max_examples=8, deadline=None)
    @given(
        flow_count=st.integers(min_value=8, max_value=64),
        slot_ns=st.sampled_from(SLOTS),
    )
    def test_observed_occupancy_matches_itp_plan(self, flow_count, slot_ns):
        testbed, result = _run(flow_count, 64, 2, slot_ns, seed=0)
        plan = result.sched_plan
        assert plan is not None
        # the gathering queues never exceed -- and do reach -- the plan's
        # worst per-slot load
        assert result.max_queue_high_water() == plan.max_frames_per_slot
