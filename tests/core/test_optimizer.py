"""Resource-parameter optimization (the paper's Section V future work)."""

import pytest

from repro.core.errors import SchedulingError
from repro.core.optimizer import MIN_SLOT_NS, optimize
from repro.core.presets import ring_config
from repro.core.sizing import derive_config
from repro.core.units import ms
from repro.network.topology import ring_topology
from repro.traffic.flows import FlowSet, FlowSpec, TrafficClass
from repro.traffic.iec60802 import production_cell_flows


def _flows(count=512, size=64, deadline_ns=None):
    flows = FlowSet()
    for i in range(count):
        flows.add(
            FlowSpec(i, TrafficClass.TS, f"t{i % 3}", "listener", size,
                     period_ns=ms(10), deadline_ns=deadline_ns)
        )
    return flows


def _topo():
    return ring_topology(6, talkers=["t0", "t1", "t2"])


@pytest.fixture(scope="module")
def plain_result():
    """Shared search on the default workload (the searches are the slow
    part of this module; results are immutable)."""
    return optimize(_topo(), _flows())


@pytest.fixture(scope="module")
def deadline_result():
    return optimize(_topo(), _flows(deadline_ns=ms(1)))


class TestOptimize:
    def test_beats_the_guideline_configuration(self, deadline_result):
        """Smaller slots shrink queue depth and buffers below the paper's
        62.5us operating point while meeting every deadline."""
        result = deadline_result
        guideline = ring_config().total_bram_kb
        assert result.best.total_bram_kb < guideline
        assert result.best.config.queue_depth < ring_config().queue_depth

    def test_deadline_constrains_slot(self, deadline_result):
        result = deadline_result
        # Eq.(1): (6+1) * slot <= 1 ms
        assert 7 * result.best.slot_ns <= ms(1)
        for point in result.pareto:
            assert 7 * point.slot_ns <= ms(1)

    def test_no_deadline_allows_any_slot(self, plain_result):
        result = plain_result
        assert result.best.slot_ns >= MIN_SLOT_NS

    def test_min_slot_floor(self, plain_result):
        result = plain_result
        assert result.best.slot_ns >= MIN_SLOT_NS

    def test_large_frames_reject_small_slots(self):
        """1500B frames don't fit the smallest slots' ITP budget -- the
        rejected list and the Pareto frontier show the trade-off."""
        result = optimize(_topo(), _flows(count=256, size=1500))
        assert result.rejected_slots  # some slots were ITP-infeasible
        assert result.best.slot_ns > MIN_SLOT_NS

    def test_aggregation_shrinks_switch_table(self):
        # 1024 flows: the per-flow table needs 72Kb while the aggregated
        # one fits a single primitive (smaller counts are swallowed by
        # BRAM quantization -- 512 and 1 entries both round to one block)
        plain = optimize(_topo(), _flows(count=1024))
        aggregated = optimize(_topo(), _flows(count=1024),
                              aggregate_switch_entries=True)
        assert aggregated.best.config.unicast_size == 1  # one destination
        assert aggregated.best.total_bram_kb < plain.best.total_bram_kb
        # classification stays per-flow (the VID key cannot aggregate)
        assert aggregated.best.config.class_size == 1024

    def test_pareto_is_nondominated_and_sorted(self):
        result = optimize(_topo(), _flows(count=256, size=1500))
        points = result.pareto
        for a in points:
            for b in points:
                if a is not b:
                    assert not a.dominates(b) or not b.dominates(a)
        latencies = [p.worst_latency_ns for p in points]
        assert latencies == sorted(latencies)

    def test_best_is_feasible_sizing(self, plain_result):
        result = plain_result
        config = result.best.config
        config.validate()
        # re-deriving at the chosen slot reproduces the same depth bound
        rederived = derive_config(_topo(), _flows(), result.best.slot_ns)
        assert rederived.required_queue_depth == result.best.required_queue_depth

    def test_impossible_deadline_rejected(self):
        with pytest.raises(SchedulingError, match="deadline"):
            optimize(_topo(), _flows(deadline_ns=50_000))  # < 7 x min slot

    def test_needs_ts_flows(self):
        with pytest.raises(SchedulingError):
            optimize(_topo(), FlowSet())

    def test_explicit_max_hops(self, deadline_result):
        relaxed = optimize(_topo(), _flows(deadline_ns=ms(1)), max_hops=2)
        # fewer hops -> larger slots admissible than at the full 6 hops
        assert max(p.slot_ns for p in relaxed.pareto) >= max(
            p.slot_ns for p in deadline_result.pareto
        )

    def test_hop_count_resolved_once_per_distinct_pair(self, monkeypatch):
        topology = _topo()
        asked = []
        hops = topology.hops

        def counting_hops(src, dst):
            asked.append((src, dst))
            return hops(src, dst)

        monkeypatch.setattr(topology, "hops", counting_hops)
        result = optimize(topology, _flows(count=48, deadline_ns=ms(1)))
        # 48 flows, three talkers: one graph search per pair, in flow order.
        assert asked == [
            ("t0", "listener"), ("t1", "listener"), ("t2", "listener")
        ]
        explicit = optimize(_topo(), _flows(count=48, deadline_ns=ms(1)),
                            max_hops=6)
        assert [p.slot_ns for p in result.pareto] == [
            p.slot_ns for p in explicit.pareto
        ]
