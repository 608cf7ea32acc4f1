"""Strict-priority arbitration with gates and CBS."""

import repro.switch.scheduler as scheduler_module
from repro.network.scenario import ScenarioSpec
from repro.sim.kernel import Simulator
from repro.switch.gates import GateEngine
from repro.switch.packet import Descriptor, EthernetFrame, make_mac
from repro.switch.queueing import MetadataQueue
from repro.switch.scheduler import StrictPriorityScheduler
from repro.switch.shaper import CreditBasedShaper
from repro.switch.tables import CbsParams, GateControlList, GateEntry
from tests.test_golden_outputs import SCENARIOS

GBPS = 10**9


def _ser(nbytes):
    return nbytes * 8  # 1 Gbps


def _queues(count=8, depth=16):
    return [MetadataQueue(depth, q) for q in range(count)]


def _gates(sim, in_entries=None, out_entries=None):
    in_gcl = GateControlList(2)
    out_gcl = GateControlList(2)
    in_gcl.program(in_entries or [GateEntry(0xFF, 1000)])
    out_gcl.program(out_entries or [GateEntry(0xFF, 1000)])
    engine = GateEngine(sim, in_gcl, out_gcl)
    engine.start()
    return engine


def _load(queue, size=64):
    frame = EthernetFrame(make_mac(1), make_mac(2), 1, 7, size)
    queue.enqueue(Descriptor(frame, buffer_slot=0, enqueued_ns=0,
                             queue_id=queue.queue_id))


class TestPriority:
    def test_highest_backlogged_queue_wins(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[2])
        _load(queues[5])
        decision = StrictPriorityScheduler().select(
            0, queues, _gates(sim), _ser
        )
        assert decision.queue_id == 5

    def test_idle_when_all_empty(self):
        sim = Simulator()
        decision = StrictPriorityScheduler().select(
            0, _queues(), _gates(sim), _ser
        )
        assert decision.idle and decision.retry_delay_ns is None


class TestGating:
    def test_closed_gate_skipped(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[7])
        _load(queues[0])
        gates = _gates(sim, out_entries=[GateEntry(0x7F, 1000)])  # 7 closed
        decision = StrictPriorityScheduler().select(0, queues, gates, _ser)
        assert decision.queue_id == 0

    def test_guard_band_blocks_overrunning_frame(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[7], size=1500)  # 12 us serialization
        _load(queues[0], size=64)
        # queue 7 open for only 1 us windows
        gates = _gates(
            sim,
            out_entries=[GateEntry(0xFF, 1_000), GateEntry(0x7F, 1_000)],
        )
        decision = StrictPriorityScheduler().select(0, queues, gates, _ser)
        # 1500B doesn't fit the 1us window; falls through to queue 0
        assert decision.queue_id == 0

    def test_guard_band_admits_fitting_frame(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[7], size=64)  # 512 ns fits the 1 us window
        gates = _gates(
            sim,
            out_entries=[GateEntry(0xFF, 1_000), GateEntry(0x7F, 1_000)],
        )
        decision = StrictPriorityScheduler().select(0, queues, gates, _ser)
        assert decision.queue_id == 7


class TestCbsIntegration:
    def _scheduler_with_negative_credit(self):
        shaper = CreditBasedShaper(CbsParams.for_reservation(10**8, GBPS))
        shaper.set_backlog(0, True)
        shaper.begin_transmission(0)
        shaper.end_transmission(12_000, has_backlog=True)  # deep negative
        return StrictPriorityScheduler({5: shaper}), shaper

    def test_ineligible_shaped_queue_skipped_with_hint(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[5])
        scheduler, shaper = self._scheduler_with_negative_credit()
        decision = scheduler.select(12_000, queues, _gates(sim), _ser)
        assert decision.idle
        assert decision.retry_delay_ns == shaper.ns_until_eligible(12_000)

    def test_lower_priority_takes_over_when_shaped_blocked(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[5])
        _load(queues[1])
        scheduler, _ = self._scheduler_with_negative_credit()
        decision = scheduler.select(12_000, queues, _gates(sim), _ser)
        assert decision.queue_id == 1

    def test_eligible_shaped_queue_selected(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[5])
        shaper = CreditBasedShaper(CbsParams.for_reservation(10**8, GBPS))
        decision = StrictPriorityScheduler({5: shaper}).select(
            0, queues, _gates(sim), _ser
        )
        assert decision.queue_id == 5


class TestDeficitRoundRobin:
    def _drr(self, weights=None, **kwargs):
        from repro.switch.scheduler import DeficitRoundRobinScheduler

        return DeficitRoundRobinScheduler(weights=weights, **kwargs)

    def test_priority_queues_still_win(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[7])
        _load(queues[0])
        decision = self._drr().select(0, queues, _gates(sim), _ser)
        assert decision.queue_id == 7

    def test_round_robin_alternates_below_floor(self):
        sim = Simulator()
        queues = _queues()
        gates = _gates(sim)
        drr = self._drr()
        for _ in range(4):
            _load(queues[0])
            _load(queues[1])
        served = []
        for _ in range(8):
            decision = drr.select(0, queues, gates, _ser)
            served.append(decision.queue_id)
            next(q for q in queues if q.queue_id == decision.queue_id).dequeue()
        # fair alternation rather than strict-priority starvation of queue 0
        assert served.count(0) == served.count(1) == 4

    def test_weights_bias_service(self):
        sim = Simulator()
        queues = _queues(depth=64)
        gates = _gates(sim)
        drr = self._drr(weights={1: 3, 0: 1}, quantum_bytes=64)
        for _ in range(40):
            _load(queues[0], size=64)
            _load(queues[1], size=64)
        served = []
        for _ in range(40):
            decision = drr.select(0, queues, gates, _ser)
            served.append(decision.queue_id)
            next(q for q in queues if q.queue_id == decision.queue_id).dequeue()
        # 3:1 weighting -> queue 1 gets 3x the service
        assert served.count(1) == 30 and served.count(0) == 10

    def test_work_conserving_with_large_frames(self):
        """A frame bigger than one quantum must still be served (no stall)."""
        sim = Simulator()
        queues = _queues()
        _load(queues[2], size=1500)
        drr = self._drr(quantum_bytes=64)
        decision = drr.select(0, queues, _gates(sim), _ser)
        assert decision.queue_id == 2

    def test_idle_when_everything_empty(self):
        sim = Simulator()
        decision = self._drr().select(0, _queues(), _gates(sim), _ser)
        assert decision.idle

    def test_gate_respected_below_floor(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[0])
        gates = _gates(sim, out_entries=[GateEntry(0xFE, 1000)])  # 0 closed
        decision = self._drr().select(0, queues, gates, _ser)
        assert decision.idle

    def test_strict_priority_unaffected_by_base_refactor(self):
        """StrictPriorityScheduler (now a subclass) behaves as before."""
        sim = Simulator()
        queues = _queues()
        _load(queues[3])
        _load(queues[6])
        decision = StrictPriorityScheduler().select(0, queues, _gates(sim), _ser)
        assert decision.queue_id == 6


def test_a_preempting_port_sorts_its_queues_only_when_built(monkeypatch):
    """A preempting port arbitrates its express queues and all its queues
    by turns; both orders are resolved when the port is built, so the run
    sorts nothing."""
    spec = ScenarioSpec.from_dict(SCENARIOS["ring_cqf_gptp_preempt"])
    testbed = spec.build_testbed()
    testbed.build()
    sorts = []

    def counting_sorted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(scheduler_module, "sorted", counting_sorted,
                        raising=False)
    result = testbed.run(spec.duration_ns)
    assert sum(port.preemptions for switch in result.switches.values()
               for port in switch.ports) > 0
    assert len(sorts) == 0
