"""Switch counters."""

from repro.sim.kernel import Simulator
from repro.switch.counters import SwitchCounters
from repro.switch.gates import GateEngine
from repro.switch.packet import EthernetFrame, make_mac
from repro.switch.port import EgressPort
from repro.switch.queueing import BufferPool, MetadataQueue
from repro.switch.scheduler import StrictPriorityScheduler
from repro.switch.tables import GateControlList


def _counted(queue_ids):
    """The counters of a port that admitted one frame per queue id."""
    sim = Simulator()
    gcl = GateControlList(1)
    port = EgressPort(sim, 0, 10**9,
                      [MetadataQueue(4, q) for q in range(8)], BufferPool(8),
                      GateEngine(sim, gcl, gcl), StrictPriorityScheduler())
    port.attach(lambda frame: None)
    for queue_id in queue_ids:
        port.enqueue(EthernetFrame(make_mac(1), make_mac(2), 1, 7, 64),
                     queue_id)
    return port.counters


class TestSwitchCounters:
    def test_dropped_total_sums_all_drop_kinds(self):
        counters = SwitchCounters(
            dropped_unknown_dst=1,
            dropped_policer=2,
            dropped_gate=3,
            dropped_tail=4,
            dropped_no_buffer=5,
            dropped_corrupt=6,
        )
        assert counters.dropped_total == 21

    def test_port_enqueues_accumulate_per_queue(self):
        counters = _counted([7, 7, 0])
        assert counters.per_queue_enqueued == {7: 2, 0: 1}

    def test_as_dict_round_numbers(self):
        counters = SwitchCounters(received=10, forwarded=9, transmitted=8,
                                  dropped_tail=1)
        data = counters.as_dict()
        assert data["received"] == 10
        assert data["dropped_total"] == 1
        assert set(data) == {
            "received", "forwarded", "transmitted", "dropped_unknown_dst",
            "dropped_policer", "dropped_gate", "dropped_tail",
            "dropped_no_buffer", "dropped_corrupt", "dropped_total",
        }

    def test_as_dict_includes_per_queue_enqueued(self):
        data = _counted([7, 7, 0]).as_dict()
        assert data["enqueued_q7"] == 2
        assert data["enqueued_q0"] == 1
        # Flat keys keep the dump Dict[str, int] for JSON summaries.
        assert all(isinstance(v, int) for v in data.values())
        # Queues appear in sorted order after the fixed counters.
        queue_keys = [k for k in data if k.startswith("enqueued_q")]
        assert queue_keys == ["enqueued_q0", "enqueued_q7"]
