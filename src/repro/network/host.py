"""End devices: talkers (TSNNic equivalents) and listeners.

A :class:`Host` owns a NIC modelled with the same
:class:`~repro.switch.port.EgressPort` machinery as a switch port -- eight
PCP-mapped queues under strict priority with always-open gates -- so a
talker's TS frames overtake its own queued BE backlog exactly as on the real
TSNNic, leaving at most one in-flight background frame of head-of-line
blocking.  Queue depth and buffer count are generous (host DRAM, not
switch BRAM) and play no part in resource accounting.

Received frames are handed to ``on_receive`` -- the analyzer hooks this on
listener hosts.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.units import GIGABIT
from repro.obs.flowspans import FlowSpanRecorder
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switch.counters import SwitchCounters
from repro.switch.gates import GateEngine
from repro.switch.packet import EthernetFrame, MacAddress, make_mac
from repro.switch.port import EgressPort
from repro.switch.queueing import BufferPool, MetadataQueue
from repro.switch.scheduler import StrictPriorityScheduler
from repro.switch.tables import GateControlList, GateEntry

__all__ = ["Host", "host_mac"]

#: Host queues hold DRAM descriptors; deep enough never to tail-drop.
_HOST_QUEUE_DEPTH = 16384
_HOST_BUFFERS = 32768


def host_mac(index: int) -> MacAddress:
    """The MAC of the host numbered *index* within its network."""
    return make_mac(0x8000 + index)


class Host:
    """One end device with a single NIC.

    *index* numbers the host within its network and fixes its MAC
    (:func:`host_mac`); a :class:`~repro.network.testbed.Testbed`
    passes each host its position, so a scenario's MACs do not depend on
    what the process built before.  A standalone host takes the next
    number of a per-process counter instead.
    """

    _next_index = 0

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: int = GIGABIT,
        clock: Optional[LocalClock] = None,
        tracer: Tracer = NULL_TRACER,
        spans: Optional[FlowSpanRecorder] = None,
        *,
        index: Optional[int] = None,
    ) -> None:
        self._sim = sim
        self._spans = spans
        self.name = name
        if index is None:
            index = Host._next_index
            Host._next_index += 1
        self.mac: MacAddress = host_mac(index)
        self.clock = clock or LocalClock(sim)
        self.counters = SwitchCounters()
        self.on_receive: Optional[Callable[[EthernetFrame], None]] = None
        self.received = 0

        queues = [MetadataQueue(_HOST_QUEUE_DEPTH, q) for q in range(8)]
        in_gcl = GateControlList(1, f"{name}.nic.in")
        out_gcl = GateControlList(1, f"{name}.nic.out")
        in_gcl.program([GateEntry(0xFF, 1_000_000)])
        out_gcl.program([GateEntry(0xFF, 1_000_000)])
        self._gates = GateEngine(
            sim, in_gcl, out_gcl, clock=self.clock, name=f"{name}.nic"
        )
        self.nic = EgressPort(
            sim=sim,
            port_id=0,
            rate_bps=rate_bps,
            queues=queues,
            buffer_pool=BufferPool(_HOST_BUFFERS),
            gates=self._gates,
            scheduler=StrictPriorityScheduler(),
            counters=self.counters,
            tracer=tracer,
            spans=spans,
            name=f"{name}.nic",
        )
        self._started = False

    def start(self) -> None:
        """Start the NIC's (always-open) gate engine and arbitrate once."""
        if not self._started:
            self._started = True
            self._gates.start()
            self.nic.kick()

    # --------------------------------------------------------------- traffic

    def inject(self, frame: EthernetFrame) -> bool:
        """Queue a locally generated frame for transmission (by PCP)."""
        if self._spans is not None:
            self._spans.record(self._sim._now, "inject", self.name, frame)
        return self.nic.enqueue(frame, frame.pcp)

    def receive(self, frame: EthernetFrame) -> None:
        """A frame arrived from the network."""
        if not frame.fcs_ok:
            # NIC FCS check: bit-errored frames never reach the stack.
            self.counters.dropped_corrupt += 1
            if self._spans is not None:
                self._spans.record(self._sim._now, "drop", self.name, frame)
            return
        self.received += 1
        if self._spans is not None:
            self._spans.record(self._sim._now, "rx", self.name, frame)
        if self.on_receive is not None:
            self.on_receive(frame)
