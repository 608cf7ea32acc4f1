"""The ingress processing pipeline: Ingress Filter + Packet Switch stages.

Mirrors the left half of the paper's Fig. 3.  For each received frame:

1. **Parse** -- extract SMAC/DMAC/VID/PCP (already explicit on our frames).
2. **Classify** (Ingress Filter) -- exact-match the 4-tuple against the
   classification table to obtain a :class:`ClassTarget` (meter id + queue
   id).  A miss falls back to the 802.1Q default: queue = PCP, no meter.
   TSN networks are fully planned, so critical flows always hit.
3. **Police** (Ingress Filter) -- offer the frame to the resolved meter;
   non-conforming frames are dropped here.
4. **Lookup** (Packet Switch) -- unicast (DMAC, VID) -> outport, or
   multicast MC-ID -> outport set.  A miss drops the frame (a planned TSN
   network does not flood).

Steps 2 and 4 and the meter-table probe of step 3 are stateless between
control-plane writes, so :meth:`SwitchPipeline.process` resolves them once
per flow key into ``(meter, decision)`` and later frames of the flow cost
one dict probe plus the (stateful) meter offer.  Any write to the four
tables drops every resolution.

The pipeline owns the switch-shared tables; per-port resources live in
:class:`~repro.switch.port.EgressPort`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import SwitchConfig
from repro.obs.instruments import SwitchInstruments
from .counters import SwitchCounters
from .meter import TokenBucketMeter
from .packet import EthernetFrame
from .tables import (
    ClassificationTable,
    ClassTarget,
    MeterTable,
    MulticastTable,
    UnicastTable,
)

__all__ = ["SwitchPipeline", "ForwardingDecision"]

#: Multicast MC-ID is carried in the low bits of a group DMAC.
_MC_ID_MASK = 0xFFFF


@dataclass(frozen=True)
class ForwardingDecision:
    """Where a frame goes: egress (port, queue) pairs, or a drop reason."""

    targets: Tuple[Tuple[int, int], ...]  # (outport, queue_id)
    drop_reason: Optional[str] = None

    @property
    def dropped(self) -> bool:
        return self.drop_reason is not None


class SwitchPipeline:
    """Shared-table stages of one switch."""

    def __init__(
        self,
        config: SwitchConfig,
        counters: SwitchCounters,
        instruments: Optional[SwitchInstruments] = None,
    ):
        self.config = config
        self.counters = counters
        self._obs = instruments
        self.unicast = UnicastTable(config.unicast_size)
        self.multicast: Optional[MulticastTable] = (
            MulticastTable(config.multicast_size)
            if config.multicast_size > 0
            else None
        )
        self.classification = ClassificationTable(config.class_size)
        self.meters = MeterTable(config.meter_size)
        # (outports, queue_id) -> the immutable decision every frame
        # taking that way out shares; bounded by ports x queues.
        self._forwarding: Dict[
            Tuple[Tuple[int, ...], int], ForwardingDecision
        ] = {}
        # (smac, dmac, vid, pcp) -> (meter | None, decision): what the
        # tables said the last time a frame of that flow got through.
        self._resolved: Dict[
            Tuple[int, int, int, int],
            Tuple[Optional[TokenBucketMeter], ForwardingDecision],
        ] = {}
        for table in (
            self.unicast, self.multicast, self.classification, self.meters
        ):
            if table is not None:
                table.on_write = self._resolved.clear

    # ------------------------------------------------------------- stages

    def classify(self, frame: EthernetFrame) -> ClassTarget:
        """Ingress Filter classification with the 802.1Q default fallback."""
        target = self.classification.classify(
            frame.src_mac, frame.dst_mac, frame.vlan_id, frame.pcp
        )
        if target is None:
            return ClassTarget(meter_id=-1, queue_id=frame.pcp)
        return target

    def police(self, frame: EthernetFrame, target: ClassTarget, now_ns: int) -> bool:
        """True if the frame conforms (or is unmetered)."""
        if target.meter_id < 0:
            return True
        meter = self.meters.meter(target.meter_id)
        if meter is None:
            return True  # classified to a meter that was never programmed
        conformed = meter.offer(now_ns, frame.size_bytes)
        if self._obs is not None:
            self._obs.on_meter(conformed)
        return conformed

    def lookup(self, frame: EthernetFrame) -> Tuple[int, ...]:
        """Packet Switch outport lookup; empty tuple on miss."""
        if frame.is_multicast and self.multicast is not None:
            outports = self.multicast.find_outports(frame.dst_mac & _MC_ID_MASK)
            return outports or ()
        outport = self.unicast.find_outport(frame.dst_mac, frame.vlan_id)
        return () if outport is None else (outport,)

    # ------------------------------------------------------------ full path

    def process(
        self, frame: EthernetFrame, now_ns: int
    ) -> ForwardingDecision:
        """Run a frame through classify/police/lookup; count drops."""
        key = (frame.src_mac, frame.dst_mac, frame.vlan_id, frame.pcp)
        resolved = self._resolved.get(key)
        if resolved is not None:
            meter, decision = resolved
        else:
            target = self.classify(frame)
            meter = (
                self.meters.meter(target.meter_id)
                if target.meter_id >= 0 else None
            )
            decision = None  # looked up below, once the frame is policed
        if meter is not None:
            conformed = meter.offer(now_ns, frame.size_bytes)
            if self._obs is not None:
                self._obs.on_meter(conformed)
            if not conformed:
                self.counters.dropped_policer += 1
                if self._obs is not None:
                    self._obs.on_drop("policer")
                return ForwardingDecision((), "policer")
        if decision is not None:
            return decision
        outports = self.lookup(frame)
        if not outports:
            self.counters.dropped_unknown_dst += 1
            if self._obs is not None:
                self._obs.on_drop("unknown_dst")
            return ForwardingDecision((), "unknown_dst")
        way_out = (outports, target.queue_id)
        decision = self._forwarding.get(way_out)
        if decision is None:
            decision = self._forwarding[way_out] = ForwardingDecision(
                tuple((port, target.queue_id) for port in outports)
            )
        self._resolved[key] = (meter, decision)
        return decision
