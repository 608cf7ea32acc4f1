"""Traffic generators: the TSNNic equivalent.

The paper drives its testbed with TSNNic, an FPGA network tester that
injects user-defined TS/RC/BE flows.  Here, generators are simulation
processes attached to a host's NIC:

* :class:`PeriodicSource` -- TS flows: one frame per period, injected at the
  ITP-planned slot offset (or a caller-chosen phase).
* :class:`RateSource` -- RC/BE background: frames spaced to sustain a target
  bit rate, with optional randomized start phase so multiple background
  flows do not beat against each other.

Generators do not touch the network directly; they call an ``inject``
callable (the host NIC's entry point) with fully formed frames.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.errors import ConfigurationError
from repro.obs.flowspans import FlowSpanRecorder
from repro.sim.kernel import Simulator
from repro.switch.packet import EthernetFrame, MacAddress

__all__ = ["PeriodicSource", "RateSource", "InjectFn"]

InjectFn = Callable[[EthernetFrame], None]


class _SourceBase:
    """Common frame-stamping machinery."""

    def __init__(
        self,
        sim: Simulator,
        inject: InjectFn,
        flow_id: int,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        vlan_id: int,
        pcp: int,
        size_bytes: int,
        spans: Optional[FlowSpanRecorder] = None,
    ) -> None:
        # A probe frame runs the frame's own field checks once, here, with
        # the flow named -- not at the first emission, inside the event loop.
        try:
            EthernetFrame(
                src_mac, dst_mac, vlan_id, pcp, size_bytes, frame_id=-1
            )
        except ValueError as exc:
            raise ConfigurationError(f"flow {flow_id}: {exc}") from None
        self._sim = sim
        self._inject = inject
        self._spans = spans
        self.flow_id = flow_id
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.vlan_id = vlan_id
        self.pcp = pcp
        self.size_bytes = size_bytes
        self.emitted = 0
        self._stopped = False

    def stop(self) -> None:
        """No further frames after the current instant."""
        self._stopped = True

    def _emit(self) -> None:
        now = self._sim._now
        frame = EthernetFrame(
            src_mac=self.src_mac,
            dst_mac=self.dst_mac,
            vlan_id=self.vlan_id,
            pcp=self.pcp,
            size_bytes=self.size_bytes,
            flow_id=self.flow_id,
            seq=self.emitted,
            created_ns=now,
        )
        self.emitted += 1
        if self._spans is not None:
            self._spans.record(now, "gen", f"flow{self.flow_id}", frame)
        self._inject(frame)


class PeriodicSource(_SourceBase):
    """A TS flow: one frame every ``period_ns``, phase-shifted by ``offset_ns``.

    ``limit`` bounds the number of frames (None = run until stopped); the
    testbed uses a limit derived from the measurement window so runs end
    deterministically.
    """

    def __init__(
        self,
        sim: Simulator,
        inject: InjectFn,
        flow_id: int,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        size_bytes: int,
        period_ns: int,
        offset_ns: int = 0,
        vlan_id: int = 1,
        pcp: int = 7,
        limit: Optional[int] = None,
        spans: Optional[FlowSpanRecorder] = None,
    ) -> None:
        super().__init__(
            sim, inject, flow_id, src_mac, dst_mac, vlan_id, pcp, size_bytes,
            spans=spans,
        )
        if period_ns <= 0:
            raise ConfigurationError(f"period must be positive, got {period_ns}")
        if offset_ns < 0:
            raise ConfigurationError(f"offset must be >= 0, got {offset_ns}")
        self.period_ns = period_ns
        self.offset_ns = offset_ns
        self.limit = limit

    def start(self) -> None:
        self._sim.post(self.offset_ns, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        if self.limit is not None and self.emitted >= self.limit:
            return
        self._emit()
        self._sim.post(self.period_ns, self._tick)


class RateSource(_SourceBase):
    """An RC/BE background flow sustaining ``rate_bps``.

    Frames are spaced exactly ``size * 8e9 / rate`` ns apart.  A zero rate
    is allowed and produces nothing, letting sweeps include a 0-load point
    without special-casing.
    """

    def __init__(
        self,
        sim: Simulator,
        inject: InjectFn,
        flow_id: int,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        size_bytes: int,
        rate_bps: int,
        start_ns: int = 0,
        vlan_id: int = 1,
        pcp: int = 0,
        until_ns: Optional[int] = None,
        spans: Optional[FlowSpanRecorder] = None,
    ) -> None:
        super().__init__(
            sim, inject, flow_id, src_mac, dst_mac, vlan_id, pcp, size_bytes,
            spans=spans,
        )
        if rate_bps < 0:
            raise ConfigurationError(f"rate must be >= 0, got {rate_bps}")
        self.rate_bps = rate_bps
        self.start_ns = start_ns
        self.until_ns = until_ns

    @property
    def mean_gap_ns(self) -> int:
        assert self.rate_bps > 0
        return max(1, self.size_bytes * 8 * 10**9 // self.rate_bps)

    def start(self) -> None:
        if self.rate_bps == 0:
            return
        self._sim.post(self.start_ns, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        if self.until_ns is not None and self._sim._now >= self.until_ns:
            return
        self._emit()
        self._sim.post(self.mean_gap_ns, self._tick)
