"""Point-to-point Ethernet links.

A :class:`Link` binds one transmitter (an :class:`~repro.switch.port.
EgressPort`, whether on a switch or in a host NIC) to one receiver callback,
adding the cable's propagation delay.  The testbed's 1 Gbps copper runs are
short; the default 500 ns models ~100 m of cable ( ~5 ns/m), and the value is
per-link configurable for studies on longer spans.

Serialization time lives in the port (it depends on the port rate); the
link is purely a delay line that never reorders.  For failure-injection
studies it can *drop*: ``error_rate`` models FCS corruption (the receiver
discards the frame, as a real MAC does), drawn from a seeded RNG so lossy
runs stay reproducible.  ``fail()``/``restore()`` model a cable pull.

The fault-injection layer (:mod:`repro.faults`) drives three additional,
independently counted impairments:

* **blackhole** -- ``fail()``/``restore()`` windows (``frames_blackholed``);
* **fault loss** -- :meth:`set_fault_loss` drops a seeded fraction of frames
  silently, modelling an EMI burst (``frames_fault_lost``);
* **fault corruption** -- :meth:`set_fault_corrupt` delivers frames with
  ``fcs_ok=False`` so the *receiving* MAC drops and counts them
  (``frames_fault_corrupted``), which is where real bit errors surface.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.core.errors import ConfigurationError
from repro.obs.flowspans import FlowSpanRecorder
from repro.sim.kernel import Simulator
from repro.switch.packet import EthernetFrame
from repro.switch.port import EgressPort

__all__ = ["Link", "DEFAULT_PROPAGATION_NS"]

DEFAULT_PROPAGATION_NS = 500

ReceiveFn = Callable[[EthernetFrame], None]


class Link:
    """A unidirectional delay line between an egress port and a receiver."""

    def __init__(
        self,
        sim: Simulator,
        src: EgressPort,
        receive: ReceiveFn,
        propagation_ns: int = DEFAULT_PROPAGATION_NS,
        error_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        name: str = "link",
        spans: Optional[FlowSpanRecorder] = None,
    ) -> None:
        if propagation_ns < 0:
            raise ConfigurationError(
                f"{name}: propagation delay must be >= 0, got {propagation_ns}"
            )
        if not 0.0 <= error_rate <= 1.0:
            raise ConfigurationError(
                f"{name}: error_rate must be in [0, 1], got {error_rate}"
            )
        if error_rate > 0.0 and rng is None:
            raise ConfigurationError(
                f"{name}: a lossy link needs a seeded rng for reproducibility"
            )
        self._sim = sim
        self._receive = receive
        self.propagation_ns = propagation_ns
        self.error_rate = error_rate
        self._rng = rng
        self.name = name
        self._spans = spans
        self.frames_carried = 0
        self.frames_corrupted = 0
        self.frames_blackholed = 0
        self.frames_fault_lost = 0
        self.frames_fault_corrupted = 0
        self.down_count = 0
        self._up = True
        self._fault_loss_rate = 0.0
        self._fault_loss_rng: Optional[random.Random] = None
        self._fault_corrupt_rate = 0.0
        self._fault_corrupt_rng: Optional[random.Random] = None
        #: Same-instant tie-break for arrival events.  The testbed assigns
        #: every link a unique positive priority in wiring order, so two
        #: frames landing on the same component in the same nanosecond are
        #: ordered by *which link* carried them -- a property of the
        #: topology -- rather than by event-posting order.
        self.arrival_priority = 0
        src.attach(self._carry)

    # -------------------------------------------------------------- failure

    @property
    def up(self) -> bool:
        return self._up

    def fail(self) -> None:
        """Cable pulled: every subsequent frame is lost until restore."""
        if self._up:
            self._up = False
            self.down_count += 1

    def restore(self) -> None:
        self._up = True

    def set_fault_loss(
        self, rate: float, rng: Optional[random.Random] = None
    ) -> None:
        """Silently drop a *rate* fraction of frames (fault injection).

        ``rate=0`` ends the loss window.  A non-zero rate below 1.0 needs a
        seeded *rng* so faulted runs stay byte-deterministic.
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(
                f"{self.name}: fault loss rate must be in [0, 1], got {rate}"
            )
        if 0.0 < rate < 1.0 and rng is None:
            raise ConfigurationError(
                f"{self.name}: a partial loss window needs a seeded rng"
            )
        self._fault_loss_rate = rate
        self._fault_loss_rng = rng

    def set_fault_corrupt(
        self, rate: float, rng: Optional[random.Random] = None
    ) -> None:
        """Flip bits on a *rate* fraction of frames (fault injection).

        Corrupted frames are still delivered -- with ``fcs_ok=False`` -- so
        the receiving MAC's FCS check drops and counts them, matching where
        real bit errors are detected.  ``rate=0`` ends the window.
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(
                f"{self.name}: fault corrupt rate must be in [0, 1], "
                f"got {rate}"
            )
        if 0.0 < rate < 1.0 and rng is None:
            raise ConfigurationError(
                f"{self.name}: a partial corruption window needs a seeded rng"
            )
        self._fault_corrupt_rate = rate
        self._fault_corrupt_rng = rng

    # ------------------------------------------------------------- carrying

    def _note_drop(self, frame: EthernetFrame) -> None:
        if self._spans is not None:
            self._spans.record(self._sim.now, "drop", self.name, frame)

    def _carry(self, frame: EthernetFrame) -> None:
        """Called by the port at last-bit-out; deliver after propagation."""
        if not self._up:
            self.frames_blackholed += 1
            self._note_drop(frame)
            return
        if self._fault_loss_rate and (
            self._fault_loss_rate >= 1.0
            or self._fault_loss_rng.random() < self._fault_loss_rate
        ):
            self.frames_fault_lost += 1
            self._note_drop(frame)
            return
        if self.error_rate and self._rng.random() < self.error_rate:
            self.frames_corrupted += 1
            self._note_drop(frame)
            return
        if self._fault_corrupt_rate and (
            self._fault_corrupt_rate >= 1.0
            or self._fault_corrupt_rng.random() < self._fault_corrupt_rate
        ):
            self.frames_fault_corrupted += 1
            # Corruption is the one per-hop copy the link ever makes: a
            # *distinct* frame must exist because replicated (FRER /
            # multicast) copies of the same frame traverse other links
            # intact.  Clean frames are passed through by reference -- no
            # observer needs a per-hop object -- and ``corrupted()`` skips
            # dataclasses.replace's re-validation.
            frame = frame.corrupted()
        self.frames_carried += 1
        self._sim.post(
            self.propagation_ns,
            lambda: self._receive(frame),
            self.arrival_priority,
        )

    def deliver(self, frame: EthernetFrame) -> None:
        """Hand *frame* to this link's receiver right now.

        Nothing in the simulator calls this: a carried frame's arrival event
        calls the receiver directly.  It stays because the traced end-to-end
        benchmark wraps ``Link.deliver`` by name.
        """
        self._receive(frame)

    # -------------------------------------------------------------- queries

    def fault_counters(self) -> dict:
        """Flat counter dump for recovery reports."""
        return {
            "carried": self.frames_carried,
            "blackholed": self.frames_blackholed,
            "fault_lost": self.frames_fault_lost,
            "fault_corrupted": self.frames_fault_corrupted,
            "down_count": self.down_count,
        }
