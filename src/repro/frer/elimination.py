"""802.1CB sequence recovery: duplicate elimination at the listener.

FRER (Frame Replication and Elimination for Reliability) sends each
stream's frames over multiple disjoint paths and eliminates the duplicates
at (or before) the listener, so any single link/switch failure is seamless
-- zero loss, zero recovery time.  The paper's intro lists *flow integrity*
(802.1CB's family) among the TSN standard groups; this module supplies the
elimination side, and the testbed's ``frer_ts`` mode the replication side.

:class:`SequenceRecovery` implements the standard's *vector recovery
algorithm*: per stream it tracks the highest accepted sequence number and a
sliding history window (bitmask), accepting a frame iff its sequence number
has not been seen inside the window.  Out-of-window stragglers are treated
as rogue and dropped, matching 802.1CB's behaviour.

:class:`FrerEliminator` applies one recovery context per flow id in front
of any receive callback (the TSN analyzer, a host handler, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.core.errors import ConfigurationError
from repro.switch.packet import EthernetFrame

__all__ = ["SequenceRecovery", "FrerEliminator"]


class SequenceRecovery:
    """Vector recovery function for one stream.

    ``history_length`` is the standard's ``frerSeqRcvyHistoryLength``: how
    far behind the highest accepted sequence number a late replica may
    arrive and still be recognized as a duplicate.
    """

    def __init__(self, history_length: int = 64):
        if history_length < 1:
            raise ConfigurationError(
                f"history length must be >= 1, got {history_length}"
            )
        self.history_length = history_length
        self._highest: int = -1
        self._history: int = 0  # bit k = seq (highest - 1 - k) seen
        self.accepted = 0
        self.discarded = 0
        self.rogue = 0

    def accept(self, seq: int) -> bool:
        """True if *seq* is new (deliver it); False if duplicate/rogue."""
        if seq < 0:
            raise ConfigurationError(f"sequence numbers must be >= 0: {seq}")
        if self._highest < 0:
            self._highest = seq
            self.accepted += 1
            return True
        delta = seq - self._highest
        if delta > 0:
            if delta > self.history_length:
                # The whole window scrolls past: every previously seen
                # sequence number is out of range now.  Clearing directly
                # avoids materializing a delta-bit integer for huge jumps
                # (a rogue talker could otherwise force unbounded shifts).
                self._history = 0
            else:
                # advance: shift history, mark the previous highest as seen
                self._history = (
                    (self._history << delta) | (1 << (delta - 1))
                ) & ((1 << self.history_length) - 1)
            self._highest = seq
            self.accepted += 1
            return True
        if delta == 0:
            self.discarded += 1
            return False
        lag = -delta - 1
        if lag >= self.history_length:
            self.rogue += 1
            return False
        if self._history >> lag & 1:
            self.discarded += 1
            return False
        self._history |= 1 << lag
        self.accepted += 1
        return True


class FrerEliminator:
    """Per-flow duplicate elimination in front of a receive callback.

    >>> eliminator = FrerEliminator(analyzer.record)      # doctest: +SKIP
    >>> listener.on_receive = eliminator
    """

    def __init__(
        self,
        deliver: Callable[[EthernetFrame], None],
        history_length: int = 64,
    ):
        self._deliver = deliver
        self._history_length = history_length
        self._contexts: Dict[int, SequenceRecovery] = {}

    def __call__(self, frame: EthernetFrame) -> None:
        self.record(frame)

    def record(self, frame: EthernetFrame) -> None:
        context = self._contexts.get(frame.flow_id)
        if context is None:
            context = SequenceRecovery(self._history_length)
            self._contexts[frame.flow_id] = context
        if context.accept(frame.seq):
            self._deliver(frame)

    # ------------------------------------------------------------- queries

    def context(self, flow_id: int) -> SequenceRecovery:
        if flow_id not in self._contexts:
            raise KeyError(f"no frames seen for flow {flow_id}")
        return self._contexts[flow_id]

    @property
    def duplicates_eliminated(self) -> int:
        return sum(c.discarded for c in self._contexts.values())

    @property
    def rogue_frames(self) -> int:
        return sum(c.rogue for c in self._contexts.values())
