"""Bounded metadata queues and the per-port packet buffer pool.

These are the two resources the motivation experiment (paper Table I)
customizes, and the dominant BRAM consumers in Table III.  Their *bounded*
behaviour is the point: a queue beyond ``depth`` or an empty buffer pool
drops the packet and counts it -- the QoS experiments exist to show the
customized (smaller) sizes still never drop TS traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.core.errors import ConfigurationError
from .packet import Descriptor

__all__ = ["MetadataQueue", "BufferPool", "QueueStats", "PoolStats"]


@dataclass
class QueueStats:
    """Occupancy and drop accounting of one queue."""

    tail_drops: int = 0
    gate_drops: int = 0          # arrived while the in-gate was closed
    high_water: int = 0


class MetadataQueue:
    """A FIFO of packet descriptors with a hard depth bound.

    ``depth`` is the ``queue_depth`` customization parameter: the number of
    32-bit metadata words the queue's BRAM holds.
    """

    def __init__(self, depth: int, queue_id: int = 0):
        if depth <= 0:
            raise ConfigurationError(f"queue depth must be positive, got {depth}")
        self.depth = depth
        self.queue_id = queue_id
        self._fifo: Deque[Descriptor] = deque()
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._fifo)

    def __iter__(self):
        """Iterate resident descriptors head-first (non-destructive)."""
        return iter(self._fifo)

    @property
    def empty(self) -> bool:
        return not self._fifo

    def enqueue(self, descriptor: Descriptor) -> bool:
        """Append; False (tail drop) when the queue is at depth."""
        fifo = self._fifo
        stats = self.stats
        if len(fifo) >= self.depth:
            stats.tail_drops += 1
            return False
        fifo.append(descriptor)
        if len(fifo) > stats.high_water:
            stats.high_water = len(fifo)
        return True

    def dequeue(self) -> Descriptor:
        """Remove and return the head; IndexError if empty."""
        return self._fifo.popleft()


@dataclass
class PoolStats:
    """Exhaustion and high-water accounting of one buffer pool."""

    exhaustion_drops: int = 0
    high_water: int = 0


class BufferPool:
    """A fixed set of packet buffer slots for one port.

    ``slots`` is the ``buffer_num`` customization parameter.  Slot ids are
    recycled LIFO, which keeps high-water marks meaningful for sizing
    studies (``stats.high_water`` is the minimum ``buffer_num`` that this
    run would have needed).

    The free slots are the recycle stack ``_free`` on top of the range
    ``_fresh .. slots-1`` that was never handed out (taken in ascending
    order once the stack is empty), so building a pool costs the same at
    any size -- a host NIC's 32k slots are not enumerated up front.
    ``in_use`` counts the slots handed out (seized ones included).
    """

    def __init__(self, slots: int, slot_bytes: int = 2048):
        if slots <= 0:
            raise ConfigurationError(f"buffer slots must be positive, got {slots}")
        if slot_bytes <= 0:
            raise ConfigurationError(
                f"slot size must be positive, got {slot_bytes}"
            )
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._free: List[int] = []
        self._fresh = 0
        # O(1) membership mirror of the free slots: host pools run to 32k
        # slots, and a ``slot in self._free`` scan per release dominated
        # profiles.
        self._is_free = bytearray(b"\x01") * slots
        self.in_use = 0
        self.stats = PoolStats()

    def _take(self) -> Optional[int]:
        """Pop the next free slot; None when there is none."""
        if self._free:
            slot = self._free.pop()
        elif self._fresh < self.slots:
            slot = self._fresh
            self._fresh = slot + 1
        else:
            return None
        self._is_free[slot] = 0
        self.in_use += 1
        return slot

    def allocate(self, size_bytes: int) -> Optional[int]:
        """Claim a slot for a frame of *size_bytes*; None when exhausted.

        The size is the only field admission needs; a frame larger than a
        slot is a configuration error, not a drop.
        """
        if size_bytes > self.slot_bytes:
            raise ConfigurationError(
                f"frame of {size_bytes}B exceeds buffer slot "
                f"{self.slot_bytes}B"
            )
        free = self._free
        if free:  # ``_take`` inlined: this runs once per frame per hop
            slot = free.pop()
        elif self._fresh < self.slots:
            slot = self._fresh
            self._fresh = slot + 1
        else:
            self.stats.exhaustion_drops += 1
            return None
        self._is_free[slot] = 0
        self.in_use = in_use = self.in_use + 1
        stats = self.stats
        if in_use > stats.high_water:
            stats.high_water = in_use
        return slot

    def release(self, slot: int) -> None:
        """Return a slot to the pool."""
        if not 0 <= slot < self.slots:
            raise ConfigurationError(f"slot {slot} outside pool of {self.slots}")
        if self._is_free[slot]:
            raise ConfigurationError(f"double release of slot {slot}")
        self._free.append(slot)
        self._is_free[slot] = 1
        self.in_use -= 1

    # --------------------------------------------------------- fault windows

    def seize(self, count: int) -> List[int]:
        """Take up to *count* free slots out of circulation (fault injection).

        Models a transient shared-memory pressure fault: seized slots are
        invisible to :meth:`allocate` until handed back via :meth:`unseize`.
        Returns the seized slot ids (possibly fewer than requested when the
        pool is busy).  Occupied slots are never seized, so in-flight frames
        are unaffected -- only future admissions feel the shrink.
        """
        if count < 0:
            raise ConfigurationError(f"cannot seize {count} slots")
        taken: List[int] = []
        while len(taken) < count:
            slot = self._take()
            if slot is None:
                break
            taken.append(slot)
        return taken

    def unseize(self, taken: List[int]) -> None:
        """Return slots previously taken by :meth:`seize`."""
        for slot in taken:
            if not 0 <= slot < self.slots:
                raise ConfigurationError(
                    f"slot {slot} outside pool of {self.slots}"
                )
            if self._is_free[slot]:
                raise ConfigurationError(f"slot {slot} is already free")
            self._free.append(slot)
            self._is_free[slot] = 1
            self.in_use -= 1
