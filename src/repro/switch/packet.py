"""Frames and packet descriptors.

The dataplane moves two things around, mirroring the hardware split the
paper's footnote 1 describes ("queue stores packet descriptor ... while
buffer stores packet payload"):

* :class:`EthernetFrame` -- the immutable wire object: addresses, VLAN tag,
  priority, size, plus measurement bookkeeping (flow id, sequence number,
  injection timestamp).  Payload *content* is never materialized; only sizes
  matter to timing and resource behaviour.  It is the one representation
  of a frame: a source creates it, every hop passes the same object on,
  and only a corrupting link makes a copy.

* :class:`Descriptor` -- the 32-bit metadata word a queue actually holds:
  a buffer-slot reference plus the frame length.  Descriptors are created at
  enqueue by the ingress pipeline after a buffer slot was claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.units import ETH_MIN_FRAME_BYTES

__all__ = [
    "MacAddress",
    "EthernetFrame",
    "Descriptor",
    "BROADCAST_MAC",
    "make_mac",
]

#: MAC addresses are 48-bit integers; bit 40 (the I/G bit of the first
#: transmitted octet) marks multicast.
MacAddress = int

BROADCAST_MAC: MacAddress = (1 << 48) - 1
_MULTICAST_BIT = 1 << 40


def make_mac(device_index: int, port_index: int = 0) -> MacAddress:
    """A locally administered unicast MAC for device/port indices."""
    return (0x02 << 40) | ((device_index & 0xFFFF) << 8) | (port_index & 0xFF)


def is_multicast(mac: MacAddress) -> bool:
    """True for group-addressed (multicast/broadcast) MACs."""
    return bool(mac & _MULTICAST_BIT)


@dataclass(frozen=True)
class EthernetFrame:
    """One frame on the wire.

    ``size_bytes`` counts DA through FCS, matching the paper's "packet size"
    axis in Fig. 7(b) ({64 ... 1500} B).  ``frame_id`` is a debugging
    handle that spans, journeys and trace records carry: a testbed numbers
    the frames its sources emit 0, 1, ... in emission order, and a frame
    built by hand keeps -1.
    """

    src_mac: MacAddress
    dst_mac: MacAddress
    vlan_id: int
    pcp: int                      # 802.1Q priority code point, 0..7
    size_bytes: int
    flow_id: int = -1             # measurement: which flow produced it
    seq: int = -1                 # measurement: per-flow sequence number
    created_ns: int = -1          # measurement: injection timestamp
    fcs_ok: bool = True           # False = bit errors on the wire; the
                                  # receiving MAC drops it at ingress
    frame_id: int = -1            # the testbed's emission number

    def __post_init__(self) -> None:
        if not 0 <= self.pcp <= 7:
            raise ValueError(f"PCP must be 0..7, got {self.pcp}")
        if not 0 <= self.vlan_id < 4096:
            raise ValueError(f"VLAN ID must be 0..4095, got {self.vlan_id}")
        if self.size_bytes < ETH_MIN_FRAME_BYTES:
            raise ValueError(
                f"frame size {self.size_bytes}B below Ethernet minimum "
                f"{ETH_MIN_FRAME_BYTES}B"
            )

    @property
    def is_multicast(self) -> bool:
        return is_multicast(self.dst_mac)

    def corrupted(self) -> "EthernetFrame":
        """A per-hop copy of this frame with ``fcs_ok=False``.

        Equivalent to ``dataclasses.replace(self, fcs_ok=False)``, so the
        copy keeps the ``frame_id``, but skips the re-validation pass --
        links corrupt frames on the hot path.
        """
        clone = object.__new__(EthernetFrame)
        clone.__dict__.update(self.__dict__)
        object.__setattr__(clone, "fcs_ok", False)
        return clone


class Descriptor:
    """The queue-resident metadata word referencing a buffered frame.

    The reproduction keeps a Python reference to the frame for convenience;
    the *modelled* width is the configured 32 bits (buffer slot id, length,
    and flags), which is what the BRAM cost model charges for.

    From its dequeue on it is also the frame's transmission record: the
    egress port sets the fields after ``size_bytes`` then.
    """

    __slots__ = ("frame", "buffer_slot", "enqueued_ns", "queue_id",
                 "size_bytes", "dequeued_ns", "bytes_done",
                 "fragment_data_bytes", "fragment_start_ns", "cut_scheduled",
                 "data_done_handle", "idle_handle")

    def __init__(self, frame: EthernetFrame, buffer_slot: int,
                 enqueued_ns: int, queue_id: int):
        self.frame = frame
        self.buffer_slot = buffer_slot
        self.enqueued_ns = enqueued_ns
        self.queue_id = queue_id
        self.size_bytes = frame.size_bytes

    def __repr__(self) -> str:
        return (
            f"Descriptor(frame={self.frame!r}, "
            f"buffer_slot={self.buffer_slot}, "
            f"enqueued_ns={self.enqueued_ns}, queue_id={self.queue_id})"
        )
