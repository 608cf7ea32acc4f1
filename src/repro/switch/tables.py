"""The seven table kinds of the resource view (paper Fig. 4).

Every table is a *fixed-capacity* structure: its size is the customization
parameter the corresponding ``set_*`` API configured, and programming an
entry beyond capacity raises :class:`~repro.core.errors.CapacityError` --
exactly the failure a control plane hits on real silicon when the chosen
table size underestimated the application's flow count.

Lookups return ``None`` on miss; dataplane policy for misses (flood, drop,
default queue, ...) lives in the pipeline, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar

from repro.core.errors import CapacityError, ConfigurationError
from .meter import TokenBucketMeter
from .packet import MacAddress

__all__ = [
    "FixedTable",
    "UnicastTable",
    "MulticastTable",
    "ClassTarget",
    "ClassificationTable",
    "MeterTable",
    "GateEntry",
    "GateControlList",
    "CbsMapTable",
    "CbsParams",
    "CbsTable",
]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


def _no_hook() -> None:
    """The default :attr:`FixedTable.on_write`: nobody compiled this table."""


class FixedTable(Generic[K, V]):
    """A bounded exact-match table.

    Models a hash/CAM lookup memory of ``capacity`` entries.  Re-inserting an
    existing key updates it in place without consuming a new entry.

    ``on_write`` runs after every ``insert`` / ``insert_all`` /
    ``remove`` / ``clear``: whoever resolved entries of this table into a
    compiled form (the pipeline's per-flow resolutions) hooks it to start
    over.
    """

    def __init__(self, capacity: int, name: str = "table"):
        if capacity <= 0:
            raise ConfigurationError(
                f"{name}: capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.name = name
        self._entries: Dict[K, V] = {}
        self.on_write: Callable[[], None] = _no_hook

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[K, V]]:
        return iter(self._entries.items())

    @property
    def free(self) -> int:
        return self.capacity - len(self._entries)

    @property
    def utilization(self) -> float:
        """Installed entries as a fraction of capacity."""
        return len(self._entries) / self.capacity

    def insert(self, key: K, value: V) -> None:
        """Program an entry; raises :class:`CapacityError` when full."""
        self.insert_all({key: value})

    def insert_all(self, entries: Dict[K, V]) -> None:
        """Program *entries* in order as one write (one ``on_write``).

        Raises :class:`CapacityError` naming the first new key that does
        not fit -- the key a one-at-a-time insert would have failed on --
        before anything is installed.
        """
        installed = self._entries
        room = self.capacity - len(installed)
        if len(entries) > room:
            fresh = [key for key in entries if key not in installed]
            if len(fresh) > room:
                raise CapacityError(
                    f"{self.name}: capacity {self.capacity} exhausted "
                    f"inserting {fresh[room]!r}"
                )
        installed.update(entries)
        self.on_write()

    def remove(self, key: K) -> None:
        """Remove an entry; KeyError if absent."""
        del self._entries[key]
        self.on_write()

    def lookup(self, key: K) -> Optional[V]:
        """Match *key*; None on miss."""
        return self._entries.get(key)

    def clear(self) -> None:
        self._entries.clear()
        self.on_write()


# ---------------------------------------------------------------- Packet Switch

RouteKey = Tuple[MacAddress, int]  # DMAC, VID (or UnicastTable.WILDCARD_VID)


class UnicastTable(FixedTable[RouteKey, int]):
    """(Dst MAC, VID) -> outport.  The Packet Switch's forwarding table.

    Supports *aggregated* entries (paper Section III.C guideline 1: "some
    table entries could be aggregated according to the transmission path"):
    programming with ``vid=None`` installs a VLAN-wildcard entry matching
    every VID of that destination, so all flows sharing a destination and
    path consume one entry instead of one per flow.  Exact entries win over
    the wildcard, as in real TCAM/hash lookup pipelines.
    """

    #: Sentinel VID for aggregated (VLAN-wildcard) entries.
    WILDCARD_VID = -1

    def __init__(self, capacity: int):
        super().__init__(capacity, "unicast table")

    def program(
        self, dst_mac: MacAddress, vid: Optional[int], outport: int
    ) -> None:
        key_vid = self.WILDCARD_VID if vid is None else vid
        self.insert((dst_mac, key_vid), outport)

    def find_outport(self, dst_mac: MacAddress, vid: int) -> Optional[int]:
        exact = self.lookup((dst_mac, vid))
        if exact is not None:
            return exact
        return self.lookup((dst_mac, self.WILDCARD_VID))


class MulticastTable(FixedTable[int, Tuple[int, ...]]):
    """MC ID -> set of outports.

    The paper's prototype omits this table (multicast split into unicast
    flows); it is provided for configurations with ``multicast_size > 0``.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity, "multicast table")

    def program(self, mc_id: int, outports: Tuple[int, ...]) -> None:
        if not outports:
            raise ConfigurationError("multicast entry needs at least one outport")
        self.insert(mc_id, tuple(outports))

    def find_outports(self, mc_id: int) -> Optional[Tuple[int, ...]]:
        return self.lookup(mc_id)


# --------------------------------------------------------------- Ingress Filter


@dataclass(frozen=True)
class ClassTarget:
    """Result of a classification hit: which meter and which queue."""

    meter_id: int
    queue_id: int


ClassKey = Tuple[MacAddress, MacAddress, int, int]  # SMAC, DMAC, VID, PRI


class ClassificationTable(FixedTable[ClassKey, ClassTarget]):
    """(Src MAC, Dst MAC, VID, PRI) -> (Meter ID, Queue ID)."""

    def __init__(self, capacity: int):
        super().__init__(capacity, "classification table")

    def program(
        self,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        vid: int,
        pri: int,
        target: ClassTarget,
    ) -> None:
        self.insert((src_mac, dst_mac, vid, pri), target)

    def classify(
        self, src_mac: MacAddress, dst_mac: MacAddress, vid: int, pri: int
    ) -> Optional[ClassTarget]:
        return self.lookup((src_mac, dst_mac, vid, pri))


class MeterTable(FixedTable[int, TokenBucketMeter]):
    """Meter ID -> token-bucket policer state."""

    def __init__(self, capacity: int):
        super().__init__(capacity, "meter table")

    def program(self, meter_id: int, meter: TokenBucketMeter) -> None:
        self.insert(meter_id, meter)

    def meter(self, meter_id: int) -> Optional[TokenBucketMeter]:
        return self.lookup(meter_id)


# ------------------------------------------------------------------- Gate Ctrl


@dataclass(frozen=True)
class GateEntry:
    """One GCL row: per-queue gate states held for an interval.

    ``gate_states`` is an 8-bit mask, bit *q* = 1 meaning queue *q*'s gate is
    open.  With the 17 b entry width of the evaluation, 8 bits carry states
    and the rest the interval -- we keep the interval in ns for the
    simulator and let the RTL backend quantize it to clock cycles.
    """

    gate_states: int
    interval_ns: int

    def __post_init__(self) -> None:
        if not 0 <= self.gate_states < 256:
            raise ConfigurationError(
                f"gate_states must be an 8-bit mask, got {self.gate_states:#x}"
            )
        if self.interval_ns <= 0:
            raise ConfigurationError(
                f"gate interval must be positive, got {self.interval_ns}"
            )

    def is_open(self, queue_id: int) -> bool:
        return bool(self.gate_states >> queue_id & 1)


class GateControlList:
    """A bounded, cyclic list of :class:`GateEntry` rows.

    Capacity is the ``gate_size`` customization parameter: under CQF it is 2,
    under general 802.1Qbv schedules it equals the number of time slots in
    the scheduling cycle.
    """

    def __init__(self, capacity: int, name: str = "GCL"):
        if capacity <= 0:
            raise ConfigurationError(
                f"{name}: capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.name = name
        self._entries: List[GateEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[GateEntry]:
        return iter(self._entries)

    @property
    def entries(self) -> Tuple[GateEntry, ...]:
        return tuple(self._entries)

    @property
    def utilization(self) -> float:
        """Programmed rows as a fraction of capacity."""
        return len(self._entries) / self.capacity

    def append(self, entry: GateEntry) -> None:
        if len(self._entries) >= self.capacity:
            raise CapacityError(
                f"{self.name}: capacity {self.capacity} exhausted"
            )
        self._entries.append(entry)

    def program(self, entries: List[GateEntry]) -> None:
        """Replace the whole list atomically (a control-plane GCL update)."""
        if len(entries) > self.capacity:
            raise CapacityError(
                f"{self.name}: {len(entries)} entries exceed capacity "
                f"{self.capacity}"
            )
        if not entries:
            raise ConfigurationError(f"{self.name}: cannot program empty GCL")
        self._entries = list(entries)

    @property
    def cycle_ns(self) -> int:
        """Sum of entry intervals -- the schedule repeats with this period."""
        return sum(entry.interval_ns for entry in self._entries)

    def state_at(self, time_in_cycle_ns: int) -> GateEntry:
        """The entry active at an offset into the cycle."""
        if not self._entries:
            raise ConfigurationError(f"{self.name}: GCL not programmed")
        offset = time_in_cycle_ns % self.cycle_ns
        for entry in self._entries:
            if offset < entry.interval_ns:
                return entry
            offset -= entry.interval_ns
        raise AssertionError("unreachable: offset within cycle by construction")


# ----------------------------------------------------------------- Egress Sched


class CbsMapTable(FixedTable[int, int]):
    """Queue ID -> CBS ID: which shaper regulates which queue."""

    def __init__(self, capacity: int):
        super().__init__(capacity, "CBS map table")

    def program(self, queue_id: int, cbs_id: int) -> None:
        self.insert(queue_id, cbs_id)

    def shaper_for(self, queue_id: int) -> Optional[int]:
        return self.lookup(queue_id)


@dataclass(frozen=True)
class CbsParams:
    """Credit-based shaper slopes (802.1Qav).

    ``idle_slope_bps`` is the reserved bandwidth: credit gained per second
    while frames wait.  ``send_slope_bps`` is credit lost per second while
    transmitting and must be negative; the standard fixes
    ``send_slope = idle_slope - port_rate``.
    """

    idle_slope_bps: int
    send_slope_bps: int

    def __post_init__(self) -> None:
        if self.idle_slope_bps <= 0:
            raise ConfigurationError(
                f"idleSlope must be positive, got {self.idle_slope_bps}"
            )
        if self.send_slope_bps >= 0:
            raise ConfigurationError(
                f"sendSlope must be negative, got {self.send_slope_bps}"
            )

    @classmethod
    def for_reservation(cls, idle_slope_bps: int, port_rate_bps: int) -> "CbsParams":
        """Standard slopes for reserving *idle_slope_bps* on a port."""
        if idle_slope_bps >= port_rate_bps:
            raise ConfigurationError(
                f"reservation {idle_slope_bps} must be below port rate "
                f"{port_rate_bps}"
            )
        return cls(idle_slope_bps, idle_slope_bps - port_rate_bps)


class CbsTable(FixedTable[int, CbsParams]):
    """CBS ID -> shaper slopes."""

    def __init__(self, capacity: int):
        super().__init__(capacity, "CBS table")

    def program(self, cbs_id: int, params: CbsParams) -> None:
        self.insert(cbs_id, params)

    def params(self, cbs_id: int) -> Optional[CbsParams]:
        return self.lookup(cbs_id)
