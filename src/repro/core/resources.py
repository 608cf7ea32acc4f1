"""Fine-grained resource abstraction (paper Section III.B, Fig. 4).

The paper's central observation is that a TSN switch's on-chip memory is
consumed by a small, enumerable set of objects spread over the five
components:

=================  ========================================================
Packet Switch      unicast table (Dst MAC + VID -> outport),
                   multicast table (MC ID -> outport set)
Ingress Filter     classification table (SMAC/DMAC/VID/PRI -> meter, queue),
                   meter table (token-bucket state per flow)
Gate Ctrl          input gate table + output gate table per port (GCLs)
Egress Sched       CBS map table + CBS table per port
(all components)   per-port metadata queues, per-port packet buffer pool
=================  ========================================================

This module defines the descriptors that carry *what* a resource is (name,
entry width, depth, sharing discipline) and *what it costs* (via
:mod:`repro.core.bram`), plus :class:`ResourceReport`, the structure the
benchmarks render into the paper's Table III rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from . import bram
from .errors import ConfigurationError
from .units import KIB

__all__ = [
    "Component",
    "Sharing",
    "TableResource",
    "QueueResource",
    "BufferResource",
    "ResourceReport",
    "ReportRow",
    # paper entry widths
    "SWITCH_TBL_WIDTH",
    "CLASS_TBL_WIDTH",
    "METER_TBL_WIDTH",
    "GATE_TBL_WIDTH",
    "CBS_TBL_TOTAL_WIDTH",
    "QUEUE_METADATA_WIDTH",
]


class Component(enum.Enum):
    """The five components of the paper's switch composition (Fig. 3)."""

    PACKET_SWITCH = "Packet Switch"
    INGRESS_FILTER = "Ingress Filter"
    GATE_CTRL = "Gate Ctrl"
    EGRESS_SCHED = "Egress Sched"
    TIME_SYNC = "Time Sync"


class Sharing(enum.Enum):
    """Whether a resource is instantiated once or per enabled port."""

    SHARED = "shared by all ports"
    PER_PORT = "exclusive per port"


# Entry widths used throughout the paper's evaluation (Section IV.B).
SWITCH_TBL_WIDTH = 72     # Dst MAC (48) + VID (12) + outport/flags (12)
CLASS_TBL_WIDTH = 117     # SMAC+DMAC (96) + VID (12) + PRI (3) + meter/queue ids
METER_TBL_WIDTH = 68      # token-bucket state: rate, burst, count, flags
GATE_TBL_WIDTH = 17       # 8 gate-state bits + time-interval field
CBS_TBL_TOTAL_WIDTH = 72  # CBS map + CBS (idleSlope/sendSlope/credit) combined
QUEUE_METADATA_WIDTH = 32  # packet descriptor: buffer id, length, queue, flags


@dataclass(frozen=True)
class TableResource:
    """One table kind with its shape and sharing discipline.

    ``instances`` is how many physical copies exist (1 for shared tables,
    ``tables_per_port * port_num`` for per-port tables such as the in/out
    gate pair).
    """

    name: str
    component: Component
    entry_width: int
    size: int
    sharing: Sharing
    instances: int = 1

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(
                f"{self.name}: table size must be positive, got {self.size}"
            )
        if self.instances <= 0:
            raise ConfigurationError(
                f"{self.name}: instance count must be positive, "
                f"got {self.instances}"
            )

    @property
    def allocation(self) -> bram.BramAllocation:
        """BRAM packing of a single instance."""
        return bram.allocate(self.entry_width, self.size)

    @property
    def bits(self) -> int:
        """Total BRAM bits over all instances."""
        return self.allocation.bits * self.instances

    @property
    def kb(self) -> float:
        return self.bits / KIB


@dataclass(frozen=True)
class QueueResource:
    """The per-port metadata queues.

    Each queue is an independent physical FIFO of ``depth`` descriptors of
    ``metadata_width`` bits, so each queue costs at least one BRAM primitive.
    """

    depth: int
    queue_num: int
    port_num: int
    metadata_width: int = QUEUE_METADATA_WIDTH
    name: str = "Queues"
    component: Component = Component.GATE_CTRL
    sharing: Sharing = Sharing.PER_PORT

    def __post_init__(self) -> None:
        for label, value in (
            ("queue depth", self.depth),
            ("queue_num", self.queue_num),
            ("port_num", self.port_num),
            ("metadata width", self.metadata_width),
        ):
            if value <= 0:
                raise ConfigurationError(
                    f"Queues: {label} must be positive, got {value}"
                )

    @property
    def instances(self) -> int:
        return self.queue_num * self.port_num

    @property
    def allocation(self) -> bram.BramAllocation:
        return bram.allocate(self.metadata_width, self.depth)

    @property
    def bits(self) -> int:
        return self.allocation.bits * self.instances

    @property
    def kb(self) -> float:
        return self.bits / KIB


@dataclass(frozen=True)
class BufferResource:
    """The per-port packet buffer pools.

    Each enabled port owns ``buffer_num`` fixed-size slots; a slot holds one
    MTU frame (2048 B payload) plus its descriptor overhead -- see
    :data:`repro.core.bram.BUFFER_SLOT_COST_BITS` for how the per-slot BRAM
    cost was derived from the paper's numbers.
    """

    buffer_num: int
    port_num: int
    slot_bytes: int = bram.BUFFER_SLOT_BYTES
    name: str = "Buffers"
    component: Component = Component.GATE_CTRL
    sharing: Sharing = Sharing.PER_PORT

    def __post_init__(self) -> None:
        if self.buffer_num <= 0:
            raise ConfigurationError(
                f"Buffers: buffer_num must be positive, got {self.buffer_num}"
            )
        if self.port_num <= 0:
            raise ConfigurationError(
                f"Buffers: port_num must be positive, got {self.port_num}"
            )
        if self.slot_bytes <= 0:
            raise ConfigurationError(
                f"Buffers: slot_bytes must be positive, got {self.slot_bytes}"
            )

    @property
    def instances(self) -> int:
        return self.buffer_num * self.port_num

    @property
    def bits(self) -> int:
        return bram.buffer_pool_bits(self.buffer_num, self.port_num)

    @property
    def kb(self) -> float:
        return self.bits / KIB


@dataclass(frozen=True)
class ReportRow:
    """One row of a Table III-style resource report."""

    resource: str
    width_label: str
    parameters: Tuple[int, ...]
    bits: int

    @property
    def kb(self) -> float:
        return self.bits / KIB

    @property
    def kb_label(self) -> str:
        value = self.kb
        if value == int(value):
            return f"{int(value)}Kb"
        return f"{value:g}Kb"


@dataclass
class ResourceReport:
    """Aggregated BRAM consumption of one switch configuration.

    Mirrors one column of the paper's Table III; ``compare`` computes the
    percentage reduction against a baseline report (the commercial switch).
    """

    title: str
    rows: List[ReportRow] = field(default_factory=list)

    def add(self, row: ReportRow) -> None:
        self.rows.append(row)

    @property
    def total_bits(self) -> int:
        return sum(row.bits for row in self.rows)

    @property
    def total_kb(self) -> float:
        return self.total_bits / KIB

    def row(self, resource: str) -> ReportRow:
        """Look up one row by resource name."""
        for candidate in self.rows:
            if candidate.resource == resource:
                return candidate
        raise KeyError(f"no resource row named {resource!r} in {self.title}")

    def reduction_vs(self, baseline: "ResourceReport") -> float:
        """Fractional BRAM reduction relative to *baseline* (0.8053 = -80.53%)."""
        if baseline.total_bits == 0:
            raise ConfigurationError("baseline report has zero total BRAM")
        return (baseline.total_bits - self.total_bits) / baseline.total_bits

    def as_dict(self) -> Dict[str, float]:
        """Resource name -> Kb mapping, plus a ``Total`` key."""
        result = {row.resource: row.kb for row in self.rows}
        result["Total"] = self.total_kb
        return result
