"""Block-RAM cost model for Xilinx 7-series FPGAs.

The paper evaluates TSN-Builder on a Xilinx Zynq 7020 and reports every
resource in "BRAMs" (Kb of block RAM).  7-series block RAM comes in two
primitives, each configurable to a fixed set of depth x width aspect ratios:

====================  =======================================================
RAMB18E1 (18 Kb)      16K x 1, 8K x 2, 4K x 4, 2K x 9, 1K x 18, 512 x 36
RAMB36E1 (36 Kb)      32K x 1, 16K x 2, 8K x 4, 4K x 9, 2K x 18, 1K x 36,
                      512 x 72 (simple dual port)
====================  =======================================================

A memory of logical shape ``width x depth`` is built from a grid of
primitives: ``ceil(width / w)`` columns wide by ``ceil(depth / d)`` rows deep
for a chosen aspect ratio ``d x w``.  The synthesizer picks the cheapest such
packing; :func:`allocate` reproduces that choice.

This model reproduces every table/queue BRAM figure in the paper's Tables I
and III bit-exactly (verified in ``tests/core/test_bram.py``):

* 72 b x 16K switch table  -> 32 RAMB36 (512x72)   = 1152 Kb
* 117 b x 1K class table   -> 7 RAMB18 (1Kx18)     = 126 Kb
* 68 b x 512 meter table   -> 2 RAMB18 (512x36)    = 36 Kb
* 17 b x 2 gate table      -> 1 RAMB18 (minimum)   = 18 Kb
* 32 b x 16 queue          -> 1 RAMB18 (minimum)   = 18 Kb

Packet buffers are costed separately (see :data:`BUFFER_SLOT_COST_BITS`):
the paper's buffer figures imply exactly 16.875 Kb of BRAM per 2048 B slot
(2160 Kb per 128 slots, 1620 Kb per 96 slots), i.e. 2048 B of payload plus a
112 B descriptor/alignment overhead per slot.  That constant is consistent
across all five buffer data points the paper publishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .errors import ConfigurationError
from .units import KIB

__all__ = [
    "AspectRatio",
    "BramAllocation",
    "RAMB18_KB",
    "RAMB36_KB",
    "RAMB18_ASPECTS",
    "RAMB36_ASPECTS",
    "BUFFER_SLOT_BYTES",
    "BUFFER_SLOT_OVERHEAD_BYTES",
    "BUFFER_SLOT_COST_BITS",
    "allocate",
    "bram_bits",
    "bram_kb",
    "buffer_pool_bits",
    "naive_allocate",
]

RAMB18_KB = 18
RAMB36_KB = 36


@dataclass(frozen=True)
class AspectRatio:
    """One configurable shape of a BRAM primitive."""

    depth: int
    width: int
    primitive_kb: int  # 18 or 36

    @property
    def primitive_bits(self) -> int:
        return self.primitive_kb * KIB

    def blocks_for(self, width: int, depth: int) -> int:
        """Number of primitives to build a ``width x depth`` memory."""
        return math.ceil(width / self.width) * math.ceil(depth / self.depth)

    def __str__(self) -> str:  # e.g. "512x36 (RAMB18)"
        return f"{self.depth}x{self.width} (RAMB{self.primitive_kb * 2 // 2})"


RAMB18_ASPECTS: Tuple[AspectRatio, ...] = tuple(
    AspectRatio(depth, width, RAMB18_KB)
    for depth, width in (
        (16384, 1),
        (8192, 2),
        (4096, 4),
        (2048, 9),
        (1024, 18),
        (512, 36),
    )
)

RAMB36_ASPECTS: Tuple[AspectRatio, ...] = tuple(
    AspectRatio(depth, width, RAMB36_KB)
    for depth, width in (
        (32768, 1),
        (16384, 2),
        (8192, 4),
        (4096, 9),
        (2048, 18),
        (1024, 36),
        (512, 72),
    )
)

ALL_ASPECTS: Tuple[AspectRatio, ...] = RAMB18_ASPECTS + RAMB36_ASPECTS


@dataclass(frozen=True)
class BramAllocation:
    """Result of packing one logical memory into BRAM primitives."""

    width: int
    depth: int
    aspect: AspectRatio
    blocks: int

    @property
    def bits(self) -> int:
        """Consumed BRAM capacity in bits (blocks x primitive size)."""
        return self.blocks * self.aspect.primitive_bits

    @property
    def kb(self) -> float:
        """Consumed BRAM in the paper's Kb (kibibit) units."""
        return self.bits / KIB

    @property
    def logical_bits(self) -> int:
        """Bits actually required by the logical memory (width x depth)."""
        return self.width * self.depth

    @property
    def utilization(self) -> float:
        """Fraction of allocated BRAM capacity holding logical data."""
        return self.logical_bits / self.bits

    def __str__(self) -> str:
        return (
            f"{self.width}b x {self.depth} -> {self.blocks} x "
            f"{self.aspect} = {self.kb:g}Kb"
        )


def _check_shape(width: int, depth: int) -> None:
    if width <= 0:
        raise ConfigurationError(f"memory width must be positive, got {width}")
    if depth <= 0:
        raise ConfigurationError(f"memory depth must be positive, got {depth}")


def allocate(
    width: int,
    depth: int,
    aspects: Sequence[AspectRatio] = ALL_ASPECTS,
) -> BramAllocation:
    """Pack a ``width x depth`` memory into primitives at minimum cost.

    Ties are broken toward fewer blocks, then toward the deeper aspect ratio
    (fewer cascade stages on the data path).  Any memory consumes at least one
    primitive, which is why a 17 b x 2 gate table still costs a full 18 Kb.
    """
    _check_shape(width, depth)
    best_key = best_aspect = None
    for aspect in aspects:
        key = _cost_key(aspect, aspect.blocks_for(width, depth))
        if best_key is None or key < best_key:
            best_key, best_aspect = key, aspect
    assert best_key is not None  # ALL_ASPECTS is non-empty
    return BramAllocation(width, depth, best_aspect, best_key[1])


def _cost_key(aspect: AspectRatio, blocks: int) -> Tuple[int, int, int]:
    """(consumed bits, blocks, -depth): what :func:`allocate` minimises."""
    return (blocks * aspect.primitive_bits, blocks, -aspect.depth)


def naive_allocate(width: int, depth: int) -> BramAllocation:
    """Pack using only the widest RAMB36 shape (512 x 72).

    This is the strawman a synthesis-unaware generator would use; the
    ablation benchmark contrasts it with :func:`allocate` to quantify how
    much the aspect-ratio search matters (e.g. the 117 b classification table
    costs 144 Kb naively vs 126 Kb optimally).
    """
    widest = RAMB36_ASPECTS[-1]
    _check_shape(width, depth)
    return BramAllocation(width, depth, widest, widest.blocks_for(width, depth))


def bram_bits(width: int, depth: int) -> int:
    """Shortcut: consumed BRAM bits of the optimal packing."""
    return allocate(width, depth).bits


def bram_kb(width: int, depth: int) -> float:
    """Shortcut: consumed BRAM Kb of the optimal packing."""
    return allocate(width, depth).kb


# --------------------------------------------------------------------------
# Packet-buffer pool cost
# --------------------------------------------------------------------------

#: Payload capacity of one packet buffer slot (holds an MTU frame).
BUFFER_SLOT_BYTES = 2048

#: Per-slot descriptor/alignment overhead implied by the paper's figures.
#: 128 slots -> 2160 Kb and 96 slots -> 1620 Kb both give exactly
#: (2048 + 112) * 8 bits = 16.875 Kb per slot.
BUFFER_SLOT_OVERHEAD_BYTES = 112

#: Total BRAM bits consumed per packet buffer slot.
BUFFER_SLOT_COST_BITS = (BUFFER_SLOT_BYTES + BUFFER_SLOT_OVERHEAD_BYTES) * 8


def buffer_pool_bits(buffer_num: int, port_num: int) -> int:
    """BRAM bits of a per-port pool of *buffer_num* slots on *port_num* ports.

    The paper allocates an independent pool per enabled port (Table III's
    buffer row scales linearly with port count).
    """
    if buffer_num <= 0:
        raise ConfigurationError(
            f"buffer_num must be positive, got {buffer_num}"
        )
    if port_num <= 0:
        raise ConfigurationError(f"port_num must be positive, got {port_num}")
    return buffer_num * port_num * BUFFER_SLOT_COST_BITS


def total_kb(allocations: Iterable[BramAllocation]) -> float:
    """Sum the Kb cost of several allocations."""
    return sum(alloc.kb for alloc in allocations)


def pareto_aspects(width: int, depth: int) -> List[BramAllocation]:
    """All candidate packings sorted by cost -- useful for reports/ablations."""
    _check_shape(width, depth)
    candidates = [
        BramAllocation(width, depth, aspect, aspect.blocks_for(width, depth))
        for aspect in ALL_ASPECTS
    ]
    candidates.sort(key=lambda alloc: _cost_key(alloc.aspect, alloc.blocks))
    return candidates
