"""Units and conversions used throughout the reproduction.

Two unit families matter in this codebase:

* **Time** -- the simulator runs on integer *nanoseconds*.  Helpers here
  convert human-friendly microseconds/milliseconds/seconds into exact ``int``
  nanosecond counts and back.

* **Memory** -- the resource model works in exact *bits* internally and
  reports *kibibits*.  The paper writes "Kb" for what is numerically a
  kibibit (1024 bits): e.g. a 72 b x 16384-entry table is reported as
  1152 Kb = 72 * 16384 / 1024.  We follow the paper's notation in reports but
  keep all arithmetic exact.

Rates are expressed in bits per second; Gigabit Ethernet is
``GIGABIT = 1_000_000_000`` (decimal, as in the IEEE standard), so serializing
one byte at 1 Gbps takes exactly 8 ns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

# --------------------------------------------------------------------------
# Time: integer nanoseconds
# --------------------------------------------------------------------------

NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


def ns(value: Number) -> int:
    """Return *value* nanoseconds as an exact integer tick count."""
    return _to_int_ticks(value, NS, "ns")


def us(value: Number) -> int:
    """Return *value* microseconds in nanoseconds."""
    return _to_int_ticks(value, US, "us")


def ms(value: Number) -> int:
    """Return *value* milliseconds in nanoseconds."""
    return _to_int_ticks(value, MS, "ms")


def seconds(value: Number) -> int:
    """Return *value* seconds in nanoseconds."""
    return _to_int_ticks(value, SEC, "s")


def _to_int_ticks(value: Number, scale: int, unit: str) -> int:
    if isinstance(value, float):
        scaled = value * scale
        rounded = round(scaled)
        if abs(scaled - rounded) > 1e-6:
            raise ValueError(
                f"{value}{unit} is not an integral number of nanoseconds"
            )
        return int(rounded)
    if isinstance(value, Fraction):
        scaled_frac = value * scale
        if scaled_frac.denominator != 1:
            raise ValueError(
                f"{value}{unit} is not an integral number of nanoseconds"
            )
        return int(scaled_frac)
    return int(value) * scale


def fmt_time(t_ns: int) -> str:
    """Render a nanosecond count with the largest unit that stays readable.

    >>> fmt_time(65_000)
    '65us'
    >>> fmt_time(1_500)
    '1.5us'
    """
    for scale, unit in ((SEC, "s"), (MS, "ms"), (US, "us")):
        if abs(t_ns) >= scale:
            value = t_ns / scale
            if value == int(value):
                return f"{int(value)}{unit}"
            return f"{value:g}{unit}"
    return f"{t_ns}ns"


# --------------------------------------------------------------------------
# Memory: exact bits, reported in Kib ("Kb" in the paper's usage)
# --------------------------------------------------------------------------

BIT = 1
BYTE = 8
KIB = 1024          # the paper's "Kb"
MIB = 1024 * 1024


def kib(bits: Number) -> Fraction:
    """Exact kibibit count of *bits* bits (may be fractional)."""
    return Fraction(bits) / KIB


def fmt_kib(bits: Number) -> str:
    """Render a bit count in the paper's ``Kb`` notation.

    >>> fmt_kib(72 * 16384)
    '1152Kb'
    """
    value = kib(bits)
    if value.denominator == 1:
        return f"{int(value)}Kb"
    return f"{float(value):g}Kb"


# --------------------------------------------------------------------------
# Rates: bits per second
# --------------------------------------------------------------------------

KILOBIT_PER_S = 1_000
MEGABIT_PER_S = 1_000_000
GIGABIT_PER_S = 1_000_000_000

GIGABIT = GIGABIT_PER_S  # the testbed's 1 Gbps Ethernet links


def mbps(value: Number) -> int:
    """Return *value* Mbps as bits per second."""
    result = Fraction(value) * MEGABIT_PER_S
    if result.denominator != 1:
        raise ValueError(f"{value} Mbps is not an integral bit rate")
    return int(result)


def serialization_ns(frame_bytes: int, rate_bps: int) -> int:
    """Wire time in ns to serialize *frame_bytes* at *rate_bps*.

    Rounded up to a whole nanosecond -- a frame is never "done early" on the
    wire.  At 1 Gbps a 64 B frame takes 512 ns, a 1500 B frame 12 us.
    """
    bits = frame_bytes * BYTE
    return -(-bits * SEC // rate_bps)  # ceil division


# Ethernet framing constants (used for wire-occupancy accounting).
ETH_PREAMBLE_SFD_BYTES = 8
ETH_IFG_BYTES = 12
ETH_FCS_BYTES = 4
ETH_MIN_FRAME_BYTES = 64
ETH_MTU_FRAME_BYTES = 1518


def wire_bytes(frame_bytes: int) -> int:
    """Total wire occupancy of a frame including preamble/SFD and IFG.

    *frame_bytes* counts DA through FCS (the paper's "packet size").
    """
    return frame_bytes + ETH_PREAMBLE_SFD_BYTES + ETH_IFG_BYTES
