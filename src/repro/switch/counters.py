"""Per-switch dataplane counters.

One :class:`SwitchCounters` per device aggregates what happened to every
frame: forwarded, or dropped at which stage.  The QoS experiments assert on
these (TS traffic must show zero drops of any kind), and the ablation
benchmarks read them to show *where* loss appears when a resource is
undersized (tail drops for queue depth, buffer-exhaustion drops for the
pool, policer drops for meters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["SwitchCounters"]


@dataclass
class SwitchCounters:
    """Frame-accounting for one switch."""

    received: int = 0
    forwarded: int = 0            # enqueued toward an egress port
    transmitted: int = 0          # completed serialization on some port
    dropped_unknown_dst: int = 0  # unicast/multicast lookup miss
    dropped_policer: int = 0      # meter declared the frame non-conforming
    dropped_gate: int = 0         # in-gate closed on arrival (802.1Qci filter)
    dropped_tail: int = 0         # queue at depth
    dropped_no_buffer: int = 0    # buffer pool exhausted
    dropped_corrupt: int = 0      # FCS check failed at ingress (bit errors)
    per_queue_enqueued: Dict[int, int] = field(default_factory=dict)

    @property
    def dropped_total(self) -> int:
        return (
            self.dropped_unknown_dst
            + self.dropped_policer
            + self.dropped_gate
            + self.dropped_tail
            + self.dropped_no_buffer
            + self.dropped_corrupt
        )

    def as_dict(self) -> Dict[str, int]:
        """Flat counter dump (used by reports and failure diagnostics).

        Per-queue enqueue counts flatten to ``enqueued_q<id>`` keys so the
        result stays ``Dict[str, int]`` and diffs cleanly in JSON summaries.
        """
        flat = {
            "received": self.received,
            "forwarded": self.forwarded,
            "transmitted": self.transmitted,
            "dropped_unknown_dst": self.dropped_unknown_dst,
            "dropped_policer": self.dropped_policer,
            "dropped_gate": self.dropped_gate,
            "dropped_tail": self.dropped_tail,
            "dropped_no_buffer": self.dropped_no_buffer,
            "dropped_corrupt": self.dropped_corrupt,
            "dropped_total": self.dropped_total,
        }
        for queue_id in sorted(self.per_queue_enqueued):
            flat[f"enqueued_q{queue_id}"] = self.per_queue_enqueued[queue_id]
        return flat
