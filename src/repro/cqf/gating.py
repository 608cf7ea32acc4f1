"""The gating disciplines -- their gate lists and every per-discipline
fact -- in one table.

The paper's evaluation "put[s] a static configuration on the In/Out Gate
Control list to implement [the] Cyclic Queuing and Forwarding model (CQF)"
-- hence ``gate_size = 2`` in Table III.  :meth:`Discipline.rotation` builds
it for a TS queue pair (A, B):

=========  ====================  ====================
slot       in-gates open         out-gates open
=========  ====================  ====================
even       A  (+ all non-TS)     B  (+ all non-TS)
odd        B  (+ all non-TS)     A  (+ all non-TS)
=========  ====================  ====================

A frame crossing ``h`` switches then arrives inside Eq. (1)'s
``[(h-1)·T, (h+1)·T]``; RC/BE queues stay open, regulated by priority and
CBS.  Every such list is one rotation (:func:`rotation_gcl_entries`):
``csqf`` turns three queues, so a hop costs two slots,
``[(2h-1)·T, (2h+1)·T]``; ``multi_cqf`` turns a second pair at a long slot
(``slot2_us``, default twice the slot) and a flow keeps Eq. (1) at its
system's slot.  ``qbv`` synthesizes 802.1Qbv windows per port from the
plan and has no slot window.

A document names a :class:`Discipline` with ``gate_mechanism`` and
``sched.shaper`` (plus ``sched.slot2_us``); :func:`from_document` maps
them, and :data:`BY_DOCUMENT` holds the pairs a document may give.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, \
    Tuple

from repro.core.errors import ConfigurationError, SchedulingError
from repro.core.units import us
from .bounds import CqfBounds, cqf_bounds
from .schedule import CqfSchedule

if TYPE_CHECKING:
    from repro.network.testbed import RunPlan
    from repro.switch.tables import GateEntry

__all__ = [
    "BY_DOCUMENT", "CQF", "CSQF", "DEFAULT_TS_QUEUE_PAIR", "DISCIPLINES",
    "Discipline", "GATE_MECHANISMS", "MULTI_CQF", "QBV", "SHAPERS",
    "from_document", "multi_cqf_gate_entry_count", "rotation_gcl_entries",
]

#: The evaluation maps TS traffic to the two highest-priority queues.
DEFAULT_TS_QUEUE_PAIR: Tuple[int, int] = (6, 7)
#: RC traffic spreads over queues 5, 4, 3 (the paper's "three queues for RC
#: flows in each port").
RC_QUEUES: Tuple[int, ...] = (5, 4, 3)
BE_QUEUE = 0

Lists = Tuple[List["GateEntry"], List["GateEntry"]]
PortGates = tuple  # (in entries, out entries, CQF groups)


def rotation_gcl_entries(
    slot_ns: int,
    groups: Sequence[Sequence[int]],
    slots: Sequence[int],
    queue_num: int = 8,
) -> Lists:
    """(in_entries, out_entries) turning each of *groups* every one of its
    *slots*: the in-gate opens the gathering member, the out-gate the next.
    Entries last *slot_ns* and cover the hyper-cycle."""
    if slot_ns <= 0:
        raise SchedulingError(f"slot size must be positive, got {slot_ns}")
    flat = [q for group in groups for q in group]
    if len(set(flat)) != len(flat):
        raise SchedulingError(f"TS queue groups must use distinct queues, "
                              f"got {tuple(map(tuple, groups))}")
    for queue in flat:
        if not 0 <= queue < queue_num:
            raise SchedulingError(f"TS queue {queue} outside the {queue_num} "
                                  f"configured queues")
    # The dataplane's types are imported where a list is built, so that
    # reading the discipline table (the CLI's choices) loads no switch.
    from repro.switch.tables import GateEntry

    non_ts = sum(1 << q for q in range(queue_num) if q not in flat)
    cycle = math.lcm(*(len(g) * s for g, s in zip(groups, slots)))
    in_entries: List[GateEntry] = []
    out_entries: List[GateEntry] = []
    for start in range(0, cycle, slot_ns):
        in_mask = out_mask = non_ts
        for group, system_slot in zip(groups, slots):
            turn = start // system_slot
            in_mask |= 1 << group[turn % len(group)]
            out_mask |= 1 << group[(turn + 1) % len(group)]
        in_entries.append(GateEntry(in_mask, slot_ns))
        out_entries.append(GateEntry(out_mask, slot_ns))
    return in_entries, out_entries


def multi_cqf_gate_entry_count(slot_ns: int, slot2_ns: int) -> int:
    """Entries per GCL of a Multi-CQF port: the hyper-cycle
    ``lcm(2 * slot, 2 * slot2) = 2 * slot2`` in base slots."""
    if slot_ns <= 0:
        raise SchedulingError(f"slot size must be positive, got {slot_ns}")
    if slot2_ns <= 0 or slot2_ns % slot_ns:
        raise SchedulingError(
            f"multi_cqf slot2 ({slot2_ns}ns) must be a positive multiple "
            f"of the base slot ({slot_ns}ns)"
        )
    return 2 * (slot2_ns // slot_ns)


@dataclass(frozen=True)
class Discipline:
    """One gating discipline (see the module docstring)."""

    name: str
    gate_mechanism: str  # the document keys that name it
    shaper: str
    #: ``(high, low)`` TS pair -> (TS queue groups, RC queues).
    layout: Callable[[int, int], tuple]
    #: Slots a hop costs; ``None``: no slot window and no rotation (Qbv
    #: windows are synthesized per port).
    slots_per_hop: Optional[int]
    long_slot: bool = False  # a second CQF system, at the long slot
    frer: bool = False  # FRER replicas run over it
    #: An overflowing gate list's name, and the advice after it.
    gate_list: str = ""
    gate_hint: str = ""
    slot2_us: Optional[float] = None

    def queue_layout(self, ts_queue_pair: Tuple[int, int]) -> tuple:
        """``(TS queue groups, RC queues)`` around *ts_queue_pair*; RC
        flows need classification entries where the RC queues moved off
        their PCPs (:data:`RC_QUEUES`)."""
        return self.layout(*ts_queue_pair)

    def slot2_ns(self, slot_ns: int) -> int:
        """The long-slot system's slot size (default: twice *slot_ns*)."""
        slot2 = us(self.slot2_us) if self.slot2_us is not None \
            else 2 * slot_ns
        multi_cqf_gate_entry_count(slot_ns, slot2)  # a positive multiple
        return slot2

    def systems(self, ts_flows: list, slot_ns: int) -> List[tuple]:
        """``(slot, flows)`` per CQF system.  A flow whose period is a
        multiple of the long slot rides it: slower flows tolerate the
        coarser slotting and buy the base system headroom."""
        if not self.long_slot:
            return [(slot_ns, ts_flows)]
        slot2_ns = self.slot2_ns(slot_ns)
        base, long = [], []
        for flow in ts_flows:
            slower = flow.period_ns is not None \
                and flow.period_ns % slot2_ns == 0
            (long if slower else base).append(flow)
        return [(slot_ns, base), (slot2_ns, long)]

    def drain_slot_ns(self, slot_ns: int) -> int:
        """The longest slot a flow rides."""
        return self.slot2_ns(slot_ns) if self.long_slot else slot_ns

    def window(self, hops: int, slot_ns: int) -> Optional[CqfBounds]:
        """The latency window over *hops* switches at *slot_ns*: Eq. (1)
        over ``slots_per_hop * hops`` slots, ``None`` for Qbv."""
        if self.slots_per_hop is None:
            return None
        return cqf_bounds(self.slots_per_hop * hops, slot_ns)

    def rotation(self, slot_ns: int, ts_queue_pair: Tuple[int, int],
                 queue_num: int) -> PortGates:
        """The gate lists of every port: each TS queue group turns at its
        system's slot."""
        from repro.switch.gates import CqfGroup

        groups, _ = self.queue_layout(ts_queue_pair)
        slots = (slot_ns, self.slot2_ns(slot_ns))[:len(groups)]
        return (*rotation_gcl_entries(slot_ns, groups, slots, queue_num),
                [CqfGroup(*group) for group in groups])

    def gate_size(self, schedule: CqfSchedule, plan, queue_num: int) -> int:
        """Guideline 2: the entries a gate list holds.  A synthesized Qbv
        list takes one per slot of the cycle, or the synthesizer's
        ``3 * active_slots + 1`` bound when that is larger."""
        if self.slots_per_hop is None:
            from repro.qbv.synthesis import estimate_gate_size

            return max(schedule.slot_count, estimate_gate_size(plan))
        return len(self.rotation(schedule.slot_ns, DEFAULT_TS_QUEUE_PAIR,
                                 queue_num)[0])

    def port_gates(
        self, run_plan: "RunPlan", hop_ports: Callable
    ) -> Dict[str, Dict[int, PortGates]]:
        """Each switch's gated ports and their lists; *hop_ports* gives a
        flow's (switch, egress port) per hop."""
        if self.slots_per_hop is None:
            return _synthesized_gates(run_plan, hop_ports)
        gates = self.rotation(run_plan.slot_ns, run_plan.ts_queue_pair,
                              run_plan.config.queue_num)
        return {name: dict.fromkeys(range(ports), gates)
                for name, ports in run_plan.topology.switch_ports.items()}


def _synthesized_gates(
    run_plan: "RunPlan", hop_ports: Callable
) -> Dict[str, Dict[int, PortGates]]:
    """Per-port Qbv windows synthesized from the plan: in-gates stay
    open and TS frames cross each hop inside its window; ports no TS flow
    crosses keep the model's default lists."""
    from repro.qbv.synthesis import PortTraffic, TasSynthesizer
    from repro.switch.device import DEFAULT_PROCESSING_DELAY_NS
    from repro.switch.tables import GateEntry

    plan = run_plan.sched_plan
    if plan is None:
        raise ConfigurationError("Qbv gating needs TS flows to synthesize "
                                 "windows")
    schedule = plan.problem.schedule  # one CQF system: one plan
    synthesizer = TasSynthesizer(
        schedule,
        rate_bps=run_plan.rate_bps,
        processing_delay_ns=DEFAULT_PROCESSING_DELAY_NS,
        propagation_ns=run_plan.propagation_ns,
        queue_num=run_plan.config.queue_num,
        ts_queue=run_plan.ts_queue_pair[1],
    )
    # (switch, port) -> (hop depths, slot -> the flows crossing then)
    ports: Dict[Tuple[str, int], Tuple[set, Dict[int, list]]] = {}
    for flow in run_plan.flows.ts_flows:
        offset = plan.offsets.get(flow.flow_id)
        if offset is None:
            continue  # rejected by a max_admission plan
        slots = range(
            offset, schedule.slot_count, flow.period_ns // schedule.slot_ns
        )
        for hop, port_key in enumerate(hop_ports(flow)):
            depths, per_slot = ports.setdefault(port_key, (set(), {}))
            depths.add(hop)
            for slot in slots:
                per_slot.setdefault(slot, []).append(flow)
    always_open = (GateEntry(0xFF, 1_000_000),)
    gates: Dict[str, Dict[int, PortGates]] = {}
    for (switch_name, port_id), (depths, per_slot) in ports.items():
        out = synthesizer.synthesize_port(
            PortTraffic(per_slot, tuple(sorted(depths)))
        ).entries
        gates.setdefault(switch_name, {})[port_id] = (always_open, out, ())
    return gates


CQF = Discipline(
    "cqf", "cqf", "cqf", lambda high, low: (((high, low),), RC_QUEUES),
    slots_per_hop=1, frer=True, gate_list="cqf gate list",
)
CSQF = Discipline(
    "csqf", "cqf", "csqf",
    lambda high, low: (((high - 1, high, low),),
                       tuple(q - 1 for q in RC_QUEUES)),
    slots_per_hop=2, gate_list="csqf gate list",
)
MULTI_CQF = Discipline(
    "multi_cqf", "cqf", "multi_cqf",
    lambda high, low: (((high, low), (high - 2, low - 2)),
                       tuple(q - 2 for q in RC_QUEUES)),
    slots_per_hop=1, long_slot=True, gate_list="multi_cqf gate list",
)
QBV = dataclasses.replace(
    CQF, name="qbv", gate_mechanism="qbv", slots_per_hop=None, frer=False,
    gate_list="Qbv schedule",
    gate_hint="; size the config with repro.qbv.synthesis.estimate_gate_size",
)

DISCIPLINES: Dict[str, Discipline] = {
    d.name: d for d in (CQF, CSQF, MULTI_CQF, QBV)
}
#: ``(gate_mechanism, sched.shaper)`` -> the discipline they name; the
#: scenario schema refuses any other pair.
BY_DOCUMENT: Dict[Tuple[str, str], Discipline] = {
    (d.gate_mechanism, d.shaper): d for d in DISCIPLINES.values()
}
GATE_MECHANISMS = tuple(dict.fromkeys(g for g, _ in BY_DOCUMENT))
SHAPERS = tuple(dict.fromkeys(s for _, s in BY_DOCUMENT))


def from_document(gate_mechanism: str = "cqf", shaper: str = "cqf",
                  slot2_us: Optional[float] = None) -> Discipline:
    """The discipline a document's ``gate_mechanism``, ``sched.shaper``
    and ``sched.slot2_us`` name."""
    discipline = BY_DOCUMENT.get((gate_mechanism, shaper))
    if discipline is None:
        raise ConfigurationError(
            f"gate_mechanism {gate_mechanism!r} does not run with shaper "
            f"{shaper!r}"
        )
    if slot2_us is not None and discipline.long_slot:
        discipline = dataclasses.replace(discipline, slot2_us=slot2_us)
    return discipline
