"""The complete resource specification of one TSN switch.

:class:`SwitchConfig` aggregates every parameter reachable through the
paper's customization APIs (Table II) plus the entry widths the evaluation
fixes (Section IV.B).  It is a plain, serializable value object: the
customization API (:mod:`repro.core.api`) builds one incrementally, the
sizing guidelines (:mod:`repro.core.sizing`) derive one from application
features, the presets (:mod:`repro.core.presets`) hold the published
commercial/customized parameter sets, and the templates elaborate it into
either simulation components or Verilog parameters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional

from repro.schema import NON_NEGATIVE, POSITIVE, check, described, \
    fields_table, range_problems

from . import bram, resources
from .errors import ConfigurationError, SpecValidationError
from .resources import (
    BufferResource,
    Component,
    QueueResource,
    ReportRow,
    ResourceReport,
    Sharing,
    TableResource,
)

__all__ = ["SwitchConfig", "EntryWidths"]


@dataclass(frozen=True)
class EntryWidths:
    """Bit widths of each table entry kind.

    Defaults are the widths the paper's evaluation uses; they are grouped
    here (rather than hard-coded) because a different lookup key layout --
    e.g. adding an IP 5-tuple to the classifier -- changes widths without
    changing the customization model.
    """

    switch_tbl: int = described(resources.SWITCH_TBL_WIDTH, POSITIVE)
    class_tbl: int = described(resources.CLASS_TBL_WIDTH, POSITIVE)
    meter_tbl: int = described(resources.METER_TBL_WIDTH, POSITIVE)
    gate_tbl: int = described(resources.GATE_TBL_WIDTH, POSITIVE)
    cbs_tbl_total: int = described(resources.CBS_TBL_TOTAL_WIDTH, POSITIVE)
    queue_metadata: int = described(resources.QUEUE_METADATA_WIDTH, POSITIVE)

    def validate(self) -> None:
        for problem in range_problems(self):
            raise ConfigurationError(f"entry width {problem}")


@dataclass(frozen=True)
class SwitchConfig:
    """Every resource parameter of one customized TSN switch.

    Parameters map one-to-one onto the seven customization APIs of the
    paper's Table II:

    ===============  ========================================================
    set_switch_tbl   ``unicast_size``, ``multicast_size``
    set_class_tbl    ``class_size``
    set_meter_tbl    ``meter_size``
    set_gate_tbl     ``gate_size``, ``queue_num``, ``port_num``
    set_cbs_tbl      ``cbs_map_size``, ``cbs_size``, ``port_num``
    set_queues       ``queue_depth``, ``queue_num``, ``port_num``
    set_buffers      ``buffer_num``, ``port_num``
    ===============  ========================================================

    A ``multicast_size`` of 0 is allowed and means the multicast table is
    omitted entirely (the paper's prototype splits multicast flows into
    unicast flows and builds no multicast table).
    """

    name: str = "switch"
    port_num: int = described(1, POSITIVE, "enabled ports per switch")
    # Packet Switch
    unicast_size: int = described(1024, POSITIVE, "unicast table entries")
    multicast_size: int = described(0, NON_NEGATIVE, "0 omits the table")
    # Ingress Filter
    class_size: int = described(1024, POSITIVE, "classification entries")
    meter_size: int = described(1024, POSITIVE, "meter table entries")
    # Gate Ctrl
    gate_size: int = described(2, POSITIVE, "gate control list entries")
    queue_num: int = described(8, POSITIVE, "queues per port")
    # Egress Sched
    cbs_map_size: int = described(3, POSITIVE, "CBS map entries, <= queues")
    cbs_size: int = described(3, POSITIVE, "CBS shaper entries")
    # Queues / buffers
    queue_depth: int = described(8, POSITIVE, "descriptors per queue")
    buffer_num: int = described(96, POSITIVE, "buffers per port, >= depth")
    widths: EntryWidths = field(default_factory=EntryWidths,
                                metadata={"doc": "entry bit widths"})

    # ---------------------------------------------------------------- checks

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistent parameter."""
        self.widths.validate()
        for problem in range_problems(self):
            raise ConfigurationError(f"{self.name}: {problem}")
        if self.cbs_map_size > self.queue_num:
            raise ConfigurationError(
                f"{self.name}: cbs_map_size ({self.cbs_map_size}) cannot "
                f"exceed queue_num ({self.queue_num}) -- each CBS map entry "
                "binds one queue to a shaper"
            )
        if self.buffer_num < self.queue_depth:
            raise ConfigurationError(
                f"{self.name}: buffer_num ({self.buffer_num}) is smaller "
                f"than a single queue's depth ({self.queue_depth}); even one "
                "full queue could not be backed by buffers"
            )

    # --------------------------------------------------------- resource view

    def table_resources(self) -> List[TableResource]:
        """The table resources of this configuration (paper Fig. 4)."""
        tables = [
            TableResource(
                name="Switch Tbl",
                component=Component.PACKET_SWITCH,
                entry_width=self.widths.switch_tbl,
                size=self.unicast_size,
                sharing=Sharing.SHARED,
            ),
        ]
        if self.multicast_size > 0:
            tables.append(
                TableResource(
                    name="Multicast Tbl",
                    component=Component.PACKET_SWITCH,
                    entry_width=self.widths.switch_tbl,
                    size=self.multicast_size,
                    sharing=Sharing.SHARED,
                )
            )
        tables.extend(
            [
                TableResource(
                    name="Class. Tbl",
                    component=Component.INGRESS_FILTER,
                    entry_width=self.widths.class_tbl,
                    size=self.class_size,
                    sharing=Sharing.SHARED,
                ),
                TableResource(
                    name="Meter Tbl",
                    component=Component.INGRESS_FILTER,
                    entry_width=self.widths.meter_tbl,
                    size=self.meter_size,
                    sharing=Sharing.SHARED,
                ),
                # In-gate + out-gate table per port.
                TableResource(
                    name="Gate Tbl",
                    component=Component.GATE_CTRL,
                    entry_width=self.widths.gate_tbl,
                    size=self.gate_size,
                    sharing=Sharing.PER_PORT,
                    instances=2 * self.port_num,
                ),
                # CBS map table + CBS table per port.  The two entry kinds
                # total ``cbs_tbl_total`` bits; each table is a separate
                # physical memory, so each costs at least one primitive.
                TableResource(
                    name="CBS Tbl",
                    component=Component.EGRESS_SCHED,
                    entry_width=self.widths.cbs_tbl_total // 2,
                    size=max(self.cbs_map_size, self.cbs_size),
                    sharing=Sharing.PER_PORT,
                    instances=2 * self.port_num,
                ),
            ]
        )
        return tables

    def queue_resource(self) -> QueueResource:
        return QueueResource(
            depth=self.queue_depth,
            queue_num=self.queue_num,
            port_num=self.port_num,
            metadata_width=self.widths.queue_metadata,
        )

    def buffer_resource(self) -> BufferResource:
        return BufferResource(
            buffer_num=self.buffer_num,
            port_num=self.port_num,
        )

    def resource_report(self, title: Optional[str] = None) -> ResourceReport:
        """Full BRAM report -- one column of the paper's Table III."""
        self.validate()
        report = ResourceReport(title or self.name)
        for table in self.table_resources():
            if table.name == "Gate Tbl":
                params = (self.gate_size, self.queue_num, self.port_num)
            elif table.name == "CBS Tbl":
                params = (self.cbs_map_size, self.cbs_size, self.port_num)
            elif table.name == "Switch Tbl":
                params = (self.unicast_size, self.multicast_size)
            else:
                params = (table.size,)
            report.add(
                ReportRow(
                    resource=table.name,
                    width_label=f"{table.entry_width}b",
                    parameters=params,
                    bits=table.bits,
                )
            )
        queues = self.queue_resource()
        report.add(
            ReportRow(
                resource="Queues",
                width_label=f"{queues.metadata_width}b",
                parameters=(self.queue_depth, self.queue_num, self.port_num),
                bits=queues.bits,
            )
        )
        buffers = self.buffer_resource()
        report.add(
            ReportRow(
                resource="Buffers",
                width_label=f"{buffers.slot_bytes}B",
                parameters=(self.buffer_num, self.port_num),
                bits=buffers.bits,
            )
        )
        return report

    @property
    def total_bram_kb(self) -> float:
        return self.resource_report().total_kb

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-compatible)."""
        data = asdict(self)
        data["widths"] = asdict(self.widths)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SwitchConfig":
        """Rebuild from :meth:`to_dict` output, checked against
        :data:`CONFIG`."""
        problems = check(CONFIG, data)
        if problems:
            raise SpecValidationError("switch config", problems)
        return cls(**{**data, "widths": EntryWidths(**data.get("widths", {}))})

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SwitchConfig":
        return cls.from_dict(json.loads(text))

    def with_updates(self, **changes: Any) -> "SwitchConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def _consistent(data: Mapping[str, Any], path: str) -> List[str]:
    """The rules of :meth:`SwitchConfig.validate` that span fields."""
    try:
        SwitchConfig(**{**data, "name": path or "$", "widths": EntryWidths(
            **data.get("widths", {}))}).validate()
    except ConfigurationError as exc:
        return [str(exc)]
    return []


#: A SwitchConfig document: a scenario's explicit ``config``, or the file
#: ``repro emit-rtl --config`` reads.
CONFIG = fields_table(SwitchConfig, unknown="unknown SwitchConfig field{hint}",
                      rules=(_consistent,))
