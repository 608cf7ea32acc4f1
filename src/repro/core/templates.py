"""The five function templates (paper Fig. 5).

A template encapsulates one component's *fixed processing logic* and exposes
only its *resource parameters* -- the decoupling at the heart of TSN-Builder.
Each template knows:

* which of the seven customization APIs (Table II) parameterize it;
* its memory resources for a given :class:`~repro.core.config.SwitchConfig`
  (the component's slice of the Fig. 4 resource view);
* how to *elaborate* for a platform: the ``sim`` backend returns the
  component classes the dataplane substrate integrates
  (:class:`~repro.switch.device.TsnSwitch` plays the role FAST played for
  the FPGA prototype), and the ``rtl`` backend emits a parameterized
  Verilog module (:mod:`repro.rtl`).

Submodule structure follows the paper:

=================  =====================================================
Time Sync          clock collection, correction calculation, clock
                   correction (gPTP)
Packet Switch      parser, lookup
Ingress Filter     classifier, meters
Gate Ctrl          In/Out GCL update, queue gates
Egress Sched       strict-priority scheduler, CBS (token bucket)
=================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Type

from repro.switch.scheduler import StrictPriorityScheduler

from .config import SwitchConfig
from .errors import SynthesisError
from .resources import (
    BufferResource,
    Component,
    QueueResource,
    TableResource,
)

__all__ = [
    "FunctionTemplate",
    "TimeSyncTemplate",
    "PacketSwitchTemplate",
    "IngressFilterTemplate",
    "GateCtrlTemplate",
    "EgressSchedTemplate",
    "DEFAULT_TEMPLATES",
    "default_template_set",
]


@dataclass(frozen=True)
class FunctionTemplate:
    """Base description shared by the five templates."""

    #: Which component of the composition (Fig. 3) this template implements.
    component: Component = Component.TIME_SYNC
    #: The Table II API calls that parameterize this template.
    api_calls: Tuple[str, ...] = ()
    #: Submodules of the fixed processing logic (Fig. 5).
    submodules: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.component.value

    # ------------------------------------------------------------ resources

    def table_resources(self, config: SwitchConfig) -> List[TableResource]:
        """This template's table slice of the config's resource view."""
        return [
            table
            for table in config.table_resources()
            if table.component is self.component
        ]

    def parameters(self, config: SwitchConfig) -> Dict[str, int]:
        """The injected resource parameters this template consumes."""
        return {}


class TimeSyncTemplate(FunctionTemplate):
    """gPTP time synchronization: no table resources, only logic + registers.

    The paper's resource view (Fig. 4) assigns Time Sync no BRAM tables --
    its state is a handful of registers -- which is why Table II has no
    ``set_*`` call for it.  Elaboration binds the
    :mod:`repro.timesync` gPTP engine to the device clock.
    """

    def __init__(self) -> None:
        super().__init__(
            component=Component.TIME_SYNC,
            api_calls=(),
            submodules=(
                "clock_collection",
                "correction_calculation",
                "clock_correction",
            ),
        )


class PacketSwitchTemplate(FunctionTemplate):
    """Forwarding lookup: parser + unicast/multicast table search."""

    def __init__(self) -> None:
        super().__init__(
            component=Component.PACKET_SWITCH,
            api_calls=("set_switch_tbl",),
            submodules=("parser", "lookup"),
        )

    def parameters(self, config: SwitchConfig) -> Dict[str, int]:
        return {
            "unicast_size": config.unicast_size,
            "multicast_size": config.multicast_size,
        }


class IngressFilterTemplate(FunctionTemplate):
    """Flow classification + token-bucket policing."""

    def __init__(self) -> None:
        super().__init__(
            component=Component.INGRESS_FILTER,
            api_calls=("set_class_tbl", "set_meter_tbl"),
            submodules=("classifier", "meters"),
        )

    def parameters(self, config: SwitchConfig) -> Dict[str, int]:
        return {
            "class_size": config.class_size,
            "meter_size": config.meter_size,
        }


class GateCtrlTemplate(FunctionTemplate):
    """Gated queue management: In/Out GCLs, metadata queues, buffer pool."""

    def __init__(self) -> None:
        super().__init__(
            component=Component.GATE_CTRL,
            api_calls=("set_gate_tbl", "set_queues", "set_buffers"),
            submodules=("gcl_update", "in_gates", "out_gates", "queues"),
        )

    def parameters(self, config: SwitchConfig) -> Dict[str, int]:
        return {
            "gate_size": config.gate_size,
            "queue_num": config.queue_num,
            "queue_depth": config.queue_depth,
            "buffer_num": config.buffer_num,
            "port_num": config.port_num,
        }

    def queue_resource(self, config: SwitchConfig) -> QueueResource:
        return config.queue_resource()

    def buffer_resource(self, config: SwitchConfig) -> BufferResource:
        return config.buffer_resource()


class EgressSchedTemplate(FunctionTemplate):
    """Strict-priority selection with credit-based shaping.

    Subclass and override :meth:`scheduler_factory` to swap the arbitration
    logic (e.g. deficit round robin below the TS queues) while keeping the
    CBS resource parameters -- the "replace a template, reuse the rest"
    workflow of the paper's developing model.  A run picks the set up as
    ``RunPlan(templates=...)``.
    """

    def __init__(self) -> None:
        super().__init__(
            component=Component.EGRESS_SCHED,
            api_calls=("set_cbs_tbl",),
            submodules=("scheduler", "cbs"),
        )

    def parameters(self, config: SwitchConfig) -> Dict[str, int]:
        return {
            "cbs_map_size": config.cbs_map_size,
            "cbs_size": config.cbs_size,
            "port_num": config.port_num,
        }

    def scheduler_factory(self) -> StrictPriorityScheduler:
        """Build one port's egress arbiter (called per port at elaboration)."""
        return StrictPriorityScheduler()


#: The template classes in composition order.
DEFAULT_TEMPLATES: Tuple[Type[FunctionTemplate], ...] = (
    PacketSwitchTemplate,
    IngressFilterTemplate,
    GateCtrlTemplate,
    EgressSchedTemplate,
    TimeSyncTemplate,
)


def default_template_set() -> List[FunctionTemplate]:
    """Instances of all five templates."""
    return [cls() for cls in DEFAULT_TEMPLATES]


def check_complete(templates: Sequence[FunctionTemplate]) -> None:
    """A synthesizable set must cover all five components exactly once."""
    seen: Dict[Component, str] = {}
    for template in templates:
        if template.component in seen:
            raise SynthesisError(
                f"component {template.component.value!r} provided by both "
                f"{seen[template.component]!r} and "
                f"{type(template).__name__!r}"
            )
        seen[template.component] = type(template).__name__
    missing = [c.value for c in Component if c not in seen]
    if missing:
        raise SynthesisError(f"no template for component(s): {missing}")
