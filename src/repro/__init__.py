"""TSN-Builder reproduction: template-based customization of
resource-efficient Time-Sensitive Networking switches (Yan et al., DAC 2020).

The public API groups into four layers:

* **Customization model** (the paper's contribution) --
  :class:`CustomizationAPI` (the seven Table II calls),
  :class:`SwitchConfig`, :class:`TSNBuilder` and the five function
  templates, the sizing guidelines in :mod:`repro.core.sizing`, and the
  BRAM cost model in :mod:`repro.core.bram`.

* **Dataplane substrate** -- :class:`TsnSwitch` and its components
  (:mod:`repro.switch`), driven by the event kernel in :mod:`repro.sim`.

* **Scenario layer** -- topologies, hosts, links, the TSN analyzer and the
  :class:`Testbed` orchestrator (:mod:`repro.network`), traffic profiles
  (:mod:`repro.traffic`), CQF slotting/bounds (:mod:`repro.cqf`), and the
  pluggable flow-scheduling layer (:mod:`repro.sched`: greedy / exact /
  anneal / unplanned backends behind :func:`make_scheduler`, with CQF,
  CSQF and Multi-CQF shaper modes).

* **Outputs** -- resource reports (:mod:`repro.analysis.report`), the
  observability layer (:mod:`repro.obs`: :class:`MetricsRegistry`,
  wall-clock profiling, Chrome-trace export), and the Verilog generator
  backend (:mod:`repro.rtl`).

Quickstart::

    from repro import CustomizationAPI, RunPlan, Testbed, ring_topology
    from repro.traffic.iec60802 import production_cell_flows

    api = CustomizationAPI("ring-node")
    api.set_switch_tbl(1024, 0)
    api.set_class_tbl(1024)
    api.set_meter_tbl(1024)
    api.set_gate_tbl(2, 8, 1)
    api.set_cbs_tbl(3, 3, 1)
    api.set_queues(12, 8, 1)
    api.set_buffers(96, 1)
    config = api.build()

    topo = ring_topology()
    flows = production_cell_flows(["talker0"], "listener", flow_count=64)
    result = Testbed(RunPlan(topo, config, flows)).run(duration_ns=50_000_000)
    print(result.ts_summary)
"""

from .campaign import Campaign, SweepSpec
from .core.api import CustomizationAPI
from .core.bram import allocate as allocate_bram
from .core.config import EntryWidths, SwitchConfig
from .core.errors import (
    CapacityError,
    ConfigurationError,
    IncompleteCustomizationError,
    SchedulingError,
    SpecValidationError,
    SimulationError,
    SynthesisError,
    TopologyError,
    TsnBuilderError,
)
from .core.presets import (
    bcm53154_config,
    customized_config,
    linear_config,
    ring_config,
    star_config,
)
from .core.optimizer import optimize
from .core.resources import ResourceReport
from .core.sizing import derive_config
from .cqf.bounds import CqfBounds, cqf_bounds
from .cqf.schedule import CqfSchedule
from .faults import FaultInjector, FaultPlan, FaultReport
from .network.program import check_deployment
from .network.scenario import ScenarioSpec
from .sched import (
    SchedPolicy,
    SchedulePlan,
    SchedulingProblem,
    Scheduler,
    available_backends,
    make_scheduler,
    plan_flows,
)
from .obs.chrome_trace import write_chrome_trace
from .obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from .obs.profiler import WallClockProfiler
from .network.testbed import RunPlan, ScenarioResult, Testbed
from .network.topology import (
    TopologySpec,
    dual_path_topology,
    frer_ring_topology,
    linear_topology,
    ring_topology,
    star_topology,
)
from .switch.device import TsnSwitch
from .traffic.flows import FlowSet, FlowSpec, TrafficClass

__version__ = "0.1.0"

__all__ = [
    "CustomizationAPI",
    "Campaign",
    "SweepSpec",
    "SwitchConfig",
    "EntryWidths",
    "ResourceReport",
    "TsnBuilderError",
    "ConfigurationError",
    "IncompleteCustomizationError",
    "SpecValidationError",
    "CapacityError",
    "SchedulingError",
    "SimulationError",
    "SynthesisError",
    "TopologyError",
    "allocate_bram",
    "bcm53154_config",
    "customized_config",
    "star_config",
    "linear_config",
    "ring_config",
    "CqfBounds",
    "cqf_bounds",
    "CqfSchedule",
    "TsnSwitch",
    "FlowSpec",
    "FlowSet",
    "TrafficClass",
    "TopologySpec",
    "ring_topology",
    "linear_topology",
    "star_topology",
    "dual_path_topology",
    "frer_ring_topology",
    "FaultPlan",
    "FaultInjector",
    "FaultReport",
    "RunPlan",
    "Testbed",
    "ScenarioResult",
    "ScenarioSpec",
    "derive_config",
    "optimize",
    "check_deployment",
    "Scheduler",
    "SchedPolicy",
    "SchedulePlan",
    "SchedulingProblem",
    "available_backends",
    "make_scheduler",
    "plan_flows",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "WallClockProfiler",
    "write_chrome_trace",
    "__version__",
]
