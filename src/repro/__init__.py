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

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule defining it (``module:attribute`` where the
#: attribute is named differently).  ``import repro`` loads none of them:
#: :func:`__getattr__` imports a name's module the first time it is read.
_EXPORTS = {
    "CustomizationAPI": "core.api",
    "Campaign": "campaign",
    "SweepSpec": "campaign",
    "SwitchConfig": "core.config",
    "EntryWidths": "core.config",
    "ResourceReport": "core.resources",
    "TsnBuilderError": "core.errors",
    "ConfigurationError": "core.errors",
    "IncompleteCustomizationError": "core.errors",
    "SpecValidationError": "core.errors",
    "CapacityError": "core.errors",
    "SchedulingError": "core.errors",
    "SimulationError": "core.errors",
    "SynthesisError": "core.errors",
    "TopologyError": "core.errors",
    "allocate_bram": "core.bram:allocate",
    "bcm53154_config": "core.presets",
    "customized_config": "core.presets",
    "star_config": "core.presets",
    "linear_config": "core.presets",
    "ring_config": "core.presets",
    "CqfBounds": "cqf.bounds",
    "cqf_bounds": "cqf.bounds",
    "CqfSchedule": "cqf.schedule",
    "TsnSwitch": "switch.device",
    "FlowSpec": "traffic.flows",
    "FlowSet": "traffic.flows",
    "TrafficClass": "traffic.flows",
    "TopologySpec": "network.topology",
    "ring_topology": "network.topology",
    "linear_topology": "network.topology",
    "star_topology": "network.topology",
    "dual_path_topology": "network.topology",
    "frer_ring_topology": "network.topology",
    "FaultPlan": "faults",
    "FaultInjector": "faults",
    "FaultReport": "faults",
    "RunPlan": "network.testbed",
    "Testbed": "network.testbed",
    "ScenarioResult": "network.testbed",
    "ScenarioSpec": "network.scenario",
    "derive_config": "core.sizing",
    "optimize": "core.optimizer",
    "check_deployment": "network.program",
    "Scheduler": "sched",
    "SchedPolicy": "sched",
    "SchedulePlan": "sched",
    "SchedulingProblem": "sched",
    "available_backends": "sched",
    "make_scheduler": "sched",
    "plan_flows": "sched",
    "MetricsRegistry": "obs.metrics",
    "Counter": "obs.metrics",
    "Gauge": "obs.metrics",
    "Histogram": "obs.metrics",
    "WallClockProfiler": "obs.profiler",
    "write_chrome_trace": "obs.chrome_trace",
}

__all__ = [*_EXPORTS, "__version__"]


def _lazy_exports(namespace: dict, exports: dict):
    """A package's module ``__getattr__`` and ``__dir__`` (PEP 562): each
    name of *exports* is imported on first read and kept in *namespace*."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        target = exports.get(name)
        if target is None:
            # Lets ``from repro import sched`` fall back to the submodule.
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module, _, attribute = target.partition(":")
        value = getattr(importlib.import_module(f".{module}", package),
                        attribute or name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
