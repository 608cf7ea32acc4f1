"""One construction path: every simulated switch comes from a SwitchModel.

A testbed synthesizes one :class:`~repro.core.builder.SwitchModel` per
distinct enabled-port count and instantiates every node from it, so the
Verilog parameters, the BRAM report and the simulated device describe the
same switch.
"""

import re

import pytest

from repro.core.builder import SwitchModel, TSNBuilder
from repro.core.presets import customized_config
from repro.network.scenario import ScenarioSpec
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import ring_topology, star_topology
from repro.rtl.modules import params_header
from repro.traffic.iec60802 import production_cell_flows
from tests.test_golden_outputs import _DRR_TEMPLATES, PLAIN, SCENARIOS

_MACRO = re.compile(r"^`define TSN_(\w+)\s+(\d+)$", re.M)

#: Every sized field, as ``params_header`` spells it.
_PARAMS = (
    "port_num", "unicast_size", "multicast_size", "class_size",
    "meter_size", "gate_size", "queue_num", "cbs_map_size", "cbs_size",
    "queue_depth", "buffer_num",
)


def _golden_testbed(label):
    spec = ScenarioSpec.from_dict({**SCENARIOS, **PLAIN}[label])
    if label == "ring_drr":
        spec.extras["templates"] = _DRR_TEMPLATES
    testbed = spec.build_testbed()
    testbed.build()
    return testbed


@pytest.mark.parametrize("label", sorted({**SCENARIOS, **PLAIN}))
def test_rtl_macros_switch_config_and_bram_report_agree(label):
    testbed = _golden_testbed(label)
    assert testbed.models
    assert set(testbed.models) == {
        switch.config.port_num for switch in testbed.switches.values()
    }
    for ports, model in testbed.models.items():
        macros = {k: int(v) for k, v in _MACRO.findall(
            params_header(model.config))}
        assert macros["PORT_NUM"] == ports
        config = model.config
        assert {p: macros[p.upper()] for p in _PARAMS} == {
            p: getattr(config, p) for p in _PARAMS
        }
        report = model.resource_report()
        rows = {row.resource: row.parameters for row in report.rows}
        assert rows["Switch Tbl"] == (
            macros["UNICAST_SIZE"], macros["MULTICAST_SIZE"])
        assert rows["Class. Tbl"] == (macros["CLASS_SIZE"],)
        assert rows["Meter Tbl"] == (macros["METER_SIZE"],)
        assert rows["Gate Tbl"] == (
            macros["GATE_SIZE"], macros["QUEUE_NUM"], ports)
        assert rows["CBS Tbl"] == (
            macros["CBS_MAP_SIZE"], macros["CBS_SIZE"], ports)
        assert rows["Queues"] == (
            macros["QUEUE_DEPTH"], macros["QUEUE_NUM"], ports)
        assert rows["Buffers"] == (macros["BUFFER_NUM"], ports)
        for name, switch in testbed.switches.items():
            if switch.config.port_num != ports:
                continue
            assert switch.config == config.with_updates(name=name)
            assert switch.config.total_bram_kb == report.total_kb
            assert len(switch.ports) == ports
            for port in switch.ports:
                assert len(port.queues) == macros["QUEUE_NUM"]
    testbed.close()


def _count_construction(monkeypatch):
    models, built = [], []
    synthesize, instantiate = TSNBuilder.synthesize, SwitchModel.instantiate

    def counted_synthesize(self):
        models.append(synthesize(self))
        return models[-1]

    def counted_instantiate(self, *args, **kwargs):
        built.append(instantiate(self, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(TSNBuilder, "synthesize", counted_synthesize)
    monkeypatch.setattr(SwitchModel, "instantiate", counted_instantiate)
    return models, built


@pytest.mark.parametrize("topology,model_count", [
    (ring_topology(64, talkers=["talker0"]), 1),
    (star_topology(), 2),
], ids=["ring64", "star"])
def test_one_model_per_port_count_and_every_switch_instantiated(
    monkeypatch, topology, model_count
):
    models, built = _count_construction(monkeypatch)
    flows = production_cell_flows(["talker0"], "listener", flow_count=16)
    testbed = Testbed(RunPlan(
        topology, customized_config(topology.max_enabled_ports), flows
    ))
    testbed.build()
    assert len(models) == model_count
    assert sorted(testbed.models.values(), key=id) == sorted(models, key=id)
    assert len(built) == len(testbed.switches) == len(topology.switch_ports)
    assert {id(s) for s in built} == {id(s) for s in testbed.switches.values()}
    for name, switch in testbed.switches.items():
        assert switch.name == switch.config.name == name
    testbed.close()
