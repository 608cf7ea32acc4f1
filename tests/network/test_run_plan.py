"""One resolved run: ``RunPlan`` carries the plan, ``Testbed`` never plans.

A scenario run plans exactly once, at its own line rate, and the derived
configuration is sized from that very plan -- only the ``use_itp: false``
ablation (sized by greedy ITP, run unplanned) plans twice.
"""

import json
from pathlib import Path

import pytest

import repro.network.scenario as scenario_module
import repro.network.testbed as testbed_module
import repro.sched as sched_module
from repro.cli import main
from repro.core.errors import SchedulingError
from repro.core.presets import customized_config
from repro.network.scenario import ScenarioSpec
from repro.network.testbed import RunPlan, Testbed
from repro.network.topology import ring_topology
from repro.sched import SchedPolicy, plan_flows
from repro.traffic.iec60802 import production_cell_flows

MIXED = json.loads(
    (Path(__file__).parents[2] / "examples" / "sched_mixed_cell.json")
    .read_text()
)

#: The mixed cell on a 600 Mb/s line: exact proves peak 9 optimal at
#: 1 Gb/s, but at the run's own rate the best it finds is a feasible 10.
SLOW_MIXED = {**MIXED, "duration_ms": 4, "rate_bps": 600_000_000}

RING = {
    "name": "ring",
    "topology": {"kind": "ring", "switch_count": 2,
                 "talkers": ["talker0"], "listener": "listener"},
    "flows": {"ts_count": 16, "rc_mbps": 20},
    "config": "derive",
    "slot_us": 62.5,
    "duration_ms": 4,
}

EXPLICIT = {
    **RING,
    "config": {
        "port_num": 1, "unicast_size": 64, "multicast_size": 0,
        "class_size": 64, "meter_size": 64, "gate_size": 2,
        "queue_num": 8, "cbs_map_size": 3, "cbs_size": 3,
        "queue_depth": 8, "buffer_num": 64,
    },
}


@pytest.fixture
def plan_calls(monkeypatch):
    """Every ``plan_flows`` call, through whichever name it was made."""
    calls = []

    def counting(flows, slot_ns, rate_bps=10**9, policy=None, **discipline):
        calls.append(policy)
        return plan_flows(flows, slot_ns, rate_bps, policy, **discipline)

    monkeypatch.setattr(sched_module, "plan_flows", counting)
    monkeypatch.setattr(testbed_module, "plan_flows", counting)
    return calls


@pytest.fixture
def sizings(monkeypatch):
    """Every ``SizingResult`` a scenario derives."""
    results = []
    derive = scenario_module.derive_config

    def recording(*args, **kwargs):
        results.append(derive(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scenario_module, "derive_config", recording)
    return results


def _small_run_plan(**knobs):
    topology = ring_topology(switch_count=2, talkers=["talker0"])
    flows = production_cell_flows(["talker0"], "listener", flow_count=8)
    return RunPlan(topology, customized_config(1), flows, **knobs)


class TestPlanOnce:
    @pytest.mark.parametrize("doc", [RING, EXPLICIT],
                             ids=["derived", "explicit"])
    def test_one_plan_per_scenario_run(self, doc, plan_calls):
        ScenarioSpec.from_dict(doc).run()
        assert len(plan_calls) == 1

    def test_use_itp_off_sizes_and_runs_by_two_plans(self, plan_calls):
        result = ScenarioSpec.from_dict({**RING, "use_itp": False}).run()
        assert sorted(p.backend for p in plan_calls) == [
            "greedy", "unplanned",
        ]
        assert result.sched_plan.backend == "unplanned"

    def test_sized_plan_is_the_run_plan(self, sizings):
        testbed = ScenarioSpec.from_dict(SLOW_MIXED).build_testbed()
        (sizing,) = sizings
        assert testbed.sched_plan is sizing.sched_plan
        assert testbed.run_plan.sched_plan is sizing.sched_plan

    def test_repro_sched_plans_once_per_backend(
        self, tmp_path, capsys, plan_calls
    ):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(RING))
        assert main(["sched", str(path), "--compare", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["plans"]
        assert [p.backend for p in plan_calls] == [
            row["backend"] for row in rows
        ]

    def test_repro_sched_keeps_the_sizing_error(self, tmp_path, capsys):
        doc = {**RING, "flows": {"ts_count": 64, "size_bytes": 1500},
               "sched": {"utilization_limit": 0.05}}
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc))
        assert main(["sched", str(path), "--json"]) == 1
        (row,) = json.loads(capsys.readouterr().out)["plans"]
        assert row["status"] == "infeasible"
        assert "no injection slot" in row["sizing_error"]


class TestRunRate:
    def test_derived_sizing_plans_at_the_runs_rate(self, sizings):
        result = ScenarioSpec.from_dict(SLOW_MIXED).run()
        (sizing,) = sizings
        assert result.sched_plan.status == sizing.sched_plan.status
        assert (
            result.sched_plan.max_frames_per_slot
            == sizing.sched_plan.max_frames_per_slot
            == 10
        )
        assert result.max_queue_high_water() <= sizing.config.queue_depth

    def test_repro_sched_plans_at_the_runs_rate(self, tmp_path, capsys):
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(SLOW_MIXED))
        assert main(["sched", str(path), "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["plans"]
        run = ScenarioSpec.from_dict(SLOW_MIXED).run()
        assert row["status"] == run.sched_plan.status == "feasible"
        assert (
            row["peak_frames_per_slot"]
            == run.sched_plan.max_frames_per_slot
        )


class TestRunPlan:
    def test_testbed_takes_only_a_run_plan_and_observers(self):
        topology = ring_topology(switch_count=2, talkers=["talker0"])
        flows = production_cell_flows(["talker0"], "listener", flow_count=8)
        with pytest.raises(TypeError):
            Testbed(topology, customized_config(1), flows)

    def test_plans_only_when_no_plan_is_handed_in(self, plan_calls):
        run_plan = _small_run_plan()
        assert len(plan_calls) == 1
        again = RunPlan(
            run_plan.topology, run_plan.config, run_plan.flows,
            sched_plan=run_plan.sched_plan,
        )
        testbed = Testbed(again)
        testbed.run(duration_ns=2_000_000)
        assert len(plan_calls) == 1
        assert testbed.sched_plan is run_plan.sched_plan

    def test_is_frozen(self):
        run_plan = _small_run_plan()
        with pytest.raises(AttributeError):
            run_plan.slot_ns = 125_000

    def test_infeasibility_is_raised_by_build(self):
        topology = ring_topology(switch_count=2, talkers=["talker0"])
        flows = production_cell_flows(
            ["talker0"], "listener", flow_count=64, size_bytes=1500
        )
        run_plan = RunPlan(
            topology, customized_config(1), flows,
            sched=SchedPolicy(utilization_limit=0.05),
        )
        assert run_plan.sched_plan.status == "infeasible"
        testbed = Testbed(run_plan)
        with pytest.raises(SchedulingError, match="no injection slot"):
            testbed.build()
