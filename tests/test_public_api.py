"""The package's public surface."""

import repro


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "0.1.0"

    def test_exception_hierarchy_rooted(self):
        for name in (
            "ConfigurationError",
            "CapacityError",
            "SchedulingError",
            "SimulationError",
            "SynthesisError",
            "TopologyError",
        ):
            assert issubclass(getattr(repro, name), repro.TsnBuilderError)

    def test_docstring_quickstart_is_runnable(self):
        """The __init__ docstring's example must not rot."""
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
        assert round(config.total_bram_kb) == 2106

        topo = ring_topology(switch_count=2, talkers=["talker0"])
        flows = production_cell_flows(["talker0"], "listener", flow_count=8)
        result = Testbed(RunPlan(topo, config, flows)).run(
            duration_ns=15_000_000
        )
        assert result.ts_loss == 0.0

    def test_scheduling_surface_exported(self):
        """The pluggable scheduling layer is part of the public API."""
        for name in (
            "Scheduler",
            "SchedPolicy",
            "SchedulePlan",
            "SchedulingProblem",
            "available_backends",
            "make_scheduler",
            "plan_flows",
        ):
            assert name in repro.__all__, name
            assert hasattr(repro, name), name
        assert {"greedy", "exact", "anneal", "unplanned"} <= set(
            repro.available_backends()
        )

    def test_api_doctest_value(self):
        """The CustomizationAPI docstring promises 2106."""
        import doctest

        import repro.core.api as api_module

        failures, _ = doctest.testmod(api_module, verbose=False)
        assert failures == 0
