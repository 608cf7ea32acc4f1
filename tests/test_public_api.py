"""The package's public surface.

Every function, method and class under ``src/repro`` is either reached
from outside its own definition -- named somewhere in ``src/``,
``examples/``, ``benchmarks/`` or ``.github/`` -- or listed in
``docs/api.md`` as public API.  An ``__all__`` list or a lazy export table
does not count as a caller.  See what the scan finds, before the test
fails on it, with ``PYTHONPATH=src python -m tests.test_public_api``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import repro

ROOT = Path(__file__).parents[1]
CALLER_TREES = ("src", "examples", "benchmarks", ".github")
API_MD = ROOT / "docs" / "api.md"
WORD = re.compile(r"[A-Za-z_]\w*")
_EXPORT_LISTS = ("__all__", "_EXPORTS")


def _documented() -> set:
    """Every identifier in backticks in docs/api.md, outside its fenced
    blocks and the generated document reference."""
    text = re.sub(r"```.*?```", "", API_MD.read_text(), flags=re.S)
    text = re.sub(r"<!-- BEGIN document reference.*?"
                  r"<!-- END document reference -->", "", text, flags=re.S)
    return {word for span in re.findall(r"`([^`]+)`", text)
            for word in WORD.findall(span)}


def unreached():
    """``(name, path, line, lines)`` of every definition under src/repro
    whose name occurs no more often than it is defined, and that
    docs/api.md does not name."""
    counts, defined, definitions = Counter(), Counter(), []
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            try:
                text = path.read_text()
            except UnicodeDecodeError:
                continue
            counts.update(WORD.findall(text))
            if path.suffix != ".py" or tree != "src":
                continue
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defined[node.name] += 1
                    definitions.append((node.name, path.relative_to(ROOT),
                                        node.lineno,
                                        node.end_lineno - node.lineno + 1))
                elif isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) in _EXPORT_LISTS
                    for target in node.targets
                ):
                    for const in ast.walk(node.value):
                        if isinstance(const, ast.Constant) \
                                and isinstance(const.value, str):
                            counts.subtract(WORD.findall(const.value))
    documented = _documented()
    return [
        definition for definition in definitions
        if counts[definition[0]] <= defined[definition[0]]
        and definition[0] not in documented
        and not (definition[0].startswith("__")
                 and definition[0].endswith("__"))
    ]


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

    def test_every_definition_is_reached_or_documented(self):
        """Code that only tests call is deleted, moved into the tests, or
        documented as public API in docs/api.md."""
        found = unreached()
        assert not found, "reached by no caller and not in docs/api.md:\n" \
            + "\n".join(f"  {name}  {path}:{line}"
                        for name, path, line, _ in found)


if __name__ == "__main__":
    found = unreached()
    for name, path, line, lines in found:
        print(f"{name}  {path}:{line}  {lines} lines")
    print(f"{len(found)} definitions, {sum(f[3] for f in found)} lines, "
          f"reached by no caller and not in {API_MD.relative_to(ROOT)}")
