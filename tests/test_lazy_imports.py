"""Each entry point imports what it runs, and nothing else.

``import repro`` resolves its public names on first use, the CLI builds its
parser from light modules and each command imports its own, and the
process-pool stack loads only when a sweep builds a pool.  Each test runs
one child interpreter, so what the test process already imported cannot
hide a load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_RUN_STACK = ("repro.sim", "repro.switch", "repro.network", "repro.campaign")
_POOL_STACK = ("multiprocessing", "concurrent.futures")


def _child(code: str, *args: str) -> dict:
    """Run *code* in a fresh interpreter; it prints one JSON document."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    child = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def _loaded(modules, prefixes):
    return sorted(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


_COMMANDS = """
import contextlib, io, json, runpy, sys
import repro
assert set(repro.__all__) <= set(dir(repro))   # dir() imports nothing
after_import = [m for m in sys.modules if m.startswith("repro.")]
seen = {}
for flag in sys.argv[1:]:
    sys.argv = ["repro", flag]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as exit:
            assert exit.code == 0, exit.code
    assert out.getvalue(), flag
    seen[flag] = sorted(sys.modules)
print(json.dumps({"import": after_import, "commands": seen}))
"""


def test_help_and_version_load_no_run_stack():
    report = _child(_COMMANDS, "--help", "--version")
    # ``import repro`` alone loads no subpackage.
    assert report["import"] == []
    for flag, modules in report["commands"].items():
        assert _loaded(modules, _RUN_STACK) == [], flag
        assert _loaded(modules, _POOL_STACK) == [], flag


_RUN_PATH = """
import json, sys
import repro.network.scenario, repro.obs.flowspans, repro.campaign
print(json.dumps(sorted(sys.modules)))
"""


def test_a_run_loads_no_pool_or_error_path_module():
    modules = _child(_RUN_PATH)
    assert _loaded(modules, _POOL_STACK + ("difflib", "csv")) == []


_EACH_MODULE = """
import importlib, json, pkgutil, sys
import repro
names = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name != "repro.__main__"    # runs the CLI; covered above
)
failures = {}
for name in names:
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps({"modules": names, "failures": failures}))
"""


def test_every_module_imports_on_its_own():
    """Imported first, with no other ``repro`` module loaded, every module
    resolves: an import cycle that starts at a leaf cannot hide behind the
    order some other entry point loads modules in."""
    report = _child(_EACH_MODULE)
    assert report["failures"] == {}
    # Every subpackage and every module a CLI handler imports is among them.
    assert {"repro.cli", "repro.network.scenario", "repro.campaign",
            "repro.obs", "repro.analysis.report",
            "repro.obs.campaign"} <= set(report["modules"])
    # 90 less the five repro.bench modules, which are gone.
    assert len(report["modules"]) >= 85
