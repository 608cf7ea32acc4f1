"""Sweep specifications: one document describing many scenarios.

A sweep document holds a ``base`` scenario plus a ``grid`` of dotted-path
overrides and/or an explicit ``list`` of override objects::

    {
      "name": "star-depth-sweep",
      "base": { ...any ScenarioSpec document, "name" optional... },
      "grid": {
        "flows.ts_count": [64, 256, 1024],
        "config.queue_depth": [8, 12, 16]
      },
      "list": [ {"topology.kind": "linear"} ],
      "seeds": 2
    }

``grid`` expands as a cross product (9 points above); ``list`` appends
hand-picked points; ``seeds`` replicates every point with a distinct,
deterministically derived seed.  Expansion is pure and ordered: the same
document always yields the same :class:`PlannedRun` sequence, so run ids,
derived seeds and aggregates are reproducible regardless of how (or where)
the runs later execute.

Paths are dotted keys into the scenario document (``slot_us``,
``flows.ts_count``, ``config.queue_depth``, ``topology.kind``, ...).  An
override whose path descends into ``config`` requires ``base.config`` to be
an explicit object -- sweeping a parameter of a *derived* configuration is
ambiguous, and the error says so.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Union

from repro.core.errors import ConfigurationError, SpecValidationError
from repro.network.scenario import validate_scenario_dict
from repro.schema import INT, NAME, Field, ListOf, Obj, Range, Table, check, \
    load_json

__all__ = ["SweepSpec", "PlannedRun", "derive_seed", "set_path"]

_VALUES = "expected a non-empty list of values"
_SEEDS = "expected a positive integer, got {value!r}"

#: The sweep document (``base`` is checked per expanded scenario).
SWEEP = Table((
    Field("name", NAME, "the campaign's name; seeds derive from it",
          required=True, mismatch="required non-empty string"),
    Field("base", Obj(), "the scenario document every run starts from",
          required=True, mismatch="required object (a scenario document)"),
    Field("grid", Obj(values=Field("values", ListOf(), bounds=Range(1),
                                   mismatch=_VALUES, message=_VALUES)),
          "dotted path -> values, expanded as a cross product",
          mismatch="expected an object of path -> value list"),
    Field("list", ListOf(Field("point", Obj(),
                               mismatch="expected an override object")),
          "override objects, appended after the grid's points",
          mismatch="expected a list of override objects"),
    Field("seeds", INT, "replicates per point, each with a derived seed", 1,
          bounds=Range(1), mismatch=_SEEDS, message=_SEEDS),
), unknown="unknown sweep key{hint}")


def derive_seed(campaign: str, base_seed: int, signature: str) -> int:
    """A deterministic 63-bit seed for one run of one campaign.

    Mixing the campaign name, the base scenario seed and the run's override
    signature through SHA-256 gives every grid point (and every replicate)
    an independent stream while keeping the whole campaign a pure function
    of its document -- rerunning with any worker count reproduces the exact
    same per-run seeds.
    """
    digest = hashlib.sha256(
        f"{campaign}|{base_seed}|{signature}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def set_path(tree: Dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted-path override inside a (nested) scenario dict."""
    keys = path.split(".")
    node = tree
    for i, key in enumerate(keys[:-1]):
        child = node.get(key)
        if child is None:
            child = node[key] = {}
        elif not isinstance(child, dict):
            prefix = ".".join(keys[: i + 1])
            hint = (
                "; sweeping a derived config is ambiguous -- give base.config "
                "as an explicit object"
                if prefix == "config" and child == "derive"
                else ""
            )
            raise ConfigurationError(
                f"grid path {path!r}: {prefix!r} is {child!r}, not an "
                f"object{hint}"
            )
        node = child
    node[keys[-1]] = value


@dataclass(frozen=True)
class PlannedRun:
    """One fully expanded scenario, ready to execute."""

    index: int
    run_id: str
    overrides: Dict[str, Any]
    replicate: int
    seed: int
    scenario: Dict[str, Any]

    def as_payload(self) -> Dict[str, Any]:
        """The picklable unit of work shipped to a worker process."""
        return {
            "index": self.index,
            "run_id": self.run_id,
            "overrides": self.overrides,
            "replicate": self.replicate,
            "seed": self.seed,
            "scenario": self.scenario,
        }


@dataclass
class SweepSpec:
    """A declarative sweep over scenario space."""

    name: str
    base: Dict[str, Any]
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    points: List[Dict[str, Any]] = field(default_factory=list)
    seeds: int = 1

    # ------------------------------------------------------------- parsing

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        problems = check(SWEEP, data)
        if problems:
            raise SpecValidationError(
                f"sweep {data.get('name', '?')!r}"
                if isinstance(data, Mapping) else "sweep", problems
            )
        return cls(
            name=data["name"],
            base=dict(data["base"]),
            grid={k: list(v) for k, v in data.get("grid", {}).items()},
            points=[dict(p) for p in data.get("list", [])],
            seeds=data.get("seeds", 1),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(load_json(text, "sweep"))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        return cls.from_json(Path(path).read_text())

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "base": self.base}
        if self.grid:
            data["grid"] = self.grid
        if self.points:
            data["list"] = self.points
        if self.seeds != 1:
            data["seeds"] = self.seeds
        return data

    def spec_hash(self) -> str:
        """Digest pinning a run ledger to this exact sweep document."""
        from repro.obs.campaign import sweep_spec_hash

        return sweep_spec_hash(self.to_dict())

    # ----------------------------------------------------------- expansion

    def override_sets(self) -> List[Dict[str, Any]]:
        """Grid cross product (insertion-ordered) plus the explicit list."""
        combos: List[Dict[str, Any]] = []
        if self.grid:
            paths = list(self.grid)
            for values in itertools.product(*(self.grid[p] for p in paths)):
                combos.append(dict(zip(paths, values)))
        elif not self.points:
            combos.append({})  # a bare base is a 1-point sweep
        combos.extend(dict(point) for point in self.points)
        return combos

    def expand(self) -> List[PlannedRun]:
        """Expand into concrete runs; validates every materialized scenario.

        Each expanded scenario document is checked via
        :func:`~repro.network.scenario.validate_scenario_dict` and all
        problems across all runs raise as one
        :class:`~repro.core.errors.SpecValidationError`.
        """
        runs: List[PlannedRun] = []
        problems: List[str] = []
        base_seed = self.base.get("seed", 0)
        base_name = self.base.get("name", self.name)
        index = 0
        for overrides in self.override_sets():
            signature = json.dumps(overrides, sort_keys=True)
            for replicate in range(self.seeds):
                scenario = json.loads(json.dumps(self.base))  # deep copy
                scenario.setdefault("name", base_name)
                for path, value in overrides.items():
                    set_path(scenario, path, value)
                run_id = f"{self.name}:{index:04d}"
                scenario["name"] = f"{base_name}#{index:04d}"
                if "seed" in overrides:
                    seed = overrides["seed"]
                else:
                    seed = derive_seed(
                        self.name, base_seed, f"{signature}|rep={replicate}"
                    )
                scenario["seed"] = seed
                for problem in validate_scenario_dict(scenario):
                    problems.append(f"run {run_id}: {problem}")
                runs.append(
                    PlannedRun(
                        index=index,
                        run_id=run_id,
                        overrides=dict(overrides),
                        replicate=replicate,
                        seed=seed,
                        scenario=scenario,
                    )
                )
                index += 1
        if problems:
            raise SpecValidationError(f"sweep {self.name!r}", problems)
        return runs
