"""Experiment configuration and run-state persistence.

Configs and states are JSON: human-diffable and schema-versioned.  A run
state records the sha256 of the canonicalized config that produced it,
so stale or tampered state files are rejected at load time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import SchemaError, known_fields, number
from .geometry import ChartManifold
from .kernels import CompactSupportKernel, RadialKernel, kernel_from_dict
from .measure import DiscreteMeasure, random_measure
from .optimizer import OptimizerConfig

SCHEMA_VERSION = 1

_DEFAULT_TOLERANCES = {"tau_psd": 1e-8, "tol_weak_el": 1e-6}
_DEFAULT_PROBE = {"fragments": 3, "trials": 100,
                  "tau_grid": [-0.02, -0.01, 0.01, 0.02], "seed": 0}
# The probe draws all trials' weights and jets up front, and each tau step
# adds as many values again: past 10^8 values (0.8 GB per float64 array) a
# config is rejected before anything is allocated.
_PROBE_VALUES_CAP = 10**8


def canonical_json(data) -> str:
    """Deterministic serialization used for hashing and persistence."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(data: dict) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, validated experiment description."""

    manifold: ChartManifold
    kernel: RadialKernel
    initial: dict                  # explicit {points, weights} or {generator}
    optimizer: OptimizerConfig
    tolerances: dict
    probe: dict
    raw: dict = field(repr=False)  # exactly what was parsed, for hashing

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    def initial_measure(self, seed_override: int | None = None) -> DiscreteMeasure:
        if "generator" in self.initial:
            gen = self.initial["generator"]
            seed = gen["seed"] if seed_override is None else seed_override
            return random_measure(self.manifold, count=gen["count"],
                                  total_volume=gen["total_volume"], seed=seed,
                                  box=gen.get("box"))
        return DiscreteMeasure(manifold=self.manifold,
                               points=self.initial["points"],
                               weights=self.initial["weights"])


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise SchemaError("config root must be a JSON object")
    known_fields(data, ("schema_version", "manifold", "lagrangian",
                        "initial_measure", "optimizer", "tolerances", "probe"),
                 "config")
    version = number(data.get("schema_version", SCHEMA_VERSION),
                     "config schema_version", integer=True)
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"config schema_version {version} unsupported (expected {SCHEMA_VERSION})")
    for key in ("manifold", "lagrangian", "initial_measure"):
        if key not in data:
            raise SchemaError(f"config is missing the {key!r} section")
    for key in ("manifold", "lagrangian", "optimizer", "tolerances", "probe"):
        if key in data and not isinstance(data[key], dict):
            raise SchemaError(f"config section {key!r} must be a JSON object")
    manifold = ChartManifold.from_dict(data["manifold"])
    kernel = kernel_from_dict(data["lagrangian"])
    initial = data["initial_measure"]
    if not isinstance(initial, dict) or not (
            "generator" in initial or {"points", "weights"} <= set(initial)):
        raise SchemaError(
            "initial_measure needs either a generator or explicit points/weights")
    if "generator" in initial and {"points", "weights"} & set(initial):
        raise SchemaError("initial_measure takes either a generator or explicit "
                          "points/weights, not both")
    known_fields(initial, ("generator", "points", "weights"), "initial_measure")
    # malformed points fail in initial_measure below
    count = len(initial["points"]) if isinstance(initial.get("points"), list) else 0
    if "generator" in initial:
        gen = initial["generator"]
        if not isinstance(gen, dict):
            raise SchemaError("generator must be a JSON object")
        known_fields(gen, ("count", "seed", "total_volume", "box"), "generator")
        missing = {"count", "seed", "total_volume"} - set(gen)
        if missing:
            raise SchemaError(f"generator is missing fields: {sorted(missing)}")
        count = number(gen["count"], "generator count", integer=True, least=1)
        number(gen["seed"], "generator seed", integer=True, least=0)
        number(gen["total_volume"], "generator total_volume", above=0)
    optimizer = OptimizerConfig.from_dict(data.get("optimizer", {}))
    tolerances = {**_DEFAULT_TOLERANCES, **data.get("tolerances", {})}
    known_fields(tolerances, _DEFAULT_TOLERANCES, "tolerance")
    for key, value in tolerances.items():
        number(value, f"tolerances {key}", above=0)
    probe = {**_DEFAULT_PROBE, **data.get("probe", {})}
    known_fields(probe, _DEFAULT_PROBE, "probe")
    # a probe that would run no trial or fit nothing is rejected
    for key, least in (("fragments", 1), ("trials", 1), ("seed", 0)):
        number(probe[key], f"probe {key}", integer=True, least=least)
    grid = probe["tau_grid"]
    # number returns each step as a float, and a zero step is falsy
    if not (isinstance(grid, (list, tuple)) and grid
            and all(number(tau, "probe tau_grid entry") for tau in grid)):
        raise SchemaError("probe tau_grid must be a non-empty list of "
                          "non-zero numbers")
    values = (probe["trials"] * probe["fragments"] * count
              * (1 + manifold.dim) * len(grid))
    if values > _PROBE_VALUES_CAP:
        raise SchemaError(f"probe of {values} values (trials x fragments x points"
                          f" x (1 + m) x tau steps) exceeds {_PROBE_VALUES_CAP}")
    if (manifold.kind == "torus" and isinstance(kernel, CompactSupportKernel)
            and kernel.radius > min(manifold.periods) / 2.0):
        # beyond half a period the wrapped kernel has a kink at the cut locus
        raise SchemaError(f"compact-support radius {kernel.radius} exceeds "
                          f"half the smallest torus period {min(manifold.periods)}")
    cfg = ExperimentConfig(manifold=manifold, kernel=kernel, initial=initial,
                           optimizer=optimizer, tolerances=tolerances,
                           probe=probe, raw=data)
    try:  # malformed points, weights or box fail here, not mid-run
        cfg.initial_measure()
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad initial_measure: {exc}") from exc
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with Path(path).open() as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:   # bad JSON, or an integer of too many digits
        raise SchemaError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


@dataclass
class RunState:
    """Everything a pipeline stage produced, plus provenance."""

    config_hash: str
    seed: int | None = None
    measure: dict | None = None
    nu: float | None = None
    el_report: dict | None = None
    gram_reports: list = field(default_factory=list)
    probe_summary: dict | None = None
    osi_summary: dict | None = None
    linfield_summary: dict | None = None
    optimizer: dict | None = None  # OptimizerTrace.to_dict of the measure's run
    verdicts: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def all_verdicts_pass(self) -> bool:
        return all(bool(v) for v in self.verdicts.values())

    def to_dict(self) -> dict:
        """Every field but the unset (None) ones and empty gram_reports."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if getattr(self, f.name) is not None}
        if not self.gram_reports:
            del out["gram_reports"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunState":
        if not isinstance(data, dict):
            raise SchemaError("state root must be a JSON object")
        version = number(data.get("schema_version"), "state schema_version",
                         integer=True)
        if version != SCHEMA_VERSION:
            raise SchemaError(
                f"state schema_version {version} unsupported "
                f"(expected {SCHEMA_VERSION})")
        if "config_hash" not in data:
            raise SchemaError("state file has no config_hash")
        verdicts = data.get("verdicts", {})
        if not (isinstance(verdicts, dict)
                and all(isinstance(v, bool) for v in verdicts.values())):
            raise SchemaError("state verdicts must be an object of booleans")
        if data.get("seed") is not None:
            number(data["seed"], "state seed", integer=True)
        for key in ("measure", "optimizer"):
            if not isinstance(data.get(key, {}), dict):
                raise SchemaError(f"state {key} must be an object")
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


def save_state(state: RunState, path: str | Path) -> None:
    Path(path).write_text(canonical_json(state.to_dict()) + "\n")


def load_state(path: str | Path,
               expected_config: ExperimentConfig | None = None) -> RunState:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read state {path}: {exc}") from exc
    except ValueError as exc:   # bad JSON, or an integer of too many digits
        raise SchemaError(f"state {path} is not valid JSON: {exc}") from exc
    state = RunState.from_dict(data)
    if expected_config is not None and state.config_hash != expected_config.hash:
        raise SchemaError(
            "state config_hash does not match the supplied config "
            f"({state.config_hash[:12]}... vs {expected_config.hash[:12]}...)")
    return state
