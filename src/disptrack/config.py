"""Scenario configuration: schema, validation and JSON ingestion.

The config file is one JSON object with blocks ``model``, ``sensor``,
``birth``, ``approx``, ``extract`` and ``sim``. Unknown keys anywhere are
rejected so that typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .approximations import ApproximationConfig
from .estimation import ExtractionConfig
from .models import (
    AugmentedDistribution,
    BirthModel,
    GaussianComponent,
    ModelConfigError,
    MotionModel,
    SensorModel,
    StateSpace,
)


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run needs: models, approximations, extraction and sim.

    However it is built, its birth cardinality keeps only its first
    ``approx.birth_cap + 1`` entries, renormalised (``ConfigError`` if they hold no mass)."""

    space: StateSpace
    motion: MotionModel
    sensor: SensorModel
    birth: BirthModel
    approx: ApproximationConfig
    extract: ExtractionConfig
    scans: int
    seed: int
    clutter_rate: float

    def __post_init__(self):
        if self.scans < 1:
            raise ConfigError(f"scans must be >= 1, got {self.scans}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if not 0.0 <= self.clutter_rate < math.inf:
            raise ConfigError(f"clutter_rate must be finite and >= 0, got {self.clutter_rate}")
        cap = self.approx.birth_cap
        if cap is not None and self.birth.cardinality.size > cap + 1:
            cardinality = self.birth.cardinality[: cap + 1]
            total = float(np.sum(cardinality))
            if total <= 0.0:
                raise ConfigError("birth_cap removed all cardinality mass")
            object.__setattr__(self, "birth", replace(self.birth, cardinality=cardinality / total))


def _block(raw: Mapping[str, Any], name: str, required: bool = True) -> dict:
    if name not in raw:
        if required:
            raise ConfigError(f"missing config block '{name}'")
        return {}
    value = raw[name]
    if not isinstance(value, dict):
        raise ConfigError(f"config block '{name}' must be an object")
    return dict(value)


def _reject_unknown(block: Mapping[str, Any], allowed: set[str], name: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{name}': {sorted(unknown)}")


def _require(block: Mapping[str, Any], keys: set[str], name: str) -> None:
    missing = keys - set(block)
    if missing:
        raise ConfigError(f"missing keys in '{name}': {sorted(missing)}")


def _integer(block: Mapping[str, Any], key: str, name: str) -> int:
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name}.{key} must be an integer, got {value!r}")
    return int(value)


def _number(block: Mapping[str, Any], key: str, name: str, default: float | None = None) -> float:
    value = block.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name}.{key} must be a number, got {value!r}")
    return float(value)


def load_config(source: str | Path | Mapping[str, Any]) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from a JSON file path or a mapping."""
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from exc
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, {"model", "sensor", "birth", "approx", "extract", "sim"}, "config")

    try:
        model = _block(raw, "model")
        _reject_unknown(model, {"dim", "bounds", "F", "Q", "p_s"}, "model")
        _require(model, {"dim", "bounds", "F", "Q", "p_s"}, "model")
        space = StateSpace(_integer(model, "dim", "model"), np.asarray(model["bounds"], float))
        motion = MotionModel(
            np.asarray(model["F"], dtype=float),
            np.asarray(model["Q"], dtype=float),
            _number(model, "p_s", "model"),
        )
        if motion.dim != space.dim:
            raise ConfigError(f"F is {motion.dim}-dimensional but the state space is {space.dim}")

        sensor_raw = _block(raw, "sensor")
        _reject_unknown(sensor_raw, {"H", "R", "p_d", "p_fa"}, "sensor")
        _require(sensor_raw, {"H", "R", "p_d", "p_fa"}, "sensor")
        sensor = SensorModel(
            np.asarray(sensor_raw["H"], dtype=float),
            np.asarray(sensor_raw["R"], dtype=float),
            _number(sensor_raw, "p_d", "sensor"),
            _number(sensor_raw, "p_fa", "sensor"),
        )
        if sensor.state_dim != space.dim:
            raise ConfigError(
                f"H expects {sensor.state_dim}-dimensional states but the space is {space.dim}"
            )

        approx_raw = _block(raw, "approx", required=False)
        _reject_unknown(approx_raw, {f.name for f in fields(ApproximationConfig)}, "approx")
        approx = ApproximationConfig(**approx_raw)

        birth_raw = _block(raw, "birth")
        _reject_unknown(birth_raw, {"cardinality", "spatial"}, "birth")
        _require(birth_raw, {"cardinality", "spatial"}, "birth")
        comps = []
        for i, comp in enumerate(birth_raw["spatial"]):
            if not isinstance(comp, dict):
                raise ConfigError("birth.spatial entries must be objects")
            _reject_unknown(comp, {"weight", "mean", "cov"}, f"birth.spatial[{i}]")
            _require(comp, {"weight", "mean", "cov"}, f"birth.spatial[{i}]")
            comps.append(
                GaussianComponent(
                    _number(comp, "weight", f"birth.spatial[{i}]"),
                    np.asarray(comp["mean"], dtype=float),
                    np.asarray(comp["cov"], dtype=float),
                )
            )
        birth = BirthModel(birth_raw["cardinality"], AugmentedDistribution(1.0, tuple(comps)))
        if birth.spatial.dim != space.dim:
            raise ConfigError("birth mixture dimension does not match the state space")

        extract_raw = _block(raw, "extract", required=False)
        _reject_unknown(extract_raw, {f.name for f in fields(ExtractionConfig)}, "extract")
        extract = ExtractionConfig(**extract_raw)

        sim = _block(raw, "sim")
        _reject_unknown(sim, {"scans", "seed", "clutter_rate"}, "sim")
        _require(sim, {"scans", "seed"}, "sim")
        return ScenarioConfig(
            space=space,
            motion=motion,
            sensor=sensor,
            birth=birth,
            approx=approx,
            extract=extract,
            scans=_integer(sim, "scans", "sim"),
            seed=_integer(sim, "seed", "sim"),
            clutter_rate=_number(sim, "clutter_rate", "sim", 0.0),
        )
    except ConfigError:
        raise
    except (ModelConfigError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
