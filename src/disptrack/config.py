"""Scenario configuration: schema, validation and JSON ingestion.

The config file is one JSON object with blocks ``model``, ``sensor``,
``birth``, ``approx``, ``extract`` and ``sim``. Unknown keys anywhere are
rejected so that typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    """Everything one run needs: models, approximations, extraction and sim."""

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
        if self.clutter_rate < 0.0:
            raise ConfigError(f"clutter_rate must be nonnegative, got {self.clutter_rate}")


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
        space = StateSpace(int(model["dim"]), np.asarray(model["bounds"], dtype=float))
        motion = MotionModel(
            np.asarray(model["F"], dtype=float),
            np.asarray(model["Q"], dtype=float),
            float(model["p_s"]),
        )
        if motion.dim != space.dim:
            raise ConfigError(f"F is {motion.dim}-dimensional but the state space is {space.dim}")

        sensor_raw = _block(raw, "sensor")
        _reject_unknown(sensor_raw, {"H", "R", "p_d", "p_fa"}, "sensor")
        _require(sensor_raw, {"H", "R", "p_d", "p_fa"}, "sensor")
        sensor = SensorModel(
            np.asarray(sensor_raw["H"], dtype=float),
            np.asarray(sensor_raw["R"], dtype=float),
            float(sensor_raw["p_d"]),
            float(sensor_raw["p_fa"]),
        )
        if sensor.state_dim != space.dim:
            raise ConfigError(
                f"H expects {sensor.state_dim}-dimensional states but the space is {space.dim}"
            )

        approx_raw = _block(raw, "approx", required=False)
        _reject_unknown(
            approx_raw,
            {
                "presence_threshold",
                "track_existence_threshold",
                "hyp_existence_threshold",
                "max_tracks",
                "max_hypotheses",
                "gate_threshold",
                "birth_cap",
                "merge_threshold",
            },
            "approx",
        )
        approx = ApproximationConfig(
            presence_threshold=approx_raw.get("presence_threshold"),
            track_existence_threshold=approx_raw.get("track_existence_threshold"),
            hyp_existence_threshold=approx_raw.get("hyp_existence_threshold"),
            max_tracks=approx_raw.get("max_tracks"),
            max_hypotheses=approx_raw.get("max_hypotheses"),
            gate_threshold=approx_raw.get("gate_threshold"),
            birth_cap=approx_raw.get("birth_cap"),
            merge_threshold=approx_raw.get("merge_threshold"),
        )

        birth_raw = _block(raw, "birth")
        _reject_unknown(birth_raw, {"cardinality", "spatial"}, "birth")
        _require(birth_raw, {"cardinality", "spatial"}, "birth")
        cardinality = np.asarray(birth_raw["cardinality"], dtype=float)
        if approx.birth_cap is not None and cardinality.size > approx.birth_cap + 1:
            cardinality = cardinality[: approx.birth_cap + 1]
            total = float(np.sum(cardinality))
            if total <= 0.0:
                raise ConfigError("birth_cap removed all cardinality mass")
            cardinality = cardinality / total
        comps = []
        for i, comp in enumerate(birth_raw["spatial"]):
            if not isinstance(comp, dict):
                raise ConfigError("birth.spatial entries must be objects")
            _reject_unknown(comp, {"weight", "mean", "cov"}, f"birth.spatial[{i}]")
            _require(comp, {"weight", "mean", "cov"}, f"birth.spatial[{i}]")
            comps.append(
                GaussianComponent(
                    float(comp["weight"]),
                    np.asarray(comp["mean"], dtype=float),
                    np.asarray(comp["cov"], dtype=float),
                )
            )
        birth = BirthModel(cardinality, AugmentedDistribution(1.0, tuple(comps)))
        if birth.spatial.dim != space.dim:
            raise ConfigError("birth mixture dimension does not match the state space")

        extract_raw = _block(raw, "extract", required=False)
        _reject_unknown(
            extract_raw,
            {"confirm_threshold", "deconfirm_threshold", "presence_display_floor"},
            "extract",
        )
        extract = ExtractionConfig(
            confirm_threshold=float(extract_raw.get("confirm_threshold", 0.98)),
            deconfirm_threshold=float(extract_raw.get("deconfirm_threshold", 0.90)),
            presence_display_floor=float(extract_raw.get("presence_display_floor", 0.02)),
        )

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
            scans=int(sim["scans"]),
            seed=int(sim["seed"]),
            clutter_rate=float(sim.get("clutter_rate", 0.0)),
        )
    except ConfigError:
        raise
    except (ModelConfigError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
