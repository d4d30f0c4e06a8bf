"""Synthetic scenario generation consistent with the filter's model.

Targets enter at most once, are detected on the scan they enter, survive
scan to scan with the configured probability, leave for good when the
survival draw fails or when their state drifts out of the scene bounds,
and while inside produce at most one observation per scan. False alarms
are Poisson-many points uniform over the observation-space image of the
scene bounds. Everything is reproducible from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ScenarioConfig
from .models import ModelConfigError, Observation, ObsId, check_scan


@dataclass
class TruthTarget:
    """One simulated target: per-scan true states and produced observations."""

    birth_scan: int
    states: list[np.ndarray] = field(default_factory=list)
    observations: list[ObsId | None] = field(default_factory=list)

    def alive_at(self, scan: int) -> bool:
        return self.birth_scan <= scan < self.birth_scan + len(self.states)

    def state_at(self, scan: int) -> np.ndarray:
        return self.states[scan - self.birth_scan]


@dataclass
class GroundTruth:
    """Simulated targets plus the per-scan false-alarm references."""

    scans: int
    targets: list[TruthTarget]
    false_alarms: list[list[ObsId]]

    def present_at(self, scan: int) -> list[TruthTarget]:
        return [t for t in self.targets if t.alive_at(scan)]


def _observation_box(cfg: ScenarioConfig) -> np.ndarray:
    """Axis-aligned bounding box of H applied to the scene bounds."""
    H = cfg.sensor.H
    lo, hi = cfg.space.bounds[:, 0], cfg.space.bounds[:, 1]
    corners_lo = np.minimum(H * lo, H * hi).sum(axis=1)
    corners_hi = np.maximum(H * lo, H * hi).sum(axis=1)
    return np.stack([corners_lo, corners_hi], axis=1)


def _sample_birth_state(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    comps = cfg.birth.spatial.spatial
    weights = np.array([c.weight for c in comps])
    # Appearing targets are inside the scene by definition: rejection-sample.
    for _ in range(1000):
        idx = rng.choice(len(comps), p=weights / weights.sum())
        x = rng.multivariate_normal(comps[idx].mean, comps[idx].cov)
        if cfg.space.contains(x):
            return x
    raise ModelConfigError(
        "birth mixture puts almost no mass inside the scene bounds; fix the config"
    )


def simulate(cfg: ScenarioConfig) -> tuple[GroundTruth, list[list[Observation]]]:
    """Draw one scenario: ground truth plus per-scan observation lists.

    Detection is forced on a target's birth scan (the filter's first
    detection rule); afterwards it is Bernoulli in the detection
    probability. Observation ids are assigned after a per-scan shuffle, so
    the within-scan order carries no information.
    """
    rng = np.random.default_rng(cfg.seed)
    obs_box = _observation_box(cfg)
    targets: list[TruthTarget] = []
    alive: list[tuple[int, np.ndarray]] = []  # (target index, current state)
    false_alarms: list[list[ObsId]] = []
    all_scans: list[list[Observation]] = []

    for t in range(cfg.scans):
        # Survival and motion for targets already in the scene.
        survivors: list[tuple[int, np.ndarray]] = []
        for idx, x in alive:
            if rng.random() >= cfg.motion.p_s:
                continue
            x_new = cfg.motion.F @ x + rng.multivariate_normal(
                np.zeros(cfg.space.dim), cfg.motion.Q
            )
            if not cfg.space.contains(x_new):
                continue  # drifted out of the scene: gone for good
            survivors.append((idx, x_new))
        alive = survivors
        for idx, x in alive:
            targets[idx].states.append(x)

        # Births.
        n_births = int(rng.choice(cfg.birth.cardinality.size, p=cfg.birth.cardinality))
        newborn: list[int] = []
        for _ in range(n_births):
            x = _sample_birth_state(cfg, rng)
            targets.append(TruthTarget(birth_scan=t, states=[x]))
            newborn.append(len(targets) - 1)
            alive.append((len(targets) - 1, x))

        # Observations: target-originated first, then clutter, then shuffle.
        sources: list[tuple[int | None, np.ndarray]] = []
        for idx, x in alive:
            forced = targets[idx].birth_scan == t
            p_d = cfg.sensor.detection_probabilities(x[None])[0]
            if forced or rng.random() < p_d:
                z = cfg.sensor.H @ x + rng.multivariate_normal(
                    np.zeros(cfg.sensor.obs_dim), cfg.sensor.R
                )
                sources.append((idx, z))
            else:
                sources.append((idx, None))
        n_clutter = int(rng.poisson(cfg.clutter_rate))
        clutter = [
            rng.uniform(obs_box[:, 0], obs_box[:, 1]) for _ in range(n_clutter)
        ]

        emitted = [(idx, z) for idx, z in sources if z is not None]
        emitted += [(None, z) for z in clutter]
        order = rng.permutation(len(emitted))
        scan_obs: list[Observation] = []
        scan_fa: list[ObsId] = []
        obs_ref: dict[int, ObsId] = {}
        for k, which in enumerate(order):
            src, z = emitted[which]
            obs_id: ObsId = (t, k)
            scan_obs.append(Observation(obs_id, z))
            if src is None:
                scan_fa.append(obs_id)
            else:
                obs_ref[src] = obs_id
        check_scan(scan_obs, t)
        for idx, z in sources:
            targets[idx].observations.append(obs_ref.get(idx))
        false_alarms.append(scan_fa)
        all_scans.append(scan_obs)

    return GroundTruth(cfg.scans, targets, false_alarms), all_scans
