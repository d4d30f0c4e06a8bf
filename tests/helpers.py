"""Shared builders for compact one-dimensional test models."""

from __future__ import annotations

import math

import numpy as np

from disptrack import (
    AugmentedDistribution,
    BirthModel,
    GaussianComponent,
    MotionModel,
    Observation,
    SensorModel,
    StateSpace,
    association_weight,
    enumerate_associations,
    missdetection_mass,
    newborn_path,
)
from disptrack.models import log_predictive_likelihood


def comp(weight: float, mean: float, var: float) -> GaussianComponent:
    return GaussianComponent(weight, np.array([mean]), np.array([[var]]))


def dist(presence: float, *components: tuple[float, float, float]) -> AugmentedDistribution:
    return AugmentedDistribution(presence, tuple(comp(*c) for c in components))


def unit_dist(presence: float = 1.0, mean: float = 0.0, var: float = 1.0) -> AugmentedDistribution:
    return dist(presence, (1.0, mean, var))


def rebuild_checked(d: AugmentedDistribution) -> AugmentedDistribution:
    """Rebuild a derived distribution through the checked constructors.

    The filter builds derived records without the constructors' checks; this
    raises ``ModelConfigError`` wherever a check would have failed, and
    asserts the derived values are in the form the checked constructors
    store (so reports serialize alike either way).
    """
    assert type(d.presence) is float and type(d.spatial) is tuple
    for c in d.spatial:
        assert type(c.weight) is float
        assert c.mean.dtype == np.float64 and c.mean.ndim == 1
        assert c.cov.dtype == np.float64 and c.cov.ndim == 2
    comps = tuple(GaussianComponent(c.weight, c.mean, c.cov) for c in d.spatial)
    return AugmentedDistribution(d.presence, comps)


def motion_1d(p_s: float = 1.0, f: float = 1.0, q: float = 0.0) -> MotionModel:
    return MotionModel(np.array([[f]]), np.array([[q]]), p_s)


def sensor_1d(p_d: float = 1.0, p_fa: float = 0.0, r: float = 1.0, h: float = 1.0) -> SensorModel:
    return SensorModel(np.array([[h]]), np.array([[r]]), p_d, p_fa)


def birth_1d(cardinality, mean: float = 0.0, var: float = 10.0) -> BirthModel:
    return BirthModel(np.asarray(cardinality, dtype=float), unit_dist(1.0, mean, var))


def obs(scan: int, idx: int, value: float) -> Observation:
    return Observation((scan, idx), np.array([value]))


def space_1d(lo: float = -100.0, hi: float = 100.0) -> StateSpace:
    return StateSpace(1, np.array([[lo, hi]]))


def random_scans(rng: np.random.Generator, counts: list[int], spread: float = 5.0):
    """Observation scans with the given per-scan counts, values spread around 0."""
    return [
        [obs(t, k, float(rng.uniform(-spread, spread))) for k in range(c)]
        for t, c in enumerate(counts)
    ]


def reference_update(state, scan_obs, birth, sensor, gate=None):
    """Slow reference update: explicit association enumeration plus per-association weights.

    Returns {child hypothesis: normalized weight}, or {} when no admissible
    association has positive weight. Associations that condition a track on
    a zero-probability event (a miss of a surely detected target, a
    detection the target cannot produce) have no posterior and yield no
    child. ``gate`` is the engine's (distribution, observation) predicate.
    """
    path_gate = None
    if gate is not None:
        def path_gate(path, z):
            return gate(birth.spatial if path is None else state.tracks[path].dist, z)

    raw = {}
    for h in state.hypotheses:
        base = math.log(h.weight) if h.weight > 0 else -math.inf
        for n, c in enumerate(birth.cardinality):
            lc = math.log(c) if c > 0 else -math.inf
            for assoc in enumerate_associations(h, n, scan_obs, path_gate):
                detected = dict(assoc.detected)
                if any(
                    missdetection_mass(state.tracks[p].dist, sensor) <= 0
                    for p in h.tracks
                    if p not in detected
                ) or any(
                    log_predictive_likelihood(state.tracks[p].dist, z, sensor) == -math.inf
                    for p, z in assoc.detected
                ):
                    continue
                members = [p.extended(detected[p].id) if p in detected else p for p in h.tracks]
                members += [newborn_path(z.id) for z in assoc.birth_obs]
                key = tuple(sorted(members))
                w = base + lc + association_weight(h, assoc, scan_obs, birth, sensor, state)
                prev = raw.get(key)
                raw[key] = w if prev is None else np.logaddexp(prev, w)
    if not raw or max(raw.values()) == -math.inf:
        return {}
    m = max(raw.values())
    lin = {k: math.exp(v - m) for k, v in raw.items()}
    total = sum(lin.values())
    return {k: v / total for k, v in lin.items()}
