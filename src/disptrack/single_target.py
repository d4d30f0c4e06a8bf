"""Single-target measure transforms: time prediction and Bayes update.

Two operations act on :class:`~disptrack.models.AugmentedDistribution`:

* :func:`predict_distribution` pushes the distribution through the motion
  kernel. Presence decays by the survival probability; each mixture
  component moves through the linear-Gaussian in-scene kernel.
* :func:`update_distribution` conditions on one observation outcome, either
  a concrete detection or :data:`MISSED`. Detection pins presence to one
  and applies a per-component Kalman update in factorised form (one
  Cholesky factor of the innovation covariance gives the gain, the
  posterior covariance and the component's density alike); a miss shrinks
  presence by the closed-form posterior odds and, for constant detection
  probability, returns the spatial mixture itself, untouched.

:func:`birth_posterior` is the detection update applied to the shared
appearing-target prior, producing a newborn track distribution with
presence exactly one.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .models import (
    AssociationImpossibleError,
    AugmentedDistribution,
    BirthModel,
    GaussianComponent,
    MotionModel,
    Observation,
    SensorModel,
    symmetrize,
    _derived,
    _detecting,
    _log_gauss,
)

# Mixture hygiene: lighter posterior components are dropped. There is no length
# cap: updates and predict keep the count and a merge yields one component.
WEIGHT_FLOOR = 1e-12


class _Missed:
    """Sentinel for the empty observation (miss-detection)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISSED"


MISSED = _Missed()

ObservationOrMissed = Union[Observation, _Missed]


def predict_distribution(dist: AugmentedDistribution, motion: MotionModel) -> AugmentedDistribution:
    """Propagate a target distribution one step through the motion model.

    Presence becomes presence * p_s (a target cannot re-enter the scene, so
    presence never grows here). Component means map through F, covariances
    through F P F' + Q; mixture weights are unchanged.
    """
    q = dist.presence * motion.p_s
    F, Q = motion.F, motion.Q
    spatial = tuple(
        _derived(GaussianComponent, c.weight, F @ c.mean, symmetrize(F @ c.cov @ F.T + Q))
        for c in dist.spatial
    )
    return _derived(AugmentedDistribution, q, spatial)


def _kalman_posterior(
    spatial: tuple[GaussianComponent, ...],
    obs: Observation,
    sensor: SensorModel,
) -> AugmentedDistribution:
    """Detected-target posterior: presence one, per-component conjugate update.

    With L the Cholesky factor of S, one solve against L gives the
    whitened residual w = L^-1 (z - H m) and G = L^-1 H P; the posterior is
    m + G'w with covariance P - G'G, and w and diag(L) give the density.
    Component weights are renormalized in log domain so that far-away
    observations cannot underflow the whole mixture to zero; components at
    or below ``WEIGHT_FLOOR`` are then dropped and the rest renormalized.
    """
    log_weights: list[float] = []
    moments: list[tuple[np.ndarray, np.ndarray]] = []
    for c, log_wpd, chol, resid in _detecting(spatial, obs.value, sensor):
        sol = np.linalg.solve(chol, np.concatenate((resid[:, None], sensor.H @ c.cov), axis=1))
        white, G = sol[:, 0], sol[:, 1:]
        log_weights.append(log_wpd + _log_gauss(chol, white))
        moments.append((c.mean + G.T @ white, symmetrize(c.cov - G.T @ G)))
    if not log_weights:
        raise AssociationImpossibleError(
            "detection has zero probability under every mixture component"
        )
    m = max(log_weights)
    rel = [math.exp(lw - m) for lw in log_weights]
    total = math.fsum(rel)
    kept = [(r / total, mc) for r, mc in zip(rel, moments) if r / total > WEIGHT_FLOOR]
    total = math.fsum(w for w, _ in kept)
    spatial = tuple(_derived(GaussianComponent, w / total, *mc) for w, mc in kept)
    return _derived(AugmentedDistribution, 1.0, spatial)


def update_distribution(
    dist: AugmentedDistribution,
    obs: ObservationOrMissed,
    sensor: SensorModel,
) -> AugmentedDistribution:
    """Condition a predicted target distribution on one observation outcome.

    Detection: presence bursts to exactly 1 (only in-scene targets can be
    detected) and the spatial mixture gets a per-component Kalman update.
    Miss: presence becomes q(1-p_d) / (1-q + q(1-p_d)) and the spatial part
    is reweighted by the per-component miss probability (returned as is when
    the detection probability is constant).

    Raises :class:`AssociationImpossibleError` when the conditioning event
    has zero probability (detecting an absent target, or missing a surely
    present, surely detected one).
    """
    if isinstance(obs, _Missed):
        return _miss_update(dist, sensor)
    if dist.presence <= 0.0:
        raise AssociationImpossibleError("cannot detect a target with zero presence")
    return _kalman_posterior(dist.spatial, obs, sensor)


def _miss_update(dist: AugmentedDistribution, sensor: SensorModel) -> AugmentedDistribution:
    q = dist.presence
    if q <= 0.0:
        return dist
    miss_terms = [c.weight * (1.0 - sensor.detection_probability(c.mean)) for c in dist.spatial]
    in_scene_miss = q * math.fsum(miss_terms)
    denom = (1.0 - q) + in_scene_miss
    if denom <= 0.0:
        raise AssociationImpossibleError(
            "miss-detection has zero probability: target is present and detected almost surely"
        )
    presence = in_scene_miss / denom
    if presence <= 0.0 or not callable(sensor.p_d):
        # A constant detection probability scales every component alike.
        return _derived(AugmentedDistribution, presence, dist.spatial)
    total = math.fsum(miss_terms)
    spatial = tuple(
        _derived(GaussianComponent, t / total, c.mean, c.cov)
        for t, c in zip(miss_terms, dist.spatial)
        if t > 0.0
    )
    return _derived(AugmentedDistribution, presence, spatial)


def birth_posterior(
    birth: BirthModel,
    obs: Observation,
    sensor: SensorModel,
) -> AugmentedDistribution:
    """Posterior of a newly detected appearing target.

    The appearing-target prior has presence one, so the newborn track has
    presence exactly one as well; the spatial part is the Kalman-updated
    birth mixture.
    """
    return _kalman_posterior(birth.spatial.spatial, obs, sensor)
