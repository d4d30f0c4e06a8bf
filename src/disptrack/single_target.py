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
    score_scan,
    symmetrize,
    _derived,
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


def _kalman_posterior(log_weights: list[float], means: np.ndarray, covs: np.ndarray):
    """Detected-target posterior from one pair's Kalman moments: presence one.

    Component weights are renormalized in log domain so that far-away
    observations cannot underflow the whole mixture to zero; components at
    or below ``WEIGHT_FLOOR`` are then dropped and the rest renormalized.
    """
    m = max(log_weights)
    rel = [math.exp(lw - m) for lw in log_weights]
    total = math.fsum(rel)
    kept = [(r / total, k) for k, r in enumerate(rel) if r / total > WEIGHT_FLOOR]
    total = math.fsum(w for w, _ in kept)
    spatial = tuple(_derived(GaussianComponent, w / total, means[k], covs[k]) for w, k in kept)
    return _derived(AugmentedDistribution, 1.0, spatial)


def detection_posteriors(pair, log_w, means, covs) -> list[AugmentedDistribution]:
    """The detected-target posterior of each pair in ``score_scan``'s ``moments``, in order."""
    first = np.flatnonzero(np.diff(pair, prepend=-1)).tolist()
    log_w = log_w.tolist()
    return [
        _kalman_posterior(log_w[a:b], means[a:b], covs[a:b])
        for a, b in zip(first, first[1:] + [len(pair)])
    ]


def _detection_posterior(dist: AugmentedDistribution, obs: Observation, sensor: SensorModel):
    """The one-pair form of :func:`detection_posteriors`."""
    dists, _, _, moments = score_scan([dist], obs.value[None], sensor)
    if not len(dists):
        raise AssociationImpossibleError(
            "detection has zero probability under every mixture component"
        )
    return detection_posteriors(*moments)[0]


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
    return _detection_posterior(dist, obs, sensor)


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
    return _detection_posterior(birth.spatial, obs, sensor)
