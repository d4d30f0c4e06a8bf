"""Single-target measure transforms: time prediction and Bayes update.

Each transform acts on a whole :class:`~disptrack.models.Mixtures` table at
once; its form on one :class:`~disptrack.models.AugmentedDistribution` is a
one-row call into it.

* :func:`predict_mixtures` (one row: :func:`predict_distribution`) pushes
  every distribution through the motion kernel in one stacked step: presence
  decays by the survival probability, each component moves through the
  linear-Gaussian in-scene kernel.
* :func:`miss_posteriors` and :func:`detection_posteriors` (one row:
  :func:`update_distribution`) condition on :data:`MISSED` or on a
  detection. A miss shrinks presence by the closed-form posterior odds and,
  for constant detection probability, keeps the spatial mixture as it is.
  Detection pins presence to one and takes the per-component Kalman moments
  that :func:`~disptrack.models.score_scan` computes in factorised form.

:func:`birth_posterior` is the detection update applied to the shared
appearing-target prior, producing a newborn track distribution with
presence exactly one.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .models import (
    AssociationImpossibleError,
    AugmentedDistribution,
    BirthModel,
    Mixtures,
    MotionModel,
    Observation,
    SensorModel,
    score_scan,
    symmetrize,
    _run_exps,
    _run_starts,
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


def predict_mixtures(mix: Mixtures, motion: MotionModel) -> Mixtures:
    """Propagate every distribution of the table one step through the motion model.

    Presence becomes presence * p_s (a target cannot re-enter the scene, so
    presence never grows here). Component means map through F, covariances
    through F P F' + Q; mixture weights are unchanged.
    """
    F, Q, c = motion.F, motion.Q, len(mix.weight)
    means, covs = mix.mean.reshape(c, len(F)), mix.cov.reshape(c, len(F), len(F))
    return mix._replace(
        presence=mix.presence * motion.p_s,
        mean=(F @ means[..., None])[..., 0],
        cov=symmetrize(F @ covs @ F.T + Q),
    )


def predict_distribution(dist: AugmentedDistribution, motion: MotionModel) -> AugmentedDistribution:
    """The one-row form of :func:`predict_mixtures`."""
    return predict_mixtures(Mixtures.of([dist]), motion).dist(0)


def miss_posteriors(mix: Mixtures, sensor: SensorModel) -> tuple[np.ndarray, Mixtures]:
    """Each distribution's miss-detection mass, and its posterior given a miss.

    The mass is (1-q) + q sum_i w_i (1-p_d(m_i)), the sums one ``np.bincount``
    over the table. The posterior presence is
    q(1-p_d) / (1-q + q(1-p_d)), and its spatial part is reweighted by the
    per-component miss probability (kept as it is when the detection
    probability is constant). An absent distribution has mass one and is its
    own posterior; where the mass is zero, the posterior presence is NaN.
    """
    q = mix.presence
    live = q > 0.0
    terms = np.zeros(len(mix.owner))
    k = live[mix.owner].nonzero()[0]
    terms[k] = mix.weight[k] * (1.0 - sensor.detection_probabilities(mix.mean[k]))
    sums = np.bincount(mix.owner, weights=terms, minlength=len(q))
    in_scene = q * sums
    mass = np.where(live, (1.0 - q) + in_scene, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        presence = np.where(live, in_scene / mass, q)
        if not callable(sensor.p_d):
            # A constant detection probability scales every component alike.
            return mass, Mixtures(presence, *mix[1:])
        moved = (presence > 0.0)[mix.owner]
        weight = np.where(moved, terms / sums[mix.owner], mix.weight)
    keep = ~moved | (terms > 0.0)
    return mass, Mixtures(presence, mix.owner[keep], weight[keep], mix.mean[keep], mix.cov[keep])


def missdetection_mass(dist: AugmentedDistribution, sensor: SensorModel) -> float:
    """Probability that a target described by ``dist`` yields no observation.

    The one-row form of :func:`miss_posteriors`: one for an absent target,
    zero only for a surely present, surely detected one.
    """
    return float(miss_posteriors(Mixtures.of([dist]), sensor)[0][0])


def detection_posteriors(pair, log_w, means, covs) -> Mixtures:
    """The detected-target posterior of each pair in ``score_scan``'s ``moments``, as one table.

    Each has presence one, and the pair's Kalman moments as components.
    Component weights are renormalized in log domain so that far-away
    observations cannot underflow the whole mixture to zero; components at
    or below ``WEIGHT_FLOOR`` are then dropped and the rest renormalized,
    each step one segmented array operation over all pairs.
    """
    first = _run_starts(pair).nonzero()[0]
    rel = _run_exps(log_w, pair, first)[1]
    weight = rel / np.add.reduceat(rel, first)[pair]
    weight[weight <= WEIGHT_FLOOR] = 0.0
    weight /= np.add.reduceat(weight, first)[pair]
    keep = weight > 0.0
    return Mixtures(np.ones(len(first)), pair[keep], weight[keep], means[keep], covs[keep])


def _detection_posterior(dist: AugmentedDistribution, obs: Observation, sensor: SensorModel):
    """The one-pair form of :func:`detection_posteriors`."""
    dists, _, _, moments = score_scan(Mixtures.of([dist]), obs.value[None], sensor)
    if not len(dists):
        raise AssociationImpossibleError(
            "detection has zero probability under every mixture component"
        )
    return detection_posteriors(*moments).dist(0)


def update_distribution(
    dist: AugmentedDistribution,
    obs: ObservationOrMissed,
    sensor: SensorModel,
) -> AugmentedDistribution:
    """Condition a predicted target distribution on one observation outcome.

    Detection: presence bursts to exactly 1 (only in-scene targets can be
    detected) and the spatial mixture gets a per-component Kalman update.
    Miss: presence becomes q(1-p_d) / (1-q + q(1-p_d)) and the spatial part
    is reweighted by the per-component miss probability (kept as it is when
    the detection probability is constant).

    Raises :class:`AssociationImpossibleError` when the conditioning event
    has zero probability (detecting an absent target, or missing a surely
    present, surely detected one).
    """
    if isinstance(obs, _Missed):
        mass, post = miss_posteriors(Mixtures.of([dist]), sensor)
        if mass[0] <= 0.0:
            raise AssociationImpossibleError(
                "miss-detection has zero probability: target is present and detected almost surely"
            )
        return post.dist(0)
    if dist.presence <= 0.0:
        raise AssociationImpossibleError("cannot detect a target with zero presence")
    return _detection_posterior(dist, obs, sensor)


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
