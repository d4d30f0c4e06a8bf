"""Core model types: state spaces, Gaussian mixtures, augmented distributions.

A target that may or may not be inside the surveillance scene is described by
an :class:`AugmentedDistribution`: a scalar probability of presence plus a
normalized Gaussian-mixture spatial density over the in-scene state space.
The absent state is never materialized as a vector; all linear algebra stays
on the in-scene space and absence is carried by the presence complement.

Each Gaussian formula has one home, :func:`score_scan`: it forms S = H P H' + R
and H m of every component of a :class:`Mixtures` table at once, gates all of a
scan's pairs in one stacked solve of those a trace bound cannot rule out, and
takes the likelihoods and the Kalman moments from one stacked Cholesky
factorisation; no inverse is formed, and the single-pair functions are
one-row calls into it. Every moment match is :func:`matched_moments`,
through :func:`mixture_moments` for a whole table and :func:`moment_match`
for one mixture. Inputs are validated once, at the boundary: by the model
constructors, which also reject non-finite entries, and by ``load_config``.
Derived records are built by :func:`_derived`, unchecked.
A scan is checked by :func:`check_scan` alone, and every threshold and cap by
:func:`_check_threshold` and :func:`_check_cap`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


class ModelConfigError(ValueError):
    """Invalid model parameterization or dimension mismatch."""


class AssociationImpossibleError(ValueError):
    """A conditioning event has zero probability under the model.

    Raised when a Bayes update is requested against an observation (or a
    miss-detection) that the model assigns zero probability, e.g. detection
    of a target with zero presence, or a miss of a target that is present
    and detected almost surely.
    """


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ModelConfigError(f"{name} must have finite entries")
    return a


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ModelConfigError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    return _finite(m, name)


def _check_symmetric(m: np.ndarray, name: str, tol: float = 1e-12) -> None:
    if not np.allclose(m, m.T, atol=tol, rtol=0.0):
        raise ModelConfigError(f"{name} must be symmetric within {tol}")


def _check_probability(p: float, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ModelConfigError(f"{name} must lie in [0, 1], got {p}")
    return p


def _check_threshold(value, name: str, high: float = 1.0) -> None:
    """Raise ``ValueError`` unless ``value`` is a number in [0, high]; NaN and booleans are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value <= high:
        raise ValueError(f"{name} must be a number in [0, {high}], got {value!r}")


def _check_cap(value, name: str, low: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer of at least ``low``; booleans are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class StateSpace:
    """Bounded in-scene state space: dimension plus per-axis extent."""

    dim: int
    bounds: np.ndarray  # shape (dim, 2), rows are (lower, upper)

    def __post_init__(self):
        if self.dim < 1:
            raise ModelConfigError(f"state dimension must be >= 1, got {self.dim}")
        b = np.asarray(self.bounds, dtype=float)
        if b.shape != (self.dim, 2):
            raise ModelConfigError(f"bounds must have shape ({self.dim}, 2), got {b.shape}")
        _finite(b, "bounds")
        if not np.all(b[:, 0] < b[:, 1]):
            raise ModelConfigError("each bounds interval must satisfy lower < upper")
        object.__setattr__(self, "bounds", b)

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Project a state vector onto the bounds box."""
        return np.clip(np.asarray(x, dtype=float), self.bounds[:, 0], self.bounds[:, 1])

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.bounds[:, 0]) and np.all(x <= self.bounds[:, 1]))


@dataclass(frozen=True)
class GaussianComponent:
    """One weighted Gaussian: nonnegative weight, mean vector, SPD covariance."""

    weight: float
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        w = float(self.weight)
        if w < 0.0 or not math.isfinite(w):
            raise ModelConfigError(f"component weight must be finite and >= 0, got {w}")
        mean = _finite(np.asarray(self.mean, dtype=float).reshape(-1), "component mean")
        cov = _as_matrix(self.cov, "component covariance")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ModelConfigError(f"covariance shape {cov.shape} does not match mean dim {d}")
        _check_symmetric(cov, "component covariance")
        if np.min(np.linalg.eigvalsh(cov)) <= 0.0:
            raise ModelConfigError("component covariance must be positive definite")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class AugmentedDistribution:
    """Presence probability plus normalized Gaussian-mixture spatial density.

    ``presence`` is the mass assigned to the in-scene space; the complement
    is the probability of the target being absent. ``spatial`` is the
    mixture describing the state conditional on presence; its weights sum
    to one whenever presence is positive, and it may be empty only when
    presence is exactly zero.
    """

    presence: float
    spatial: tuple[GaussianComponent, ...]

    def __post_init__(self):
        q = float(self.presence)
        if not 0.0 <= q <= 1.0:
            raise ModelConfigError(f"presence must lie in [0, 1], got {q}")
        comps = tuple(self.spatial)
        if q > 0.0:
            if not comps:
                raise ModelConfigError("spatial mixture may be empty only when presence is 0")
            total = math.fsum(c.weight for c in comps)
            if abs(total - 1.0) > 1e-9:
                raise ModelConfigError(f"spatial weights must sum to 1 +- 1e-9, got {total}")
            dims = {c.dim for c in comps}
            if len(dims) > 1:
                raise ModelConfigError(f"mixed component dimensions {dims}")
        object.__setattr__(self, "presence", q)
        object.__setattr__(self, "spatial", comps)

    @property
    def dim(self) -> int:
        if not self.spatial:
            raise ModelConfigError("empty spatial mixture carries no dimension")
        return self.spatial[0].dim


@dataclass(frozen=True)
class MotionModel:
    """Linear-Gaussian in-scene transition with state-independent survival.

    The in-scene kernel maps x to N(F x, Q); with probability 1 - p_s the
    target instead leaves the scene (and can never return).
    """

    F: np.ndarray
    Q: np.ndarray
    p_s: float

    def __post_init__(self):
        F = _as_matrix(self.F, "F")
        Q = _as_matrix(self.Q, "Q")
        if F.shape[0] != F.shape[1]:
            raise ModelConfigError(f"F must be square, got {F.shape}")
        if Q.shape != F.shape:
            raise ModelConfigError(f"Q shape {Q.shape} does not match F shape {F.shape}")
        _check_symmetric(Q, "Q")
        if np.min(np.linalg.eigvalsh(Q)) < -1e-12:
            raise ModelConfigError("Q must be positive semi-definite")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "p_s", _check_probability(self.p_s, "p_s"))

    @property
    def dim(self) -> int:
        return self.F.shape[0]


# Detection probability: a scalar, or a per-state hook evaluated at component
# means (an approximation for state-dependent detection / restricted fields
# of view; the constant form is exact under the model).
DetectionProbability = Union[float, Callable[[np.ndarray], float]]


@dataclass(frozen=True)
class SensorModel:
    """Linear-Gaussian observation model with miss-detections and false alarms."""

    H: np.ndarray
    R: np.ndarray
    p_d: DetectionProbability
    p_fa: float

    def __post_init__(self):
        H = _as_matrix(self.H, "H")
        R = _as_matrix(self.R, "R")
        if R.shape != (H.shape[0], H.shape[0]):
            raise ModelConfigError(f"R shape {R.shape} does not match H rows {H.shape[0]}")
        _check_symmetric(R, "R")
        if np.min(np.linalg.eigvalsh(R)) <= 0.0:
            raise ModelConfigError("R must be positive definite")
        if not callable(self.p_d):
            object.__setattr__(self, "p_d", _check_probability(self.p_d, "p_d"))
        p_fa = float(self.p_fa)
        if not 0.0 <= p_fa < 1.0:
            raise ModelConfigError(f"p_fa must lie in [0, 1), got {p_fa}")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "p_fa", p_fa)

    @property
    def obs_dim(self) -> int:
        return self.H.shape[0]

    @property
    def state_dim(self) -> int:
        return self.H.shape[1]

    def detection_probabilities(self, means: np.ndarray) -> np.ndarray:
        """The detection probability at each row of ``means``."""
        if callable(self.p_d):
            return np.array([_check_probability(self.p_d(m), "p_d(x)") for m in means])
        return np.full(len(means), self.p_d)


@dataclass(frozen=True)
class BirthModel:
    """Appearing-target population: cardinality distribution plus shared prior.

    The cardinality vector gives the probability of n simultaneous
    appearances for n = 0 .. len(cardinality) - 1 (finite support by
    construction). The spatial prior has presence exactly one: an appearing
    target is inside the scene almost surely. ``prior`` is that distribution
    as a one-row :class:`Mixtures` table, built once here: every update
    scores the scan against it.
    """

    cardinality: np.ndarray
    spatial: AugmentedDistribution
    prior: "Mixtures" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = _finite(np.asarray(self.cardinality, dtype=float).reshape(-1), "cardinality")
        if c.size < 1:
            raise ModelConfigError("cardinality vector must be non-empty")
        if np.any(c < 0.0):
            raise ModelConfigError("cardinality entries must be nonnegative")
        if abs(float(np.sum(c)) - 1.0) > 1e-12:
            raise ModelConfigError(f"cardinality must sum to 1 +- 1e-12, got {np.sum(c)}")
        if self.spatial.presence != 1.0:
            raise ModelConfigError("birth spatial distribution must have presence exactly 1")
        object.__setattr__(self, "cardinality", c)
        object.__setattr__(self, "prior", Mixtures.of([self.spatial]))

    @property
    def max_births(self) -> int:
        return self.cardinality.size - 1


ObsId = tuple[int, int]  # (scan index, within-scan index)


@dataclass(frozen=True)
class Observation:
    """A sensor observation with a globally unique (scan, index) reference."""

    id: ObsId
    value: np.ndarray

    def __post_init__(self):
        scan, idx = self.id
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in (scan, idx)):
            raise ModelConfigError(f"observation id components must be integers, got {self.id!r}")
        if scan < 0 or idx < 0:
            raise ModelConfigError(f"observation id components must be >= 0, got {self.id}")
        object.__setattr__(self, "id", (int(scan), int(idx)))
        value = _finite(np.asarray(self.value, dtype=float).reshape(-1), "observation value")
        object.__setattr__(self, "value", value)


def check_scan(scan_obs: Sequence[Observation], scan: int) -> None:
    """Raise ``ModelConfigError`` unless every id names ``scan`` and no id or value repeats."""
    ids: set[ObsId] = set()
    values: set[tuple] = set()
    for o in scan_obs:
        if o.id[0] != scan:
            raise ModelConfigError(f"observation {o.id} does not belong to scan {scan}")
        if o.id in ids:
            raise ModelConfigError(f"duplicate observation id {o.id}")
        key = tuple(o.value.tolist())
        if key in values:
            raise ModelConfigError(f"observations within a scan must be distinct, got repeated {key}")
        ids.add(o.id)
        values.add(key)


def _derived(cls, *values):
    """``cls(*values)`` unchecked, for records derived from validated ones.

    The values must be in stored form: Python floats, float64 arrays, tuples.
    """
    record = object.__new__(cls)
    # One attribute at a time: a record whose __dict__ is filled whole
    # reads its fields (and hashes) about 30 % slower.
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(record, name, value)
    return record


class Mixtures(NamedTuple):
    """Many augmented distributions as one table.

    Distribution ``i`` has presence ``presence[i]`` and, as its spatial
    mixture, the components ``k`` with ``owner[k] == i`` in table order
    (``owner`` never decreases; a distribution may own no component).
    """

    presence: np.ndarray  # (distributions,)
    owner: np.ndarray  # (components,) int
    weight: np.ndarray  # (components,)
    mean: np.ndarray  # (components, d)
    cov: np.ndarray  # (components, d, d)

    @classmethod
    def of(cls, dists: Sequence[AugmentedDistribution]) -> "Mixtures":
        comps = [c for d in dists for c in d.spatial]
        dim = comps[0].dim if comps else 0
        return cls(
            np.array([d.presence for d in dists], dtype=float),
            np.repeat(np.arange(len(dists)), [len(d.spatial) for d in dists]),
            np.array([c.weight for c in comps], dtype=float),
            np.array([c.mean for c in comps], dtype=float).reshape(len(comps), dim),
            np.array([c.cov for c in comps], dtype=float).reshape(len(comps), dim, dim),
        )

    def dist(self, i: int) -> AugmentedDistribution:
        lo, hi = np.searchsorted(self.owner, (i, i + 1)).tolist()
        spatial = tuple(
            _derived(GaussianComponent, w, self.mean[k], self.cov[k])
            for k, w in enumerate(self.weight[lo:hi].tolist(), lo)
        )
        return _derived(AugmentedDistribution, float(self.presence[i]), spatial)

    def take(self, ids: np.ndarray) -> "Mixtures":
        """Distributions ``ids`` (distinct), in that order."""
        new_id = np.full(len(self.presence), len(ids))  # past every new id: not taken
        new_id[ids] = np.arange(len(ids))
        key = new_id.take(self.owner)
        comp = key.argsort(kind="stable")[:np.count_nonzero(key < len(ids))]
        comps = self.weight.take(comp), self.mean.take(comp, axis=0), self.cov.take(comp, axis=0)
        return Mixtures(self.presence.take(ids), key.take(comp), *comps)

    @staticmethod
    def concat(*parts: "Mixtures") -> "Mixtures":
        """The distributions of ``parts``, one table after another."""
        dim = max(p.mean.shape[1] for p in parts)  # an empty table may have dimension 0
        owners, at = [], 0
        for p in parts:
            owners.append(p.owner + at)
            at += len(p.presence)
        weight = np.concatenate([p.weight for p in parts])
        return Mixtures(
            np.concatenate([p.presence for p in parts]),
            np.concatenate(owners),
            weight,
            np.concatenate([p.mean for p in parts], axis=None).reshape(len(weight), dim),
            np.concatenate([p.cov for p in parts], axis=None).reshape(len(weight), dim, dim),
        )


def _logs(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry: numpy's ``log`` may differ from it in the last bit."""
    return np.array([math.log(v) for v in x.tolist()], dtype=float)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """A flag on the first entry of each run of equal ``keys``."""
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _run_exps(values: np.ndarray, run: np.ndarray, first: np.ndarray):
    """Per run of ``values`` (entry ``k`` in run ``run[k]``, which starts at ``first[run[k]]``):
    its maximum, and each entry's exp(value - maximum), exactly 1 at the maximum (-inf too)."""
    top = np.maximum.reduceat(values, first)
    at = top[run]
    return top, np.exp(np.subtract(values, at, out=np.zeros(len(values)), where=values != at))


def symmetrize(m: np.ndarray) -> np.ndarray:
    """0.5 (M + M') of a matrix or of each matrix in a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _quad_forms(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x' M^-1 x for stacked matrices ``M`` (..., d, d) and vectors ``x`` (..., d), broadcast."""
    return (x[..., None, :] @ np.linalg.solve(M, x[..., None]))[..., 0, 0]


def _log_gauss(chol: np.ndarray, white: np.ndarray) -> np.ndarray:
    """log N(r; 0, S) from stacked Cholesky factors L of S and whitened residuals L^-1 r."""
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    quad = (white[..., None, :] @ white[..., None])[..., 0, 0]
    return -0.5 * (white.shape[-1] * LOG_2PI + logdet + quad)


def _stacked(mix: Mixtures, values: np.ndarray, sensor: SensorModel):
    """``(owner, means, covs, S, resid)`` of the table's components.

    ``owner`` is each component's distribution, S = H P H' + R its innovation
    covariance, and ``resid`` (components, m, p) its residuals z - H m against
    the rows of ``values``. S is left as computed: the Cholesky factorisation
    reads one triangle only, and a general solve does not need symmetry.
    """
    n, H = sensor.state_dim, sensor.H
    means, covs = mix.mean.reshape(len(mix.weight), n), mix.cov.reshape(len(mix.weight), n, n)
    resid = values[None] - (H @ means[..., None])[..., None, :, 0]
    return mix.owner, means, covs, H @ covs @ H.T + sensor.R, resid


def _min_distances(owner, S, resid, n_dists: int, limit: float = math.inf) -> np.ndarray:
    """(distributions, observations): the least squared Mahalanobis distance over each
    distribution's stacked components; ``inf`` for an empty mixture.

    Only the (component, observation) pairs whose |r|^2 / tr(S) is at most
    ``limit`` (1 + 1e-9) are solved, in one stacked solve: that ratio is never
    above r' S^-1 r, as λmax <= tr, and the margin covers its rounding. Every
    other pair counts as ``inf``, so an entry above ``limit`` may read ``inf``;
    with no limit every pair is solved.
    """
    out = np.full((n_dists, resid.shape[1]), math.inf)
    traces = np.trace(S, axis1=1, axis2=2)
    comp, obs = np.nonzero((resid**2).sum(axis=2) <= limit * (1.0 + 1e-9) * traces[:, None])
    np.minimum.at(out, (owner[comp], obs), _quad_forms(S[comp], resid[comp, obs]))
    return out


def score_scan(
    mix: Mixtures,
    values: np.ndarray,
    sensor: SensorModel,
    gate_threshold: float | None = None,
):
    """Gate, score and Kalman-update every (distribution, observation value) pair at once.

    A pair passes when its :func:`_min_distances` entry is at most
    ``gate_threshold`` (``None``: every pair does); only the (component,
    observation) pairs whose |r|^2 / tr(S) is not over the threshold (by a
    1e-9 margin) are solved, and the others fail unsolved, as their distance
    is over it too. A component can detect when its distribution has
    presence > 0 and w p_d > 0, p_d taken at its mean; those of
    distributions with a gated pair are factored in one stacked Cholesky,
    L L' = S. One stacked solve against L whitens the gated
    residuals r for the likelihood; another gives [w | G] = L^-1 [r | H P],
    the posterior m + G'w, P - G'G and the log weight log(w p_d) + log N(r; 0, S).
    The two whitenings of r can differ in the last bit.

    Returns ``(dist, obs, logl, moments)``: one entry per pair that passed
    and that some component can explain, in (distribution, observation)
    order, with ``logl`` the log of presence * sum_i w_i p_d(m_i) N(z; H m_i, S_i)
    (-inf only on underflow; one segmented log-sum-exp over all pairs); and
    ``moments``, the ``(pair, log weight, mean, cov)`` of each such pair's
    detecting components, in that order.
    """
    owner, means, covs, S, resid = _stacked(mix, values, sensor)
    n_dists = len(mix.presence)
    passed = np.ones((n_dists, len(values)), dtype=bool)
    if gate_threshold is not None:
        passed = _min_distances(owner, S, resid, n_dists, gate_threshold) <= gate_threshold
    cand = (passed.any(axis=1)[owner] & (mix.presence[owner] > 0.0)).nonzero()[0]
    pd = sensor.detection_probabilities(means[cand])
    can = (mix.weight[cand] > 0.0) & (pd > 0.0)
    detect = cand[can]
    log_wpd = _logs(mix.weight[detect]) + _logs(pd[can])
    factor, obs = np.nonzero(passed[owner[detect]])
    key = owner[detect[factor]] * len(values) + obs
    order = key.argsort(kind="stable")
    factor, obs, key = factor[order], obs[order], key[order]
    comp, log_wpd = detect[factor], log_wpd[factor]
    chol = np.linalg.cholesky(S[detect])[factor]
    r = resid[comp, obs]
    white = np.linalg.solve(chol, r[..., None])[..., 0]
    sol = np.linalg.solve(chol, np.concatenate((r[..., None], sensor.H @ covs[comp]), axis=-1))
    G, Gt = sol[..., 1:], np.swapaxes(sol[..., 1:], -1, -2)
    terms = log_wpd + _log_gauss(chol, white)
    starts = _run_starts(key)
    first = starts.nonzero()[0]
    pair = starts.cumsum() - 1
    dist = owner[comp[first]]
    top, rel = _run_exps(terms, pair, first)
    logl = _logs(mix.presence[dist]) + top + np.log(np.add.reduceat(rel, first))
    moments = (
        pair,
        log_wpd + _log_gauss(chol, sol[..., 0]),
        means[comp] + (Gt @ sol[..., :1])[..., 0],
        symmetrize(covs[comp] - Gt @ G),
    )
    return dist, obs[first], logl, moments


def log_predictive_likelihood(
    dist: AugmentedDistribution, obs: Observation, sensor: SensorModel
) -> float:
    """Log of the detection predictive mass, -inf when structurally zero.

    The one-pair form of :func:`score_scan`: the log of presence * sum_i
    w_i * p_d(m_i) * N(z; H m_i, H P_i H' + R); -inf whenever presence is
    zero (an absent target produces nothing) or no component can detect.
    """
    z = obs.value
    if z.shape[0] != sensor.obs_dim:
        raise ModelConfigError(
            f"observation dim {z.shape[0]} does not match sensor output dim {sensor.obs_dim}"
        )
    if dist.presence <= 0.0:
        return -math.inf
    if dist.dim != sensor.state_dim:
        raise ModelConfigError(
            f"state dim {dist.dim} does not match sensor input dim {sensor.state_dim}"
        )
    logl = score_scan(Mixtures.of([dist]), z[None], sensor)[2]
    return float(logl[0]) if len(logl) else -math.inf


def predictive_likelihood(
    dist: AugmentedDistribution, obs: Observation, sensor: SensorModel
) -> float:
    """Predictive mass of observing ``obs``: exp of :func:`log_predictive_likelihood`."""
    return math.exp(log_predictive_likelihood(dist, obs, sensor))


def moment_match(components: Sequence[GaussianComponent]) -> GaussianComponent:
    """Collapse a mixture to a single component preserving weight, mean, cov.

    The one-row call of :func:`mixture_moments`: the returned covariance
    includes the spread-of-means term, so the first two moments of the
    mixture are preserved.
    """
    if not components:
        raise ValueError("moment_match requires at least one component")
    total = math.fsum(c.weight for c in components)
    if total <= 0.0:
        raise ValueError("moment_match requires positive total weight")
    mix = Mixtures.of([_derived(AugmentedDistribution, 1.0, tuple(components))])
    mean, cov = mixture_moments(mix)
    return _derived(GaussianComponent, total, mean[0], cov[0])


def mixture_moments(mix: Mixtures):
    """Each of ``n`` distributions' mixtures collapsed: ``(mean (n, d), cov (n, d, d))``.

    A distribution with one component reads it as it is (its normalized
    weight is exactly 1, so :func:`matched_moments` would return it
    unchanged), and one without any reads zeros. Only the distributions with
    two or more components are padded into a table, weights normalized per
    distribution (evenly where they sum to zero), for one
    :func:`matched_moments` call.
    """
    n, d = len(mix.presence), mix.mean.shape[1]
    counts = np.bincount(mix.owner, minlength=n)
    mean, cov = np.zeros((n, d)), np.zeros((n, d, d))
    per = counts[mix.owner]  # each component's mixture size
    one = per == 1
    mean[mix.owner[one]], cov[mix.owner[one]] = mix.mean[one], mix.cov[one]
    comp = (per > 1).nonzero()[0]
    if len(comp):
        rows = (counts > 1).nonzero()[0]
        sizes = counts[rows]
        row = np.arange(len(rows)).repeat(sizes)
        at = row, np.arange(len(comp)) - (sizes.cumsum() - sizes)[row]  # (row, slot)
        w = mix.weight[comp]
        total = np.bincount(row, weights=w)[row]
        m, k = len(rows), sizes.max()
        weights, means, covs = np.zeros((m, k)), np.zeros((m, k, d)), np.zeros((m, k, d, d))
        weights[at] = np.divide(w, total, out=1.0 / per[comp], where=total > 0.0)
        means[at], covs[at] = mix.mean[comp], mix.cov[comp]
        mean[rows], cov[rows] = matched_moments(weights, means, covs)
    return mean, cov


def matched_moments(weights: np.ndarray, means: np.ndarray, covs: np.ndarray):
    """Each row's weighted Gaussians collapsed to one: ``(mean (rows, d), cov (rows, d, d))``.

    ``weights`` (rows, k) are each row's normalized weights, ``means`` (rows,
    k, d) and ``covs`` (rows, k, d, d) its members. The mean is the weighted
    mean, the covariance the weighted covariances plus the spread of the
    means, symmetrized; a row with one nonzero weight is that member as it is,
    and a row with none (or a table with no columns) zeros. Only the rows
    with two or more nonzero weights run the sums.
    """
    rows, k, d = means.shape
    mean, cov = np.zeros((rows, d)), np.zeros((rows, d, d))
    nonzero = np.count_nonzero(weights, axis=1)
    lone = (nonzero == 1).nonzero()[0]
    if len(lone):  # none when there are no columns (k == 0)
        member = np.argmax(weights[lone] != 0.0, axis=1)
        mean[lone], cov[lone] = means[lone, member], covs[lone, member]
    many = (nonzero > 1).nonzero()[0]
    if len(many):  # a table of lone members, as most tracks are, skips the sums
        w, mu, P = weights[many], means[many], covs[many]
        m = np.zeros((len(many), d))
        for j in range(k):
            m += w[:, j, None] * mu[:, j]
        c = np.zeros((len(many), d, d))
        for j in range(k):
            dm = mu[:, j] - m
            c += w[:, j, None, None] * (P[:, j] + dm[:, :, None] * dm[:, None, :])
        mean[many], cov[many] = m, symmetrize(c)
    return mean, cov
