"""The stacked scan scoring against the single-pair API, bit for bit, and the
update with a state-dependent detection probability against the reference
enumeration."""

import math

import numpy as np
import pytest

from disptrack import (
    AugmentedDistribution,
    BirthModel,
    GaussianComponent,
    Observation,
    SensorModel,
    birth_posterior,
    init_filter,
    make_gate,
    predict,
    update,
    update_distribution,
)
from disptrack.approximations import mahalanobis_sq
from disptrack.models import (
    Mixtures,
    _min_distances,
    _stacked,
    log_predictive_likelihood,
    score_scan,
    symmetrize,
)
from disptrack.single_target import detection_posteriors

from helpers import assert_matches_reference, birth_1d, motion_1d, obs, reference_update, sensor_1d


def random_spd(rng, n, wide=None, spread=1.0):
    """A random SPD matrix; given a unit vector ``wide``, one whose eigenvalue
    along ``wide`` is ``spread`` times its next largest."""
    if wide is None:
        root = rng.normal(size=(n, n)) * rng.uniform(0.2, 3.0)
        return root @ root.T + 0.05 * np.eye(n)
    q = np.linalg.qr(np.column_stack([wide, rng.normal(size=(n, n - 1))]))[0]
    scales = rng.uniform(0.2, 9.0) * np.exp(rng.uniform(-2.0, 0.0, size=n)) / spread
    scales[0] = scales[1:].max(initial=scales[0]) * spread
    return symmetrize((q * scales) @ q.T)


def random_mixture(rng, n, presence, wide=None, spread=1.0):
    """1-3 components; with two or more, sometimes one of weight zero."""
    k = int(rng.integers(1, 4))
    w = rng.dirichlet(np.ones(k))
    if k > 1 and rng.random() < 0.4:
        w[int(rng.integers(k))] = 0.0
        w /= w.sum()
    comps = (GaussianComponent(x, rng.normal(scale=3.0, size=n), random_spd(rng, n, wide, spread))
             for x in w)
    return AugmentedDistribution(presence, tuple(comps))


def random_case(seed):
    """A sensor, tracks, a birth prior, a scan and a gate threshold, drawn from ``seed``.

    In some cases S is a needle: R and every P are wide along one singular
    pair (u, w) of H (H' u = sigma w) and thin across it, so that S is badly
    conditioned, by up to about 1e6, and |r|^2 / tr(S) is close to the
    distance of a residual along u. The fifth threshold is one pair's own
    distance, which passes only if the gate's screen keeps the pair.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    p = int(rng.integers(1, n + 1))
    H = rng.normal(size=(p, n))
    # A callable p_d that is 0 over half the state space.
    p_d = 0.9 if rng.random() < 0.5 else (lambda x: 0.0 if x[0] > 0.0 else 0.75)
    u = w = None
    spread = 1.0
    if rng.random() < 0.4:
        left, _, right = np.linalg.svd(H)
        u, w, spread = left[:, 0], right[0], 10.0 ** rng.uniform(2.0, 5.0)
    sensor = SensorModel(H, random_spd(rng, p, u, spread), p_d, 0.1)

    def mixture(presence):
        return random_mixture(rng, n, presence, w, spread)

    dists = [mixture(float(rng.choice([1.0, rng.uniform(0.05, 1.0)])))
             for _ in range(int(rng.integers(0, 5)))]
    dists.append(mixture(0.0))  # absent, but its gate distance is defined
    dists.append(AugmentedDistribution(0.0, ()))  # absent and empty: distance inf
    birth = BirthModel(np.array([0.5, 0.5]), mixture(1.0))
    dists.append(birth.spatial)
    rng.shuffle(dists)
    # Observations near a component's prediction, one exactly on it, and some
    # anywhere; with a needle S, one along a component's widest axis of S,
    # where |r|^2 / tr(S) comes within about 1 / cond(S) of the distance.
    comps = [c for d in dists for c in d.spatial]
    values = [H @ comps[int(rng.integers(len(comps)))].mean + rng.normal(scale=s, size=p)
              for s in rng.choice([0.0, 0.5, 2.0, 10.0], size=int(rng.integers(0, 7)))]
    if u is not None:
        c = comps[int(rng.integers(len(comps)))]
        scale, axes = np.linalg.eigh(H @ c.cov @ H.T + sensor.R)
        values.append(H @ c.mean + rng.uniform(0.5, 3.0) * math.sqrt(scale[-1]) * axes[:, -1])
    scan = [Observation((0, j), v) for j, v in enumerate(values)]
    threshold = [None, 0.0, float(rng.uniform(0.5, 12.0)), math.inf, "own"][seed % 5]
    if threshold == "own":
        # The distance of the pair that |r|^2 / tr(S) bounds the most tightly,
        # among the pairs where a distribution's least distance is taken.
        owner, _, _, S, resid = _stacked(Mixtures.of(dists), np.reshape(values, (-1, p)), sensor)
        each = _min_distances(np.arange(len(owner)), S, resid, len(owner))
        least = (each == _min_distances(owner, S, resid, len(dists))[owner]) & (each > 0.0)
        bound = (resid**2).sum(axis=2) / np.trace(S, axis1=1, axis2=2)[:, None]
        tight = np.divide(bound, each, out=np.full(each.shape, -1.0), where=least)
        threshold = float(each.flat[np.argmax(tight)]) if tight.size else 1.0
    return sensor, dists, birth, scan, threshold


def assert_same_distribution(a, b):
    assert a.presence == b.presence
    assert len(a.spatial) == len(b.spatial)
    for x, y in zip(a.spatial, b.spatial):
        assert x.weight == y.weight
        assert np.array_equal(x.mean, y.mean)
        assert np.array_equal(x.cov, y.cov)


@pytest.mark.parametrize("seed", range(150))
def test_scan_scores_equal_single_pair_api(seed):
    sensor, dists, birth, scan, threshold = random_case(seed)
    values = np.array([o.value for o in scan]).reshape(len(scan), sensor.obs_dim)
    mix = Mixtures.of(dists)
    owner, _, _, S, resid = _stacked(mix, values, sensor)
    distances = _min_distances(owner, S, resid, len(dists))
    dist, seen, logl, moments = score_scan(mix, values, sensor, threshold)
    posts = detection_posteriors(*moments)
    assert len(posts.presence) == len(dist)
    pairs = zip(dist.tolist(), seen.tolist(), logl, map(posts.dist, range(len(dist))))
    scored = {(i, j): (lv, post) for i, j, lv, post in pairs}
    assert len(scored) == len(dist) and list(scored) == sorted(scored)
    for i, d in enumerate(dists):
        for j, z in enumerate(scan):
            single = mahalanobis_sq(d, z, sensor)
            assert distances[i, j] == single
            passed = threshold is None or single <= threshold
            assert passed == (threshold is None or make_gate(sensor, threshold)(d, z))
            lv = log_predictive_likelihood(d, z, sensor)
            assert ((i, j) in scored) == (passed and lv != -math.inf)
            if (i, j) not in scored:
                continue
            assert scored[i, j][0] == lv
            expected = birth_posterior(birth, z, sensor) if d is birth.spatial else (
                update_distribution(d, z, sensor))
            assert_same_distribution(scored[i, j][1], expected)


def test_empty_scan_and_no_distributions():
    sensor, dists, _, _, _ = random_case(3)
    for threshold in (None, 0.0, 4.0, math.inf):
        empty = score_scan(Mixtures.of(dists), np.zeros((0, sensor.obs_dim)), sensor, threshold)
        assert all(len(a) == 0 for a in empty[:3] + empty[3])
        none = score_scan(Mixtures.of([]), np.zeros((2, sensor.obs_dim)), sensor, threshold)
        assert all(len(a) == 0 for a in none[:3] + none[3])


def blind_past_3(x):
    return 0.0 if x[0] > 3.0 else 0.8


@pytest.mark.parametrize("threshold", [None, 4.0, math.inf])
def test_update_with_state_dependent_detection_matches_reference(threshold):
    # A track whose mean is past x = 3 cannot be detected: it gets no
    # detection option and misses with probability one.
    sensor = SensorModel(np.array([[1.0]]), np.array([[0.5]]), blind_past_3, 0.1)
    motion = motion_1d(p_s=0.95, f=1.0, q=0.3)
    birth = birth_1d([0.5, 0.3, 0.2], mean=2.0, var=4.0)
    gate = None if threshold is None else make_gate(sensor, threshold)
    state = init_filter()
    for t, values in enumerate([[1.0, 3.5], [1.6, 4.2, -0.5], [2.4, 3.3]]):
        state = predict(state, motion)
        scan = [obs(t, k, v) for k, v in enumerate(values)]
        ref = reference_update(state, scan, birth, sensor, gate)
        state = update(state, scan, birth, sensor, gate_threshold=threshold)
        assert_matches_reference(state, ref)
    assert any(c.mean[0] > 3.0 for tr in state.tracks.values() for c in tr.dist.spatial)


@pytest.mark.parametrize("threshold", [math.nan, -1.0, True])
def test_update_rejects_nan_or_negative_gate_threshold(threshold):
    state = predict(init_filter(), motion_1d())
    with pytest.raises(ValueError, match="gate threshold"):
        update(state, [obs(0, 0, 0.5)], birth_1d([0.5, 0.5]), sensor_1d(0.9, 0.1), threshold)


def test_posterior_weights_of_runs_with_infinite_log_weights():
    # Runs (pairs) of 1, 3 and 2 components: a lone -inf, all -inf, and one
    # finite beside -inf. The first two have no maximum to shift by; each
    # entry at its run's maximum counts 1, so they come out even.
    pair = np.array([0, 1, 1, 1, 2, 2])
    log_w = np.array([-np.inf, -np.inf, -np.inf, -np.inf, -3.0, -np.inf])
    means, covs = np.zeros((6, 1)), np.ones((6, 1, 1))
    with np.errstate(all="raise"):
        post = detection_posteriors(pair, log_w, means, covs)
    assert post.owner.tolist() == [0, 1, 1, 1, 2]
    assert post.weight.tolist() == [1.0, 1 / 3, 1 / 3, 1 / 3, 1.0]
    assert post.presence.tolist() == [1.0, 1.0, 1.0]
