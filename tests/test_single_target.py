"""Prediction and Bayes update of a single target distribution.

The closed-form presence recursions are checked against hand values,
randomized draws, and independent quadrature of the defining integrals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import multivariate_normal, norm

from disptrack import (
    AssociationImpossibleError,
    AugmentedDistribution,
    BirthModel,
    GaussianComponent,
    MISSED,
    MotionModel,
    Observation,
    SensorModel,
    birth_posterior,
    make_gate,
    predict_distribution,
    update_distribution,
)
from disptrack.approximations import mahalanobis_sq
from disptrack.models import log_predictive_likelihood

from helpers import birth_1d, dist, motion_1d, obs, rebuild_checked, sensor_1d, unit_dist


def mixture_pdf(d, x: float) -> float:
    return sum(c.weight * norm.pdf(x, c.mean[0], math.sqrt(c.cov[0, 0])) for c in d.spatial)


class TestPredict:
    def test_presence_decays_by_survival(self):
        out = predict_distribution(unit_dist(0.9), motion_1d(p_s=0.8))
        assert out.presence == pytest.approx(0.72, abs=1e-15)

    def test_certain_survival_keeps_presence(self):
        out = predict_distribution(unit_dist(0.37), motion_1d(p_s=1.0))
        assert out.presence == 0.37

    def test_zero_survival_empties_the_scene(self):
        out = predict_distribution(unit_dist(0.9), motion_1d(p_s=0.0))
        assert out.presence == 0.0

    def test_linear_gaussian_moments(self):
        out = predict_distribution(unit_dist(1.0, 2.0, 3.0), motion_1d(p_s=1.0, f=0.5, q=0.25))
        c = out.spatial[0]
        assert c.mean[0] == pytest.approx(1.0)
        assert c.cov[0, 0] == pytest.approx(0.5 * 3.0 * 0.5 + 0.25)

    @given(
        q=st.floats(0.0, 1.0),
        p_s=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_presence_never_increases(self, q, p_s):
        out = predict_distribution(unit_dist(q), motion_1d(p_s=p_s))
        assert out.presence <= q + 1e-15
        assert out.presence == pytest.approx(q * p_s, abs=1e-15)

    def test_predicted_density_matches_quadrature(self):
        # Push-forward through the in-scene kernel, checked pointwise by
        # integrating N(x'; f x, q_noise) against the prior mixture.
        d = dist(0.8, (0.3, -1.0, 0.5), (0.7, 1.5, 2.0))
        motion = motion_1d(p_s=0.9, f=0.8, q=0.3)
        out = predict_distribution(d, motion)
        for x_new in (-2.0, 0.0, 1.4):
            expected, _ = quad(
                lambda x: norm.pdf(x_new, 0.8 * x, math.sqrt(0.3)) * mixture_pdf(d, x),
                -np.inf,
                np.inf,
            )
            assert mixture_pdf(out, x_new) == pytest.approx(expected, abs=1e-8)


class TestUpdateDetection:
    def test_presence_bursts_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = float(rng.uniform(0.01, 1.0))
            out = update_distribution(unit_dist(q), obs(0, 0, 0.7), sensor_1d(p_d=0.5))
            assert out.presence == 1.0

    def test_conjugate_gaussian_update(self):
        out = update_distribution(unit_dist(1.0), obs(0, 0, 1.0), sensor_1d())
        c = out.spatial[0]
        assert c.mean[0] == pytest.approx(0.5, abs=1e-12)
        assert c.cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_presence_detection_rejected(self):
        with pytest.raises(AssociationImpossibleError):
            update_distribution(
                AugmentedDistribution(0.0, unit_dist().spatial), obs(0, 0, 0.0), sensor_1d()
            )

    def test_posterior_density_matches_quadrature(self):
        d = dist(1.0, (0.4, -1.0, 0.7), (0.6, 2.0, 1.2))
        s = sensor_1d(p_d=0.8, r=0.5)
        z = 0.3
        out = update_distribution(d, obs(0, 0, z), s)
        norm_const, _ = quad(
            lambda x: norm.pdf(z, x, math.sqrt(0.5)) * mixture_pdf(d, x), -np.inf, np.inf
        )
        for x in (-1.5, 0.0, 0.9, 2.2):
            expected = norm.pdf(z, x, math.sqrt(0.5)) * mixture_pdf(d, x) / norm_const
            assert mixture_pdf(out, x) == pytest.approx(expected, abs=1e-8)

    def test_component_weights_reweighted_by_likelihood(self):
        d = dist(1.0, (0.5, -3.0, 1.0), (0.5, 3.0, 1.0))
        out = update_distribution(d, obs(0, 0, 3.0), sensor_1d())
        heavy = max(out.spatial, key=lambda c: c.weight)
        assert heavy.mean[0] > 0
        assert heavy.weight > 0.95


class TestUpdateMiss:
    def test_presence_closed_form(self):
        out = update_distribution(unit_dist(0.72), MISSED, sensor_1d(p_d=0.5))
        assert out.presence == pytest.approx(0.5625, abs=1e-15)

    def test_spatial_unchanged_for_constant_pd(self):
        d = dist(0.9, (0.3, -1.0, 0.5), (0.7, 1.5, 2.0))
        out = update_distribution(d, MISSED, sensor_1d(p_d=0.4))
        assert len(out.spatial) == len(d.spatial)
        for before, after in zip(d.spatial, out.spatial):
            assert after.weight == before.weight
            assert np.array_equal(after.mean, before.mean)
            assert np.array_equal(after.cov, before.cov)

    def test_miss_is_idempotent_on_spatial(self):
        d = dist(0.8, (0.25, 0.0, 1.0), (0.75, 4.0, 2.0))
        s = sensor_1d(p_d=0.6)
        once = update_distribution(d, MISSED, s)
        twice = update_distribution(once, MISSED, s)
        for a, b in zip(once.spatial, twice.spatial):
            assert b.weight == pytest.approx(a.weight, abs=1e-14)

    @given(q=st.floats(0.001, 1.0), p_d=st.floats(0.0, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_presence_never_increases(self, q, p_d):
        out = update_distribution(unit_dist(q), MISSED, sensor_1d(p_d=p_d))
        expected = q * (1 - p_d) / (1 - q + q * (1 - p_d))
        assert out.presence == pytest.approx(expected, abs=1e-12)
        assert out.presence <= q + 1e-12

    def test_sure_presence_sure_detection_cannot_miss(self):
        with pytest.raises(AssociationImpossibleError):
            update_distribution(unit_dist(1.0), MISSED, sensor_1d(p_d=1.0))

    def test_state_dependent_pd_reweights_into_a_valid_mixture(self):
        s = SensorModel(
            np.array([[1.0]]), np.array([[1.0]]), p_d=lambda x: 0.9 if x[0] < 0 else 0.2, p_fa=0.0
        )
        d = dist(0.8, (0.5, -2.0, 1.0), (0.3, 2.0, 1.0), (0.2, 0.0, 0.5))
        out = update_distribution(d, MISSED, s)
        rebuild_checked(out)
        miss = [0.5 * 0.1, 0.3 * 0.8, 0.2 * 0.8]
        assert [c.weight for c in out.spatial] == pytest.approx([t / sum(miss) for t in miss])

    def test_presence_matches_quadrature(self):
        d = dist(0.83, (0.4, -0.5, 0.6), (0.6, 1.0, 1.4))
        p_d = 0.67
        numer = 0.83 * quad(lambda x: (1 - p_d) * mixture_pdf(d, x), -np.inf, np.inf)[0]
        denom = (1 - 0.83) + numer
        out = update_distribution(d, MISSED, sensor_1d(p_d=p_d))
        assert out.presence == pytest.approx(numer / denom, abs=1e-8)


class TestBirthPosterior:
    def test_presence_exactly_one(self):
        birth = birth_1d([0.5, 0.5], mean=0.0, var=100.0)
        out = birth_posterior(birth, obs(0, 0, 2.0), sensor_1d(p_d=0.3))
        assert out.presence == 1.0

    def test_wide_prior_conjugate_update(self):
        birth = birth_1d([0.5, 0.5], mean=0.0, var=100.0)
        out = birth_posterior(birth, obs(0, 0, 5.0), sensor_1d())
        c = out.spatial[0]
        assert c.mean[0] == pytest.approx(5.0 * 100.0 / 101.0, abs=1e-9)
        assert c.cov[0, 0] == pytest.approx(100.0 / 101.0, abs=1e-9)

    def test_symmetric_mixture_symmetric_posterior(self):
        spatial = dist(1.0, (0.5, -2.0, 1.0), (0.5, 2.0, 1.0))
        birth = BirthModel([0.5, 0.5], spatial)
        out = birth_posterior(birth, obs(0, 0, 0.0), sensor_1d())
        assert out.spatial[0].weight == pytest.approx(out.spatial[1].weight, abs=1e-12)

    def test_long_prior_keeps_every_component(self):
        # No mixture length cap: a 20-component prior stays 20 components
        # through the detection update, predict and a miss.
        spatial = dist(1.0, *[(0.05, float(k), 4.0) for k in range(20)])
        out = birth_posterior(BirthModel([0.5, 0.5], spatial), obs(0, 0, 9.5), sensor_1d())
        assert len(out.spatial) == 20
        assert math.fsum(c.weight for c in out.spatial) == pytest.approx(1.0, abs=1e-12)
        out = update_distribution(predict_distribution(out, motion_1d(0.9)), MISSED, sensor_1d(0.5))
        assert len(out.spatial) == 20


# Constant-velocity model of demos/configs/cluttered.json: 4-D state
# (position, velocity), 2-D position observation.
CV_F = np.array(
    [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
)
CV_Q = np.array(
    [[0.01, 0.0, 0.01, 0.0], [0.0, 0.01, 0.0, 0.01], [0.01, 0.0, 0.02, 0.0], [0.0, 0.01, 0.0, 0.02]]
)


class TestFourDimensional:
    """4-D state, 2-D observation, non-diagonal H, R and P.

    Checked against the textbook formulas, written with an explicit inverse
    and scipy's multivariate normal, so that a transposed gain or a
    mis-ordered product cannot pass.
    """

    H = np.array([[1.0, 0.2, 0.5, 0.0], [-0.3, 1.0, 0.0, 0.4]])
    R = np.array([[0.5, 0.2], [0.2, 0.8]])
    P_D = 0.8

    def _setup(self):
        rng = np.random.default_rng(11)
        comps = []
        for weight in (0.35, 0.65):
            a = rng.normal(size=(4, 4))
            comps.append(GaussianComponent(weight, rng.normal(size=4), a @ a.T + 0.5 * np.eye(4)))
        d = AugmentedDistribution(0.7, tuple(comps))
        sensor = SensorModel(self.H, self.R, self.P_D, 0.1)
        z = Observation((0, 0), np.array([0.4, -0.9]))
        return d, sensor, z

    def _textbook(self, d, z):
        H, R, zv = self.H, self.R, z.value
        out = []
        for c in d.spatial:
            S = H @ c.cov @ H.T + R
            S_inv = np.linalg.inv(S)
            K = c.cov @ H.T @ S_inv
            resid = zv - H @ c.mean
            out.append(
                {
                    "lik": c.weight * self.P_D * multivariate_normal.pdf(zv, H @ c.mean, S),
                    "d2": float(resid @ S_inv @ resid),
                    "mean": c.mean + K @ resid,
                    "cov": (np.eye(4) - K @ H) @ c.cov,
                }
            )
        return out

    def test_log_predictive_likelihood(self):
        d, sensor, z = self._setup()
        expected = math.log(d.presence * sum(t["lik"] for t in self._textbook(d, z)))
        assert log_predictive_likelihood(d, z, sensor) == pytest.approx(expected, abs=1e-10)

    def test_gate_distance(self):
        d, sensor, z = self._setup()
        expected = min(t["d2"] for t in self._textbook(d, z))
        assert mahalanobis_sq(d, z, sensor) == pytest.approx(expected, rel=1e-10)
        assert make_gate(sensor, expected * (1 + 1e-9))(d, z)
        assert not make_gate(sensor, expected * (1 - 1e-9))(d, z)

    def test_update_distribution(self):
        d, sensor, z = self._setup()
        ref = self._textbook(d, z)
        total = sum(t["lik"] for t in ref)
        out = update_distribution(d, z, sensor)
        assert out.presence == 1.0
        assert len(out.spatial) == len(ref)
        for c, t in zip(out.spatial, ref):
            assert c.weight == pytest.approx(t["lik"] / total, abs=1e-10)
            np.testing.assert_allclose(c.mean, t["mean"], rtol=0, atol=1e-10)
            np.testing.assert_allclose(c.cov, t["cov"], rtol=0, atol=1e-10)


def test_covariances_stay_positive_definite_over_long_runs():
    # A nearly noiseless sensor drives P - G'G towards singularity in the
    # observed directions; 1,000 scans with every fifth one a miss must keep
    # every covariance exactly symmetric and positive definite, and every
    # derived distribution must pass the checked constructors.
    rng = np.random.default_rng(3)
    motion = MotionModel(CV_F, CV_Q, 0.99)
    H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    sensor = SensorModel(H, 1e-6 * np.eye(2), 0.9, 0.0)
    d = AugmentedDistribution(
        1.0,
        (
            GaussianComponent(0.5, np.zeros(4), np.diag([25.0, 25.0, 0.25, 0.25])),
            GaussianComponent(0.5, np.array([2.0, -2.0, 0.0, 0.0]), np.eye(4)),
        ),
    )
    x = np.array([1.0, -1.0, 0.3, -0.2])
    for t in range(1000):
        x = CV_F @ x + rng.multivariate_normal(np.zeros(4), CV_Q)
        d = predict_distribution(d, motion)
        rebuild_checked(d)
        if t % 5 == 4:
            d = update_distribution(d, MISSED, sensor)
        else:
            z = Observation((t, 0), H @ x + rng.normal(scale=1e-3, size=2))
            d = update_distribution(d, z, sensor)
        rebuild_checked(d)
        for c in d.spatial:
            assert np.array_equal(c.cov, c.cov.T)
            assert np.min(np.linalg.eigvalsh(c.cov)) > 0.0
