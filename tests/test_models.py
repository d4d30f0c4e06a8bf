"""Core model types and the mixture operations."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from disptrack import (
    AugmentedDistribution,
    BirthModel,
    GaussianComponent,
    ModelConfigError,
    MotionModel,
    Observation,
    SensorModel,
    StateSpace,
    missdetection_mass,
    moment_match,
    predictive_likelihood,
)
from disptrack.models import Mixtures, matched_moments, mixture_moments

from helpers import comp, dist, obs, sensor_1d, unit_dist


class TestTypes:
    def test_state_space_rejects_degenerate_bounds(self):
        with pytest.raises(ModelConfigError):
            StateSpace(1, np.array([[1.0, 1.0]]))
        with pytest.raises(ModelConfigError):
            StateSpace(0, np.zeros((0, 2)))

    def test_component_requires_spd_cov(self):
        with pytest.raises(ModelConfigError):
            GaussianComponent(1.0, np.zeros(2), np.array([[1.0, 0.2], [0.1, 1.0]]))
        with pytest.raises(ModelConfigError):
            GaussianComponent(1.0, np.zeros(1), np.array([[0.0]]))
        with pytest.raises(ModelConfigError):
            GaussianComponent(-0.1, np.zeros(1), np.array([[1.0]]))

    def test_distribution_weights_must_normalize(self):
        with pytest.raises(ModelConfigError):
            AugmentedDistribution(0.5, (comp(0.7, 0.0, 1.0), comp(0.2, 1.0, 1.0)))
        with pytest.raises(ModelConfigError):
            AugmentedDistribution(0.5, ())
        assert AugmentedDistribution(0.0, ()).presence == 0.0

    def test_sensor_p_fa_strictly_below_one(self):
        with pytest.raises(ModelConfigError):
            sensor_1d(p_d=0.9, p_fa=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # Derived records are not checked again, so a non-finite model entry
        # must fail here rather than flow through the filter.
        one, spd = np.array([[1.0]]), np.array([[0.5]])
        odd = np.array([[bad]])
        for build in (
            lambda: MotionModel(odd, spd, 0.9),
            lambda: MotionModel(one, odd, 0.9),
            lambda: SensorModel(odd, spd, 0.9, 0.1),
            lambda: SensorModel(one, odd, 0.9, 0.1),
            lambda: GaussianComponent(1.0, np.array([bad]), spd),
            lambda: GaussianComponent(1.0, np.zeros(1), odd),
            lambda: BirthModel(np.array([bad, 1.0]), unit_dist()),
            lambda: Observation((0, 0), [bad]),
            # Either bound alone: a NaN or +-inf in the other slot would
            # already fail lower < upper.
            lambda: StateSpace(1, np.array([[bad, 1e9]])),
            lambda: StateSpace(1, np.array([[-1e9, bad]])),
        ):
            with pytest.raises(ModelConfigError):
                build()

    def test_observation_id_normalized(self):
        o = Observation((1, 2), [0.5])
        assert o.id == (1, 2)
        assert o.value.shape == (1,)
        o = Observation((np.int64(1), np.int32(2)), [0.5])
        assert o.id == (1, 2) and all(type(v) is int for v in o.id)

    @pytest.mark.parametrize("bad", [(0, 0.7), (0.0, 1), (True, 0), (0, np.float64(1.0))])
    def test_observation_id_must_be_integers(self, bad):
        with pytest.raises(ModelConfigError, match="integers"):
            Observation(bad, [0.5])


class TestPredictiveLikelihood:
    def test_zero_presence_gives_zero(self):
        d = AugmentedDistribution(0.0, ())
        assert predictive_likelihood(d, obs(0, 0, 3.0), sensor_1d()) == 0.0

    def test_unit_gaussian_at_origin(self):
        # N(0; 0, 2) with presence 1, p_d 1: 1 / sqrt(4 pi)
        value = predictive_likelihood(unit_dist(), obs(0, 0, 0.0), sensor_1d())
        assert value == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), abs=1e-12)

    def test_linear_in_presence(self):
        half = predictive_likelihood(unit_dist(0.5), obs(0, 0, 0.0), sensor_1d())
        assert half == pytest.approx(0.5 / math.sqrt(4.0 * math.pi), abs=1e-12)
        rng = np.random.default_rng(1)
        for _ in range(25):
            q = float(rng.uniform(0.01, 1.0))
            z = obs(0, 0, float(rng.uniform(-3, 3)))
            full = predictive_likelihood(unit_dist(1.0), z, sensor_1d(p_d=0.7))
            part = predictive_likelihood(unit_dist(q), z, sensor_1d(p_d=0.7))
            assert part == pytest.approx(q * full, rel=1e-12)

    def test_linear_in_component_weights(self):
        d2 = dist(1.0, (0.3, -1.0, 1.0), (0.7, 2.0, 0.5))
        s = sensor_1d(p_d=0.6)
        z = obs(0, 0, 0.4)
        parts = [
            predictive_likelihood(dist(1.0, (1.0, -1.0, 1.0)), z, s),
            predictive_likelihood(dist(1.0, (1.0, 2.0, 0.5)), z, s),
        ]
        assert predictive_likelihood(d2, z, s) == pytest.approx(
            0.3 * parts[0] + 0.7 * parts[1], rel=1e-12
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ModelConfigError):
            predictive_likelihood(unit_dist(), Observation((0, 0), [0.0, 1.0]), sensor_1d())


class TestMissdetectionMass:
    def test_certain_detection(self):
        assert missdetection_mass(unit_dist(1.0), sensor_1d(p_d=1.0)) == 0.0

    def test_absent_target(self):
        d = AugmentedDistribution(0.0, ())
        assert missdetection_mass(d, sensor_1d(p_d=0.3)) == 1.0

    def test_partial_presence(self):
        assert missdetection_mass(unit_dist(0.72), sensor_1d(p_d=0.5)) == pytest.approx(
            0.64, abs=1e-15
        )


def padded_moments(mix: Mixtures):
    """``mixture_moments`` as it read every distribution: the components padded
    into one (n, k) table, weights normalized per distribution (evenly where
    they sum to zero), and one ``matched_moments`` call."""
    n, (c, d) = len(mix.presence), mix.mean.shape
    counts = np.bincount(mix.owner, minlength=n)
    at = mix.owner, np.arange(c) - (np.cumsum(counts) - counts)[mix.owner]  # (row, slot)
    total = np.bincount(mix.owner, weights=mix.weight, minlength=n)[mix.owner]
    k = counts.max(initial=0)
    weights, means, covs = np.zeros((n, k)), np.zeros((n, k, d)), np.zeros((n, k, d, d))
    weights[at] = np.divide(mix.weight, total, out=1.0 / counts[mix.owner], where=total > 0.0)
    means[at], covs[at] = mix.mean, mix.cov
    return matched_moments(weights, means, covs)


class TestMomentMatch:
    def test_single_component_identity(self):
        c = comp(0.8, 1.5, 2.0)
        m = moment_match([c])
        assert m.weight == pytest.approx(0.8)
        assert m.mean[0] == pytest.approx(1.5)
        assert m.cov[0, 0] == pytest.approx(2.0)

    def test_symmetric_pair_spread(self):
        m = moment_match([comp(0.5, -1.0, 1.0), comp(0.5, 1.0, 1.0)])
        assert m.weight == pytest.approx(1.0)
        assert m.mean[0] == pytest.approx(0.0, abs=1e-15)
        assert m.cov[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_weight_component_ignored(self):
        m = moment_match([comp(1.0, 0.5, 1.0), comp(0.0, 9.0, 1.0)])
        assert m.mean[0] == pytest.approx(0.5)
        assert m.cov[0, 0] == pytest.approx(1.0)

    def test_lone_component_kept_as_is(self):
        # Off-diagonals one ulp apart: symmetrizing would change one of them.
        cov = np.array([[2.0, 0.3], [np.nextafter(0.3, 1.0), 1.0]])
        c = GaussianComponent(0.7, np.array([1.0, -2.0]), cov)
        for comps in ([c], [GaussianComponent(0.0, np.zeros(2), np.eye(2)), c]):
            m = moment_match(comps)
            assert m.weight == 0.7
            assert np.array_equal(m.mean, c.mean) and np.array_equal(m.cov, cov)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            moment_match([])

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            moment_match([comp(0.0, 1.0, 1.0), comp(0.0, 2.0, 1.0)])

    def test_table_rows_equal_one_row_calls(self):
        # Rows of one, two, three and four components in one padded table,
        # then a lone zero-weight component and an empty mixture.
        rng = np.random.default_rng(19)
        dists = []
        for k in (1, 2, 3, 4):
            w = rng.uniform(0.1, 1.0, size=k)
            dists.append(dist(1.0, *((x, rng.normal(), rng.uniform(0.5, 2.0)) for x in w / w.sum())))
        dists += [dist(0.0, (0.0, 3.0, 2.0)), AugmentedDistribution(0.0, ())]
        mean, cov = mixture_moments(Mixtures.of(dists))
        for i, d in enumerate(dists[:4]):
            m = moment_match(d.spatial)
            assert mean[i].tobytes() == m.mean.tobytes() and cov[i].tobytes() == m.cov.tobytes()
        assert mean[4].tolist() == [3.0] and cov[4].tolist() == [[2.0]]
        assert mean[5].tolist() == [0.0] and cov[5].tolist() == [[0.0]]

    def test_mixed_tables_equal_the_padded_path(self):
        # One-component (of weight 0 too), multi-component (some weights 0)
        # and empty mixtures in one table, 2-D, off-diagonals one ulp apart:
        # bit for bit as when every distribution was padded into the table.
        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(60):
            dists = [AugmentedDistribution(0.0, (GaussianComponent(0.0, np.ones(2), np.eye(2)),))]
            for k in rng.choice([0, 1, 1, 2, 3, 5], size=int(rng.integers(0, 10))).tolist():
                w = rng.uniform(0.1, 1.0, size=k) * (rng.random(k) < 0.8)
                comps = []
                for x in w / w.sum() if w.sum() > 0.0 else w:
                    root = rng.normal(size=(2, 2))
                    cov = root @ root.T + 0.1 * np.eye(2)
                    cov[0, 1] = np.nextafter(cov[1, 0], np.inf)
                    comps.append(GaussianComponent(x, rng.normal(size=2), cov))
                dists.append(AugmentedDistribution(float(w.sum() > 0.0), tuple(comps)))
                seen.add(min(k, 2))
            rng.shuffle(dists)
            mix = Mixtures.of(dists)
            mean, cov = mixture_moments(mix)
            ref_mean, ref_cov = padded_moments(mix)
            assert mean.tobytes() == ref_mean.tobytes() and cov.tobytes() == ref_cov.tobytes()
        assert seen == {0, 1, 2}

    @pytest.mark.parametrize(
        "dists", [[], [AugmentedDistribution(0.0, ())]], ids=["no distribution", "empty mixture"]
    )
    def test_table_without_components_gives_zeros(self, dists):
        # A table with no component has no columns; both used to raise
        # "attempt to get argmax of an empty sequence".
        mean, cov = mixture_moments(Mixtures.of(dists))
        assert mean.shape == (len(dists), 0) and cov.shape == (len(dists), 0, 0)
        mean, cov = matched_moments(np.zeros((3, 0)), np.zeros((3, 0, 2)), np.zeros((3, 0, 2, 2)))
        assert mean.tolist() == [[0.0, 0.0]] * 3 and not cov.any() and cov.shape == (3, 2, 2)

    def test_moments_preserved_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            comps = [
                comp(float(rng.uniform(0.05, 1.0)), float(rng.uniform(-5, 5)),
                     float(rng.uniform(0.1, 3.0)))
                for _ in range(int(rng.integers(2, 6)))
            ]
            total = sum(c.weight for c in comps)
            mean = sum(c.weight * c.mean[0] for c in comps) / total
            second = sum(c.weight * (c.cov[0, 0] + c.mean[0] ** 2) for c in comps) / total
            m = moment_match(comps)
            assert m.weight == pytest.approx(total, abs=1e-10)
            assert m.mean[0] == pytest.approx(mean, abs=1e-10)
            assert m.cov[0, 0] == pytest.approx(second - mean**2, abs=1e-10)


def random_mixtures(rng, ks, dim=2) -> Mixtures:
    """A table of len(ks) distributions, distribution i owning ks[i] random components."""
    m = int(sum(ks))
    root = rng.normal(size=(m, dim, dim))
    return Mixtures(
        rng.uniform(size=len(ks)), np.repeat(np.arange(len(ks)), ks), rng.uniform(size=m),
        rng.normal(size=(m, dim)), root @ np.swapaxes(root, 1, 2),
    )


class TestMixtures:
    def test_concat_equals_per_column_concatenation(self):
        # Each column is concatenated once, owners shifted by the distributions
        # before them: byte for byte the per-column np.concatenate of the
        # parts, with an empty table of dimension 0 and a table of mixtures
        # without components among them.
        rng = np.random.default_rng(31)
        parts = [random_mixtures(rng, [1, 2]), Mixtures.of([]), random_mixtures(rng, [0, 0]),
                 random_mixtures(rng, [3, 0, 1])]
        assert parts[1].mean.shape == (0, 0)
        out = Mixtures.concat(*parts)
        offsets = np.cumsum([0] + [len(p.presence) for p in parts])
        reference = Mixtures(
            np.concatenate([p.presence for p in parts]),
            np.concatenate([p.owner + o for p, o in zip(parts, offsets)]),
            np.concatenate([p.weight for p in parts]),
            np.concatenate([p.mean.reshape(len(p.weight), 2) for p in parts]),
            np.concatenate([p.cov.reshape(len(p.weight), 2, 2) for p in parts]),
        )
        for column, ref in zip(out, reference):
            assert (column.dtype, column.shape) == (ref.dtype, ref.shape)
            assert column.tobytes() == ref.tobytes()
        empty = Mixtures.concat(Mixtures.of([]), Mixtures.of([AugmentedDistribution(0.0, ())]))
        assert [c.shape for c in empty] == [(1,), (0,), (0,), (0, 0), (0, 0, 0)]

    def test_take_equals_per_distribution_reference(self):
        # Distributions ids, in that order, each with its components in table
        # order, owners renumbered to the distributions' new places.
        rng = np.random.default_rng(37)
        for _ in range(40):
            mix = random_mixtures(rng, rng.integers(0, 4, size=int(rng.integers(1, 8))))
            ids = rng.permutation(len(mix.presence))[:int(rng.integers(0, len(mix.presence) + 1))]
            comp = [k for i in ids.tolist() for k in np.flatnonzero(mix.owner == i).tolist()]
            out = mix.take(ids)
            assert out.presence.tobytes() == mix.presence[ids].tobytes()
            assert out.owner.tolist() == [ids.tolist().index(i) for i in mix.owner[comp].tolist()]
            for column, whole in zip(out[2:], mix[2:]):
                assert column.tobytes() == whole[comp].tobytes() and column.shape[1:] == whole.shape[1:]


class TestDetectionMissSplit:
    def test_masses_integrate_to_one_without_false_alarms(self):
        # With p_fa = 0 each target either yields exactly one observation or
        # none: the detection density integrated over the observation space
        # plus the miss mass must be one.
        for q, p_d in [(1.0, 0.9), (0.72, 0.5), (0.3, 0.99), (1.0, 1.0)]:
            d = dist(q, (0.4, -1.0, 0.8), (0.6, 2.0, 1.5))
            s = sensor_1d(p_d=p_d)
            density, _ = quad(
                lambda z: predictive_likelihood(d, Observation((0, 0), [z]), s),
                -np.inf,
                np.inf,
            )
            assert density + missdetection_mass(d, s) == pytest.approx(1.0, abs=1e-6)

    def test_state_dependent_detection_hook(self):
        # Callable p_d evaluated at component means.
        s = SensorModel(np.array([[1.0]]), np.array([[1.0]]),
                        p_d=lambda x: 0.9 if x[0] < 0 else 0.2, p_fa=0.0)
        d = dist(1.0, (0.5, -2.0, 1.0), (0.5, 2.0, 1.0))
        assert missdetection_mass(d, s) == pytest.approx(0.5 * 0.1 + 0.5 * 0.8)
