"""The track table: the stacked predict and update against the per-track
single-pair functions, bit for bit, and the read-only ``state.tracks`` view."""

from collections.abc import Mapping

import numpy as np
import pytest

from disptrack import (
    MISSED,
    AugmentedDistribution,
    BirthModel,
    FilterState,
    GaussianComponent,
    Hypothesis,
    MotionModel,
    Observation,
    ObservationPath,
    SensorModel,
    Track,
    birth_posterior,
    init_filter,
    merge_tracks,
    predict,
    predict_distribution,
    prune_by_existence,
    update,
    update_distribution,
)

from disptrack.models import symmetrize

from helpers import assert_matches_reference, birth_1d, obs, reference_update, sensor_1d, unit_dist


def random_spd(rng, n):
    root = rng.normal(size=(n, n))
    return root @ root.T + 0.2 * np.eye(n)


def assert_same_distribution(a, b):
    assert a.presence == b.presence
    assert len(a.spatial) == len(b.spatial)
    for x, y in zip(a.spatial, b.spatial):
        assert x.weight == y.weight
        assert np.array_equal(x.mean, y.mean)
        assert np.array_equal(x.cov, y.cov)


def far_sighted(x):
    return 0.9 if x[0] < 2.0 else 0.4


def models(rng, p_d):
    """A 2-D constant-velocity model, a position sensor and a 20-component birth prior."""
    motion = MotionModel(np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([0.3, 0.1]), 0.9)
    sensor = SensorModel(np.array([[1.0, 0.0]]), np.array([[0.4]]), p_d, 0.2)
    w = rng.dirichlet(np.ones(20))
    w[3] = 1e-14  # floored out of every posterior
    comps = tuple(
        GaussianComponent(x, rng.normal(scale=3.0, size=2), random_spd(rng, 2)) for x in w / w.sum()
    )
    return motion, sensor, BirthModel(np.array([0.6, 0.4]), AugmentedDistribution(1.0, comps))


def with_absent_track(state, rng):
    """``state`` plus a displayed zero-presence track held by every hypothesis."""
    path = ObservationPath(0, ((0, 99),))
    comps = (GaussianComponent(1.0, rng.normal(size=2), random_spd(rng, 2)),)
    tracks = dict(state.tracks.items())
    tracks[path] = Track(path, AugmentedDistribution(0.0, comps), True)
    hyps = [Hypothesis(tuple(sorted(h.tracks + (path,))), h.weight) for h in state.hypotheses]
    return FilterState(state.scan, tracks, hyps)


def per_track_predict(dist, motion):
    """Prediction one component at a time, with 2-D products: the stacked step must equal it."""
    F, Q = motion.F, motion.Q
    comps = tuple(
        GaussianComponent(c.weight, F @ c.mean, symmetrize(F @ c.cov @ F.T + Q))
        for c in dist.spatial
    )
    return AugmentedDistribution(dist.presence * motion.p_s, comps)


def check_predict(state, motion):
    out = predict(state, motion)
    assert list(out.tracks) == list(state.tracks)
    for path, before in state.tracks.items():
        after = out.tracks[path]
        assert after.displayed == before.displayed
        assert_same_distribution(after.dist, predict_distribution(before.dist, motion))
        assert_same_distribution(after.dist, per_track_predict(before.dist, motion))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
def test_stacked_predict_equals_per_track_products(dim):
    rng = np.random.default_rng(dim)
    motion = MotionModel(rng.normal(size=(dim, dim)), random_spd(rng, dim), 0.95)
    tracks = {}
    for k in range(30):
        path = ObservationPath(0, ((0, k),))
        w = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
        comps = tuple(
            GaussianComponent(x, rng.normal(scale=5.0, size=dim), random_spd(rng, dim)) for x in w
        )
        tracks[path] = Track(path, AugmentedDistribution(float(rng.uniform()), comps), False)
    check_predict(FilterState(0, tracks, [Hypothesis((), 1.0)]), motion)


def check_update(state, scan, birth, sensor, gate):
    out = update(state, scan, birth, sensor, gate)
    by_id = {o.id: o for o in scan}
    for path, child in out.tracks.items():
        last = path.detections[-1]
        if path.birth_scan == out.scan:
            expected, shown = birth_posterior(birth, by_id[last], sensor), False
        elif last[0] == out.scan:
            parent = state.tracks[ObservationPath(path.birth_scan, path.detections[:-1])]
            expected = update_distribution(parent.dist, by_id[last], sensor)
            shown = parent.displayed
        else:
            parent = state.tracks[path]
            expected, shown = update_distribution(parent.dist, MISSED, sensor), parent.displayed
        assert child.displayed == shown
        assert_same_distribution(child.dist, expected)
    return out


@pytest.mark.parametrize("p_d", [0.8, far_sighted], ids=["constant", "callable"])
@pytest.mark.parametrize("gate", [None, 9.0])
def test_table_steps_equal_single_pair_functions(p_d, gate):
    rng = np.random.default_rng(3)
    motion, sensor, birth = models(rng, p_d)
    state = init_filter()
    merged, counts = 0, []
    for t in range(4):
        scan = [Observation((t, k), rng.normal(scale=3.0, size=1)) for k in range(2)]
        state = check_predict(state, motion)
        state = check_update(state, scan, birth, sensor, gate)
        counts += [len(tr.dist.spatial) for tr in state.tracks.values()]
        if t == 1:
            state = with_absent_track(state, rng)
        before = len(state.tracks)
        state = merge_tracks(prune_by_existence(state, 1e-3, 1e-4), 1.0)
        merged += before - len(state.tracks)
        # Redisplay some tracks, so that children inherit both flags.
        tracks = dict(state.tracks.items())
        tracks = {p: Track(p, tr.dist, i % 2 == 0) for i, (p, tr) in enumerate(tracks.items())}
        state = FilterState(state.scan, tracks, list(state.hypotheses))
    assert merged
    assert max(counts) == 19 and 1 in counts
    assert any(tr.dist.presence == 0.0 for tr in state.tracks.values())


def test_update_drops_children_only_dead_rows_reached():
    # p_d = 1 and presence 1: no track can be missed. The rows of {P1, P2}
    # all die, as both want the one observation, so P1's and P2's children
    # reached by the join are held by no row and must leave the table.
    p1, p2, p3 = (ObservationPath(0, ((0, k),)) for k in range(3))
    tracks = {p: Track(p, unit_dist(1.0, 0.0, 1.0), False) for p in (p1, p2, p3)}
    state = FilterState(0, tracks, [Hypothesis((p1, p2), 0.5), Hypothesis((p3,), 0.5)])
    sensor, birth = sensor_1d(p_d=1.0, p_fa=0.1), birth_1d([1.0])
    scan = [obs(1, 0, 0.2)]
    out = update(state, scan, birth, sensor)
    assert list(out.tracks) == [ObservationPath(0, ((0, 2), (1, 0)))]
    assert_matches_reference(out, reference_update(state, scan, birth, sensor))


def test_tracks_view_is_a_read_only_mapping():
    p1, p2, p3 = (ObservationPath(s, ((s, k),)) for s, k in ((0, 0), (0, 1), (1, 0)))
    tracks = {
        p3: Track(p3, unit_dist(0.5, 2.0, 3.0), True),
        p1: Track(p1, unit_dist(1.0, -1.0, 2.0), False),
    }
    state = FilterState(1, tracks, [Hypothesis((p1, p3), 0.75), Hypothesis((), 0.25)])
    view = state.tracks
    assert isinstance(view, Mapping)
    assert list(view) == [p1, p3] and list(view.keys()) == [p1, p3]
    assert len(view) == 2
    assert p1 in view and p3 in view
    assert p2 not in view and (0, 0) not in view and None not in view
    for p, tr in tracks.items():
        got = view[p]
        assert got.path == p and got.displayed == tr.displayed
        assert_same_distribution(got.dist, tr.dist)
    assert [t.path for t in view.values()] == [p1, p3]
    with pytest.raises(KeyError):
        view[p2]
    assert view.get(p2) is None
    with pytest.raises(TypeError):
        view[p2] = tracks[p1]
    with pytest.raises(TypeError):
        del view[p1]
    with pytest.raises(ValueError):
        state.tracks.dists.mean[0, 0] = 1.0
    with pytest.raises(ValueError):
        state.tracks.displayed[0] = True
