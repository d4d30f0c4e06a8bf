"""Pruning, capping, gating and merging passes."""

import dataclasses
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from disptrack import (
    ApproximationConfig,
    AugmentedDistribution,
    FilterState,
    GaussianComponent,
    Hypothesis,
    Observation,
    ObservationPath,
    SensorModel,
    Track,
    apply_pipeline,
    cap_counts,
    is_consistent,
    make_gate,
    merge_tracks,
    predict,
    prune_by_existence,
    prune_by_presence,
    track_existence,
    update,
    init_filter,
    filter_scans,
    load_config,
    simulate,
)
from disptrack import approximations, engine, runner
from disptrack.approximations import (
    _marginalize,
    _merged,
    _pair_bounds,
    _pair_distances,
    _swept_pairs,
    mahalanobis_sq,
)
from disptrack.estimation import extract_tracks
from disptrack.engine import ID_DTYPE, PTR_DTYPE, TrackTable, row_offsets
from disptrack.models import Mixtures, _derived, mixture_moments, moment_match

from helpers import (
    birth_1d,
    dist,
    motion_1d,
    obs,
    reference_fold_rows,
    reference_merge_tracks,
    sensor_1d,
    unit_dist,
)


def path(birth, *ids):
    return ObservationPath(birth, tuple(ids))


def synth_state(tracks, hypotheses, scan=0):
    table = {t.path: t for t in tracks}
    return FilterState(scan, table, [Hypothesis(tuple(sorted(k)), w) for k, w in hypotheses])


def track(p, presence=1.0, mean=0.0, var=1.0, displayed=False):
    return Track(p, dist(presence, (1.0, mean, var)), displayed)


P1 = path(0, (0, 0))
P2 = path(0, (0, 1))
P3 = path(1, (1, 0))

CLUTTERED = Path(__file__).resolve().parents[1] / "demos" / "configs" / "cluttered.json"
SCENE_LARGE = Path(__file__).resolve().parents[1] / "perfbench" / "scene_large.json"


@pytest.fixture(scope="module")
def cluttered_state():
    """cluttered.json (seed 13) after 8 scans with its passes on."""
    cfg = load_config(CLUTTERED)
    _, state = filter_scans(cfg, simulate(cfg)[1][:8])
    assert (len(state.tracks), len(state.weights)) == (58, 130)
    return state


class TestPruneByPresence:
    def test_zero_threshold_identity(self):
        state = synth_state([track(P1, 0.4)], [((P1,), 0.3), ((), 0.7)])
        out = prune_by_presence(state, 0.0)
        assert {h.tracks: h.weight for h in out.hypotheses} == {
            (P1,): 0.3,
            (): 0.7,
        }

    def test_marginalization_merges_duplicates(self):
        state = synth_state([track(P1, 0.01)], [((P1,), 0.3), ((), 0.7)])
        out = prune_by_presence(state, 0.05)
        assert len(out.hypotheses) == 1
        assert out.hypotheses[0].tracks == ()
        assert out.hypotheses[0].weight == pytest.approx(1.0, abs=1e-15)
        assert out.tracks == {}

    def test_threshold_above_one_prunes_everything_below(self):
        state = synth_state(
            [track(P1, 0.99), track(P3, 1.0)],
            [((P1, P3), 0.5), ((P3,), 0.5)],
        )
        out = prune_by_presence(state, 1.0)
        assert set(out.tracks) == {P3}

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, True])
    def test_nan_or_negative_threshold_rejected(self, cluttered_state, threshold):
        # True used to prune as if the threshold were 1.0 (58 -> 24 tracks).
        with pytest.raises(ValueError, match="presence threshold"):
            prune_by_presence(cluttered_state, threshold)


class TestPruneByExistence:
    def test_zero_thresholds_identity(self):
        state = synth_state([track(P1)], [((P1,), 0.4), ((), 0.6)])
        out = prune_by_existence(state, 0.0, 0.0)
        assert {h.tracks: h.weight for h in out.hypotheses} == {
            (P1,): 0.4,
            (): 0.6,
        }

    def test_hypothesis_prune_keeps_weights_unrenormalized(self):
        state = synth_state(
            [track(P1), track(P2)],
            [((), 0.94), ((P1,), 0.05), ((P2,), 0.01)],
        )
        out = prune_by_existence(state, 0.0, 0.02)
        weights = sorted(h.weight for h in out.hypotheses)
        assert weights == [0.05, 0.94]
        assert out.total_weight() == pytest.approx(0.99)

    def test_orphaned_tracks_dropped(self):
        state = synth_state(
            [track(P1), track(P2)],
            [((), 0.94), ((P1,), 0.05), ((P2,), 0.01)],
        )
        out = prune_by_existence(state, 0.0, 0.02)
        assert set(out.tracks) == {P1}
        referenced = set()
        for h in out.hypotheses:
            referenced.update(h.tracks)
        assert set(out.tracks) == referenced

    def test_track_existence_prune_marginalizes(self):
        state = synth_state(
            [track(P1), track(P3)],
            [((P1, P3), 0.6), ((P3,), 0.3), ((), 0.1)],
        )
        # alpha(P1) = 0.6, alpha(P3) = 0.9
        out = prune_by_existence(state, 0.7, 0.0)
        assert set(out.tracks) == {P3}
        by_key = {h.tracks: h.weight for h in out.hypotheses}
        assert by_key[(P3,)] == pytest.approx(0.9)
        assert by_key[()] == pytest.approx(0.1)

    def test_weights_resum_to_one_after_next_update(self):
        birth = birth_1d([0.5, 0.5])
        sensor = sensor_1d(p_d=0.8, p_fa=0.3)
        motion = motion_1d(p_s=0.9, q=0.2)
        state = update(init_filter(), [obs(0, 0, 0.4)], birth, sensor)
        state = prune_by_existence(state, 0.0, 0.3)
        assert state.total_weight() < 1.0 - 1e-6
        state = predict(state, motion)
        state = update(state, [obs(1, 0, 0.6)], birth, sensor)
        assert state.total_weight() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, True])
    def test_nan_or_negative_threshold_rejected(self, cluttered_state, threshold):
        # A boolean track threshold used to drop every track.
        with pytest.raises(ValueError, match="track existence threshold"):
            prune_by_existence(cluttered_state, threshold)
        with pytest.raises(ValueError, match="hypothesis existence threshold"):
            prune_by_existence(cluttered_state, 0.0, threshold)


def marginalized(state, victims):
    """``_marginalize``'s folded table as a state over the incoming track ids."""
    out = _marginalize(state, victims)
    return out if out is state else FilterState.from_table(*out)


def renumbered(state):
    """``state`` without the tracks no row holds, the rest renumbered."""
    return state.with_rows(np.ones(len(state.weights), dtype=bool))


def sequential_passes(state, c: ApproximationConfig):
    """The passes as they ran before the two track prunes shared a fold: the
    presence prune, then the track-existence prune on its output, then the
    hypothesis threshold, then the merge and the caps. Each marginalization
    renumbers the tracks at once, as it did before the passes renumbered once."""
    if c.presence_threshold is not None:
        state = renumbered(_marginalize(state, state.tracks.dists.presence < c.presence_threshold))
    if c.track_existence_threshold is not None:
        state = renumbered(_marginalize(state, state.existence() < c.track_existence_threshold))
    if c.hyp_existence_threshold is not None:
        kept = state.weights >= c.hyp_existence_threshold
        kept[state.top_rows(1)] = True  # the heaviest row always survives
        state = state.with_rows(kept)
    if c.merge_threshold is not None:
        state = merge_tracks(state, c.merge_threshold)
    return cap_counts(state, c.max_tracks, c.max_hypotheses)


@pytest.fixture(scope="module")
def cluttered_updates():
    """Every scan's update output of cluttered.json (seed 13), passes on."""
    cfg = load_config(CLUTTERED)
    states = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "update", lambda *a, step=runner.update, **k: states.append(step(*a, **k)) or states[-1])
        runner.filter_scans(cfg, simulate(cfg)[1])
    assert len(states) == 25
    return states


class TestOneFoldPrune:
    """The presence and track-existence prunes remove their victims in one fold."""

    @pytest.mark.parametrize(
        "config, seed",
        [(CLUTTERED, s) for s in (0, 1, 2, 3, 13)] + [(SCENE_LARGE, s) for s in (0, 1, 2, 3)],
        ids=[f"cluttered-{s}" for s in (0, 1, 2, 3, 13)] + [f"scene_large-{s}" for s in (0, 1, 2, 3)],
    )
    def test_pipeline_equals_sequential_passes(self, monkeypatch, config, seed):
        cfg = dataclasses.replace(load_config(config), seed=seed)
        compared = []

        def both(state, c, fused=runner.apply_pipeline):
            out, ref = fused(state, c), sequential_passes(state, c)
            assert out.tracks.paths == ref.tracks.paths
            assert np.array_equal(out.tracks.displayed, ref.tracks.displayed)
            for a, b in zip(out.tracks.dists, ref.tracks.dists):
                np.testing.assert_allclose(a, b, rtol=1e-15, atol=0.0)
            assert np.array_equal(out.indptr, ref.indptr) and np.array_equal(out.indices, ref.indices)
            np.testing.assert_allclose(out.weights, ref.weights, rtol=1e-15, atol=0.0)
            estimates = [extract_tracks(s, cfg.extract, cfg.space)[1] for s in (out, ref)]
            assert [(e.track_id, e.displayed) for e in estimates[0]] == [
                (e.track_id, e.displayed) for e in estimates[1]
            ]
            for e, r in zip(*estimates):
                assert e.existence == pytest.approx(r.existence, rel=1e-15, abs=0.0)
                assert e.presence == pytest.approx(r.presence, rel=1e-15, abs=0.0)
                np.testing.assert_allclose(e.point, r.point, rtol=1e-15, atol=0.0)
            compared.append(len(state.tracks) - len(ref.tracks))
            return out

        monkeypatch.setattr(runner, "apply_pipeline", both)
        runner.filter_scans(cfg, simulate(cfg)[1])
        assert len(compared) == cfg.scans and sum(compared) > 0

    def test_prune_folds_once(self, monkeypatch):
        # P1 is under the presence threshold, P2 under the existence threshold.
        state = synth_state(
            [track(P1, 0.01), track(P2), track(P3)],
            [((P1, P3), 0.5), ((P2,), 0.01), ((P3,), 0.39), ((), 0.1)],
        )
        folds = []
        monkeypatch.setattr(
            approximations, "fold_rows", lambda *a, step=approximations.fold_rows: folds.append(1) or step(*a)
        )
        cfg = ApproximationConfig(
            presence_threshold=0.05, track_existence_threshold=0.05, hyp_existence_threshold=1e-3
        )
        for prune in (
            lambda: prune_by_existence(state, 0.05, 1e-3, presence_threshold=0.05),
            lambda: apply_pipeline(state, cfg),
        ):
            out = prune()
            assert len(folds) == 1
            folds.clear()
            assert set(out.tracks) == {P3}
            assert {h.tracks: h.weight for h in out.hypotheses} == {
                (P3,): pytest.approx(0.89, abs=1e-15),
                (): pytest.approx(0.11, abs=1e-15),
            }

    def test_prune_folds_at_most_once_per_scan(self, monkeypatch, cluttered_updates):
        cfg = load_config(CLUTTERED).approx
        folds = []
        monkeypatch.setattr(
            approximations, "fold_rows", lambda *a, step=approximations.fold_rows: folds.append(1) or step(*a)
        )
        both = 0
        for state in cluttered_updates:
            low = state.tracks.dists.presence < cfg.presence_threshold
            rare = state.existence() < cfg.track_existence_threshold
            both += bool(low.any() and rare.any())
            out = prune_by_existence(
                state, cfg.track_existence_threshold, cfg.hyp_existence_threshold, cfg.presence_threshold
            )
            assert len(folds) == (low | rare).any()
            assert len(out.tracks) <= len(state.tracks) - (low | rare).sum()
            folds.clear()
        assert both > 0

    def test_marginalize_keeps_survivors_existence(self, cluttered_updates):
        # Removing a track deletes it from every row and merges the rows that
        # become equal, so each other track keeps the total weight of its rows.
        rng = np.random.default_rng(3)
        eps = np.finfo(float).eps
        for state in cluttered_updates:
            alpha = state.existence()
            rows = np.bincount(state.indices, minlength=len(alpha))  # rows holding each track
            # Weights on a 2^-40 grid add exactly in any order.
            grid = FilterState.from_table(
                state.scan, state.tracks, state.indptr, state.indices,
                rng.integers(1, 2**20, len(state.weights)) * 2.0**-40,
            )
            pipeline = (state.tracks.dists.presence < 1e-3) | (alpha < 1e-6)
            for victims in [pipeline] + [rng.random(len(alpha)) < p for p in (0.1, 0.5, 0.9)]:
                # The table is not renumbered: the victims stay listed, in no row.
                out = marginalized(grid, victims).existence()
                assert np.array_equal(out[~victims], grid.existence()[~victims])
                assert not out[victims].any()
                # Actual weights: the fold and existence() only reassociate
                # the sum, and each sum of n positive terms is within
                # (n - 1) * eps / 2 of the exact total, relative, so the two
                # existences differ by less than rows * eps. (1e-15 relative
                # does not hold here: cluttered reaches 3.8e-15, 32 ulps.)
                kept = alpha[~victims]
                gap = np.abs(marginalized(state, victims).existence()[~victims] - kept)
                assert (gap <= rows[~victims] * eps * kept).all()


@st.composite
def victim_tables(draw):
    """Sorted ragged rows over a few track ids, empty rows included, and a victim
    flag per track."""
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), unique=True, max_size=n), max_size=12))
    return [sorted(r) for r in rows], np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(victim_tables())
@example(([[0, 1], [], [1], [], [0]], np.array([False, True])))  # empty rows, a row of victims only
@example(([[0], [0, 1], []], np.array([False, False])))  # no victims
@example(([[], []], np.array([True])))  # no entries
@example(([], np.array([True])))  # no rows
def test_marginalize_matches_row_by_row_reference(table):
    # Overwriting the victims' cells in the padded table and folding it gives
    # the rows with the victims' ids dropped one by one, folded by np.unique.
    rows, victims = table
    paths = [path(0, (0, k)) for k in range(len(victims))]
    weights = 1.0 / np.arange(1, len(rows) + 1)  # inexact: the sums' order shows
    state = FilterState.from_table(
        0,
        TrackTable.of({p: track(p) for p in paths}),
        row_offsets(np.array([len(r) for r in rows], dtype=np.int64)),
        [i for r in rows for i in r],
        weights,
    )
    out = marginalized(state, victims)
    if not victims.any():
        assert out is state
        return
    kept = [[i for i in r if not victims[i]] for r in rows]
    indptr, indices, folded = reference_fold_rows(
        row_offsets(np.array([len(r) for r in kept], dtype=np.int64)),
        np.array([i for r in kept for i in r], dtype=ID_DTYPE),
        weights,
    )
    assert out.tracks is state.tracks
    assert out.indptr.tobytes() == indptr.astype(PTR_DTYPE).tobytes()
    assert out.indices.tobytes() == indices.astype(state.indices.dtype).tobytes()
    assert out.weights.tobytes() == folded.astype(float).tobytes()


def test_each_pass_builds_its_table_once(monkeypatch, cluttered_updates):
    # The prune and the caps renumber their tracks in one keep_tracks, after
    # marginalizing and picking their rows; the merge takes its distributions
    # once and pads its rows at most once, for the co-occurrence table and
    # the fold both. A pass that acts builds one state, the one it returns:
    # the caps too when only the track cap acts. Each runs on the previous
    # pass's output, as in the pipeline, and the caps also on the update's
    # output at half its counts, so that both of them act in one call, and
    # the track cap alone at half its tracks.
    cfg = load_config(CLUTTERED).approx
    renumbers, takes, pads, states = [], [], [], []
    assign = FilterState._assign
    monkeypatch.setattr(FilterState, "_assign", lambda *a: states.append(1) or assign(*a))
    keep_tracks, padded_rows = engine.keep_tracks, engine.padded_rows
    for module in (engine, approximations):  # where a pass might look it up
        monkeypatch.setattr(
            module, "keep_tracks", lambda *a: renumbers.append(1) or keep_tracks(*a), raising=False
        )
        monkeypatch.setattr(module, "padded_rows", lambda *a: pads.append(1) or padded_rows(*a))
    monkeypatch.setattr(Mixtures, "take", lambda m, ids, step=Mixtures.take: takes.append(1) or step(m, ids))
    passes = {
        "prune": lambda s: prune_by_existence(
            s, cfg.track_existence_threshold, cfg.hyp_existence_threshold, cfg.presence_threshold
        ),
        "merge": lambda s: merge_tracks(s, cfg.merge_threshold),
        "cap": lambda s: cap_counts(s, cfg.max_tracks, cfg.max_hypotheses),
        "half caps": lambda s: cap_counts(s, max(1, len(s.tracks) // 2), max(1, len(s.weights) // 2)),
        "half track cap": lambda s: cap_counts(s, max(1, len(s.tracks) // 2)),
    }
    acted = dict.fromkeys(passes, 0)
    for update_out in cluttered_updates:
        state = update_out
        for name, run in passes.items():
            renumbers.clear()
            takes.clear()
            pads.clear()
            states.clear()
            source = update_out if name.startswith("half") else state
            out = run(source)
            changed = out is not source
            acted[name] += changed
            assert len(states) == changed
            if name == "merge":
                assert (len(renumbers), len(takes)) == (0, changed) and len(pads) <= 1
            else:
                assert len(renumbers) == changed and len(takes) <= changed
            state = state if name.startswith("half") else out
    assert all(acted.values()), acted


class TestCapCounts:
    def test_under_caps_identity(self):
        state = synth_state([track(P1)], [((P1,), 0.4), ((), 0.6)])
        out = cap_counts(state, max_tracks=5, max_hypotheses=5)
        assert {h.tracks: h.weight for h in out.hypotheses} == {
            (P1,): 0.4,
            (): 0.6,
        }

    def test_lowest_weight_hypothesis_removed(self):
        state = synth_state(
            [track(P1), track(P2)],
            [((), 0.5), ((P1,), 0.3), ((P2,), 0.2)],
        )
        out = cap_counts(state, max_hypotheses=2)
        assert len(out.hypotheses) == 2
        assert sorted(h.weight for h in out.hypotheses) == [0.3, 0.5]
        assert set(out.tracks) == {P1}

    def test_ties_break_canonically(self):
        state = synth_state(
            [track(P1), track(P2)],
            [((P1,), 0.5), ((P2,), 0.5)],
        )
        out = cap_counts(state, max_hypotheses=1)
        # Equal weights: the canonically smaller hypothesis (P1) survives.
        assert [h.tracks for h in out.hypotheses] == [(P1,)]
        out2 = cap_counts(state, max_tracks=1)
        assert set(out2.tracks) == {P1}

    def test_lowest_existence_tracks_removed(self):
        state = synth_state(
            [track(P1), track(P2), track(P3)],
            [((P1, P3), 0.7), ((P2,), 0.3)],
        )
        out = cap_counts(state, max_tracks=2)
        assert set(out.tracks) == {P1, P3}
        assert out.total_weight() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "caps",
        [
            # Used to drop exactly one track, or all of them.
            {"max_tracks": -1},
            {"max_tracks": 0},
            # Used to fail inside numpy, or with a TypeError.
            {"max_hypotheses": 0},
            {"max_hypotheses": -1},
            {"max_hypotheses": 2.5},
            {"max_tracks": True},
            {"max_hypotheses": math.nan},
        ],
    )
    def test_invalid_cap_rejected(self, cluttered_state, caps):
        with pytest.raises(ValueError, match=next(iter(caps))):
            cap_counts(cluttered_state, **caps)


class TestGate:
    def test_exact_match_kept(self):
        assert make_gate(sensor_1d(), 0.0)(unit_dist(), obs(0, 0, 0.0))

    def test_infinite_threshold_keeps_everything(self):
        assert make_gate(sensor_1d(), math.inf)(unit_dist(), obs(0, 0, 1e6))

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, -math.inf, True])
    def test_nan_or_negative_threshold_rejected(self, threshold):
        # Such a gate would reject every observation without a word.
        with pytest.raises(ValueError, match="gate threshold"):
            make_gate(sensor_1d(), threshold)

    def test_hand_computed_distance(self):
        # 1-D, S = P + R = 2, innovation 4: d2 = 16 / 2 = 8 <= 9.21.
        assert make_gate(sensor_1d(), 9.21)(unit_dist(1.0, 0.0, 1.0), obs(0, 0, 4.0))
        assert not make_gate(sensor_1d(), 7.9)(unit_dist(1.0, 0.0, 1.0), obs(0, 0, 4.0))

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        sensor = sensor_1d()
        for _ in range(50):
            d = unit_dist(1.0, float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 2)))
            z = obs(0, 0, float(rng.uniform(-6, 6)))
            t1, t2 = sorted(rng.uniform(0, 12, size=2))
            kept1 = make_gate(sensor, t1)(d, z)
            kept2 = make_gate(sensor, t2)(d, z)
            assert not kept1 or kept2  # kept under tight implies kept under loose

    def test_distance_matches_per_component_solves(self):
        # Bit-equal to one solve per component, as the gate computed it
        # before its innovations were stacked, and to forming S and Hm over
        # the stacked components: 4-D state, 2-D observation.
        rng = np.random.default_rng(11)
        root = rng.normal(size=(2, 2))
        sensor = SensorModel(rng.normal(size=(2, 4)), root @ root.T + 0.1 * np.eye(2), 0.9, 0.1)
        for _ in range(200):
            comps = []
            for w in rng.dirichlet(np.ones(int(rng.integers(1, 6)))):
                root = rng.normal(size=(4, 4)) * rng.uniform(0.1, 10.0)
                cov = root @ root.T + 0.01 * np.eye(4)
                comps.append(GaussianComponent(w, rng.normal(scale=20.0, size=4), cov))
            d = AugmentedDistribution(1.0, tuple(comps))
            z = Observation((0, 0), rng.normal(scale=20.0, size=2))
            H, R = sensor.H, sensor.R
            per_comp = []
            for c in d.spatial:
                S, resid = H @ c.cov @ H.T + R, z.value - H @ c.mean
                per_comp.append(float(resid @ np.linalg.solve(S, resid)))
            covs = np.stack([c.cov for c in d.spatial])
            means = np.stack([c.mean for c in d.spatial])
            S, resid = H @ covs @ H.T + R, z.value - (H @ means[..., None])[..., 0]
            stacked = resid[:, None, :] @ np.linalg.solve(S, resid[..., None])
            got = _bits(mahalanobis_sq(d, z, sensor))
            assert got == _bits(min(per_comp)) == _bits(float(stacked.min()))

    def test_one_gate_across_interleaved_distributions(self):
        # One predicate, asked about interleaved distributions and an equal
        # copy, must answer for the distribution it is given every time.
        sensor = SensorModel(np.eye(2), np.diag([0.5, 0.8]), 0.9, 0.1)

        def comp2(w, mean, cov):
            return GaussianComponent(w, np.array(mean), np.array(cov))

        a = AugmentedDistribution(0.9, (
            comp2(0.7, [0.0, 0.0], [[1.0, 0.3], [0.3, 2.0]]),
            comp2(0.3, [6.0, -4.0], [[0.5, 0.0], [0.0, 0.5]]),
        ))
        b = AugmentedDistribution(1.0, (comp2(1.0, [-5.0, 5.0], [[2.0, -0.4], [-0.4, 1.0]]),))
        a_copy = AugmentedDistribution(a.presence, tuple(
            comp2(c.weight, c.mean.copy(), c.cov.copy()) for c in a.spatial
        ))
        near_second = Observation((0, 0), np.array([6.2, -3.7]))
        near_b = Observation((0, 1), np.array([-4.5, 5.5]))
        # The minimum over a's mixture comes from its second component.
        first_only = AugmentedDistribution(1.0, (comp2(1.0, [0.0, 0.0], [[1.0, 0.3], [0.3, 2.0]]),))
        assert mahalanobis_sq(a, near_second, sensor) < 1.0
        assert mahalanobis_sq(first_only, near_second, sensor) > 10.0
        for threshold in (0.0, 1.0, 9.0, math.inf):
            gate = make_gate(sensor, threshold)
            for d in (a, a, b, a, a_copy, b, b, a_copy, a):
                for z in (near_second, near_b):
                    assert gate(d, z) == (mahalanobis_sq(d, z, sensor) <= threshold)
        gate = make_gate(sensor, 9.0)
        kept = [gate(d, near_second) for d in (a, a, b, a, a_copy)]
        assert kept == [True, True, False, True, True]
        assert [gate(d, near_b) for d in (a, b, a_copy)] == [False, True, False]


class TestMergeTracks:
    def test_distant_pair_identity(self):
        state = synth_state(
            [track(P1, mean=0.0), track(P3, mean=50.0)],
            [((P1,), 0.5), ((P3,), 0.5)],
        )
        out = merge_tracks(state, 0.5)
        assert set(out.tracks) == {P1, P3}

    def test_zero_threshold_identity(self):
        state = synth_state(
            [track(P1, mean=0.0), track(P3, mean=0.0)],
            [((P1,), 0.5), ((P3,), 0.5)],
        )
        out = merge_tracks(state, 0.0)
        assert set(out.tracks) == {P1, P3}

    def test_identical_disjoint_tracks_merge_and_sum_existence(self):
        state = synth_state(
            [track(P1, mean=0.0), track(P3, mean=0.0)],
            [((P1,), 0.6), ((P3,), 0.4)],
        )
        out = merge_tracks(state, 1e-6)
        assert set(out.tracks) == {P1}  # higher-existence path kept
        assert track_existence(out, P1) == pytest.approx(1.0, abs=1e-12)
        assert len(out.hypotheses) == 1

    def test_pair_whose_bound_rounds_past_its_distance_merges(self):
        # In 1-D the screening bound is the distance itself up to rounding.
        # At a threshold equal to a bound that rounded above the distance,
        # the pair is close, and the screen's margin must still solve it.
        rng = np.random.default_rng(0)
        first, second = np.array([0]), np.array([1])
        for _ in range(1000):
            gap, var_a, var_b = rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            moments = (np.array([0.5, 0.5]), np.array([[0.0], [gap]]),
                       np.array([[[var_a]], [[var_b]]]), first, second)
            bound, exact = _pair_bounds(*moments)[0], _pair_distances(*moments)[0]
            if bound > exact:
                break
        else:
            pytest.fail("no 1-D pair whose bound rounds above its distance")
        state = synth_state(
            [track(P1, mean=0.0, var=var_a), track(P3, mean=gap, var=var_b)],
            [((P1,), 0.5), ((P3,), 0.5)],
        )
        assert set(merge_tracks(state, float(bound)).tracks) == {P1}
        assert set(merge_tracks(state, float(exact)).tracks) == {P1, P3}

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, True])
    def test_nan_or_negative_threshold_rejected(self, threshold):
        # A NaN threshold would merge every eligible pair, as +inf does.
        state = synth_state(
            [track(P1, mean=0.0), track(P3, mean=0.0)],
            [((P1,), 0.6), ((P3,), 0.4)],
        )
        with pytest.raises(ValueError, match="merge threshold"):
            merge_tracks(state, threshold)

    def test_pair_sharing_hypothesis_never_merges(self):
        state = synth_state(
            [track(P1, mean=0.0), track(P3, mean=0.0)],
            [((P1, P3), 1.0)],
        )
        out = merge_tracks(state, 1e6)
        assert set(out.tracks) == {P1, P3}

    def test_substitution_keeps_hypotheses_consistent(self):
        # P_a = (0:0.0, 1:1.0) conflicts with P_c = (0:0.0); merging P_b into
        # P_a would place P_a next to P_c inside a hypothesis: must be skipped.
        p_a = path(0, (0, 0), (1, 1))
        p_b = path(1, (1, 0))
        p_c = path(0, (0, 0))
        state = synth_state(
            [track(p_a, mean=0.0), track(p_b, mean=0.0), track(p_c, mean=40.0)],
            [((p_a,), 0.5), ((p_b, p_c), 0.5)],
        )
        out = merge_tracks(state, 1e6)
        for h in out.hypotheses:
            assert is_consistent(h.tracks)

    def test_merged_moments_are_existence_weighted(self):
        ta = track(P1, presence=1.0, mean=0.0, var=1.0)
        tb = track(P3, presence=0.5, mean=0.1, var=1.0)
        state = synth_state([ta, tb], [((P1,), 0.75), ((P3,), 0.25)])
        out = merge_tracks(state, 1e3)
        merged = out.tracks[P1]
        assert merged.dist.presence == pytest.approx(0.75 * 1.0 + 0.25 * 0.5, abs=1e-12)
        # One moment-matched Gaussian: the pair's existence-weighted mean and
        # covariance, spread of the means included.
        (c,) = merged.dist.spatial
        assert c.weight == pytest.approx(1.0, abs=1e-12)
        assert c.mean[0] == pytest.approx(0.75 * 0.0 + 0.25 * 0.1, abs=1e-12)
        var = 0.75 * (1.0 + 0.025**2) + 0.25 * (1.0 + 0.075**2)
        assert var == pytest.approx(1.001875, abs=1e-15)
        assert c.cov[0, 0] == pytest.approx(var, abs=1e-12)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def merge_scenes(draw):
    """States of 2-D tracks biased toward the edge cases of the merge pass.

    Tracks share observations (incompatible paths), hypotheses hold several
    tracks (co-occurring pairs), two tracks sit only in zero-weight rows
    (the even-split pooled covariance), some tracks are absent (no spatial
    mixture) and many share a distribution exactly (distance 0). Large
    states give more candidate pairs than one scoring block.
    """
    n = draw(st.one_of(st.integers(2, 10), st.integers(30, 40)))
    threshold = draw(st.sampled_from([0.0, 0.05, 1.0, 25.0, math.inf, "bound"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    paths = set()
    while len(paths) < n:
        birth = int(rng.integers(0, 3))
        dets = [(birth, int(rng.integers(0, 3)))]
        dets += [(s, int(rng.integers(0, 3))) for s in range(birth + 1, 4) if rng.random() < 0.6]
        paths.add(ObservationPath(birth, tuple(dets)))
    paths = sorted(paths, key=lambda p: rng.random())
    shared = []
    for _ in range(3):
        comps = []
        for w in rng.dirichlet(np.ones(int(rng.integers(1, 4)))):
            root = rng.normal(size=(2, 2))
            cov = root @ root.T + 0.1 * np.eye(2)
            comps.append(GaussianComponent(w, rng.normal(scale=2.0, size=2), cov))
        shared.append(AugmentedDistribution(float(rng.uniform(0.2, 1.0)), tuple(comps)))
    tracks = []
    for i, p in enumerate(paths):
        if i >= 2 and rng.random() < 0.1:
            d = AugmentedDistribution(0.0, ())
        elif rng.random() < 0.5:
            d = shared[int(rng.integers(0, 3))]
        else:
            base = shared[int(rng.integers(0, 3))]
            d = AugmentedDistribution(base.presence, tuple(
                GaussianComponent(c.weight, c.mean + rng.normal(scale=0.3, size=2), c.cov)
                for c in base.spatial
            ))
        tracks.append(Track(p, d, bool(rng.random() < 0.3)))
    zero = paths[:2]  # each alone in a zero-weight row
    rows = {(zero[0],): 0.0, (zero[1],): 0.0}
    for p in paths[2:]:
        row = [p]
        for q in rng.permutation(len(paths) - 2)[: int(rng.integers(0, 4))]:
            if is_consistent(row + [paths[q + 2]]):
                row.append(paths[q + 2])
        # Few distinct weights, so that combined existences often tie.
        rows[tuple(sorted(set(row)))] = float(rng.choice([0.0, 0.1, 0.25, 0.5]))
    state = synth_state(tracks, list(rows.items()))
    if threshold == "bound":  # on one pair's bound, which the pass keeps by its margin
        dists = state.tracks.dists
        pair = rng.choice(np.unique(dists.owner), size=2, replace=False)
        threshold = float(_pair_bounds(state.existence(), *mixture_moments(dists), *pair[:, None])[0])
    return state, threshold


@settings(max_examples=60, deadline=None, derandomize=True)
@given(merge_scenes())
def test_merge_matches_per_pair_reference(scene):
    state, threshold = scene
    out = merge_tracks(state, threshold)
    ref = reference_merge_tracks(state, threshold)
    assert (out is state) == (ref is state)
    assert list(out.tracks) == list(ref.tracks)
    for t, r in zip(out.tracks.values(), ref.tracks.values()):
        assert t.displayed == r.displayed
        assert _bits(t.dist.presence) == _bits(r.dist.presence)
        assert len(t.dist.spatial) == len(r.dist.spatial)
        for c, rc in zip(t.dist.spatial, r.dist.spatial):
            assert _bits(c.weight) == _bits(rc.weight)
            assert _bits(c.mean) == _bits(rc.mean)
            assert _bits(c.cov) == _bits(rc.cov)
    assert np.array_equal(out.indptr, ref.indptr)
    assert np.array_equal(out.indices, ref.indices)
    assert _bits(out.weights) == _bits(ref.weights)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(merge_scenes())
def test_pair_distances_match_per_pair_solves(scene):
    # Bit-equal distances, not only equal decisions: a distance one ulp off
    # changes a decision only when it sits on the threshold.
    state, _ = scene
    alpha = state.existence()
    tracks = list(state.tracks.values())
    means, covs = np.zeros((len(tracks), 2)), np.zeros((len(tracks), 2, 2))
    for i, t in enumerate(tracks):
        if t.dist.spatial:
            c = moment_match(t.dist.spatial)
            means[i], covs[i] = c.mean, c.cov
    pairs = list(combinations([i for i, t in enumerate(tracks) if t.dist.spatial], 2))
    first, second = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    for a, b, got in zip(first, second, _pair_distances(alpha, means, covs, first, second)):
        total = alpha[a] + alpha[b]
        if total > 0.0:
            pooled = (alpha[a] * covs[a] + alpha[b] * covs[b]) / total
        else:
            pooled = 0.5 * (covs[a] + covs[b])
        diff = means[a] - means[b]
        assert _bits(got) == _bits(diff @ np.linalg.solve(pooled, diff))


def test_merged_rows_equal_moment_match_per_pair():
    # Pairs: a lone first member, an even split, two positive weights, a
    # lone second member. Covariances are asymmetric in the last bit, so a
    # lone member passes through unsymmetrized.
    rng = np.random.default_rng(11)
    roots = rng.normal(size=(6, 3, 3))
    covs = roots @ np.swapaxes(roots, 1, 2) + np.eye(3)
    covs[:, 0, 1] = np.nextafter(covs[:, 0, 1], np.inf)
    means, presence = rng.normal(size=(6, 3)), rng.uniform(size=6)
    alpha = np.array([0.3, 0.0, 0.0, 0.5, 0.2, 0.0])
    a, b = np.array([0, 1, 3, 5]), np.array([1, 2, 4, 3])
    rows = _merged(presence, alpha, a, b, means, covs)
    assert rows.owner.tolist() == [0, 1, 2, 3] and rows.weight.tolist() == [1.0] * 4
    for k, (i, j) in enumerate(zip(a.tolist(), b.tolist())):
        w = (alpha[i], alpha[j]) if alpha[i] + alpha[j] > 0.0 else (0.5, 0.5)
        c = moment_match([_derived(GaussianComponent, w[0], means[i], covs[i]),
                          _derived(GaussianComponent, w[1], means[j], covs[j])])
        q = min(1.0, max(0.0, w[0] / c.weight * presence[i] + w[1] / c.weight * presence[j]))
        assert _bits(rows.mean[k]) == _bits(c.mean) and _bits(rows.cov[k]) == _bits(c.cov)
        assert _bits(rows.presence[k]) == _bits(q)
    assert _bits(rows.cov[0]) == _bits(covs[0]) and _bits(rows.cov[3]) == _bits(covs[3])


def random_pair_moments(rng, dim, n):
    """Existences (many zero), means (some repeated) and covariances scaled 1e-3 to 30."""
    alpha = rng.choice([0.0, 0.0, 1e-3, 0.5, 1.0], size=n) * rng.uniform(0.5, 1.0, size=n)
    means = rng.normal(scale=rng.choice([1e-3, 1.0, 10.0]), size=(n, dim))
    means[rng.random(n) < 0.2] = means[0]  # zero gaps
    roots = rng.normal(size=(n, dim, dim)) * rng.choice([1e-3, 1.0, 30.0], size=(n, 1, 1))
    covs = roots @ np.swapaxes(roots, 1, 2) + 1e-4 * np.eye(dim)
    return alpha, means, covs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 4),
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_bounds_never_exceed_pair_distances(dim, n, seed):
    # The merge pass solves only pairs whose bound is under the threshold
    # times (1 + 1e-9), so no pair it skips may be closer than its bound.
    # In 1-D the bound is the exact distance and differs only by rounding.
    rng = np.random.default_rng(seed)
    alpha, means, covs = random_pair_moments(rng, dim, n)
    first, second = np.triu_indices(n, 1)
    bound = _pair_bounds(alpha, means, covs, first, second)
    exact = _pair_distances(alpha, means, covs, first, second)
    assert np.isfinite(bound).all() and np.isfinite(exact).all()
    assert (bound >= 0.0).all()
    assert (bound <= exact * (1.0 + 1e-9)).all()
    if dim > 1:
        assert (bound <= exact).all()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 4),
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    threshold=st.sampled_from([0.0, 0.05, 25.0, math.inf, "tightest"]),
)
def test_swept_pairs_hold_every_pair_under_the_bound(dim, n, seed, threshold):
    # The merge pass scores only the sweep's pairs, so every pair whose bound
    # can pass (under the threshold times 1 + 1e-9) must be among them. The
    # sweep's reach is tightest on a pair whose first coordinates' gap alone,
    # over the larger of its traces, equals its bound: repeated covariances
    # make some.
    rng = np.random.default_rng(seed)
    alpha, means, covs = random_pair_moments(rng, dim, n)
    covs[rng.random(n) < 0.3] = covs[0]
    ids = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
    first, second = (ids[k] for k in np.triu_indices(len(ids), 1))
    bound = _pair_bounds(alpha, means, covs, first, second)
    if threshold == "tightest":
        traces = np.trace(covs, axis1=1, axis2=2)
        reach = (means[first, 0] - means[second, 0]) ** 2 / np.maximum(traces[first], traces[second])
        tight = np.divide(reach, bound, out=np.zeros(len(bound)), where=bound > 0.0)
        threshold = float(bound[np.argmax(tight)])
    a, b = _swept_pairs(ids, means, covs, threshold)
    assert (a < b).all()
    swept = set(zip(a.tolist(), b.tolist()))
    assert len(swept) == len(a) and swept <= set(zip(first.tolist(), second.tolist()))
    near = bound < threshold * (1.0 + 1e-9)
    assert set(zip(first[near].tolist(), second[near].tolist())) <= swept
    if threshold == math.inf:
        assert len(swept) == len(first)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 4),
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    threshold=st.sampled_from([0.0, 0.05, 25.0, math.inf]),
)
def test_swept_pairs_are_those_in_reach_of_the_larger_trace(dim, n, seed, threshold):
    # Each pair is swept by the reach of the larger of its two traces, not by
    # the largest trace of the table: a pair is swept when its first
    # coordinates are within that reach, and only then (up to the rounding
    # of the sweep's sums), once, and every pair whose bound can pass is
    # among them.
    rng = np.random.default_rng(seed)
    alpha, means, covs = random_pair_moments(rng, dim, n)
    ids = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
    first, second = (ids[k] for k in np.triu_indices(len(ids), 1))
    traces = np.trace(covs, axis1=1, axis2=2)
    gap = np.abs(means[first, 0] - means[second, 0])
    reach = np.sqrt(threshold * np.maximum(traces[first], traces[second])) * (1.0 + 1e-6)
    a, b = _swept_pairs(ids, means, covs, threshold)
    swept = list(zip(a.tolist(), b.tolist()))
    assert len(set(swept)) == len(swept)
    pairs = list(zip(first.tolist(), second.tolist()))
    inside = set(p for p, g, r in zip(pairs, gap, reach) if not g > r * (1.0 - 1e-9))
    outside = set(p for p, g, r in zip(pairs, gap, reach) if g > r * (1.0 + 1e-9))
    assert inside <= set(swept) and not outside & set(swept)
    near = _pair_bounds(alpha, means, covs, first, second) < threshold * (1.0 + 1e-9)
    assert set(zip(first[near].tolist(), second[near].tolist())) <= set(swept)


class TestPipeline:
    def _run_scans(self, approx, scans=4, seed=2):
        rng = np.random.default_rng(seed)
        birth = birth_1d([0.5, 0.4, 0.1], var=9.0)
        sensor = sensor_1d(p_d=0.8, p_fa=0.2)
        motion = motion_1d(p_s=0.9, q=0.2)
        state = init_filter()
        for t in range(scans):
            scan = [obs(t, k, float(rng.uniform(-5, 5))) for k in range(int(rng.integers(0, 3)))]
            state = predict(state, motion)
            state = update(state, scan, birth, sensor)
            state = apply_pipeline(state, approx)
        return state

    def test_pipeline_without_removals_returns_its_input(self):
        # The runner reads the retained weight off an unchanged state only
        # when the pipeline hands back the object it was given.
        state = self._run_scans(ApproximationConfig(), scans=3)
        zero = ApproximationConfig(
            presence_threshold=0.0, track_existence_threshold=0.0, hyp_existence_threshold=0.0
        )
        assert apply_pipeline(state, ApproximationConfig()) is state
        assert apply_pipeline(state, zero) is state

    def test_neutral_pipeline_equals_exact(self):
        neutral = ApproximationConfig(
            presence_threshold=0.0,
            track_existence_threshold=0.0,
            hyp_existence_threshold=0.0,
            max_tracks=10**6,
            max_hypotheses=10**6,
            merge_threshold=0.0,
        )
        exact = self._run_scans(ApproximationConfig())
        approx = self._run_scans(neutral)
        ew = {h.tracks: h.weight for h in exact.hypotheses}
        aw = {h.tracks: h.weight for h in approx.hypotheses}
        assert set(ew) == set(aw)
        for k, w in ew.items():
            assert aw[k] == pytest.approx(w, abs=1e-12)

    def test_pipeline_invariants(self):
        approx = ApproximationConfig(
            presence_threshold=0.05,
            track_existence_threshold=0.02,
            hyp_existence_threshold=1e-3,
            max_tracks=12,
            max_hypotheses=20,
            merge_threshold=0.5,
        )
        state = self._run_scans(approx, scans=6)
        referenced = set()
        keys = set()
        for h in state.hypotheses:
            assert is_consistent(h.tracks)
            assert h.tracks not in keys  # duplicate-free under canonical key
            keys.add(h.tracks)
            referenced.update(h.tracks)
        assert referenced == set(state.tracks)
        assert state.total_weight() <= 1.0 + 1e-9

    def test_passes_never_increase_weight(self):
        state = self._run_scans(ApproximationConfig(), scans=3)
        total = state.total_weight()
        for fn in (
            lambda s: prune_by_presence(s, 0.2),
            lambda s: prune_by_existence(s, 0.05, 0.01),
            lambda s: cap_counts(s, 5, 5),
            lambda s: merge_tracks(s, 1.0),
        ):
            out = fn(state)
            assert out.total_weight() <= total + 1e-12
