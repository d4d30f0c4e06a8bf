"""The integer hypothesis table: the update against the reference enumeration,
observation bitmasks past one word, canonical row order and the validated list
boundary."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from disptrack import (
    AugmentedDistribution,
    BirthModel,
    DegenerateUpdateError,
    ExtractionConfig,
    FilterState,
    GaussianComponent,
    Hypothesis,
    MotionModel,
    Observation,
    ObservationPath,
    SensorModel,
    Track,
    cap_counts,
    extract_tracks,
    init_filter,
    make_gate,
    merge_tracks,
    predict,
    prune_by_existence,
    prune_by_presence,
    update,
)
import disptrack.engine as engine
from disptrack.engine import ID_DTYPE, fold_rows, padded_rows, row_offsets

from helpers import (
    assert_matches_reference,
    birth_1d,
    motion_1d,
    obs,
    reference_fold_rows,
    reference_join_update,
    reference_update,
    sensor_1d,
    space_1d,
    unit_dist,
)


@st.composite
def scenarios(draw):
    """Small random models and scans, biased toward the edge cases of the join."""
    counts = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    counts.append(draw(st.integers(1, 3)))
    values = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    scans = []
    for t, c in enumerate(counts):
        scan_values = draw(st.lists(values, min_size=c, max_size=c, unique=True))
        scans.append([obs(t, k, v) for k, v in enumerate(scan_values)])
    # p_d = 1 with p_s = 1 gives tracks whose miss mass is 0.
    p_d, p_s = draw(st.sampled_from([(1.0, 1.0), (0.6, 0.8), (0.9, 1.0)]))
    p_fa = draw(st.sampled_from([0.0, 0.1, 0.4]))
    card = np.array(draw(st.lists(st.sampled_from([0.0, 0.2, 0.5]), min_size=1, max_size=3)))
    card[0] += card.sum() == 0.0
    gate_threshold = draw(st.sampled_from([None, 1.0, 6.0]))
    sensor = sensor_1d(p_d=p_d, p_fa=p_fa)
    return scans, motion_1d(p_s=p_s, q=0.3), sensor, birth_1d(card / card.sum()), gate_threshold


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scenarios())
def test_update_matches_reference_enumeration(scenario):
    scans, motion, sensor, birth, gate_threshold = scenario
    # The update gates the whole scan; the reference asks the one-pair gate.
    gate = None if gate_threshold is None else make_gate(sensor, gate_threshold)
    state = init_filter()
    for scan in scans:
        state = predict(state, motion)
        ref = reference_update(state, scan, birth, sensor, gate)
        if not ref:
            with pytest.raises(DegenerateUpdateError):
                update(state, scan, birth, sensor, gate_threshold=gate_threshold)
            return
        state = update(state, scan, birth, sensor, gate_threshold=gate_threshold)
        assert_matches_reference(state, ref)


def test_zero_factor_rows_are_kept():
    # p_fa = 0 with a zero in the birth cardinality: most children have
    # weight 0 but a defined posterior, so they stay in the table.
    birth = birth_1d([0.3, 0.4, 0.3])
    sensor = sensor_1d(p_d=0.8, p_fa=0.0)
    motion = motion_1d(p_s=0.9, q=0.2)
    state = init_filter()
    for t, values in enumerate([[0.5, -1.0], [0.7, -0.8]]):
        state = predict(state, motion)
        ref = reference_update(state, [obs(t, k, v) for k, v in enumerate(values)], birth, sensor)
        state = update(state, [obs(t, k, v) for k, v in enumerate(values)], birth, sensor)
        assert_matches_reference(state, ref)
    weights = [h.weight for h in state.hypotheses]
    assert len(weights) == 34
    assert sum(w == 0.0 for w in weights) == 27


def test_more_observations_than_one_mask_word():
    # Two tracks near observations 64 and 66 of a 70-observation scan; the
    # narrow gate keeps the reference enumeration small while detections,
    # births and their conflicts cross the 64-bit word boundary.
    sensor = sensor_1d(p_d=0.8, p_fa=0.2, r=0.05)
    motion = motion_1d(p_s=0.95, q=0.01)
    threshold = 9.0
    gate = make_gate(sensor, threshold)  # the reference's one-pair gate
    state = update(
        predict(init_filter(), motion),
        [obs(0, 0, 7.5), obs(0, 1, 8.0)],
        birth_1d([0.4, 0.3, 0.3]),
        sensor,
        gate_threshold=threshold,
    )
    assert any(len(h.tracks) == 2 for h in state.hypotheses)
    state = predict(state, motion)
    scan = [obs(1, k, 0.25 * k - 8.5) for k in range(70)]
    birth = birth_1d([0.6, 0.4])
    ref = reference_update(state, scan, birth, sensor, gate)
    state = update(state, scan, birth, sensor, gate_threshold=threshold)
    assert_matches_reference(state, ref)
    late = {(1, k) for k in range(64, 70)}
    assert any(p.detections[-1] in late and p.birth_scan == 0 for p in state.tracks)
    assert any(p.detections[0] in late and p.birth_scan == 1 for p in state.tracks)


def test_observations_across_three_mask_words():
    # A 140-observation scan needs three bitmask words. The track's gated
    # detections straddle bit 128, births reach every word, and a birth on
    # the track's observation must be dropped inside the third word.
    sensor = sensor_1d(p_d=0.8, p_fa=0.2, r=0.05)
    motion = motion_1d(p_s=0.95, q=0.01)
    threshold = 9.0
    gate = make_gate(sensor, threshold)
    state = update(
        predict(init_filter(), motion),
        [obs(0, 0, 29.0)],
        birth_1d([0.5, 0.5], mean=29.0),
        sensor,
        gate_threshold=threshold,
    )
    state = predict(state, motion)
    scan = [obs(1, k, 0.5 * k - 35.0) for k in range(140)]
    birth = birth_1d([0.6, 0.4], var=400.0)
    ref = reference_update(state, scan, birth, sensor, gate)
    state = update(state, scan, birth, sensor, gate_threshold=threshold)
    assert_matches_reference(state, ref)
    detected = {p.detections[-1][1] for p in state.tracks if len(p.detections) == 2}
    born = {p.detections[0][1] for p in state.tracks if p.birth_scan == 1}
    assert {127, 128} <= detected
    assert min(born) < 64 and max(born) >= 128


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scenarios())
def test_update_rows_pass_the_validated_constructor(scenario):
    # The join writes each row's ids without sorting them, so every state
    # the update returns must rebuild, unchanged, through the checked list
    # boundary, which rejects rows out of canonical order.
    scans, motion, sensor, birth, gate_threshold = scenario
    state = init_filter()
    for scan in scans:
        try:
            state = update(predict(state, motion), scan, birth, sensor, gate_threshold)
        except DegenerateUpdateError:
            return
        rebuilt = FilterState(state.scan, state.tracks, list(state.hypotheses))
        assert list(rebuilt.tracks) == list(state.tracks)
        for a, b in zip(
            (rebuilt.indptr, rebuilt.indices, rebuilt.weights),
            (state.indptr, state.indices, state.weights),
        ):
            assert np.array_equal(a, b)


def signature_models(dim, p_d, p_s, p_fa, card):
    """1-D or 2-D (position only) motion, sensor and birth models."""
    if dim == 1:
        return motion_1d(p_s=p_s, q=0.3), sensor_1d(p_d=p_d, p_fa=p_fa), birth_1d(card)
    eye = np.eye(2)
    motion = MotionModel(eye, 0.3 * eye, p_s)
    sensor = SensorModel(eye, 0.5 * eye, p_d, p_fa)
    spatial = AugmentedDistribution(1.0, (GaussianComponent(1.0, np.zeros(2), 10.0 * eye),))
    return motion, sensor, BirthModel(card, spatial)


@st.composite
def signature_scenes(draw):
    """Scenes whose tracks differ in option layout, over every shape the join meets.

    Tracks that cannot be missed (p_d = 1 at presence 1), zero-presence
    tracks that can only be missed, gated tracks with a few detections each,
    p_fa = 0, up to three newborns, and a last scan of 70 observations (two
    mask words) whose first 64 lie out of every gate. Before each update
    the parent rows are shuffled and some get weight zero.
    """
    dim = draw(st.sampled_from([1, 2]))
    p_d, p_s = draw(st.sampled_from([(1.0, 1.0), (0.7, 0.9), (0.9, 1.0)]))
    p_fa = draw(st.sampled_from([0.0, 0.1, 0.4]))
    card = np.array(draw(st.lists(st.sampled_from([0.0, 0.2, 0.5]), min_size=1, max_size=4)))
    card[0] += card.sum() == 0.0
    wide = draw(st.booleans())
    gate = draw(st.sampled_from([9.0] if wide else [None, 4.0, 16.0]))
    counts = draw(st.lists(st.integers(1, 2), min_size=2, max_size=2))
    counts.append(70 if wide else draw(st.integers(1, 3)))
    point = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    scans = []
    for t, c in enumerate(counts):
        far = 64 if c == 70 else 0
        near = draw(st.lists(
            st.tuples(point, point), min_size=c - far, max_size=c - far, unique_by=lambda z: z[0]
        ))
        points = [(50.0 + k, 50.0) for k in range(far)] + near
        scans.append([Observation((t, k), np.array(z[:dim])) for k, z in enumerate(points)])
    absent = draw(st.booleans())
    mixing = draw(st.randoms(use_true_random=False))
    return signature_models(dim, p_d, p_s, p_fa, card / card.sum()), gate, scans, absent, mixing


def mixed_rows(state, absent, mixing):
    """``state``'s rows shuffled, some at weight zero, optionally with a zero-presence track."""
    tracks, rows = dict(state.tracks.items()), list(state.hypotheses)
    if absent:
        path = ObservationPath(state.scan, ((state.scan, 99),))
        comps = next(iter(tracks.values())).dist.spatial if tracks else None
        if comps:
            tracks[path] = Track(path, AugmentedDistribution(0.0, comps), True)
            rows = [Hypothesis(tuple(sorted(h.tracks + (path,))), h.weight) for h in rows]
    mixing.shuffle(rows)
    heavy = max(range(len(rows)), key=lambda i: rows[i].weight)
    rows = [
        h if i == heavy or mixing.random() < 0.7 else Hypothesis(h.tracks, 0.0)
        for i, h in enumerate(rows)
    ]
    return FilterState(state.scan, tracks, rows)


def assert_same_table(state, joined):
    """``state`` holds ``joined``'s tracks, rows and weights, byte for byte."""
    assert list(state.tracks) == list(joined.tracks)
    for name in ("indptr", "indices", "weights"):
        got, want = getattr(state, name), getattr(joined, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for name in ("presence", "owner", "weight", "mean", "cov"):
        got, want = getattr(state.tracks.dists, name), getattr(joined.tracks.dists, name)
        assert got.tobytes() == want.tobytes(), name
    assert np.array_equal(state.tracks.displayed, joined.tracks.displayed)


def check_against_the_join(scene):
    """Run ``scene``'s updates and compare each with the per-parent join and the enumeration."""
    (motion, sensor, birth), gate_threshold, scans, absent, mixing = scene
    gate = None if gate_threshold is None else make_gate(sensor, gate_threshold)
    state = init_filter()
    for t, scan in enumerate(scans):
        prior = predict(state if t == 0 else mixed_rows(state, absent, mixing), motion)
        ref = reference_update(prior, scan, birth, sensor, gate) if len(scan) < 70 else None
        try:
            joined = reference_join_update(prior, scan, birth, sensor, gate_threshold)
        except DegenerateUpdateError:
            assert not ref
            with pytest.raises(DegenerateUpdateError):
                update(prior, scan, birth, sensor, gate_threshold)
            return
        state = update(prior, scan, birth, sensor, gate_threshold)
        assert_same_table(state, joined)
        if ref is not None:
            assert_matches_reference(state, ref)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(signature_scenes())
def test_update_matches_the_per_parent_join_bit_for_bit(scene):
    # The update enumerates association patterns once per row of track
    # signatures and writes them over the parents; the per-parent
    # back-pointer join it replaced must give the same table, byte for byte
    # and in row order. The explicit enumeration checks the weights too,
    # except on the 70-observation scan, where it would walk every birth
    # subset. These scenes are small, so the row writer takes their rows.
    check_against_the_join(scene)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(signature_scenes())
def test_broadcast_writer_matches_the_per_parent_join_bit_for_bit(scene):
    # The same scenes with every segment, however short, written as a
    # parents x patterns broadcast. The shuffled parent rows interleave the
    # groups, so one cell's rows split into several segments. Blocks of
    # three rows make several jobs per scan, run on two threads.
    with (
        mock.patch.object(engine, "_BROADCAST_ROWS", 1),
        mock.patch.object(engine, "_BLOCK", 3),
        mock.patch.object(engine, "_CPUS", 2),
    ):
        check_against_the_join(scene)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(signature_scenes())
def test_small_blocks_match_the_per_parent_join_bit_for_bit(scene):
    # The same scenes in blocks of three rows: a block of the row writer then
    # crosses several width runs and rows of width 0, whose absent cells add
    # nothing to the weights and write no id.
    with mock.patch.object(engine, "_BLOCK", 3):
        check_against_the_join(scene)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(signature_scenes())
def test_plan_counts_what_the_update_writes(scene):
    # The plan counts every row and id before any is written; the written
    # table has those lengths, and, where every child stays (so the ids keep
    # their planned type), the bytes the plan predicts.
    (motion, sensor, birth), gate_threshold, scans, absent, mixing = scene
    state = init_filter()
    for t, scan in enumerate(scans):
        prior = predict(state if t == 0 else mixed_rows(state, absent, mixing), motion)
        try:
            plan = engine._plan(prior, sorted(scan, key=lambda o: o.id), birth, sensor, gate_threshold)
            state = update(prior, scan, birth, sensor, gate_threshold)
        except DegenerateUpdateError:
            return
        assert (plan.rows, plan.ids) == (len(state.weights), len(state.indices))
        if len(state.tracks) == len(plan.children):
            assert plan.nbytes == state.indptr.nbytes + state.indices.nbytes + state.weights.nbytes


@pytest.mark.parametrize("orphan", [False, True])
@pytest.mark.parametrize("p_d", [0.9, 1.0])
def test_update_drops_the_children_of_orphan_and_unmissable_tracks(orphan, p_d, monkeypatch):
    # Some row holds every child when each prior track is in a row and can
    # be missed, so the update keeps them all and never scans its output.
    # Only FilterState(...) builds a track no row holds (an orphan), and
    # p_d = 1 at presence 1 makes a track that cannot be missed: then the
    # children no row holds leave the table after the rows are written.
    p1, p2, p3 = (ObservationPath(0, ((0, k),)) for k in range(3))
    tracks = {
        p1: Track(p1, unit_dist(1.0, 0.0, 1.0), True),
        p2: Track(p2, unit_dist(0.6, 1.0, 2.0), False),
        p3: Track(p3, unit_dist(0.8, -1.0, 1.5), True),
    }
    rows = [Hypothesis((p1, p2), 0.4), Hypothesis((p1,), 0.3), Hypothesis((), 0.1)]
    if not orphan:
        rows.append(Hypothesis((p3,), 0.2))
    state = FilterState(0, tracks, rows)
    scan = [obs(1, 0, 0.2), obs(1, 1, 1.1)]
    birth, sensor = birth_1d([0.5, 0.3, 0.2]), sensor_1d(p_d=p_d, p_fa=0.1)
    calls, keep_tracks = [], engine.keep_tracks
    monkeypatch.setattr(engine, "keep_tracks", lambda *a: calls.append(a) or keep_tracks(*a))
    out = update(state, scan, birth, sensor)
    assert len(calls) == (orphan or p_d == 1.0)
    assert_same_table(out, reference_join_update(state, scan, birth, sensor))
    assert_matches_reference(out, reference_update(state, scan, birth, sensor))
    # p3's children: its miss and its two detections, held only when a row holds p3.
    assert sum(p.detections[0] == (0, 2) for p in out.tracks) == (0 if orphan else 3)


def csr_table(rows, weights):
    indices = np.array([i for r in rows for i in r], dtype=ID_DTYPE)
    return row_offsets(np.array([len(r) for r in rows])), indices, np.array(weights, dtype=float)


@st.composite
def row_tables(draw):
    """Ragged rows over a few track ids, each drawn in any order, so that one
    id set recurs as rows in different orders; empty rows included. Each
    entry may be flagged as a hole: a cell overwritten with the fill."""
    track_ids = st.integers(0, 6) | st.integers(0, np.iinfo(ID_DTYPE).max - 1)
    sets = draw(st.lists(st.lists(track_ids, unique=True, max_size=4), min_size=1, max_size=6))
    n = draw(st.integers(0, 40))
    rows = [draw(st.permutations(draw(st.sampled_from(sets)))) for _ in range(n)]
    table = csr_table(rows, draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    size = len(table[1])
    return table, np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)


def unholed(rows, weights):
    table = csr_table(rows, weights)
    return table, np.zeros(len(table[1]), dtype=bool)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(row_tables())
@example(unholed([[], [], []], [0.1, 0.2, 0.3]))  # all-empty
@example(unholed([[0, 2], [1], [0, 2], []], [0.1, 0.2, 0.3, 0.4]))  # sorted: no row sort
@example(unholed([], []))  # no rows
@example(  # holes: rows 1 and 2 fold, row 0 is sorted
    (csr_table([[2, 0], [0], [0, 2]], [0.1, 0.2, 0.3]), np.array([0, 1, 0, 0, 1], dtype=bool))
)
@example((csr_table([[1], []], [0.1, 0.2]), np.array([True])))  # a row emptied by its hole
def test_fold_rows_matches_unique_reference(table):
    # The fold is handed the padded rows with the holes overwritten by the
    # fill; the reference folds the rows without the holes' entries.
    (indptr, indices, weights), holes = table
    fill = np.iinfo(ID_DTYPE).max
    pad = padded_rows(indptr, np.where(holes, fill, indices), fill)
    out_indptr, out_indices, out_weights = fold_rows(pad, weights, fill)
    row = np.repeat(np.arange(len(weights)), np.diff(indptr))
    lengths = np.bincount(row[~holes], minlength=len(weights))
    ref_indptr, ref_indices, ref_weights = reference_fold_rows(
        row_offsets(lengths), indices[~holes], weights
    )
    assert out_indptr.dtype == np.int64 and np.array_equal(out_indptr, ref_indptr)
    assert out_indices.dtype == ID_DTYPE and np.array_equal(out_indices, ref_indices)
    # The reference returns int64 weights for a table without rows.
    assert out_weights.dtype == np.float64
    assert out_weights.tobytes() == ref_weights.astype(float).tobytes()


P1 = ObservationPath(0, ((0, 0),))
P2 = ObservationPath(0, ((0, 1),))


def tracks_of(*paths):
    return {p: Track(p, unit_dist(), False) for p in paths}


class TestBoundary:
    def test_track_filed_under_another_path_rejected(self):
        # The key would name the track and the record's own path be lost.
        with pytest.raises(ValueError, match="filed under"):
            FilterState(0, {P1: Track(P2, unit_dist(), False)}, [Hypothesis((P1,), 1.0)])

    def test_unknown_track_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            FilterState(0, tracks_of(P1), [Hypothesis((P2,), 1.0)])

    def test_repeated_track_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            FilterState(0, tracks_of(P1), [Hypothesis((P1, P1), 1.0)])

    def test_non_canonical_order_rejected(self):
        with pytest.raises(ValueError, match="canonical order"):
            FilterState(0, tracks_of(P1, P2), [Hypothesis((P2, P1), 1.0)])

    @pytest.mark.parametrize("bad", [-0.5, -1e-300, float("nan"), float("inf"), float("-inf")])
    def test_negative_or_non_finite_weight_rejected(self, bad):
        # [1.5, -0.5] sums into (0, 1], so update's prior check would pass it.
        with pytest.raises(ValueError, match="weight"):
            FilterState(0, tracks_of(P1), [Hypothesis((P1,), 1.5), Hypothesis((), bad)])

    def test_hypothesis_listed_twice_rejected(self):
        # The update folds no rows, so a repeated parent row would leave
        # repeated child rows in its table.
        rows = [Hypothesis((P1,), 0.3), Hypothesis((), 0.4), Hypothesis((P1,), 0.3)]
        with pytest.raises(ValueError, match="twice"):
            FilterState(0, tracks_of(P1), rows)

    def test_zero_weight_accepted(self):
        state = FilterState(0, tracks_of(P1), [Hypothesis((P1,), 1.0), Hypothesis((), 0.0)])
        assert state.weights.tolist() == [1.0, 0.0]

    def test_table_layout_and_view(self):
        hypotheses = [Hypothesis((P1, P2), 0.5), Hypothesis((), 0.2), Hypothesis((P2,), 0.3)]
        state = FilterState(3, tracks_of(P2, P1), hypotheses)
        assert list(state.tracks) == [P1, P2]
        assert state.indptr.tolist() == [0, 2, 2, 3]
        assert state.indices.tolist() == [0, 1, 1]
        assert state.weights.tolist() == [0.5, 0.2, 0.3]
        assert not state.weights.flags.writeable
        view = state.hypotheses
        assert len(view) == 3
        assert view[-1] == Hypothesis((P2,), 0.3)
        assert list(view) == [view[0], view[1], view[2]]
        rebuilt = FilterState(state.scan, state.tracks, view)
        assert np.array_equal(rebuilt.indices, state.indices)

    def test_with_rows_keeps_the_tracks_its_rows_hold(self):
        hypotheses = [Hypothesis((P1, P2), 0.5), Hypothesis((), 0.2), Hypothesis((P2,), 0.3)]
        state = FilterState(3, tracks_of(P1, P2), hypotheses)
        out = state.with_rows(np.array([False, True, True]))
        assert list(out.tracks) == [P2]
        assert out.indices.tolist() == [0]
        assert list(out.hypotheses) == [Hypothesis((), 0.2), Hypothesis((P2,), 0.3)]


def readings(build, second_scan, small):
    """Per state that ``build()``'s state yields under update, the passes and
    ``with_rows``: its stored types, and its paths, rows (ids as int64) and
    weights with what ``top_rows``, ``existence``, ``extract_tracks`` and the
    view read from it. A ``small`` table also runs ``merge_tracks`` and
    checks the update against the per-parent join."""
    sensor, birth = sensor_1d(p_d=0.9, p_fa=0.1), birth_1d([0.5, 0.5])
    state = build()
    alpha = state.existence()
    states = [
        state,
        update(predict(state, motion_1d()), second_scan, birth, sensor),
        prune_by_presence(state, 0.5),
        prune_by_existence(state, float(np.median(alpha)), float(np.median(state.weights))),
        cap_counts(state, max_tracks=len(state.tracks) - 1, max_hypotheses=len(state.weights) // 2),
        state.with_rows(np.arange(len(state.weights)) % 3 > 0),
    ]
    if small:
        states.append(merge_tracks(state, 0.05))
        joined = reference_join_update(predict(state, motion_1d()), second_scan, birth, sensor)
        for name in ("indptr", "indices", "weights"):
            assert getattr(joined, name).tobytes() == getattr(states[1], name).tobytes(), name
    out = []
    for s in states:
        shown, estimates, best = extract_tracks(s, ExtractionConfig(0.3, 0.2), space_1d())
        out.append(((s.indices.dtype, s.indptr.dtype), (
            list(s.tracks),
            s.indptr.astype(np.int64).tobytes(),
            s.indices.astype(np.int64).tobytes(),
            s.weights.tobytes(),
            s.existence().tobytes(),
            s.existence(np.arange(len(s.tracks)) % 2 == 0).tobytes(),
            s.top_rows(1).tolist(),
            s.top_rows(7).tolist(),
            list(s.hypotheses),
            [(e.track_id, e.existence, e.presence, e.point.tolist()) for e in estimates],
            shown.tracks.displayed.tobytes(),
            best,
        )))
    return out


@pytest.mark.parametrize("n", [255, 256, 257, 65_536, 65_537])
def test_stored_types_at_the_id_width_boundaries(n, monkeypatch):
    # A table of n tracks stores its ids in one byte up to n = 256, two up
    # to 65,536 and four beyond, and its offsets as int32, however it was
    # built; every reader and pass must see the rows, weights and paths the
    # int32 ids and int64 offsets gave. One scan of n observations with one
    # birth makes n tracks; the update after it reads ids up to n - 1, where
    # one byte's 255 + 1 would wrap.
    paths = [ObservationPath(0, ((0, k),)) for k in range(n)]
    dists = [unit_dist(presence=p, mean=m) for p in (0.3, 0.7) for m in (-1.0, 0.0, 1.5)]
    scan = [obs(0, k, v) for k, v in enumerate(np.linspace(-3.0, 3.0, n))]

    def listed():
        tracks = {p: Track(p, dists[k % len(dists)]) for k, p in enumerate(paths)}
        rows = [Hypothesis((), 0.2), Hypothesis((paths[0],), 0.3), Hypothesis((paths[-1],), 0.5)]
        return FilterState(0, tracks, rows)

    def updated():
        return update(predict(init_filter(), motion_1d()), scan, birth_1d([0.5, 0.5]), sensor_1d(p_d=0.9, p_fa=0.1))

    stored = {255: np.uint8, 256: np.uint8, 257: np.uint16, 65_536: np.uint16, 65_537: np.uint32}[n]
    small = n < 1000
    second_scan = [obs(1, k, v) for k, v in enumerate([-1.0, 0.2, 2.5])] if small else []
    for build in (listed, updated):
        got = readings(build, second_scan, small)
        assert got[0][0] == (stored, np.int32)
        for types, (held, *_) in got:
            assert types == (np.min_scalar_type(max(len(held) - 1, 0)), np.int32)
        with monkeypatch.context() as wide:
            wide.setattr(engine, "id_dtype", lambda n: np.dtype(np.int32))
            wide.setattr(engine, "PTR_DTYPE", np.int64)
            want = readings(build, second_scan, small)
        assert [types for types, _ in want] == [(np.int32, np.int64)] * len(want)
        assert [read for _, read in got] == [read for _, read in want]
