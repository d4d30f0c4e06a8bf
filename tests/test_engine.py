"""Hypothesis engine: association enumeration, weighting, Bayes update."""

import math
import sys
import threading
import tracemalloc
from functools import partial
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import disptrack.engine as engine
from disptrack import (
    Association,
    DegenerateUpdateError,
    FilterState,
    Hypothesis,
    HypothesisBudgetError,
    MISSED,
    ObservationPath,
    association_weight,
    birth_posterior,
    compatible,
    enumerate_associations,
    filter_scans,
    init_filter,
    is_consistent,
    load_config,
    newborn_path,
    predict,
    predictive_likelihood,
    simulate,
    track_existence,
    update,
    update_distribution,
)

from helpers import (
    birth_1d,
    motion_1d,
    obs,
    reference_join_update,
    reference_update,
    sensor_1d,
    unit_dist,
)


def path(birth, *ids):
    return ObservationPath(birth, tuple(ids))


class TestPaths:
    def test_rejects_empty_and_misordered(self):
        with pytest.raises(ValueError):
            ObservationPath(0, ())
        with pytest.raises(ValueError):
            ObservationPath(0, ((1, 0),))  # birth not at first detection
        with pytest.raises(ValueError):
            ObservationPath(0, ((0, 0), (0, 1)))  # same scan twice

    def test_str_roundtrippable_form(self):
        p = path(0, (0, 1), (2, 0))
        assert str(p) == "0:0.1,2.0"

    def test_extension(self):
        p = path(0, (0, 0))
        q = p.extended((3, 1))
        assert q.detections == ((0, 0), (3, 1))
        assert q.birth_scan == 0

    def test_derived_paths_are_checked(self):
        p = path(2, (2, 0))
        for scan in (1, 2):  # not after the last detection
            with pytest.raises(ValueError):
                p.extended((scan, 1))
        assert newborn_path((4, 1)) == path(4, (4, 1))
        with pytest.raises(ValueError):
            newborn_path((4,))


class TestCompatibility:
    def test_disjoint_paths_compatible(self):
        assert compatible(path(0, (0, 0)), path(1, (1, 0)))

    def test_shared_observation_incompatible(self):
        a = path(0, (0, 0), (1, 0))
        b = path(1, (1, 0))
        assert not compatible(a, b)

    def test_path_incompatible_with_itself(self):
        p = path(0, (0, 0))
        assert not compatible(p, p)

    def test_consistency_examples(self):
        assert is_consistent([])
        assert is_consistent([path(0, (0, 0)), path(1, (1, 0))])
        assert not is_consistent([path(0, (0, 0), (1, 0)), path(1, (1, 0))])
        assert is_consistent([path(0, (0, 0))])  # singleton: no distinct pair


class TestInit:
    def test_initial_state(self):
        state = init_filter()
        assert state.scan == -1
        assert state.tracks == {}
        assert len(state.hypotheses) == 1
        assert state.hypotheses[0].tracks == ()
        assert state.hypotheses[0].weight == 1.0
        assert state.total_weight() == 1.0


class TestPredict:
    def test_empty_state_unchanged(self):
        state = predict(init_filter(), motion_1d(p_s=0.5))
        assert state.tracks == {}
        assert state.hypotheses[0].weight == 1.0

    def test_weights_untouched_and_presence_scaled(self):
        state = init_filter()
        state = update(state, [obs(0, 0, 0.1)], birth_1d([0.5, 0.5]), sensor_1d(p_d=0.9, p_fa=0.2))
        weights_before = [h.weight for h in state.hypotheses]
        presences = {p: t.dist.presence for p, t in state.tracks.items()}
        out = predict(state, motion_1d(p_s=0.8))
        assert [h.weight for h in out.hypotheses] == weights_before
        for p, t in out.tracks.items():
            assert t.dist.presence == pytest.approx(0.8 * presences[p], abs=1e-15)


class TestEnumerateAssociations:
    def test_empty_hypothesis_single_false_alarm(self):
        h = Hypothesis((), 1.0)
        out = enumerate_associations(h, 0, [obs(0, 0, 1.0)])
        assert len(out) == 1
        assert out[0].detected == ()
        assert out[0].birth_obs == ()

    def test_one_track_two_observations_no_births(self):
        h = Hypothesis((path(0, (0, 0)),), 1.0)
        scan = [obs(1, 0, 0.0), obs(1, 1, 2.0)]
        out = enumerate_associations(h, 0, scan)
        # none detected; track -> z1; track -> z2
        assert len(out) == 3
        detected_counts = sorted(len(a.detected) for a in out)
        assert detected_counts == [0, 1, 1]

    def test_more_births_than_observations_impossible(self):
        h = Hypothesis((path(0, (0, 0)),), 1.0)
        out = enumerate_associations(h, 2, [obs(1, 0, 0.0)])
        assert out == []

    def test_gate_drops_pairings(self):
        h = Hypothesis((path(0, (0, 0)),), 1.0)
        scan = [obs(1, 0, 0.0), obs(1, 1, 2.0)]
        keep_first = lambda y, z: z.id[1] == 0
        out = enumerate_associations(h, 0, scan, gate=keep_first)
        assert len(out) == 2  # none detected; track -> z1 only


class TestAssociationWeight:
    def test_lone_false_alarm(self):
        state = init_filter()
        h = state.hypotheses[0]
        assoc = Association((), ())
        lw = association_weight(
            h, assoc, [obs(0, 0, 1.0)], birth_1d([1.0]), sensor_1d(p_d=0.9, p_fa=0.25), state
        )
        assert lw == pytest.approx(math.log(0.25), abs=1e-12)

    def test_empty_everything_is_log_one(self):
        state = init_filter()
        h = state.hypotheses[0]
        lw = association_weight(h, Association((), ()), [], birth_1d([1.0]), sensor_1d(), state)
        assert lw == 0.0

    def test_detection_factor_composition(self):
        # One surely present track detected at the predictive mode:
        # (1 - p_fa) * N(0; 0, 2).
        birth = birth_1d([1.0])
        sensor = sensor_1d(p_d=1.0, p_fa=0.1)
        state = init_filter()
        state = update(state, [obs(0, 0, 0.0)], birth_1d([0.0, 1.0]), sensor_1d(p_d=1.0, p_fa=0.0))
        state = predict(state, motion_1d(p_s=1.0, q=0.5))
        (p,) = state.tracks
        z = obs(1, 0, 0.0)
        h = Hypothesis((p,), 1.0)
        assoc = Association(((p, z),), ())
        lw = association_weight(h, assoc, [z], birth, sensor, state)
        lik = predictive_likelihood(state.tracks[p].dist, z, sensor)
        assert lw == pytest.approx(math.log(0.9 * lik), abs=1e-12)


def exact_c9_last_scan():
    """The exact C9 case's prior before its last scan: (prior, scan, birth, sensor)."""
    birth = birth_1d([0.4, 0.4, 0.2], var=25.0)
    sensor = sensor_1d(p_d=0.7, p_fa=0.2)
    motion = motion_1d(p_s=0.95, q=0.5)
    scans = [[obs(t, k, 2.5 * k - 0.5 * t - 2.0) for k in range(3)] for t in range(4)]
    state = init_filter()
    for scan in scans[:3]:
        state = update(predict(state, motion), scan, birth, sensor)
    return predict(state, motion), scans[3], birth, sensor


class TestUpdate:
    def test_empty_scan_keeps_empty_hypothesis(self):
        state = update(init_filter(), [], birth_1d([0.6, 0.4]), sensor_1d(p_d=0.9, p_fa=0.1))
        assert len(state.hypotheses) == 1
        assert state.hypotheses[0].tracks == ()
        assert state.hypotheses[0].weight == pytest.approx(1.0)
        assert state.tracks == {}
        assert state.scan == 0

    def test_single_observation_two_way_split(self):
        # One observation, births possible: false alarm vs newborn, with
        # weights 0.5 * 0.5 and 0.5 * 0.5 * birth predictive likelihood.
        birth = birth_1d([0.5, 0.5], mean=0.0, var=10.0)
        sensor = sensor_1d(p_d=0.9, p_fa=0.5)
        z = obs(0, 0, 1.0)
        state = update(init_filter(), [z], birth, sensor)
        lik = predictive_likelihood(birth.spatial, z, sensor)
        w_fa = 0.5 * 0.5
        w_birth = 0.5 * lik * 0.5
        total = w_fa + w_birth
        by_size = {len(h.tracks): h.weight for h in state.hypotheses}
        assert by_size[0] == pytest.approx(w_fa / total, abs=1e-12)
        assert by_size[1] == pytest.approx(w_birth / total, abs=1e-12)

    def test_two_scan_five_hypotheses(self):
        birth = birth_1d([0.5, 0.5])
        sensor = sensor_1d(p_d=0.8, p_fa=0.3)
        motion = motion_1d(p_s=0.95, q=0.1)
        state = init_filter()
        for t, value in enumerate([0.3, 0.5]):
            state = predict(state, motion)
            state = update(state, [obs(t, 0, value)], birth, sensor)
        keys = {tuple(str(p) for p in h.tracks) for h in state.hypotheses}
        assert keys == {
            (),
            ("0:0.0",),
            ("0:0.0,1.0",),
            ("1:1.0",),
            ("0:0.0", "1:1.0"),
        }
        assert state.total_weight() == pytest.approx(1.0, abs=1e-9)

    def test_matches_reference_composition(self):
        # The fused update must agree with explicitly enumerating admissible
        # associations and weighting each one.
        rng = np.random.default_rng(11)
        birth = birth_1d([0.4, 0.4, 0.2], var=8.0)
        sensor = sensor_1d(p_d=0.75, p_fa=0.2)
        motion = motion_1d(p_s=0.9, q=0.3)
        for trial in range(10):
            counts = [int(rng.integers(0, 3)) for _ in range(2)]
            state = init_filter()
            for t, c in enumerate(counts):
                scan = [obs(t, k, float(rng.uniform(-4, 4))) for k in range(c)]
                state = predict(state, motion)
                ref = reference_update(state, scan, birth, sensor)
                state = update(state, scan, birth, sensor)
                got = {h.tracks: h.weight for h in state.hypotheses}
                assert set(got) == set(ref)
                for key, w in ref.items():
                    assert got[key] == pytest.approx(w, abs=1e-12)

    def test_track_dedup_shares_posterior(self):
        # The same child path created through different prior hypotheses
        # must carry the posterior recomputed from its parent directly.
        birth = birth_1d([0.5, 0.5])
        sensor = sensor_1d(p_d=0.7, p_fa=0.3)
        motion = motion_1d(p_s=0.9, q=0.2)
        state = init_filter()
        scans = [[obs(0, 0, 0.5)], [obs(1, 0, 1.0), obs(1, 1, -2.0)]]
        predicted = {}
        for scan in scans:
            state = predict(state, motion)
            predicted = {p: t.dist for p, t in state.tracks.items()}
            state = update(state, scan, birth, sensor)
        for p, t in state.tracks.items():
            last_scan, last_idx = t.path.detections[-1]
            if last_scan == 1 and t.path.birth_scan != 1:
                parent = ObservationPath(t.path.birth_scan, t.path.detections[:-1])
                z = next(o for o in scans[1] if o.id == (last_scan, last_idx))
                expected = update_distribution(predicted[parent], z, sensor)
            elif t.path.birth_scan == 1:
                z = next(o for o in scans[1] if o.id == t.path.detections[0])
                expected = birth_posterior(birth, z, sensor)
            else:
                expected = update_distribution(predicted[t.path], MISSED, sensor)
            assert t.dist.presence == pytest.approx(expected.presence, abs=1e-12)
            for ca, cb in zip(t.dist.spatial, expected.spatial):
                assert ca.weight == pytest.approx(cb.weight, abs=1e-12)
                assert np.allclose(ca.mean, cb.mean, atol=1e-12)

    def test_blocked_enumeration_matches_one_block(self, monkeypatch):
        # Splitting the partial patterns and the written rows into tiny
        # blocks, writing every segment as a broadcast, or both, must give
        # the same table, bit for bit and in the same row order, as one
        # block of the row writer. The prior rows are fed longest first, so
        # that the blocks reach the output groups in another order than a
        # level-by-level pass, and groups interleave into segments too short
        # for the broadcast at its default threshold.
        rng = np.random.default_rng(5)
        birth = birth_1d([0.4, 0.4, 0.2], var=8.0)
        sensor = sensor_1d(p_d=0.7, p_fa=0.2)
        motion = motion_1d(p_s=0.95, q=0.5)
        scans = [[obs(t, k, float(rng.uniform(-4, 4))) for k in range(3)] for t in range(3)]

        def run():
            state = init_filter()
            for scan in scans:
                rows = list(state.hypotheses)[::-1]
                state = FilterState(state.scan, state.tracks, rows)
                state = update(predict(state, motion), scan, birth, sensor)
            return state

        # Each block is a job over its own rows, on 1, 2 or 3 threads.
        whole = run()
        assert len(whole.weights) > 100 * 2
        for block, broadcast_rows in ((2, engine._BROADCAST_ROWS), (engine._BLOCK, 1), (2, 1)):
            monkeypatch.setattr(engine, "_BLOCK", block)
            monkeypatch.setattr(engine, "_BROADCAST_ROWS", broadcast_rows)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(engine, "_CPUS", cpus)
                blocked = run()
                assert list(blocked.tracks) == list(whole.tracks)
                for a, b in zip(
                    (blocked.indptr, blocked.indices, blocked.weights),
                    (whole.indptr, whole.indices, whole.weights),
                ):
                    assert a.tobytes() == b.tobytes()

    def test_broadcast_writer_edge_cases_match_the_per_parent_join(self, monkeypatch):
        # Every segment written as a broadcast, through rows of width zero
        # (the empty hypothesis with no newborns), a scan with no birth
        # (max_births = 0), prior rows of weight zero, and p_fa = 0, where
        # rows that leave an observation unexplained weigh -inf: the table
        # must equal the per-parent join's byte for byte.
        monkeypatch.setattr(engine, "_BROADCAST_ROWS", 1)
        motion = motion_1d(p_s=0.95, q=0.5)
        births = [birth_1d([0.4, 0.4, 0.2], var=8.0)] * 2 + [birth_1d([1.0], var=8.0)]
        for p_fa in (0.0, 0.2):
            sensor = sensor_1d(p_d=0.7, p_fa=p_fa)
            state = init_filter()
            for t, birth in enumerate(births):
                prior = predict(state, motion)
                scan = [obs(t, k, 1.5 * k - 0.5 * t) for k in range(2)]
                joined = reference_join_update(prior, scan, birth, sensor)
                state = update(prior, scan, birth, sensor)
                for name in ("indptr", "indices", "weights"):
                    assert getattr(state, name).tobytes() == getattr(joined, name).tobytes(), name
                if t == 0:
                    assert (np.diff(state.indptr) == 0).any()
                    assert (state.weights == 0.0).any() == (p_fa == 0.0)

    def test_exact_c9_last_scan_is_written_as_broadcasts(self, monkeypatch):
        # Exact C9's last scan writes 2,092,741 rows, nearly all of them in
        # large segments; the broadcast writer must take at least 99 % of them.
        birth = birth_1d([0.4, 0.4, 0.2], var=25.0)
        sensor = sensor_1d(p_d=0.7, p_fa=0.2)
        motion = motion_1d(p_s=0.95, q=0.5)
        scans = [[obs(t, k, 2.5 * k - 0.5 * t - 2.0) for k in range(3)] for t in range(4)]
        state = init_filter()
        for scan in scans[:3]:
            state = update(predict(state, motion), scan, birth, sensor)
        prior = predict(state, motion)
        broadcast, written = engine._broadcast, []

        def counted(ids, logw, *rest):
            written.append(len(logw))
            return broadcast(ids, logw, *rest)

        monkeypatch.setattr(engine, "_broadcast", counted)
        rows = len(update(prior, scans[3], birth, sensor).weights)
        assert rows == 2_092_741
        assert sum(written) >= 0.99 * rows

    def test_exact_c9_last_scan_bytes_do_not_depend_on_the_threads(self, monkeypatch):
        # Its 2,092,741 rows split into many jobs; one thread and two must
        # write the same table byte for byte.
        prior, scan, birth, sensor = exact_c9_last_scan()
        tables = []
        for cpus in (1, 2):
            monkeypatch.setattr(engine, "_CPUS", cpus)
            state = update(prior, scan, birth, sensor)
            tables.append([state.indptr.tobytes(), state.indices.tobytes(), state.weights.tobytes()])
        assert tables[0] == tables[1]

    def test_one_block_scans_start_no_thread(self, monkeypatch):
        # Every update of cluttered.json fits in one block, so it runs on
        # the main thread alone; exact C9's last scan, many blocks, starts
        # a worker, which shows that the patched start is reached.
        def refused(thread):
            raise RuntimeError("a thread was started")

        monkeypatch.setattr(engine, "_CPUS", 2)
        monkeypatch.setattr(threading.Thread, "start", refused)
        cfg = load_config(Path(__file__).resolve().parents[1] / "demos" / "configs" / "cluttered.json")
        report, _ = filter_scans(cfg, simulate(cfg)[1])
        assert len(report.records) == 25
        prior, scan, birth, sensor = exact_c9_last_scan()
        with pytest.raises(RuntimeError, match="a thread was started"):
            update(prior, scan, birth, sensor)

    def test_jobs_run_once_each_and_an_error_reaches_the_caller(self, monkeypatch):
        # Eight threads share one queue of jobs on a short switch interval:
        # each job runs exactly once, and a failed job's error is raised
        # once every thread has stopped.
        monkeypatch.setattr(engine, "_CPUS", 8)
        runs = np.zeros(2000, dtype=np.int64)

        def job(i):
            runs[i] += 1

        def failed():
            raise ValueError("a job failed")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            engine._run([partial(job, i) for i in range(len(runs))])
            assert (runs == 1).all()
            threads = threading.active_count()
            with pytest.raises(ValueError, match="a job failed"):
                engine._run([partial(job, i) for i in range(len(runs))] + [failed])
            assert threading.active_count() == threads
        finally:
            sys.setswitchinterval(interval)

    def test_hypothesis_budget(self, monkeypatch):
        # An update that would emit more rows than the budget stops with its
        # own error, not a MemoryError, naming the count when the patterns
        # give it; one at the budget still completes.
        birth = birth_1d([0.4, 0.4, 0.2], var=8.0)
        sensor = sensor_1d(p_d=0.7, p_fa=0.2)
        motion = motion_1d(p_s=0.95, q=0.5)
        scans = [[obs(t, k, 0.7 * k - 0.3 * t) for k in range(3)] for t in range(3)]
        state = init_filter()
        for scan in scans[:2]:
            state = update(predict(state, motion), scan, birth, sensor)
        prior = predict(state, motion)
        rows = len(update(prior, scans[2], birth, sensor).weights)
        monkeypatch.setattr(engine, "_MAX_ROWS", rows)
        assert len(update(prior, scans[2], birth, sensor).weights) == rows
        monkeypatch.setattr(engine, "_BLOCK", 4)
        monkeypatch.setattr(engine, "_MAX_ROWS", rows - 1)
        with pytest.raises(HypothesisBudgetError, match=f"more than {rows - 1} hypotheses: {rows}$"):
            update(prior, scans[2], birth, sensor)
        # Past the budget in patterns alone, the join stops before counting rows.
        monkeypatch.setattr(engine, "_MAX_ROWS", 10)
        with pytest.raises(HypothesisBudgetError, match="more than 10 hypotheses$"):
            update(prior, scans[2], birth, sensor)

    def test_hypothesis_budget_refuses_before_building_rows(self, monkeypatch):
        # The exact C9 case's last scan, refused: the rows are counted from
        # the association patterns, so the refusal allocates less than eight
        # bytes per refused row (the table would take about 17 bytes per row).
        birth = birth_1d([0.4, 0.4, 0.2], var=25.0)
        sensor = sensor_1d(p_d=0.7, p_fa=0.2)
        motion = motion_1d(p_s=0.95, q=0.5)
        scans = [[obs(t, k, 2.5 * k - 0.5 * t - 2.0) for k in range(3)] for t in range(4)]
        state = init_filter()
        for scan in scans[:3]:
            state = update(predict(state, motion), scan, birth, sensor)
        prior = predict(state, motion)
        monkeypatch.setattr(engine, "_MAX_ROWS", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(HypothesisBudgetError) as refused:
                update(prior, scans[3], birth, sensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = int(str(refused.value).rsplit(": ", 1)[1])
        assert rows == 2_092_741
        assert peak < 8 * rows

    def test_exact_c9_last_update_stores_its_table_narrow(self):
        # 2,092,741 rows of 10,141,722 ids over 255 tracks: one-byte ids,
        # int32 offsets and float64 weights take 35.25 MB, written in place,
        # so the update peaks well under the 74 MB the int32 ids and int64
        # offsets alone would take.
        prior, scan, birth, sensor = exact_c9_last_scan()
        tracemalloc.start()
        try:
            state = update(prior, scan, birth, sensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(state.weights), len(state.indices), len(state.tracks)) == (2_092_741, 10_141_722, 255)
        assert state.indices.dtype == np.uint8 and state.indptr.dtype == np.int32
        assert state.indptr.nbytes + state.indices.nbytes + state.weights.nbytes <= 35.3e6
        assert peak < 48e6

    def test_exact_c9_last_scan_is_planned_without_writing(self):
        # The plan gives the last scan's rows, ids and table bytes (one-byte
        # ids, int32 offsets, float64 weights) from its patterns alone, under
        # the refusal's bound of eight bytes per row.
        prior, scan, birth, sensor = exact_c9_last_scan()
        tracemalloc.start()
        try:
            plan = engine._plan(prior, scan, birth, sensor, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (plan.rows, plan.ids, plan.nbytes) == (2_092_741, 10_141_722, 35_254_618)
        assert peak < 8 * plan.rows

    def test_entry_budget(self, monkeypatch):
        # Past _MAX_ENTRIES track ids the int32 row offsets would overflow:
        # the update refuses with the id count, which the patterns give
        # before any row is allocated; one at the budget still completes.
        prior, scan, birth, sensor = exact_c9_last_scan()
        monkeypatch.setattr(engine, "_MAX_ENTRIES", 10_141_721)
        tracemalloc.start()
        try:
            with pytest.raises(HypothesisBudgetError, match="more than 10141721 track ids: 10141722$"):
                update(prior, scan, birth, sensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2_092_741
        monkeypatch.setattr(engine, "_MAX_ENTRIES", 10_141_722)
        assert len(update(prior, scan, birth, sensor).indices) == 10_141_722

    def test_exchange_symmetry(self):
        # Permuting the within-scan observation order relabels ids but
        # leaves the hypothesis set and weights unchanged.
        birth = birth_1d([0.5, 0.3, 0.2])
        sensor = sensor_1d(p_d=0.8, p_fa=0.15)
        motion = motion_1d(p_s=0.95, q=0.1)
        values = [0.4, -1.2, 2.0]

        def run_with(order):
            state = init_filter()
            state = predict(state, motion)
            scan = [obs(0, k, values[v]) for k, v in enumerate(order)]
            state = update(state, scan, birth, sensor)
            # relabel tracks by the observation values they reference
            out = {}
            for h in state.hypotheses:
                key = tuple(sorted(values[order[p.detections[0][1]]] for p in h.tracks))
                out[key] = out.get(key, 0.0) + h.weight
            return out

        base = run_with([0, 1, 2])
        for perm in permutations([0, 1, 2]):
            other = run_with(list(perm))
            assert set(base) == set(other)
            for k, w in base.items():
                assert other[k] == pytest.approx(w, abs=1e-12)

    def test_observation_validation(self):
        state = init_filter()
        with pytest.raises(ValueError):
            update(state, [obs(3, 0, 0.0)], birth_1d([1.0]), sensor_1d())  # wrong scan
        with pytest.raises(ValueError):
            update(
                state,
                [obs(0, 0, 1.0), obs(0, 0, 2.0)],
                birth_1d([1.0]),
                sensor_1d(),
            )  # duplicate id
        with pytest.raises(ValueError):
            update(
                state,
                [obs(0, 0, 1.0), obs(0, 1, 1.0)],
                birth_1d([1.0]),
                sensor_1d(),
            )  # duplicate value

    def test_degenerate_update_raises(self):
        # No clutter, no births allowed: an observation cannot be explained.
        with pytest.raises(DegenerateUpdateError):
            update(init_filter(), [obs(0, 0, 0.0)], birth_1d([1.0]), sensor_1d(p_d=0.9, p_fa=0.0))

    def test_zero_cardinality_empty_scan_degenerate(self):
        # Births certain but no observation arrived and p_d = 1: impossible.
        with pytest.raises(DegenerateUpdateError):
            update(init_filter(), [], birth_1d([0.0, 1.0]), sensor_1d(p_d=1.0, p_fa=0.0))


class TestTrackExistence:
    def _two_hypothesis_state(self):
        birth = birth_1d([0.5, 0.5])
        sensor = sensor_1d(p_d=0.9, p_fa=0.5)
        return update(init_filter(), [obs(0, 0, 0.2)], birth, sensor)

    def test_sum_over_containing_hypotheses(self):
        state = self._two_hypothesis_state()
        (p,) = state.tracks
        w = next(h.weight for h in state.hypotheses if h.tracks)
        assert track_existence(state, p) == pytest.approx(w, abs=1e-15)

    def test_track_in_every_hypothesis(self):
        birth = birth_1d([0.0, 1.0])
        sensor = sensor_1d(p_d=1.0, p_fa=0.0)
        state = update(init_filter(), [obs(0, 0, 0.2)], birth, sensor)
        (p,) = state.tracks
        assert track_existence(state, p) == pytest.approx(1.0)

    def test_track_in_no_hypothesis_has_zero_existence(self):
        from disptrack import FilterState, Track
        from helpers import unit_dist

        p = path(0, (0, 0))
        state = FilterState(0, {p: Track(p, unit_dist(), False)}, [Hypothesis((), 1.0)])
        assert track_existence(state, p) == 0.0

    def test_blocked_sum_equals_one_pass(self, monkeypatch):
        # Summing existence a few rows at a time adds in table order, so it
        # equals the one-pass sum exactly.
        rng = np.random.default_rng(2)
        birth, sensor = birth_1d([0.5, 0.5]), sensor_1d(p_d=0.8, p_fa=0.3)
        state = init_filter()
        for t in range(2):
            scan = [obs(t, k, float(rng.uniform(-4, 4))) for k in range(3)]
            state = update(predict(state, motion_1d(p_s=0.9)), scan, birth, sensor)
        entry_weight = np.repeat(state.weights, np.diff(state.indptr))
        one_pass = np.bincount(state.indices, weights=entry_weight, minlength=len(state.tracks))
        monkeypatch.setattr(engine, "_VIEW_CHUNK", 3)
        assert np.array_equal(state.existence(), one_pass)

    def test_blocked_masked_sum_and_track_existence_match_the_full_sum(self, monkeypatch):
        # A mask keeps each track's terms and their order, block by block, so
        # masked sums and track_existence give the one-pass full sum's bits.
        rng = np.random.default_rng(3)
        birth, sensor = birth_1d([0.4, 0.4, 0.2]), sensor_1d(p_d=0.7, p_fa=0.2)
        state = init_filter()
        for t in range(3):
            scan = [obs(t, k, float(rng.uniform(-4, 4))) for k in range(3)]
            state = update(predict(state, motion_1d(p_s=0.9)), scan, birth, sensor)
        entry_weight = np.repeat(state.weights, np.diff(state.indptr))
        full = np.bincount(state.indices, weights=entry_weight, minlength=len(state.tracks))
        monkeypatch.setattr(engine, "_VIEW_CHUNK", 7)
        for _ in range(5):
            only = rng.random(len(full)) < 0.3
            masked = state.existence(only)
            assert masked[only].tobytes() == full[only].tobytes() and not masked[~only].any()
        for i, p in enumerate(state.tracks):
            assert np.float64(track_existence(state, p)).tobytes() == full[i].tobytes()

    def test_unknown_track_raises(self):
        state = self._two_hypothesis_state()
        with pytest.raises(KeyError):
            track_existence(state, path(5, (5, 0)))

