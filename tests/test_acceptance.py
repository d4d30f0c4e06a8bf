"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (each test also prints a [C*] summary line, visible with -s).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import disptrack as dt
from disptrack.cli import main as cli_main

from helpers import birth_1d, dist, motion_1d, obs, random_scans, sensor_1d, space_1d, unit_dist


def random_models(rng):
    motion = motion_1d(
        p_s=float(rng.uniform(0.5, 1.0)),
        f=float(rng.uniform(0.8, 1.2)),
        q=float(rng.uniform(0.05, 0.5)),
    )
    sensor = sensor_1d(
        p_d=float(rng.uniform(0.3, 0.95)),
        p_fa=float(rng.uniform(0.05, 0.5)),
        r=float(rng.uniform(0.3, 1.5)),
    )
    card = rng.uniform(0.1, 1.0, size=3)
    birth = birth_1d(card / card.sum(), mean=0.0, var=float(rng.uniform(4.0, 16.0)))
    return motion, sensor, birth


def run_exact(motion, sensor, birth, scans):
    state = dt.init_filter()
    totals = []
    for scan in scans:
        state = dt.predict(state, motion)
        state = dt.update(state, scan, birth, sensor)
        totals.append(state.total_weight())
    return state, totals


def path_count_bound(counts):
    y = 0
    for z in counts:
        y = y * (1 + z) + z
    return y


def test_c01_theorem1_equivalence():
    rng = np.random.default_rng(20250101)
    done = 0
    t0 = time.monotonic()
    while done < 200:
        n_scans = int(rng.integers(1, 4))
        counts = [int(rng.integers(0, 3)) for _ in range(n_scans)]
        if path_count_bound(counts) > 20:
            continue  # stays within the subset oracle's own input limit
        motion, sensor, birth = random_models(rng)
        scans = random_scans(rng, counts)
        state, totals = run_exact(motion, sensor, birth, scans)
        engine_set = {h.tracks for h in state.hypotheses}
        oracle_set = dt.oracle_consistent_subsets(state.tracks.keys())
        assert engine_set == oracle_set, f"scenario {done}: hypothesis set mismatch"
        for total in totals:
            assert total == pytest.approx(1.0, abs=1e-9)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"theorem-1 suite took {elapsed:.1f}s"
    print(f"[C1] theorem-1 equivalence over {done} scenarios in {elapsed:.1f}s: PASS")


def test_c02_posterior_oracle_equivalence():
    rng = np.random.default_rng(20250202)
    worst = 0.0
    for trial in range(100):
        n_scans = int(rng.integers(1, 3))
        counts = [int(rng.integers(0, 3)) for _ in range(n_scans)]
        motion, sensor, birth = random_models(rng)
        scans = random_scans(rng, counts)
        state, _ = run_exact(motion, sensor, birth, scans)
        engine = {h.tracks: h.weight for h in state.hypotheses}
        oracle = dt.oracle_joint_posterior(motion, sensor, birth, scans)
        keys = set(engine) | set(oracle)
        diff = max(abs(engine.get(k, 0.0) - oracle.get(k, 0.0)) for k in keys)
        worst = max(worst, diff)
        assert diff <= 1e-9, f"scenario {trial}: posterior diff {diff}"
    print(f"[C2] posterior equivalence over 100 scenarios, worst |diff| {worst:.2e}: PASS")


def test_c02_multi_component_birth_oracle_equivalence():
    # C2 with a 2-4 component birth prior: the tracks' scan scores, miss
    # masses and detection posteriors then sum over several components.
    rng = np.random.default_rng(20250222)
    worst, multi = 0.0, 0
    for trial in range(60):
        n_scans = int(rng.integers(1, 3))
        counts = [int(rng.integers(0, 3)) for _ in range(n_scans)]
        motion, sensor, birth = random_models(rng)
        weights = rng.uniform(0.1, 1.0, size=int(rng.integers(2, 5)))
        birth = dt.BirthModel(birth.cardinality, dist(1.0, *(
            (float(w), float(rng.uniform(-5.0, 5.0)), float(rng.uniform(2.0, 16.0)))
            for w in weights / weights.sum()
        )))
        scans = random_scans(rng, counts)
        state, _ = run_exact(motion, sensor, birth, scans)
        multi += any(len(t.dist.spatial) > 1 for t in state.tracks.values())
        engine = {h.tracks: h.weight for h in state.hypotheses}
        oracle = dt.oracle_joint_posterior(motion, sensor, birth, scans)
        keys = set(engine) | set(oracle)
        diff = max(abs(engine.get(k, 0.0) - oracle.get(k, 0.0)) for k in keys)
        worst = max(worst, diff)
        assert diff <= 1e-9, f"scenario {trial}: posterior diff {diff}"
    assert multi >= 40  # 43 of the 60 runs end with a multi-component track
    print(f"[C2] multi-component births over 60 scenarios, worst |diff| {worst:.2e}: PASS")


def test_c03_normalization_after_every_update():
    rng = np.random.default_rng(20250303)
    motion, sensor, birth = random_models(rng)
    scans = random_scans(rng, [int(rng.integers(0, 3)) for _ in range(8)])
    state = dt.init_filter()
    for scan in scans:
        state = dt.predict(state, motion)
        state = dt.update(state, scan, birth, sensor)
        assert state.total_weight() == pytest.approx(1.0, abs=1e-9)
        # pruning between scans must not break the next normalization
        state = dt.prune_by_existence(state, 0.0, 1e-3)
    print("[C3] hypothesis weights sum to 1 +- 1e-9 after every update: PASS")


def test_c04_presence_laws():
    rng = np.random.default_rng(20250404)
    draws = 10_000
    for _ in range(draws):
        q = float(rng.uniform(0.0, 1.0))
        p_s = float(rng.uniform(0.0, 1.0))
        p_d = float(rng.uniform(0.0, 1.0))
        d = unit_dist(q)
        predicted = dt.predict_distribution(d, motion_1d(p_s=p_s))
        assert abs(predicted.presence - q * p_s) <= 1e-12
        if q > 0.0:
            detected = dt.update_distribution(d, obs(0, 0, 0.3), sensor_1d(p_d=0.7))
            assert detected.presence == 1.0
        denom = (1.0 - q) + q * (1.0 - p_d)
        if denom > 0.0:
            missed = dt.update_distribution(d, dt.MISSED, sensor_1d(p_d=p_d))
            assert abs(missed.presence - q * (1.0 - p_d) / denom) <= 1e-12
    newborn = dt.birth_posterior(birth_1d([0.5, 0.5]), obs(0, 0, 1.0), sensor_1d(p_d=0.4))
    assert newborn.presence == 1.0

    # Closed forms against quadrature of the defining integrals (1-D).
    d = dist(0.81, (0.35, -1.2, 0.7), (0.65, 1.4, 1.6))
    p_s, p_d = 0.83, 0.57
    mix = lambda x: sum(
        c.weight * norm.pdf(x, c.mean[0], math.sqrt(c.cov[0, 0])) for c in d.spatial
    )
    predicted = dt.predict_distribution(d, motion_1d(p_s=p_s, f=0.9, q=0.4))
    lost = quad(lambda x: (1 - p_s) * 0.81 * mix(x), -np.inf, np.inf)[0]
    assert predicted.presence == pytest.approx(0.81 - lost, abs=1e-8)

    miss_numer = quad(lambda x: (1 - p_d) * 0.81 * mix(x), -np.inf, np.inf)[0]
    missed = dt.update_distribution(d, dt.MISSED, sensor_1d(p_d=p_d))
    assert missed.presence == pytest.approx(miss_numer / (1 - 0.81 + miss_numer), abs=1e-8)

    z = 0.9
    det_mass = quad(
        lambda x: p_d * norm.pdf(z, x, 1.0) * 0.81 * mix(x), -np.inf, np.inf
    )[0]
    assert dt.predictive_likelihood(d, obs(0, 0, z), sensor_1d(p_d=p_d)) == pytest.approx(
        det_mass, abs=1e-8
    )
    print(f"[C4] presence laws over {draws} draws plus quadrature cross-checks: PASS")


def test_c05_kalman_reduction():
    # Single certain target, perfect detection, no clutter, births shut off
    # after the first scan: the filter must collapse to one conjugate chain.
    rng = np.random.default_rng(20250505)
    f, q_noise, r = 1.02, 0.3, 0.8
    motion = motion_1d(p_s=1.0, f=f, q=q_noise)
    sensor = sensor_1d(p_d=1.0, p_fa=0.0, r=r)
    birth_first = birth_1d([0.0, 1.0], mean=0.0, var=9.0)
    birth_rest = birth_1d([1.0], mean=0.0, var=9.0)

    x = float(rng.normal(0.0, 3.0))
    state = dt.init_filter()
    kalman_mean, kalman_cov = None, None
    for t in range(20):
        z_value = x + float(rng.normal(0.0, math.sqrt(r)))
        scan = [obs(t, 0, z_value)]
        state = dt.predict(state, motion)
        state = dt.update(state, scan, birth_first if t == 0 else birth_rest, sensor)

        if t == 0:
            s = 9.0 + r
            k = 9.0 / s
            kalman_mean, kalman_cov = k * z_value, (1 - k) * 9.0
        else:
            pm, pc = f * kalman_mean, f * kalman_cov * f + q_noise
            s = pc + r
            k = pc / s
            kalman_mean, kalman_cov = pm + k * (z_value - pm), (1 - k) * pc

        best = dt.map_hypothesis(state)
        assert len(best.tracks) == 1
        track = state.tracks[best.tracks[0]]
        assert track.dist.presence == 1.0
        comp = track.dist.spatial[0]
        assert comp.mean[0] == pytest.approx(kalman_mean, abs=1e-9)
        assert comp.cov[0, 0] == pytest.approx(kalman_cov, abs=1e-9)

        x = f * x + float(rng.normal(0.0, math.sqrt(q_noise)))
    print("[C5] 20-scan conjugate-chain reduction within 1e-9: PASS")


def test_c06_approximation_neutrality():
    rng = np.random.default_rng(20250606)
    motion, sensor, birth = random_models(rng)
    scans = random_scans(rng, [2, 1, 2, 1])
    neutral = dt.ApproximationConfig(
        presence_threshold=0.0,
        track_existence_threshold=0.0,
        hyp_existence_threshold=0.0,
        max_tracks=10**9,
        max_hypotheses=10**9,
        merge_threshold=0.0,
    )
    exact_state = dt.init_filter()
    approx_state = dt.init_filter()
    for scan in scans:
        exact_state = dt.update(dt.predict(exact_state, motion), scan, birth, sensor)
        approx_state = dt.update(dt.predict(approx_state, motion), scan, birth, sensor)
        approx_state = dt.apply_pipeline(approx_state, neutral)
        ew = {h.tracks: h.weight for h in exact_state.hypotheses}
        aw = {h.tracks: h.weight for h in approx_state.hypotheses}
        assert set(ew) == set(aw)
        for key, w in ew.items():
            assert aw[key] == pytest.approx(w, abs=1e-12)
    print("[C6] neutral pipeline identical to the exact filter within 1e-12: PASS")


def test_c07_pruning_semantics():
    # Marginalization merges duplicate hypotheses by adding weights.
    p = dt.ObservationPath(0, ((0, 0),))
    tr = dt.Track(p, unit_dist(0.01), False)
    state = dt.FilterState(0, {p: tr}, [dt.Hypothesis((p,), 0.3), dt.Hypothesis((), 0.7)])
    out = dt.prune_by_presence(state, 0.05)
    assert len(out.hypotheses) == 1
    assert out.hypotheses[0].tracks == ()
    assert out.hypotheses[0].weight == pytest.approx(1.0, abs=1e-15)

    # Hypothesis pruning leaves survivors unrenormalized; the next update
    # brings the total back to one.
    birth = birth_1d([0.5, 0.5])
    sensor = sensor_1d(p_d=0.8, p_fa=0.3)
    motion = motion_1d(p_s=0.9, q=0.2)
    state = dt.update(dt.init_filter(), [obs(0, 0, 0.4)], birth, sensor)
    weights = sorted(h.weight for h in state.hypotheses)
    state = dt.prune_by_existence(state, 0.0, weights[0] + 1e-12)
    remaining = sorted(h.weight for h in state.hypotheses)
    assert remaining == [weights[1]]  # untouched, not renormalized
    state = dt.update(dt.predict(state, motion), [obs(1, 0, 0.1)], birth, sensor)
    assert state.total_weight() == pytest.approx(1.0, abs=1e-9)
    print("[C7] pruning marginalization and deferred renormalization: PASS")


def test_c08_extraction_hysteresis():
    cfg = dt.ExtractionConfig(
        confirm_threshold=0.98, deconfirm_threshold=0.90, presence_display_floor=0.02
    )
    space = space_1d()
    p = dt.ObservationPath(0, ((0, 0),))
    q = dt.ObservationPath(0, ((0, 1),))

    def synth(alpha, displayed, other=None):
        tracks = {p: dt.Track(p, unit_dist(1.0), displayed)}
        hyps = [dt.Hypothesis((p,), alpha), dt.Hypothesis((), 1.0 - alpha)]
        if other is not None:
            tracks[q] = dt.Track(q, unit_dist(1.0), other)
        return dt.FilterState(0, tracks, hyps)

    displayed = False
    extracted_during_dwell = []
    trajectory = [0.99] + [0.95, 0.93, 0.91] + [0.85]
    for alpha in trajectory:
        state = synth(alpha, displayed)
        state, estimates, _ = dt.extract_tracks(state, cfg, space)
        displayed = state.tracks[p].displayed
        if 0.90 < alpha < 0.98:
            extracted_during_dwell.append(bool(estimates))
            assert displayed, f"dwell at {alpha} lost the display status"
    assert all(extracted_during_dwell)
    assert not displayed  # cleared after falling below the deconfirm level

    # A displayed track outside the MAP hypothesis is cleared.
    state = synth(0.99, True, other=True)
    state, estimates, _ = dt.extract_tracks(state, cfg, space)
    assert not state.tracks[q].displayed
    assert [e.track_id for e in estimates] == [p]
    print("[C8] confirm/de-confirm hysteresis and MAP clearing: PASS")


def test_c09_performance_sanity():
    # Exact filter, 4 scans x 3 observations, two births allowed per scan.
    rng = np.random.default_rng(20250909)
    motion = motion_1d(p_s=0.95, q=0.5)
    sensor = sensor_1d(p_d=0.7, p_fa=0.2)
    birth = birth_1d([0.4, 0.4, 0.2], var=25.0)
    t0 = time.monotonic()
    state = dt.init_filter()
    for t in range(4):
        scan = [obs(t, k, float(rng.uniform(-8, 8))) for k in range(3)]
        state = dt.predict(state, motion)
        state = dt.update(state, scan, birth, sensor)
    exact_elapsed = time.monotonic() - t0
    assert exact_elapsed < 10.0, f"exact 4x3 run took {exact_elapsed:.1f}s"

    cfg = dt.load_config(
        {
            "model": {
                "dim": 1,
                "bounds": [[-60.0, 60.0]],
                "F": [[1.0]],
                "Q": [[0.2]],
                "p_s": 0.95,
            },
            "sensor": {"H": [[1.0]], "R": [[0.5]], "p_d": 0.9, "p_fa": 0.15},
            "birth": {
                "cardinality": [0.7, 0.2, 0.1],
                "spatial": [{"weight": 1.0, "mean": [0.0], "cov": [[100.0]]}],
            },
            "approx": {
                "presence_threshold": dt.DEFAULT_PIPELINE.presence_threshold,
                "track_existence_threshold": dt.DEFAULT_PIPELINE.track_existence_threshold,
                "hyp_existence_threshold": dt.DEFAULT_PIPELINE.hyp_existence_threshold,
                "max_tracks": dt.DEFAULT_PIPELINE.max_tracks,
                "max_hypotheses": dt.DEFAULT_PIPELINE.max_hypotheses,
                "gate_threshold": dt.DEFAULT_PIPELINE.gate_threshold,
                "birth_cap": dt.DEFAULT_PIPELINE.birth_cap,
                "merge_threshold": dt.DEFAULT_PIPELINE.merge_threshold,
            },
            "extract": {"confirm_threshold": 0.95, "deconfirm_threshold": 0.5},
            "sim": {"scans": 20, "seed": 424242, "clutter_rate": 1.0},
        }
    )
    t0 = time.monotonic()
    report, _, _ = dt.run(cfg)
    approx_elapsed = time.monotonic() - t0
    assert approx_elapsed < 30.0, f"20-scan approximated run took {approx_elapsed:.1f}s"
    assert len(report.records) == 20
    print(
        f"[C9] exact 4x3 in {exact_elapsed:.1f}s (<10s), "
        f"20-scan approximated run in {approx_elapsed:.1f}s (<30s): PASS"
    )


def test_c10_determinism(tmp_path):
    config = {
        "model": {"dim": 1, "bounds": [[-60.0, 60.0]], "F": [[1.0]], "Q": [[0.1]], "p_s": 0.95},
        "sensor": {"H": [[1.0]], "R": [[0.5]], "p_d": 0.85, "p_fa": 0.1},
        "birth": {
            "cardinality": [0.7, 0.3],
            "spatial": [{"weight": 1.0, "mean": [0.0], "cov": [[50.0]]}],
        },
        "approx": {"hyp_existence_threshold": 1e-4, "max_hypotheses": 80},
        "extract": {"confirm_threshold": 0.9, "deconfirm_threshold": 0.5},
        "sim": {"scans": 8, "seed": 777, "clutter_rate": 0.8},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(d1)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(d2)]) == 0
    for name in ("observations.jsonl", "truth.json", "records.jsonl", "report.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), f"{name} differs"
    print("[C10] identical config + seed produce byte-identical reports: PASS")
