"""Configuration, simulation, the run loop, metrics and the CLI."""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from disptrack import (
    ApproximationConfig,
    AugmentedDistribution,
    ConfigError,
    GaussianComponent,
    GroundTruth,
    ObservationPath,
    RunReport,
    ScanRecord,
    ScenarioConfig,
    TruthTarget,
    load_config,
    metrics,
    run,
    simulate,
)
from disptrack import approximations, cli, engine, runner
from disptrack.cli import main as cli_main
from disptrack.estimation import TrackEstimate
from disptrack.runner import read_observations, report_jsonable

from helpers import rebuild_checked

ROOT = Path(__file__).resolve().parents[1]
CLUTTERED = ROOT / "demos" / "configs" / "cluttered.json"
SCENE_LARGE = ROOT / "perfbench" / "scene_large.json"
EXACT_C9 = ROOT / "tests" / "data" / "exact_c9"


def base_config(**overrides):
    cfg = {
        "model": {
            "dim": 1,
            "bounds": [[-60.0, 60.0]],
            "F": [[1.0]],
            "Q": [[0.05]],
            "p_s": 0.95,
        },
        "sensor": {"H": [[1.0]], "R": [[0.5]], "p_d": 0.9, "p_fa": 0.1},
        "birth": {
            "cardinality": [0.8, 0.2],
            "spatial": [{"weight": 1.0, "mean": [0.0], "cov": [[25.0]]}],
        },
        "approx": {
            "hyp_existence_threshold": 1e-4,
            "max_hypotheses": 50,
            "max_tracks": 30,
        },
        "extract": {"confirm_threshold": 0.9, "deconfirm_threshold": 0.5},
        "sim": {"scans": 6, "seed": 12345, "clutter_rate": 0.5},
    }
    for key, value in overrides.items():
        block, _, field = key.partition(".")
        if field:
            cfg[block][field] = value
        else:
            cfg[block] = value
    return cfg


class TestConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        cfg = load_config(path)
        assert cfg.scans == 6
        assert cfg.seed == 12345
        assert cfg.motion.p_s == 0.95
        assert cfg.birth.max_births == 1

    def test_unknown_keys_rejected(self):
        bad = base_config()
        bad["model"]["speed_of_light"] = 3e8
        with pytest.raises(ConfigError):
            load_config(bad)
        bad2 = base_config()
        bad2["typo_block"] = {}
        with pytest.raises(ConfigError):
            load_config(bad2)

    def test_missing_block_rejected(self):
        bad = base_config()
        del bad["sensor"]
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_model_errors_become_config_errors(self):
        bad = base_config(**{"sensor.p_fa": 1.0})
        with pytest.raises(ConfigError):
            load_config(bad)
        bad = base_config(**{"model.Q": [[-1.0]]})
        with pytest.raises(ConfigError):
            load_config(bad)
        # Caps slice arrays: a non-integral or boolean cap must fail at load
        # time, not mid-run. A NaN threshold compares false everywhere (a NaN
        # gate tracks nothing), a boolean one is no threshold, counts and
        # seeds must be integers, and a NaN clutter rate breaks the simulator.
        for block, key, value in [
            ("approx", "max_tracks", 2.5),
            ("approx", "max_hypotheses", 2.5),
            ("approx", "birth_cap", 1.5),
            ("approx", "max_tracks", True),
            ("approx", "birth_cap", False),
            ("approx", "gate_threshold", float("nan")),
            ("approx", "merge_threshold", float("nan")),
            ("approx", "hyp_existence_threshold", float("nan")),
            ("approx", "presence_threshold", True),
            ("approx", "gate_threshold", True),
            ("sim", "scans", 2.5),
            ("sim", "scans", True),
            ("sim", "seed", 1.5),
            ("sim", "seed", False),
            ("model", "dim", 1.0),
            ("model", "dim", True),
            ("sim", "clutter_rate", float("nan")),
            # Non-finite model entries would flow unchecked through the filter.
            ("model", "F", [[float("nan")]]),
            ("model", "Q", [[float("inf")]]),
            ("sensor", "H", [[float("nan")]]),
            ("sensor", "R", [[float("inf")]]),
            ("birth", "cardinality", [float("nan"), 0.2]),
            ("birth", "spatial", [{"weight": 1.0, "mean": [float("nan")], "cov": [[25.0]]}]),
            ("birth", "spatial", [{"weight": 1.0, "mean": [float("inf")], "cov": [[25.0]]}]),
            ("model", "bounds", [[float("-inf"), float("inf")]]),
            # A boolean is no probability or rate.
            ("model", "p_s", True),
            ("sensor", "p_d", True),
            ("sensor", "p_fa", False),
            ("extract", "deconfirm_threshold", False),
            ("sim", "clutter_rate", True),
            ("birth", "spatial", [{"weight": True, "mean": [0.0], "cov": [[25.0]]}]),
        ]:
            bad = base_config()
            bad[block][key] = value
            with pytest.raises(ConfigError):
                load_config(bad)

    def test_infinite_gate_and_merge_thresholds_are_neutral_settings(self):
        cfg = load_config(
            base_config(approx={"gate_threshold": float("inf"), "merge_threshold": float("inf")})
        )
        assert cfg.approx.gate_threshold == cfg.approx.merge_threshold == float("inf")

    def test_birth_cap_truncates_support(self):
        cfg = load_config(
            base_config(
                birth={
                    "cardinality": [0.5, 0.3, 0.2],
                    "spatial": [{"weight": 1.0, "mean": [0.0], "cov": [[25.0]]}],
                },
                approx={"birth_cap": 1},
            )
        )
        assert cfg.birth.max_births == 1
        assert cfg.birth.cardinality.tolist() == pytest.approx([0.625, 0.375])

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_birth_cap_holds_for_configs_built_in_code(self, cap):
        # The cap is applied by ScenarioConfig itself, so a config built by
        # hand, or by replacing its approx block, is cut as the loaded one is.
        birth = {
            "cardinality": [0.5, 0.3, 0.2],
            "spatial": [{"weight": 1.0, "mean": [0.0], "cov": [[25.0]]}],
        }
        loaded = load_config(base_config(birth=birth, approx={"birth_cap": cap}))
        uncut = load_config(base_config(birth=birth, approx={}))
        assert uncut.birth.max_births == 2
        approx = ApproximationConfig(birth_cap=cap)
        fields = {f.name: getattr(uncut, f.name) for f in dataclasses.fields(uncut)}
        by_hand = ScenarioConfig(**(fields | {"approx": approx}))
        for cfg in (by_hand, dataclasses.replace(uncut, approx=approx)):
            assert cfg.birth.max_births == loaded.birth.max_births == min(cap, 2)
            assert cfg.birth.cardinality.tobytes() == loaded.birth.cardinality.tobytes()

    def test_birth_cap_removing_all_mass_rejected(self):
        cfg = load_config(base_config(**{"birth.cardinality": [0.0, 0.0, 1.0]}))
        with pytest.raises(ConfigError, match="all cardinality mass"):
            dataclasses.replace(cfg, approx=ApproximationConfig(birth_cap=1))

    def test_dimension_mismatch_rejected(self):
        bad = base_config(**{"sensor.H": [[1.0, 0.0]]})
        with pytest.raises(ConfigError):
            load_config(bad)


class TestSimulate:
    def test_nothing_to_observe(self):
        cfg = load_config(
            base_config(
                birth={
                    "cardinality": [1.0],
                    "spatial": [{"weight": 1.0, "mean": [0.0], "cov": [[25.0]]}],
                },
                sim={"scans": 5, "seed": 3, "clutter_rate": 0.0},
            )
        )
        truth, scans = simulate(cfg)
        assert all(len(s) == 0 for s in scans)
        assert truth.targets == []

    def test_clean_single_birth_chain(self):
        # Certain survival and detection, no clutter, one birth per scan:
        # the scan t observation count equals the number of targets alive.
        cfg = load_config(
            base_config(
                **{"model.p_s": 1.0, "model.Q": [[0.01]], "sensor.p_d": 1.0},
                birth={
                    "cardinality": [0.0, 1.0],
                    "spatial": [{"weight": 1.0, "mean": [0.0], "cov": [[4.0]]}],
                },
                sim={"scans": 4, "seed": 17, "clutter_rate": 0.0},
            )
        )
        truth, scans = simulate(cfg)
        for t, scan in enumerate(scans):
            assert len(scan) == t + 1
        for target in truth.targets:
            # first detection forced at the birth scan
            assert target.observations[0] is not None
            # at most one observation per scan, none after departure
            assert len(target.observations) == len(target.states)

    def test_assumptions_hold(self):
        cfg = load_config(base_config(sim={"scans": 12, "seed": 99, "clutter_rate": 1.5}))
        truth, scans = simulate(cfg)
        seen_ids = set()
        for scan in scans:
            values = [tuple(o.value.tolist()) for o in scan]
            assert len(values) == len(set(values))  # distinct within scan
            for o in scan:
                assert o.id not in seen_ids  # globally unique
                seen_ids.add(o.id)
        assigned = set()
        for target in truth.targets:
            for ref in target.observations:
                if ref is not None:
                    assert ref not in assigned  # an observation has one origin
                    assigned.add(ref)
        for scan_fa in truth.false_alarms:
            for ref in scan_fa:
                assert ref not in assigned
        # births happen at most once per target, observations only while alive
        for target in truth.targets:
            assert len(target.states) >= 1
            assert target.birth_scan + len(target.states) <= truth.scans + 1

    def test_determinism(self):
        cfg = load_config(base_config())
        truth_a, scans_a = simulate(cfg)
        truth_b, scans_b = simulate(cfg)
        assert len(truth_a.targets) == len(truth_b.targets)
        for sa, sb in zip(scans_a, scans_b):
            assert [o.id for o in sa] == [o.id for o in sb]
            for oa, ob in zip(sa, sb):
                assert np.array_equal(oa.value, ob.value)


class TestRun:
    def test_empty_scene_keeps_empty_map(self):
        cfg = load_config(
            base_config(
                birth={
                    "cardinality": [1.0],
                    "spatial": [{"weight": 1.0, "mean": [0.0], "cov": [[25.0]]}],
                },
                sim={"scans": 3, "seed": 5, "clutter_rate": 0.0},
            )
        )
        report, truth, _ = run(cfg)
        for rec in report.records:
            assert rec.map_hypothesis == []
            assert rec.estimates == []

    def test_weight_sum_is_one_every_scan(self):
        cfg = load_config(base_config())
        report, _, _ = run(cfg)
        for rec in report.records:
            assert rec.total_weight == pytest.approx(1.0, abs=1e-9)

    def test_report_serialization_is_deterministic(self):
        cfg = load_config(base_config())
        a = json.dumps(report_jsonable(run(cfg)[0]), sort_keys=True)
        b = json.dumps(report_jsonable(run(cfg)[0]), sort_keys=True)
        assert a == b


def test_filter_builds_no_checked_records(monkeypatch):
    # Models are validated once, at the boundary: after load_config, the
    # filter derives every Gaussian component, distribution and observation
    # path unchecked. Each derived one must still pass the checked constructors.
    cfg = load_config(CLUTTERED)
    scenes = [simulate(dataclasses.replace(cfg, seed=seed))[1] for seed in (0, 1)]
    checks = Counter()
    for cls in (GaussianComponent, AugmentedDistribution, ObservationPath):
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            checks[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    states = []
    for name in ("predict", "update", "apply_pipeline"):
        def recorded(*args, step=getattr(runner, name), **kwargs):
            states.append(step(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(runner, name, recorded)
    for scans in scenes:
        runner.filter_scans(cfg, scans)
    assert checks == Counter()
    assert len(states) == 3 * sum(len(scans) for scans in scenes)
    monkeypatch.undo()
    for state in states:
        for track in state.tracks.values():
            rebuild_checked(track)


def test_filter_stores_the_narrowest_table_types(monkeypatch):
    # A table of n tracks holds its ids at the narrowest unsigned type for
    # n - 1 (one byte for cluttered's and exact C9's, at most 255 tracks)
    # and its row offsets as int32, whichever step built it.
    cfg = load_config(CLUTTERED)
    runs = [(cfg, simulate(dataclasses.replace(cfg, seed=seed))[1]) for seed in (0, 1)]
    runs.append((load_config(EXACT_C9 / "config.json"), read_observations(EXACT_C9 / "observations.jsonl")))
    states = []
    for name in ("predict", "update", "apply_pipeline", "extract_tracks"):
        def recorded(*args, step=getattr(runner, name), **kwargs):
            out = step(*args, **kwargs)
            states.append(out[0] if isinstance(out, tuple) else out)
            return out

        monkeypatch.setattr(runner, name, recorded)
    for cfg, scans in runs:
        runner.filter_scans(cfg, scans)
    assert len(states) == 4 * sum(len(scans) for _, scans in runs)
    assert max(len(s.tracks) for s in states) == 255
    for state in states:
        assert state.indices.dtype == np.min_scalar_type(max(len(state.tracks) - 1, 0))
        assert state.indptr.dtype == np.int32


def test_no_mixture_outgrows_the_birth_prior(monkeypatch):
    # A birth starts with the prior's components, the Kalman step, the miss
    # update and predict never add one, and a merge yields one moment-matched
    # Gaussian: so no track carries more components than the birth prior.
    cluttered, large = load_config(CLUTTERED), load_config(SCENE_LARGE)
    runs = [(cluttered, simulate(dataclasses.replace(cluttered, seed=s))[1]) for s in (0, 1)]
    runs.append((large, simulate(large)[1]))
    states, merged = [], []

    def changed(t, before):
        a, b = t.dist, before.dist
        return a.presence != b.presence or len(a.spatial) != len(b.spatial) or any(
            not (np.array_equal(x.mean, y.mean) and np.array_equal(x.cov, y.cov))
            for x, y in zip(a.spatial, b.spatial)
        )

    def merging(state, threshold, step=approximations.merge_tracks):
        out = step(state, threshold)
        merged[-1] += [t for p, t in out.tracks.items() if changed(t, state.tracks[p])]
        return out

    monkeypatch.setattr(approximations, "merge_tracks", merging)
    for name in ("predict", "update", "apply_pipeline"):
        def recorded(*args, step=getattr(runner, name), **kwargs):
            states[-1].append(step(*args, **kwargs))
            return states[-1][-1]

        monkeypatch.setattr(runner, name, recorded)
    for cfg, scans in runs:
        states.append([])
        merged.append([])
        runner.filter_scans(cfg, scans)
        prior = len(cfg.birth.spatial.spatial)
        assert all(
            len(t.dist.spatial) <= prior for state in states[-1] for t in state.tracks.values()
        )
        assert merged[-1] and all(len(t.dist.spatial) == 1 for t in merged[-1])


class TestMetrics:
    def _truth_two_static(self):
        t1 = TruthTarget(0, [np.array([0.0]), np.array([0.0])], [(0, 0), (1, 0)])
        t2 = TruthTarget(0, [np.array([5.0]), np.array([5.0])], [(0, 1), (1, 1)])
        return GroundTruth(2, [t1, t2], [[], []])

    def _report(self, points_per_scan):
        records = []
        for t, points in enumerate(points_per_scan):
            estimates = [
                TrackEstimate(None, 1.0, 1.0, np.array([p]), True) for p in points
            ]
            records.append(
                ScanRecord(t, [], 1, len(points), 1.0, 1.0, [], estimates)
            )
        return RunReport(records)

    def test_perfect_estimates(self):
        out = metrics(self._truth_two_static(), self._report([[0.0, 5.0], [0.0, 5.0]]))
        assert out["mean_cardinality_error"] == 0
        assert out["rmse"] == pytest.approx(0.0, abs=1e-12)

    def test_empty_extraction_counts_missing(self):
        out = metrics(self._truth_two_static(), self._report([[], []]))
        assert out["mean_cardinality_error"] == -2
        assert out["rmse"] is None

    def test_reorder_invariance(self):
        a = metrics(self._truth_two_static(), self._report([[0.1, 5.2], [0.0, 5.0]]))
        b = metrics(self._truth_two_static(), self._report([[5.2, 0.1], [5.0, 0.0]]))
        assert a["rmse"] == pytest.approx(b["rmse"])


class TestCli:
    def _write_cfg(self, tmp_path, **overrides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(**overrides)))
        return path

    def test_simulate_track_report_roundtrip(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        sim_dir = tmp_path / "sim"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(sim_dir)]) == 0
        assert (sim_dir / "observations.jsonl").exists()
        assert (sim_dir / "truth.json").exists()

        track_dir = tmp_path / "trk"
        assert (
            cli_main(
                ["track", "--config", str(cfg), "--obs", str(sim_dir), "--out", str(track_dir)]
            )
            == 0
        )
        report = json.loads((track_dir / "report.json").read_text())
        assert len(report["records"]) == 6
        assert report["metrics"] is None

        assert cli_main(["report", "--in", str(track_dir)]) == 0
        out = capsys.readouterr().out
        assert "scan" in out

    def test_run_writes_everything_and_metrics(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out_dir = tmp_path / "run"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["metrics"] is not None
        rows = (out_dir / "records.jsonl").read_text().strip().splitlines()
        assert len(rows) == 6

    def test_run_byte_identical_across_invocations(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--config", str(cfg), "--seed", "7", "--out", str(d1)]) == 0
        assert cli_main(["run", "--config", str(cfg), "--seed", "7", "--out", str(d2)]) == 0
        for name in ("observations.jsonl", "truth.json", "records.jsonl", "report.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_track_reproduces_run(self, tmp_path):
        # Tracking the observations a run wrote gives the run's records byte
        # for byte: the file path carries the same scans as the simulator.
        run_dir, track_dir = tmp_path / "run", tmp_path / "track"
        assert cli_main(["run", "--config", str(CLUTTERED), "--out", str(run_dir)]) == 0
        track = ["track", "--config", str(CLUTTERED), "--obs", str(run_dir), "--out", str(track_dir)]
        assert cli_main(track) == 0
        assert (track_dir / "records.jsonl").read_bytes() == (run_dir / "records.jsonl").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        cli_main(["run", "--config", str(cfg), "--seed", "7", "--out", str(d1)])
        cli_main(["run", "--config", str(cfg), "--seed", "8", "--out", str(d2)])
        assert (d1 / "observations.jsonl").read_bytes() != (d2 / "observations.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "content",
        [
            [],
            "not a report",
            {"records": [{"scan": 0, "track_count": 1, "total_weight": 1.0}]},
            {"records": [{"scan": 0, "hypothesis_count": 1, "track_count": 1, "total_weight": "x"}]},
            {"records": ["scan 0"]},
            {"records": [], "metrics": {"rmse": None}},
        ],
    )
    def test_report_of_non_report_json_is_a_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(content))
        assert cli_main(["report", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err and "is not a report" in captured.err
        assert captured.out == ""

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base_config(typo_block={})))
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_degenerate_update_exit_code(self, tmp_path, capsys):
        # Observations cannot be explained: no clutter, no births, p_fa = 0.
        cfg = self._write_cfg(
            tmp_path,
            **{"sensor.p_fa": 0.0},
        )
        sim_dir = tmp_path / "sim"
        cli_main(["simulate", "--config", str(cfg), "--out", str(sim_dir)])
        impossible = self._write_cfg(
            tmp_path,
            birth={
                "cardinality": [1.0],
                "spatial": [{"weight": 1.0, "mean": [0.0], "cov": [[25.0]]}],
            },
            **{"sensor.p_fa": 0.0},
        )
        code = cli_main(
            ["track", "--config", str(impossible), "--obs", str(sim_dir), "--out",
             str(tmp_path / "t")]
        )
        assert code == 3
        assert "degenerate" in capsys.readouterr().err

    def test_hypothesis_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_ROWS", 1)
        cfg = self._write_cfg(tmp_path)
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert "hypothesis budget exceeded" in capsys.readouterr().err

    def test_entry_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # Exact C9's last scan would write 10,141,722 track ids: one more
        # than the entry budget allows, so tracking it stops with exit 4.
        monkeypatch.setattr(engine, "_MAX_ENTRIES", 10_141_721)
        track = ["track", "--config", str(EXACT_C9 / "config.json"), "--obs", str(EXACT_C9),
                 "--out", str(tmp_path / "t")]
        assert cli_main(track) == 4
        assert "more than 10141721 track ids: 10141722" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_missing_observations_file(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        for missing in (tmp_path / "nope.jsonl", tmp_path):  # a directory without observations
            assert cli_main(["track", "--config", str(cfg), "--obs", str(missing),
                             "--out", str(tmp_path / "t")]) == 2
            assert "cannot read observations" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("command", ["simulate", "track", "run"])
    def test_output_path_naming_a_file(self, tmp_path, capsys, monkeypatch, command):
        # The output directory is made first: neither the simulator nor the
        # filter runs before a bad --out is found.
        cfg = self._write_cfg(tmp_path)
        sim_dir = tmp_path / "sim"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(sim_dir)]) == 0
        calls = []
        for module in (cli, runner):
            for name in ("simulate", "filter_scans"):
                monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        taken = tmp_path / "taken"
        taken.write_text("keep")
        source = ["--obs", str(sim_dir)] if command == "track" else []
        for out in (taken, taken / "below"):
            assert cli_main([command, "--config", str(cfg), *source, "--out", str(out)]) == 2
            assert "cannot make output directory" in capsys.readouterr().err
        assert taken.read_text() == "keep" and calls == []

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda rows: rows[:1] + ['{"scan": 1, "observations": ['],
            lambda rows: rows[:1] + [rows[1].replace('"scan":1', '"scan":2')],
            lambda rows: rows[:1] + [rows[1].replace('"id":[1,0]', '"id":[0,0]')],
            lambda rows: [rows[0].replace('"id":[0,1]', '"id":[0,0]')] + rows[1:],
            lambda rows: [rows[0].replace(',"value":[2.0]', '')] + rows[1:],
            lambda rows: [rows[0].replace('"value":[2.0]', '"value":[1.0]')] + rows[1:],
            lambda rows: [rows[0].replace('"id":[0,0]', '"id":[0,0.7]')] + rows[1:],
            lambda rows: rows[:1] + [rows[1].replace('"id":[1,0]', '"id":[true,0]')],
            lambda rows: rows[:1] + [rows[1].replace('"scan":1', '"scan":true')],
            # A value is written back flat, so only a flat list of numbers round-trips.
            lambda rows: [rows[0].replace('"value":[2.0]', '"value":[[2.0]]')] + rows[1:],
            lambda rows: [rows[0].replace('"value":[2.0]', '"value":2.0')] + rows[1:],
            lambda rows: [rows[0].replace('"value":[2.0]', '"value":["2.0"]')] + rows[1:],
            lambda rows: [rows[0].replace('"value":[2.0]', '"value":[false]')] + rows[1:],
            lambda rows: [rows[0].replace('"value":[2.0]', '"value":[1' + '0' * 400 + ']')]
            + rows[1:],
        ],
        ids=["malformed-json", "scan-out-of-order", "id-of-another-scan", "repeated-id",
             "missing-value", "repeated-value", "fractional-id", "boolean-id", "boolean-scan",
             "nested-value", "scalar-value", "string-value", "boolean-value",
             "integer-past-float-range"],
    )
    def test_malformed_observations_exit_code(self, tmp_path, capsys, corrupt):
        rows = [
            '{"observations":[{"id":[0,0],"value":[1.0]},{"id":[0,1],"value":[2.0]}],"scan":0}',
            '{"observations":[{"id":[1,0],"value":[1.5]}],"scan":1}',
        ]
        obs_path = tmp_path / "observations.jsonl"
        obs_path.write_text("\n".join(rows) + "\n")
        cfg = self._write_cfg(tmp_path)
        track = ["track", "--config", str(cfg), "--obs", str(obs_path),
                 "--out", str(tmp_path / "t")]
        assert cli_main(track) == 0
        obs_path.write_text("\n".join(corrupt(rows)) + "\n")
        assert cli_main(track) == 2
        assert "configuration error" in capsys.readouterr().err


class TestObservationsIO:
    def test_roundtrip(self, tmp_path):
        cfg = load_config(base_config())
        _, scans = simulate(cfg)
        from disptrack.runner import write_observations

        path = tmp_path / "obs.jsonl"
        write_observations(path, scans)
        loaded = read_observations(path)
        assert len(loaded) == len(scans)
        for a, b in zip(scans, loaded):
            assert [o.id for o in a] == [o.id for o in b]
            for oa, ob in zip(a, b):
                assert np.array_equal(oa.value, ob.value)
