"""End-to-end filter driver: per-scan records, metrics, serialization.

One scan of the pipeline is predict, update (with gating when configured),
the approximation passes, then track extraction. The per-scan record keeps
the post-update weight total (which must be one) separately from the
weight retained after hypothesis pruning (which may not be).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .approximations import apply_pipeline, make_gate  # make_gate: perfbench's tracer patches it
from .config import ConfigError, ScenarioConfig
from .engine import FilterState, init_filter, predict, update
# map_hypothesis: not called here, perfbench's tracer patches this name.
from .estimation import TrackEstimate, extract_tracks, map_hypothesis
from .models import ModelConfigError, Observation, check_scan
from .simulation import GroundTruth, simulate


@dataclass
class ScanRecord:
    """Everything reported about one processed scan."""

    scan: int
    observations: list[Observation]
    hypothesis_count: int
    track_count: int
    total_weight: float
    retained_weight: float
    map_hypothesis: list[str]
    estimates: list[TrackEstimate]


@dataclass
class RunReport:
    records: list[ScanRecord]
    metrics: dict | None = None


def filter_scans(
    cfg: ScenarioConfig,
    all_scans: Sequence[Sequence[Observation]],
) -> tuple[RunReport, FilterState]:
    """Run the filter over pre-collected observation scans."""
    state = init_filter()
    records: list[ScanRecord] = []
    for scan_obs in all_scans:
        state = predict(state, cfg.motion)
        state = update(state, scan_obs, cfg.birth, cfg.sensor, cfg.approx.gate_threshold)
        total = state.total_weight()
        kept = apply_pipeline(state, cfg.approx)
        retained = total if kept is state else kept.total_weight()
        state = kept
        state, estimates, best = extract_tracks(state, cfg.extract, cfg.space)
        records.append(
            ScanRecord(
                scan=state.scan,
                observations=sorted(scan_obs, key=lambda o: o.id),
                hypothesis_count=len(state.hypotheses),
                track_count=len(state.tracks),
                total_weight=total,
                retained_weight=retained,
                map_hypothesis=[str(p) for p in best.tracks],
                estimates=estimates,
            )
        )
    return RunReport(records), state


def run(cfg: ScenarioConfig) -> tuple[RunReport, GroundTruth, list[list[Observation]]]:
    """Simulate a scenario, track it, attach metrics."""
    truth, all_scans = simulate(cfg)
    report, _ = filter_scans(cfg, all_scans)
    report.metrics = metrics(truth, report)
    return report, truth, all_scans


def _greedy_match(
    est_points: list[np.ndarray], true_points: list[np.ndarray]
) -> list[tuple[int, int, float]]:
    pairs = sorted(
        (float(np.linalg.norm(e - x)), i, j)
        for i, e in enumerate(est_points)
        for j, x in enumerate(true_points)
    )
    used_e: set[int] = set()
    used_t: set[int] = set()
    matched = []
    for d, i, j in pairs:
        if i in used_e or j in used_t:
            continue
        used_e.add(i)
        used_t.add(j)
        matched.append((i, j, d))
    return matched


def metrics(truth: GroundTruth, report: RunReport) -> dict:
    """Cardinality error and matched-position RMSE against the ground truth.

    Estimates are matched to true states greedily by distance; the pairing
    is order-independent.
    """
    if len(report.records) != truth.scans:
        raise ValueError(
            f"report covers {len(report.records)} scans but truth covers {truth.scans}"
        )
    per_scan = []
    sq_errors: list[float] = []
    for rec in report.records:
        present = truth.present_at(rec.scan)
        est_points = [e.point for e in rec.estimates]
        true_points = [t.state_at(rec.scan) for t in present]
        matched = _greedy_match(est_points, true_points)
        scan_sq = [d * d for _, _, d in matched]
        sq_errors.extend(scan_sq)
        per_scan.append(
            {
                "scan": rec.scan,
                "cardinality_error": len(est_points) - len(true_points),
                "matched": len(matched),
                "rmse": math.sqrt(sum(scan_sq) / len(scan_sq)) if scan_sq else None,
            }
        )
    card_errors = [s["cardinality_error"] for s in per_scan]
    return {
        "per_scan": per_scan,
        "mean_cardinality_error": sum(card_errors) / len(card_errors),
        "mean_abs_cardinality_error": sum(abs(c) for c in card_errors) / len(card_errors),
        "rmse": math.sqrt(sum(sq_errors) / len(sq_errors)) if sq_errors else None,
        "matched_total": len(sq_errors),
    }


# ---------------------------------------------------------------------------
# Serialization. Reports must be byte-identical across reruns of the same
# seed, so every writer sorts keys and leans on repr round-tripping.


def _obs_jsonable(o: Observation) -> dict:
    return {"id": list(o.id), "value": o.value.tolist()}


def _estimate_jsonable(e: TrackEstimate) -> dict:
    return {
        "track": str(e.track_id),
        "existence": e.existence,
        "presence": e.presence,
        "point": e.point.tolist(),
        "displayed": e.displayed,
    }


def record_jsonable(rec: ScanRecord) -> dict:
    return {
        "scan": rec.scan,
        "observations": [_obs_jsonable(o) for o in rec.observations],
        "hypothesis_count": rec.hypothesis_count,
        "track_count": rec.track_count,
        "total_weight": rec.total_weight,
        "retained_weight": rec.retained_weight,
        "map_hypothesis": rec.map_hypothesis,
        "estimates": [_estimate_jsonable(e) for e in rec.estimates],
    }


def report_jsonable(report: RunReport) -> dict:
    return {
        "records": [record_jsonable(r) for r in report.records],
        "metrics": report.metrics,
    }


def truth_jsonable(truth: GroundTruth) -> dict:
    return {
        "scans": truth.scans,
        "targets": [
            {
                "birth_scan": t.birth_scan,
                "states": [x.tolist() for x in t.states],
                "observations": [list(o) if o is not None else None for o in t.observations],
            }
            for t in truth.targets
        ],
        "false_alarms": [[list(o) for o in scan] for scan in truth.false_alarms],
    }


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_observations(path: Path, all_scans: Sequence[Sequence[Observation]]) -> None:
    lines = [
        _dump({"scan": t, "observations": [_obs_jsonable(o) for o in scan]})
        for t, scan in enumerate(all_scans)
    ]
    path.write_text("\n".join(lines) + "\n")


def read_observations(path: Path) -> list[list[Observation]]:
    """Observation scans from a JSON-lines file, one line per scan in scan order.

    Raises ``ConfigError`` for a line that is not a well-formed scan record
    (ids, scans or values of the wrong JSON type), a scan out of order, an
    id naming another scan, and an id or a value repeated within a scan.
    """
    scans: list[list[Observation]] = []
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}, line {n}"
        try:
            row = json.loads(line)
            scan = row["scan"]
            scan_obs = []
            for o in row["observations"]:
                value = o["value"]  # written back flat, so only a flat list round-trips
                if type(value) is not list or any(type(x) not in (int, float) for x in value):
                    raise TypeError(f"value {value!r} is not a flat list of numbers")
                scan_obs.append(Observation(tuple(o["id"]), np.asarray(value, dtype=float)))
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: malformed scan record ({exc!r})") from exc
        if type(scan) is not int or scan != len(scans):
            raise ConfigError(f"{where}: expected scan {len(scans)}, got {scan!r}")
        try:
            check_scan(scan_obs, scan)
        except ModelConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        scans.append(scan_obs)
    return scans


def write_records(path: Path, report: RunReport) -> None:
    lines = [_dump(record_jsonable(r)) for r in report.records]
    path.write_text("\n".join(lines) + "\n")


def write_report(path: Path, report: RunReport) -> None:
    path.write_text(_dump(report_jsonable(report)) + "\n")


def write_truth(path: Path, truth: GroundTruth) -> None:
    path.write_text(_dump(truth_jsonable(truth)) + "\n")
