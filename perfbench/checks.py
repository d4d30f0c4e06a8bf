"""Output checks and tracking quality for one scene's filter run.

The checks use tolerances, not digests, so that an optimisation that only
reorders floating-point sums is not counted as a failure.
"""

from __future__ import annotations

import numpy as np

from disptrack import FilterState, RunReport, metrics

WEIGHT_TOL = 1e-9  # |total_weight - 1| after every update
MASS_TOL = 1e-12  # summed mass_removed against total_weight - retained_weight
GOSPA_C = 5.0
GOSPA_P = 2.0  # with alpha = 2


def consistent(state: FilterState) -> bool:
    """True iff every hypothesis holds known tracks that share no observation."""
    bit: dict = {}
    masks = {}
    for path in state.tracks:
        mask = 0
        for obs_id in path.detections:
            mask |= 1 << bit.setdefault(obs_id, len(bit))
        masks[path] = mask
    for h in state.hypotheses:
        seen = 0
        for path in h.tracks:
            mask = masks.get(path)
            if mask is None or seen & mask:
                return False
            seen |= mask
    return True


def scan_failures(
    report: RunReport,
    state: FilterState,
    final_counts: tuple[int, int] | None,
    scan_mass: list[float] | None,
) -> dict[int, str]:
    """Failed scan index -> reason, for one completed scene.

    ``scan_mass`` is the weight the passes removed at each scan, as the
    tracer measured it; it is None when the run is not traced.
    """
    records = report.records
    last = len(records) - 1
    bad: dict[int, str] = {}
    for k, rec in enumerate(records):
        if abs(rec.total_weight - 1.0) > WEIGHT_TOL:
            bad[k] = f"total_weight {rec.total_weight!r} after the update"
    if scan_mass is not None:
        if len(scan_mass) != len(records):
            bad.setdefault(last, f"{len(scan_mass)} pipeline runs for {len(records)} scans")
        for k, (rec, removed) in enumerate(zip(records, scan_mass)):
            retained = rec.total_weight - rec.retained_weight
            if abs(removed - retained) > MASS_TOL:
                bad.setdefault(k, f"passes removed {removed!r} but the record says {retained!r}")
    if not consistent(state):
        bad.setdefault(last, "a hypothesis holds two tracks that share an observation")
    if final_counts is not None:
        got = {(len(state.hypotheses), len(state.tracks)),
               (records[-1].hypothesis_count, records[-1].track_count)}
        if got != {final_counts}:
            bad.setdefault(last, f"(hypotheses, tracks) {sorted(got)}, expected {final_counts}")
    return bad


def gospa(est: np.ndarray, truth: np.ndarray, c: float = GOSPA_C, p: float = GOSPA_P) -> float:
    """GOSPA distance with alpha = 2 between two point sets (rows are points).

    Rahmathullah, Garcia-Fernandez & Svensson, FUSION 2017. With alpha = 2 a
    pair farther apart than ``c`` costs as much as leaving both points
    unassigned, so an assignment over the capped distances is optimal.
    """
    # Imported here, after the run, so the measured peak RSS is the program's own.
    from scipy.optimize import linear_sum_assignment

    cost = 0.0
    if len(est) and len(truth):
        dist = np.linalg.norm(est[:, None, :] - truth[None, :, :], axis=2)
        capped = np.minimum(dist, c) ** p
        rows, cols = linear_sum_assignment(capped)
        cost = float(capped[rows, cols].sum())
    return (cost + c**p / 2.0 * abs(len(est) - len(truth))) ** (1.0 / p)


def quality(cfg, scenes_and_reports) -> dict:
    """Mean per-scan GOSPA over positions and mean |cardinality error|, pooled over scenes."""
    H = cfg.sensor.H
    gospas: list[float] = []
    card: list[int] = []
    for scene, report in scenes_and_reports:
        for rec in report.records:
            est = np.array([H @ e.point for e in rec.estimates]).reshape(-1, H.shape[0])
            truth = np.array(
                [H @ t.state_at(rec.scan) for t in scene.truth.present_at(rec.scan)]
            ).reshape(-1, H.shape[0])
            gospas.append(gospa(est, truth))
        card += [s["cardinality_error"] for s in metrics(scene.truth, report)["per_scan"]]
    return {
        "gospa": sum(gospas) / len(gospas),
        "card_err_abs": sum(abs(c) for c in card) / len(card),
        "scans": len(gospas),
    }
