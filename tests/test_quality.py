"""Tracking quality on a fixed multi-seed set, bounded by measured values.

cluttered.json over simulator seeds 0-7, fixed and never re-picked. Each
bound is the value measured before merged tracks were collapsed to one
moment-matched Gaussian, plus 1e-3, so that a speed-up cannot quietly make
the estimates worse.
"""

import dataclasses
from pathlib import Path

import numpy as np

from disptrack import load_config, run
from perfbench.checks import gospa

CLUTTERED = Path(__file__).resolve().parents[1] / "demos" / "configs" / "cluttered.json"
SEEDS = tuple(range(8))
GOSPA_BOUND = 4.515386 + 1e-3  # mean per-scan GOSPA on positions (c = 5, p = 2, alpha = 2)
CARD_ERR_BOUND = 2.065 + 1e-3  # mean |cardinality error|


def test_cluttered_quality_within_measured_bounds():
    cfg = load_config(CLUTTERED)
    H = cfg.sensor.H
    gospas, card_errors = [], []
    for seed in SEEDS:
        report, truth, _ = run(dataclasses.replace(cfg, seed=seed))
        for rec in report.records:
            est = np.array([H @ e.point for e in rec.estimates]).reshape(-1, H.shape[0])
            true = [H @ t.state_at(rec.scan) for t in truth.present_at(rec.scan)]
            gospas.append(gospa(est, np.array(true).reshape(-1, H.shape[0])))
        card_errors += [abs(s["cardinality_error"]) for s in report.metrics["per_scan"]]
    assert np.mean(gospas) <= GOSPA_BOUND
    assert np.mean(card_errors) <= CARD_ERR_BOUND
