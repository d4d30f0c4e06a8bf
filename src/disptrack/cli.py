"""Command-line front end.

Subcommands: ``simulate`` draws a scenario and writes the observation scans
plus ground truth; ``track`` runs the filter over stored observations;
``run`` does both and attaches metrics; ``report`` prints a human-readable
summary of a stored report. Exit codes: 0 success, 2 configuration error,
3 degenerate update, 4 hypothesis budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig, load_config
from .engine import DegenerateUpdateError, HypothesisBudgetError
from .models import ModelConfigError
from .runner import (
    filter_scans,
    read_observations,
    run,
    write_observations,
    write_records,
    write_report,
    write_truth,
)
from .simulation import simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_BUDGET = 4


def _load(config_path: str, seed: int | None) -> ScenarioConfig:
    cfg = load_config(config_path)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _outdir(path: str) -> Path:
    """Make the output directory, before any simulating or filtering: a path
    that cannot be one fails at once, as a configuration error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc}") from exc
    return out


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load(args.config, args.seed)
    out = _outdir(args.out)
    truth, scans = simulate(cfg)
    write_observations(out / "observations.jsonl", scans)
    write_truth(out / "truth.json", truth)
    print(f"wrote {sum(len(s) for s in scans)} observations over {cfg.scans} scans to {out}")
    return EXIT_OK


def _cmd_track(args: argparse.Namespace) -> int:
    cfg = _load(args.config, None)
    obs_path = Path(args.obs)
    if obs_path.is_dir():
        obs_path = obs_path / "observations.jsonl"
    scans = read_observations(obs_path)
    out = _outdir(args.out)
    report, _ = filter_scans(cfg, scans)
    write_records(out / "records.jsonl", report)
    write_report(out / "report.json", report)
    print(f"tracked {len(scans)} scans, wrote report to {out}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args.config, args.seed)
    out = _outdir(args.out)
    report, truth, scans = run(cfg)
    write_observations(out / "observations.jsonl", scans)
    write_truth(out / "truth.json", truth)
    write_records(out / "records.jsonl", report)
    write_report(out / "report.json", report)
    print(f"ran {cfg.scans} scans, wrote report to {out}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.indir)
    if path.is_dir():
        path = path / "report.json"
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc
    try:
        lines = _report_lines(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path} is not a report ({type(exc).__name__}: {exc})") from exc
    print("\n".join(lines))
    return EXIT_OK


def _report_lines(data: dict) -> list[str]:
    lines = [f"{'scan':>4}  {'obs':>4}  {'hyps':>6}  {'tracks':>6}  {'weight':>10}  extracted"]
    for rec in data.get("records", []):
        est = rec.get("estimates", [])
        shown = ", ".join(e["track"] for e in est) or "-"
        lines.append(
            f"{rec['scan']:>4}  {len(rec.get('observations', [])):>4}  "
            f"{rec['hypothesis_count']:>6}  {rec['track_count']:>6}  "
            f"{rec['total_weight']:>10.6f}  {shown}"
        )
    m = data.get("metrics")
    if m:
        rmse = "n/a" if m.get("rmse") is None else f"{m['rmse']:.4f}"
        lines.append(
            f"summary: mean cardinality error {m['mean_cardinality_error']:+.3f}, "
            f"matched RMSE {rmse} over {m['matched_total']} matches"
        )
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disptrack",
        description="Multi-target detection and tracking over cluttered observation scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a scenario and store its observations")
    p_sim.add_argument("--config", required=True, help="scenario config (JSON)")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_track = sub.add_parser("track", help="run the filter over stored observations")
    p_track.add_argument("--config", required=True, help="scenario config (JSON)")
    p_track.add_argument("--obs", required=True, help="observations.jsonl or its directory")
    p_track.add_argument("--out", required=True, help="output directory")
    p_track.set_defaults(fn=_cmd_track)

    p_run = sub.add_parser("run", help="simulate and track in one go")
    p_run.add_argument("--config", required=True, help="scenario config (JSON)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("report", help="print a human-readable run summary")
    p_rep.add_argument("--in", dest="indir", required=True, help="report.json or its directory")
    p_rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ModelConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateUpdateError as exc:
        print(f"degenerate update: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except HypothesisBudgetError as exc:
        print(f"hypothesis budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
