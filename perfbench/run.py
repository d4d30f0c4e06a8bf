"""Scenario-ladder benchmark for disptrack: latency, memory and tracking quality.

One workload, as BENCHMARK.json runs it (from the root of a checkout):

    python3 perfbench/run.py --workload cluttered --seed 1 --seconds 30 --trace 0

prints every metric with its unit and the output-check verdict, then, as
its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

Every workload, untraced and then traced, in one command:

    python3 perfbench/run.py [--seed 1] [--seconds 30] [--out perfbench/out/report.json]

prints the same tables plus the tracing overhead and writes them all to
one JSON report. Exits non-zero, printing no result, when the checkout
holds no ``src/disptrack`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-c9", "cluttered", "scene-large")
SETUP_RUNS = 4  # set-ups per measurement: SETUP_RUNS - 1 probes plus the measuring worker
DEADLINE_S = 170.0  # one measurement, probes included
MIN_BEYOND_P90 = 10  # samples that must lie beyond p90 for it to be reported
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("mass_removed"):
        return "mass"
    return "count"


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in its own single-threaded process; return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One measurement of one workload: set-up probes, then the measuring worker."""
    if not (ROOT / "src" / "disptrack" / "__init__.py").is_file():
        raise BenchError(f"no src/disptrack in {ROOT}: nothing to measure")
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [worker(base + ["--setup-only"], deadline)["setup"] for _ in range(SETUP_RUNS - 1)]
    raw = worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(raw["setup"])
    return summarize(raw, [s["program_s"] * s["speed"] for s in setups])


def summarize(raw: dict, setups: list[float]) -> dict:
    """Metrics from a worker's raw result; ``setups`` are calibrated set-up times."""
    passes = raw["passes"]
    scan_ms = sorted(x * p["speed"] for p in passes for x in p["scan_ms"])
    if not scan_ms:
        raise BenchError(f"{raw['workload']}: no scan completed; {passes[0]['failures']}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["program_s"] * p["speed"] for p in passes),
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    p90 = (statistics.quantiles(scan_ms, n=10, method="inclusive")[-1]
           if len(scan_ms) > 1 else scan_ms[0])
    beyond = sum(x > p90 for x in scan_ms)
    reported = {
        "run_program_s": statistics.median(p["program_s"] for p in passes),
        "run_wall_s": statistics.median(p["wall_s"] for p in passes),
        "speed": statistics.median(p["speed"] for p in passes),
        "scan_p50_ms": statistics.median(scan_ms),
        "scan_p90_ms": p90 if beyond >= MIN_BEYOND_P90 else None,
        "scan_samples": len(scan_ms),
        "scan_samples_beyond_p90": beyond,
        "failed_frac": failed / attempted,
        "setup_runs": len(setups),
        "passes": len(passes),
    }
    quality = raw["quality"] or {}
    reported["card_err_abs"] = quality.get("card_err_abs")
    reported["gospa"] = quality.get("gospa")
    reported["quality_scans"] = quality.get("scans", 0)
    per_layer = None
    if raw["trace"]:
        # Counts repeat exactly from pass to pass; times vary, so take
        # medians of the calibrated times.
        per_layer = {
            name: (statistics.median(p["layers"][name] * p["speed"] for p in passes)
                   if layer_unit(name) == "s" else value)
            for name, value in passes[0]["layers"].items()
        }
    return {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "trace": raw["trace"],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": end_to_end,
        "reported": reported,
        "per_layer": per_layer,
        "env": raw["env"],
    }


def show(s: dict) -> None:
    r = s["reported"]
    mode = "traced" if s["trace"] else "untraced"
    print(f"== {s['workload']} (seed {s['seed']}, {mode}, {r['passes']} passes, "
          f"{s['attempted']} scans attempted, {s['failed']} failed)")
    e = s["end_to_end"]
    print(f"  setup_s       {e['setup_s']:.4f} s    median of {r['setup_runs']} set-ups, calibrated")
    print(f"  run_s         {e['run_s']:.4f} s    median of {r['passes']} passes, calibrated")
    print(f"  run, raw      {r['run_program_s']:.4f} s    program clock at host speed "
          f"{r['speed']:.3f}; {r['run_wall_s']:.4f} s of wall time per pass")
    print(f"  scan_p50_ms   {r['scan_p50_ms']:.4f} ms   of {r['scan_samples']} scans")
    if r["scan_p90_ms"] is None:
        print(f"  scan_p90_ms   n/a     {r['scan_samples_beyond_p90']} scans beyond p90, "
              f"{MIN_BEYOND_P90} needed")
    else:
        print(f"  scan_p90_ms   {r['scan_p90_ms']:.4f} ms   "
              f"{r['scan_samples_beyond_p90']} of {r['scan_samples']} scans beyond it")
    print(f"  peak_rss_mib  {e['peak_rss_mib']:.1f} MiB")
    print(f"  failed_frac   {r['failed_frac']:.4f}  ({s['failed']} / {s['attempted']} scans)")
    if r["gospa"] is None:
        print("  card_err_abs  n/a     no ground truth")
        print("  gospa         n/a     no ground truth")
    else:
        print(f"  card_err_abs  {r['card_err_abs']:.4f}  over {r['quality_scans']} scans")
        print(f"  gospa         {r['gospa']:.4f}  c=5 p=2 alpha=2, over {r['quality_scans']} scans")
    if s["per_layer"] is not None:
        for name, value in s["per_layer"].items():
            print(f"  {name:<48} {value:.6g} {layer_unit(name)}")
    verdict = "PASS" if s["correct"] else "FAIL"
    print(f"  output check  {verdict}")
    for f in s["failures"][:20]:
        print(f"    {f}")
    env = s["env"]
    print("  env  " + ", ".join(f"{k} {v}" for k, v in env.items()))


def result_line(s: dict) -> str:
    if s["trace"]:
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in s["per_layer"].items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in s["end_to_end"].items()}
    return json.dumps(
        {"correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"],
         "metrics": metrics}
    )


def run_all(seed: int, seconds: float, out: Path) -> bool:
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    correct = True
    for name in WORKLOADS:
        plain = measure(name, seed, seconds, 0)
        show(plain)
        traced = measure(name, seed, seconds, 1)
        show(traced)
        overhead = traced["end_to_end"]["run_s"] - plain["end_to_end"]["run_s"]
        print(f"  tracing overhead  {overhead:.4f} s  (traced run_s - untraced run_s)")
        correct &= plain["correct"] and traced["correct"]
        report["env"] = plain["env"]
        report["workloads"][name] = {
            "correct": plain["correct"] and traced["correct"],
            "untraced": {k: plain[k] for k in ("attempted", "failed", "end_to_end", "reported")},
            "traced": {k: traced[k] for k in ("attempted", "failed", "end_to_end", "per_layer")},
            "tracing_overhead_s": overhead,
            "failures": plain["failures"] + traced["failures"],
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"report written to {out}")
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure one workload; without it, measure them all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "report.json",
                        help="report file when measuring every workload")
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return 0 if run_all(args.seed, args.seconds, args.out) else 1
        summary = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    show(summary)
    print(result_line(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
