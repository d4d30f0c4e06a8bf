"""One benchmark process: set a workload up, drive it in a closed loop, check it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

run.py starts one such process per measurement, with BLAS held to one
thread, so that the peak RSS it reports is the workload's own. A
calibration sampler runs from before set-up to the end of the last pass;
every time here is on its program clock (wall time less reference chunks),
and every window carries the host speed measured in it. The last line of
standard output is one JSON object of raw measurements, which run.py turns
into metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from calibration import Sampler

ROOT = Path(__file__).resolve().parent.parent


def setup(name: str, seed: int, sampler):
    """Import the program from this checkout and generate the workload's inputs."""
    mark = sampler.mark()
    t0 = sampler.clock()
    sys.path.insert(0, str(ROOT / "src"))
    import disptrack

    if Path(disptrack.__file__).resolve().parent != ROOT / "src" / "disptrack":
        raise SystemExit(f"disptrack was imported from {disptrack.__file__}, not this checkout")
    import workloads

    wl = workloads.build(name, seed, ROOT)
    return wl, {"program_s": sampler.clock() - t0, "speed": sampler.speed(mark)}


def run_pass(wl, tracer, sampler) -> tuple[dict, list]:
    """Send every scene once, one scan at a time, and check what comes back.

    Scan t+1 is handed to ``filter_scans`` only when it asks for it, that
    is after scan t has returned. Returns the pass's measurements, timed on
    the sampler's program clock, and the (scene, report) pairs of the
    scenes that completed.
    """
    from disptrack import DegenerateUpdateError, runner

    import checks

    clock = sampler.clock
    out = {"program_s": 0.0, "scan_ms": [], "attempted": 0, "failed": 0, "failures": []}
    done = []
    for i, scene in enumerate(wl.scenes):
        gc.collect()
        if tracer is not None:
            tracer.scan_mass.clear()
        sent: list[float] = []

        def client(scans=scene.scans):
            for scan in scans:
                sent.append(clock())
                yield scan

        report = None
        t0 = clock()
        try:
            report, state = runner.filter_scans(wl.cfg, client())
        except DegenerateUpdateError as exc:
            error = str(exc)
        t1 = clock()
        out["program_s"] += t1 - t0
        out["attempted"] += len(scene.scans)
        returned = sent[1:] + [t1] if report is not None else sent[1:]
        out["scan_ms"] += [1e3 * (b - a) for a, b in zip(sent, returned)]
        if report is None:
            # The scan in flight and every scan not yet sent fail.
            out["failed"] += len(scene.scans) - len(returned)
            out["failures"].append(f"scene {i} scan {len(returned)}: {error}")
            continue
        scan_mass = list(tracer.scan_mass) if tracer is not None else None
        bad = checks.scan_failures(report, state, wl.final_counts, scan_mass)
        out["failed"] += len(bad)
        out["failures"] += [f"scene {i} scan {k}: {why}" for k, why in sorted(bad.items())]
        if scene.truth is not None:
            done.append((scene, report))
        del report, state
    gc.collect()
    return out, done


def measure(wl, seconds: float, trace: int, sampler) -> tuple[list, list]:
    """Passes over the workload for ``seconds``; the first pass's completed scenes."""
    from tracing import Tracer

    passes = []
    reports: list = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        mark = sampler.mark()
        tracer = Tracer(sampler.clock) if trace else None
        with tracer.installed() if tracer is not None else nullcontext():
            measured, done = run_pass(wl, tracer, sampler)
        if tracer is not None:
            measured["layers"] = tracer.layers()
        measured["speed"] = sampler.speed(mark)
        took = time.perf_counter() - began
        measured["wall_s"] = took
        passes.append(measured)
        if not reports:
            reports = done
        # Start another pass only if it should end within the run's time.
        if time.perf_counter() - start + took > seconds:
            break
    return passes, reports


def blas_threads():
    """Thread count OpenBLAS reports, when numpy bundles OpenBLAS."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "system": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sampler = Sampler()
    sampler.start()
    try:
        wl, setup_raw = setup(args.workload, args.seed, sampler)
        result = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "setup": setup_raw}
        if not args.setup_only:
            result["passes"], reports = measure(wl, args.seconds, args.trace, sampler)
    finally:
        sampler.stop()
    if args.setup_only:
        print(json.dumps(result))
        return 0
    # Linux reports ru_maxrss in KiB.
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    result["quality"] = checks.quality(wl.cfg, reports) if reports else None
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
