"""Per-layer spans and counters, recorded from outside the program.

While installed, a :class:`Tracer` replaces the module-level names the
program calls through (``runner.update``, ``engine.update_distribution``,
``approximations.merge_tracks`` and so on) with wrappers that time each
call, and restores them afterwards; the program's source is not touched.
Spans are timed on a given clock (the calibration sampler's program
clock in the benchmark) and aggregated by name as they close: total time,
self time (the span minus the part covered by its child spans) and call
count.
Counts of work done are recorded at the same boundaries.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from disptrack import approximations, engine, estimation, runner

PASSES = ("prune_by_presence", "prune_by_existence", "merge_tracks", "cap_counts")
SINGLE_TARGET = (
    ("single_target.update_distribution", "update_distribution"),
    ("single_target.predict_distribution", "predict_distribution"),
    ("single_target.birth_posterior", "birth_posterior"),
    ("models.log_predictive_likelihood", "log_predictive_likelihood"),
)


class Tracer:
    """Span and counter aggregation for one pass over a workload."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.mass: dict[str, float] = defaultdict(float)
        # Weight removed by the passes, one entry per apply_pipeline call
        # (one per scan); the caller reconciles it with the scan records.
        self.scan_mass: list[float] = []
        self._open: list[float] = []  # time covered by children, per open span
        self._passes: list[str] = []  # passes currently running, innermost last

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, *args)`` runs once it closes."""

        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self.total[name] += dt
                self.self_time[name] += dt - self._open.pop()
                self.count[name + ".calls"] += 1
                if self._open:
                    self._open[-1] += dt
            if after is not None:
                after(out, *args)
            return out

        return traced

    def _pass(self, name, fn):
        timed = self.wrap(name, fn)

        def traced(state, *args, **kwargs):
            tracks, hyps, weight = len(state.tracks), len(state.hypotheses), state.total_weight()
            self._passes.append(name)
            try:
                out = timed(state, *args, **kwargs)
            finally:
                self._passes.pop()
            removed = weight - out.total_weight()
            self.count[name + ".tracks_removed"] += tracks - len(out.tracks)
            self.count[name + ".hyps_removed"] += hyps - len(out.hypotheses)
            if name.endswith("merge_tracks"):
                # Substituting the kept track folds hypotheses; nothing is dropped.
                self.count[name + ".merges"] += hyps - len(out.hypotheses)
            self.mass[name + ".mass_removed"] += removed
            self.scan_mass[-1] += removed
            return out

        return traced

    def _marginalize(self, fn):
        def traced(state, victims):
            out = fn(state, victims)
            if self._passes:
                self.count[self._passes[-1] + ".merges"] += len(state.hypotheses) - len(out.hypotheses)
            return out

        return traced

    def _make_gate(self, fn):
        def accepted(ok, *args):
            if ok:
                self.count["approximations.gate.accepted"] += 1

        def traced(*args, **kwargs):
            return self.wrap("approximations.gate", fn(*args, **kwargs), after=accepted)

        return traced

    def _pipeline(self, fn):
        def kept(out, state, *args):
            self.count["approximations.pipeline.hyps_in"] += len(state.hypotheses)
            self.count["approximations.pipeline.hyps_kept"] += len(out.hypotheses)

        timed = self.wrap("approximations.apply_pipeline", fn, after=kept)

        def traced(*args, **kwargs):
            self.scan_mass.append(0.0)
            return timed(*args, **kwargs)

        return traced

    def _updated(self, out, *args):
        self.count["engine.update.hyps_out"] += len(out.hypotheses)
        self.count["engine.update.tracks_out"] += len(out.tracks)

    @contextmanager
    def installed(self):
        """Route the program's calls through this tracer for the ``with`` block."""
        patches = [
            (runner, "filter_scans", self.wrap("runner.filter_scans", runner.filter_scans)),
            (runner, "predict", self.wrap("engine.predict", runner.predict)),
            (runner, "update", self.wrap("engine.update", runner.update, after=self._updated)),
            (runner, "apply_pipeline", self._pipeline(runner.apply_pipeline)),
            (runner, "make_gate", self._make_gate(runner.make_gate)),
            (runner, "extract_tracks", self.wrap("estimation.extract_tracks", runner.extract_tracks)),
            (runner, "map_hypothesis", self.wrap("estimation.map_hypothesis", runner.map_hypothesis)),
            (estimation, "map_hypothesis",
             self.wrap("estimation.map_hypothesis", estimation.map_hypothesis)),
            (approximations, "_marginalize", self._marginalize(approximations._marginalize)),
        ]
        patches += [(engine, attr, self.wrap(name, getattr(engine, attr))) for name, attr in SINGLE_TARGET]
        patches += [
            (approximations, p, self._pass("approximations." + p, getattr(approximations, p)))
            for p in PASSES
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        for module, attr, fn in patches:
            setattr(module, attr, fn)
        try:
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def layers(self) -> dict[str, float]:
        """The per-layer metrics of the pass, by the names BENCHMARK.json lists."""
        t, c = self.total, self.count
        out = {
            "engine.update.s": t["engine.update"],
            "engine.update.self_s": self.self_time["engine.update"],
            "engine.update.hyps_out": c["engine.update.hyps_out"],
            "engine.update.tracks_out": c["engine.update.tracks_out"],
        }
        for name, _ in SINGLE_TARGET + (("approximations.gate", None),):
            out[name + ".s"] = t[name]
            out[name + ".calls"] = c[name + ".calls"]
        gated = c["approximations.gate.calls"]
        out["approximations.gate.accepted"] = c["approximations.gate.accepted"]
        # Without a gate every pairing goes through.
        out["approximations.gate.pass_ratio"] = (
            c["approximations.gate.accepted"] / gated if gated else 1.0
        )
        for p in PASSES:
            name = "approximations." + p
            out[name + ".s"] = t[name]
            for key in ("tracks_removed", "hyps_removed", "merges"):
                out[f"{name}.{key}"] = c[f"{name}.{key}"]
            out[name + ".mass_removed"] = self.mass[name + ".mass_removed"]
        hyps_in = c["approximations.pipeline.hyps_in"]
        out["approximations.kept_ratio"] = (
            c["approximations.pipeline.hyps_kept"] / hyps_in if hyps_in else 1.0
        )
        out["estimation.extract_tracks.s"] = t["estimation.extract_tracks"]
        out["estimation.map_hypothesis.s"] = t["estimation.map_hypothesis"]
        out["runner.filter_scans.self_s"] = self.self_time["runner.filter_scans"]
        return out
