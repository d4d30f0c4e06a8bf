"""The scenario ladder: what each workload sends to ``runner.filter_scans``.

A workload is one filter configuration plus a fixed list of scenes. A scene
is the observation scans one client sends, in order, plus the simulator's
ground truth when the scene is simulated. The benchmark seed decides the
inputs; the program only ever sees the scans. See README.md for why each
workload exists.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from disptrack import GroundTruth, Observation, ScenarioConfig, load_config, simulate

HERE = Path(__file__).resolve().parent

# Simulator seeds of the quality set, fixed up front and never re-picked.
# Scenes drawn from one config differ up to sevenfold in filter cost, so the
# benchmark seed sets the order in which the client sends them, not which
# scenes are drawn; otherwise the run time would measure the draw, not the
# code. The lists are short so that a run holds several passes to take the
# median of.
CLUTTERED_SIM_SEEDS = (0, 1)
SCENE_LARGE_SIM_SEEDS = (0,)

# Exact C9 case: 4 scans x 3 observations, birth of up to two targets per
# scan, no approximation pass. The hypothesis count is fixed by the
# structure alone, whatever the observation values.
EXACT_C9_SCANS = 4
EXACT_C9_OBS_PER_SCAN = 3
EXACT_C9_FINAL = (2_092_741, 255)  # (hypotheses, tracks) after the last scan
EXACT_C9_CONFIG = {
    "model": {"dim": 1, "bounds": [[-60.0, 60.0]], "F": [[1.0]], "Q": [[0.5]], "p_s": 0.95},
    "sensor": {"H": [[1.0]], "R": [[1.0]], "p_d": 0.7, "p_fa": 0.2},
    "birth": {
        "cardinality": [0.4, 0.4, 0.2],
        "spatial": [{"weight": 1.0, "mean": [0.0], "cov": [[25.0]]}],
    },
    "sim": {"scans": EXACT_C9_SCANS, "seed": 0},
}


@dataclass
class Scene:
    scans: list[list[Observation]]
    truth: GroundTruth | None = None


@dataclass
class Workload:
    name: str
    cfg: ScenarioConfig
    scenes: list[Scene]
    # (hypotheses, tracks) every scene must end with, when the structure fixes it.
    final_counts: tuple[int, int] | None = None


def _exact_c9(seed: int, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    scans = [
        [
            Observation((t, k), np.array([float(rng.uniform(-8.0, 8.0))]))
            for k in range(EXACT_C9_OBS_PER_SCAN)
        ]
        for t in range(EXACT_C9_SCANS)
    ]
    return Workload("exact-c9", load_config(EXACT_C9_CONFIG), [Scene(scans)], EXACT_C9_FINAL)


def _simulated(name: str, config: Path, sim_seeds: tuple[int, ...], seed: int) -> Workload:
    cfg = load_config(config)
    order = np.random.default_rng(seed).permutation(len(sim_seeds))
    scenes = []
    for i in order:
        truth, scans = simulate(dataclasses.replace(cfg, seed=sim_seeds[i]))
        scenes.append(Scene(scans, truth))
    return Workload(name, cfg, scenes)


def _cluttered(seed: int, root: Path) -> Workload:
    config = root / "demos" / "configs" / "cluttered.json"
    return _simulated("cluttered", config, CLUTTERED_SIM_SEEDS, seed)


def _scene_large(seed: int, root: Path) -> Workload:
    return _simulated("scene-large", HERE / "scene_large.json", SCENE_LARGE_SIM_SEEDS, seed)


BUILDERS = {"exact-c9": _exact_c9, "cluttered": _cluttered, "scene-large": _scene_large}


def build(name: str, seed: int, root: Path) -> Workload:
    """Generate the workload's inputs from the benchmark seed."""
    return BUILDERS[name](seed, root)
