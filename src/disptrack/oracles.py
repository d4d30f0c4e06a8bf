"""Brute-force reference computations for validating the recursion.

The oracles deliberately share no association or weighting code with the
engine: consistent subsets come from raw power-set enumeration, the joint
posterior from a direct walk over every association history with plain
linear-domain arithmetic and scipy densities, and one scan's associations
from explicit subset, bijection and birth-subset enumeration with a
per-association weight. They exist to catch engine bugs, so they stay
simple and exponential; the two posterior oracles have hard input limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.stats import multivariate_normal

from .engine import FilterState, Hypothesis, ObservationPath, newborn_path
from .models import (
    BirthModel,
    MotionModel,
    Observation,
    SensorModel,
    log_predictive_likelihood,
)
from .single_target import missdetection_mass

MAX_ORACLE_PATHS = 20
MAX_ORACLE_SCANS = 2
MAX_ORACLE_OBS_PER_SCAN = 2
MAX_ORACLE_BIRTHS = 2

HypKey = tuple[ObservationPath, ...]
GatePredicate = Callable[[Optional[ObservationPath], Observation], bool]


@dataclass(frozen=True)
class Association:
    """One admissible way of explaining a scan for a given prior hypothesis.

    ``detected`` pairs each detected track with the observation it produced
    (the bijection lives here); ``birth_obs`` lists the observations
    attributed to appearing targets; every remaining scan observation is a
    false alarm.
    """

    detected: tuple[tuple[ObservationPath, Observation], ...]
    birth_obs: tuple[Observation, ...]


def enumerate_associations(
    h: Hypothesis,
    n: int,
    scan_obs: Sequence[Observation],
    gate: GatePredicate | None = None,
) -> list[Association]:
    """All admissible associations for prior hypothesis ``h`` and ``n`` births.

    Enumerates every choice of detected-track subset, detection bijection
    and birth-observation subset of size exactly ``n``; observations left
    unassigned are false alarms. A gate predicate, when supplied, drops
    associations pairing a track (or an appearing target, signalled by a
    ``None`` path) with an implausible observation. Deterministic order:
    detected subsets in track order, bijections and birth subsets in
    lexicographic observation order.
    """
    if n < 0:
        raise ValueError("birth count must be nonnegative")
    obs = sorted(scan_obs, key=lambda o: o.id)
    members = tuple(sorted(h.tracks))
    out: list[Association] = []
    for d_size in range(min(len(members), len(obs)) + 1):
        for h_d in combinations(members, d_size):
            for chosen in permutations(obs, d_size):
                if gate is not None and any(
                    not gate(y, z) for y, z in zip(h_d, chosen)
                ):
                    continue
                used = {z.id for z in chosen}
                rest = [z for z in obs if z.id not in used]
                if n > len(rest):
                    continue
                for born in combinations(rest, n):
                    if gate is not None and any(not gate(None, z) for z in born):
                        continue
                    out.append(Association(tuple(zip(h_d, chosen)), born))
    return out


def association_weight(
    h: Hypothesis,
    assoc: Association,
    scan_obs: Sequence[Observation],
    birth: BirthModel,
    sensor: SensorModel,
    state: FilterState,
) -> float:
    """Log weight of one association scheme (before the cardinality and prior factors).

    Product, in log domain, of the detection predictive masses for detected
    tracks and birth observations, the miss mass for every undetected
    track, and the false-alarm odds for every scan observation. Returns
    ``-inf`` for zero-probability schemes.
    """
    detected = dict(assoc.detected)
    logw = 0.0
    for path, z in assoc.detected:
        logw += log_predictive_likelihood(state.tracks[path].dist, z, sensor)
    for path in h.tracks:
        if path not in detected:
            mass = missdetection_mass(state.tracks[path].dist, sensor)
            logw += math.log(mass) if mass > 0.0 else -math.inf
    for z in assoc.birth_obs:
        logw += log_predictive_likelihood(birth.spatial, z, sensor)
    assigned = len(assoc.detected) + len(assoc.birth_obs)
    n_fa = len(scan_obs) - assigned
    if assigned:
        logw += assigned * math.log1p(-sensor.p_fa)
    if n_fa:
        logw += n_fa * math.log(sensor.p_fa) if sensor.p_fa > 0.0 else -math.inf
    return logw


def oracle_consistent_subsets(paths: Iterable[ObservationPath]) -> set[HypKey]:
    """Every subset of ``paths`` whose members are pairwise compatible.

    Straight power-set sweep; refuses more than 20 paths.
    """
    items = sorted(set(paths))
    n = len(items)
    if n > MAX_ORACLE_PATHS:
        raise ValueError(f"refusing to enumerate 2**{n} subsets (limit {MAX_ORACLE_PATHS} paths)")
    obs_sets = [set(p.detections) for p in items]
    compat = [0] * n
    for i in range(n):
        mask = 0
        for j in range(n):
            if i != j and not obs_sets[i] & obs_sets[j]:
                mask |= 1 << j
        compat[i] = mask

    valid = [False] * (1 << n)
    valid[0] = True
    out: set[HypKey] = {()}
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        if valid[rest] and (compat[low] & rest) == rest:
            valid[s] = True
            out.add(tuple(items[i] for i in range(n) if s >> i & 1))
    return out


def _pdf(z: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    return float(multivariate_normal.pdf(z, mean=mean, cov=cov, allow_singular=False))


class _Dist:
    """Linear-domain augmented distribution for the oracle walk."""

    __slots__ = ("q", "comps")

    def __init__(self, q: float, comps: list[tuple[float, np.ndarray, np.ndarray]]):
        self.q = q
        self.comps = comps


def _predict(d: _Dist, motion: MotionModel) -> _Dist:
    F, Q = motion.F, motion.Q
    return _Dist(d.q * motion.p_s, [(w, F @ m, F @ P @ F.T + Q) for w, m, P in d.comps])


def _detection_mass(d: _Dist, z: np.ndarray, sensor: SensorModel) -> float:
    H, R = sensor.H, sensor.R
    return d.q * sensor.p_d * sum(w * _pdf(z, H @ m, H @ P @ H.T + R) for w, m, P in d.comps)


def _miss_mass(d: _Dist, sensor: SensorModel) -> float:
    return (1.0 - d.q) + d.q * (1.0 - sensor.p_d)


def _detected(d: _Dist, z: np.ndarray, sensor: SensorModel) -> _Dist:
    H, R = sensor.H, sensor.R
    comps = []
    for w, m, P in d.comps:
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        comps.append((w * _pdf(z, H @ m, S), m + K @ (z - H @ m), P - K @ S @ K.T))
    total = sum(w for w, _, _ in comps)
    return _Dist(1.0, [(w / total, m, P) for w, m, P in comps])


def _missed(d: _Dist, sensor: SensorModel) -> _Dist:
    q = d.q * (1.0 - sensor.p_d) / _miss_mass(d, sensor)
    return _Dist(q, list(d.comps))


def oracle_joint_posterior(
    motion: MotionModel,
    sensor: SensorModel,
    birth: BirthModel,
    all_scans: Sequence[Sequence[Observation]],
) -> dict[HypKey, float]:
    """Exact posterior over terminal hypotheses by enumerating every history.

    Walks every per-scan choice of detected tracks, detection bijection and
    birth subset from the first scan on, multiplying the per-scan factors
    along each branch, and normalizes once over the terminal accumulation.
    Limits: at most 2 scans, 2 observations per scan, 2 simultaneous births,
    scalar detection probability.
    """
    if len(all_scans) > MAX_ORACLE_SCANS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_SCANS} scans")
    if any(len(z) > MAX_ORACLE_OBS_PER_SCAN for z in all_scans):
        raise ValueError(f"oracle limited to {MAX_ORACLE_OBS_PER_SCAN} observations per scan")
    if birth.max_births > MAX_ORACLE_BIRTHS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_BIRTHS} simultaneous births")
    if callable(sensor.p_d):
        raise ValueError("oracle supports scalar detection probability only")

    card = [float(c) for c in birth.cardinality]
    p_fa = sensor.p_fa
    birth_dist = _Dist(1.0, [(c.weight, c.mean, c.cov) for c in birth.spatial.spatial])

    branches: list[tuple[dict[ObservationPath, _Dist], float]] = [({}, 1.0)]
    for scan_obs in all_scans:
        obs = sorted(scan_obs, key=lambda o: o.id)
        grown: list[tuple[dict[ObservationPath, _Dist], float]] = []
        for tracks, weight in branches:
            pred = {p: _predict(d, motion) for p, d in tracks.items()}
            paths = sorted(pred)
            for d_size in range(min(len(paths), len(obs)) + 1):
                for det_paths in combinations(paths, d_size):
                    undetected = [p for p in paths if p not in det_paths]
                    if any(_miss_mass(pred[p], sensor) <= 0.0 for p in undetected):
                        continue
                    miss_factor = math.prod(_miss_mass(pred[p], sensor) for p in undetected)
                    for chosen in permutations(obs, d_size):
                        if sensor.p_d <= 0.0 and d_size > 0:
                            continue
                        if any(pred[p].q <= 0.0 for p in det_paths):
                            continue
                        det_factor = math.prod(
                            _detection_mass(pred[p], z.value, sensor)
                            for p, z in zip(det_paths, chosen)
                        )
                        used = {z.id for z in chosen}
                        rest = [z for z in obs if z.id not in used]
                        for n in range(len(card)):
                            if n > len(rest):
                                continue
                            for born in combinations(rest, n):
                                n_fa = len(obs) - d_size - n
                                birth_factor = math.prod(
                                    _detection_mass(birth_dist, z.value, sensor) for z in born
                                )
                                factor = (
                                    card[n]
                                    * det_factor
                                    * miss_factor
                                    * birth_factor
                                    * (1.0 - p_fa) ** (d_size + n)
                                    * p_fa**n_fa
                                )
                                new_tracks = {
                                    p: _missed(pred[p], sensor) for p in undetected
                                }
                                for p, z in zip(det_paths, chosen):
                                    new_tracks[p.extended(z.id)] = _detected(
                                        pred[p], z.value, sensor
                                    )
                                for z in born:
                                    new_tracks[newborn_path(z.id)] = _detected(
                                        birth_dist, z.value, sensor
                                    )
                                grown.append((new_tracks, weight * factor))
        branches = grown

    totals: dict[HypKey, float] = {}
    for tracks, weight in branches:
        key = tuple(sorted(tracks))
        totals[key] = totals.get(key, 0.0) + weight
    norm = math.fsum(totals.values())
    if norm <= 0.0:
        raise ValueError("joint posterior is degenerate: every history has zero probability")
    return {k: v / norm for k, v in totals.items()}
