"""Composable cost-control passes over the filter state.

Each pass is individually switchable and is the identity at its neutral
setting (threshold 0, infinite gate, cap at or above the current count).
Removing a track from the state marginalizes the hypotheses over it:
the track is deleted from every hypothesis that contains it, and
hypotheses that become identical merge by adding their weights. Removing
hypotheses deliberately leaves the remaining weights unnormalized; they
sum back to one at the next update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .engine import (
    FilterState,
    HypothesisView,
    TrackTable,
    fold_rows,
    held_tracks,
    padded_rows,
    _ragged,
)
from .models import (
    AugmentedDistribution,
    Mixtures,
    Observation,
    SensorModel,
    matched_moments,
    mixture_moments,
    _check_cap,
    _check_threshold,
    _min_distances,
    _quad_forms,
    _stacked,
)


@dataclass(frozen=True)
class ApproximationConfig:
    """Switchboard for the cost-control passes; ``None`` disables a pass.

    ``birth_cap`` bounds the support of the appearing-target cardinality
    distribution; :class:`~disptrack.config.ScenarioConfig` cuts its birth
    model to it, not the passes.
    """

    presence_threshold: float | None = None
    track_existence_threshold: float | None = None
    hyp_existence_threshold: float | None = None
    max_tracks: int | None = None
    max_hypotheses: int | None = None
    gate_threshold: float | None = None
    birth_cap: int | None = None
    merge_threshold: float | None = None

    def __post_init__(self):
        caps = {"max_tracks": 1, "max_hypotheses": 1, "birth_cap": 0}  # least values
        highs = {"gate_threshold": math.inf, "merge_threshold": math.inf}  # others: 1
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if f.name in caps:
                _check_cap(v, f.name, caps[f.name])
            else:
                _check_threshold(v, f.name, highs.get(f.name, 1.0))


# Documented defaults for running all passes together: conservative
# thresholds that keep desk-scale scenarios fast without visibly moving
# the posterior.
DEFAULT_PIPELINE = ApproximationConfig(
    presence_threshold=1e-3,
    track_existence_threshold=1e-3,
    hyp_existence_threshold=1e-4,
    max_tracks=50,
    max_hypotheses=100,
    gate_threshold=16.0,
    birth_cap=2,
    merge_threshold=0.05,
)

_PAIR_BLOCK = 256  # merge candidate pairs scored per stacked solve


class _Folded(NamedTuple):
    """A state's rows folded over its incoming track ids, before the pass picks its
    rows and renumbers: read like the state, it builds the pass's one state."""

    scan: int
    tracks: TrackTable
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    hypotheses = property(HypothesisView)  # perfbench's tracer counts the folded rows
    top_rows = FilterState.top_rows
    with_rows = FilterState.with_rows


def _marginalize(state: FilterState, victims: np.ndarray) -> FilterState | _Folded:
    """Drop the tracks flagged in ``victims`` from every row and merge the rows that
    become identical, over the incoming track ids.

    The rows are padded with fill ``n`` (the track count), the victims' cells
    overwritten with it, and the table folded. The folded table still lists
    the victims, which no row holds any more; the pass renumbers once, when
    it has also picked its rows (:meth:`~disptrack.engine.FilterState.with_rows`),
    and so builds one state. Renumbering keeps the ids' order, so folding on
    the incoming ids gives the same rows, in the same order, with the same
    sums. With no victim, returns ``state`` itself.
    """
    if not victims.any():
        return state
    n = len(state.tracks)
    pad = padded_rows(state.indptr, state.indices, n)
    pad[np.append(victims, True)[pad]] = n
    return _Folded(state.scan, state.tracks, *fold_rows(pad, state.weights, n))


def prune_by_presence(state: FilterState, threshold: float) -> FilterState:
    """Discard tracks whose probability of presence fell below ``threshold``.

    Such tracks almost surely describe targets that already left the scene.
    Hypotheses are marginalized over the removals, so total weight is kept.
    """
    return prune_by_existence(state, presence_threshold=threshold)


def prune_by_existence(
    state: FilterState,
    track_threshold: float = 0.0,
    hyp_threshold: float = 0.0,
    presence_threshold: float = 0.0,
) -> FilterState:
    """Discard low-presence and low-credibility tracks, then low-weight hypotheses.

    Tracks whose presence is under ``presence_threshold`` or whose existence
    is under ``track_threshold`` are removed together, in one
    marginalization: removing a track leaves every other track's existence
    as it was, so both sets are read from the state as given. Hypothesis
    removal then applies to the folded weights; it does not renormalize the
    survivors (the weights sum back to one at the next update), and tracks
    orphaned by it are dropped. The heaviest hypothesis (canonically
    earliest among equals) always survives. The tracks are renumbered once,
    after both removals.
    """
    _check_threshold(presence_threshold, "presence threshold")
    _check_threshold(track_threshold, "track existence threshold")
    _check_threshold(hyp_threshold, "hypothesis existence threshold")
    victims = state.tracks.dists.presence < presence_threshold
    if track_threshold > 0.0:
        victims |= state.existence() < track_threshold
    out = _marginalize(state, victims)
    kept = out.weights >= hyp_threshold
    if not kept.any():
        kept[out.top_rows(1)] = True
    return state if out is state and kept.all() else out.with_rows(kept)


def cap_counts(
    state: FilterState,
    max_tracks: int | None = None,
    max_hypotheses: int | None = None,
) -> FilterState:
    """Bound the track and hypothesis counts by discarding the least credible.

    Ties at the cut break by canonical path (respectively hypothesis) order,
    keeping the canonically earliest. Same marginalization and orphan rules
    as the threshold prunes; hypothesis weights are not renormalized. The
    tracks are renumbered once, after both caps.
    """
    for cap, name in ((max_tracks, "max_tracks"), (max_hypotheses, "max_hypotheses")):
        if cap is not None:
            _check_cap(cap, name)
    out = state
    if max_tracks is not None and len(state.tracks) > max_tracks:
        ranked = np.argsort(-state.existence(), kind="stable")
        victims = np.zeros(len(state.tracks), dtype=bool)
        victims[ranked[max_tracks:]] = True
        out = _marginalize(state, victims)
    kept = np.ones(len(out.weights), dtype=bool)
    if max_hypotheses is not None and len(out.weights) > max_hypotheses:
        kept = np.zeros(len(out.weights), dtype=bool)
        kept[out.top_rows(max_hypotheses)] = True
    return state if out is state and kept.all() else out.with_rows(kept)


def mahalanobis_sq(dist: AugmentedDistribution, obs: Observation, sensor: SensorModel) -> float:
    """Smallest squared Mahalanobis distance of ``obs`` over the mixture components, ``inf``
    for an empty mixture: the one-pair form of :func:`~disptrack.models.score_scan`'s gate."""
    owner, _, _, S, resid = _stacked(Mixtures.of([dist]), obs.value[None], sensor)
    return float(_min_distances(owner, S, resid, 1)[0, 0])


def make_gate(sensor: SensorModel, threshold: float):
    """The one-pair gate: ``(dist, obs)`` passes when ``mahalanobis_sq`` is at most ``threshold``.

    ``threshold`` is a nonnegative number (``inf`` accepts everything). The
    predicate keeps no state; ``update`` gates whole scans through
    ``gate_threshold`` and does not call it.
    """
    _check_threshold(threshold, "gate threshold", math.inf)
    return lambda dist, obs: mahalanobis_sq(dist, obs, sensor) <= threshold


def _merged(presence, alpha, a: np.ndarray, b: np.ndarray, means, covs) -> Mixtures:
    """Row ``k``: tracks ``a[k]`` and ``b[k]`` as one, their moments matched by existence.

    The pair's presence and one :func:`~disptrack.models.matched_moments`
    Gaussian, both weighted by existence (evenly when both are zero).
    """
    pair = np.stack([a, b], axis=1)
    w = alpha[pair]
    w[~(w.sum(axis=1) > 0.0)] = 0.5
    w /= w.sum(axis=1, keepdims=True)
    mean, cov = matched_moments(w, means[pair], covs[pair])
    merged = np.clip((w * presence[pair]).sum(axis=1), 0.0, 1.0)
    return Mixtures(merged, np.arange(len(a)), np.ones(len(a)), mean, cov)


def _cooccurrence(pad: np.ndarray, n: int) -> np.ndarray:
    """(n, n) boolean matrix over ``n`` tracks: True where two tracks share a row of
    ``pad``, the hypothesis rows padded with fill ``n`` (:func:`~disptrack.engine.padded_rows`)."""
    co = np.zeros((n + 1, n + 1), dtype=bool)
    for i, j in combinations(range(pad.shape[1]), 2):
        co[pad[:, i], pad[:, j]] = True
    co = co[:n, :n]
    return co | co.T


def _pair_distances(alpha, means, covs, first, second) -> np.ndarray:
    """Squared Mahalanobis distance between each pair's means under the pooled covariance.

    The pooled covariance is the existence-weighted average of the pair's
    (an even split when both existences are zero). Pairs are solved in
    stacked blocks of ``_PAIR_BLOCK`` to bound the temporaries.
    """
    out = np.empty(len(first))
    for start in range(0, len(first), _PAIR_BLOCK):
        a, b = first[start : start + _PAIR_BLOCK], second[start : start + _PAIR_BLOCK]
        wa, wb = alpha[a][:, None, None], alpha[b][:, None, None]
        ca, cb = covs[a], covs[b]
        total = wa + wb
        pooled = 0.5 * (ca + cb)
        weighted = total[:, 0, 0] > 0.0
        pooled[weighted] = (wa * ca + wb * cb)[weighted] / total[weighted]
        out[start : start + len(a)] = _quad_forms(pooled, means[a] - means[b])
    return out


def _pair_bounds(alpha, means, covs, first, second) -> np.ndarray:
    """|mean gap|^2 / tr(pooled covariance): never above :func:`_pair_distances`, as λmax <= tr."""
    even = alpha[first] + alpha[second] == 0.0
    wa, wb = np.where(even, 0.5, alpha[first]), np.where(even, 0.5, alpha[second])
    traces = np.trace(covs, axis1=1, axis2=2)
    gap = ((means[first] - means[second]) ** 2).sum(axis=1)
    return gap * (wa + wb) / (wa * traces[first] + wb * traces[second])


def _swept_pairs(ids: np.ndarray, means, covs, d_threshold: float):
    """Pairs ``(first, second)``, first < second, of ``ids`` whose means' first coordinates
    differ by at most the larger of their two reaches, sqrt(d_threshold * trace) (1 + 1e-6).

    They hold every pair whose :func:`_pair_bounds` is under ``d_threshold``
    (1 + 1e-9): that bound is at least |mean gap|^2 over the larger trace, and
    so at least the first coordinates' gap squared over it. After one sort by
    that coordinate, each track sweeps ahead by the largest reach at or ahead
    of it, which covers each pair's larger reach; the swept pairs are then
    held to it.
    """
    x = means[ids, 0]
    order = x.argsort(kind="stable")
    ids, x = ids[order], x[order]
    reach = np.full(len(x), math.inf)  # an infinite threshold reaches every track
    if d_threshold < math.inf:
        reach = np.sqrt(d_threshold * np.trace(covs[ids], axis1=1, axis2=2)) * (1.0 + 1e-6)
    far = np.maximum.accumulate(reach[::-1])[::-1]
    at = np.arange(len(x))
    a, b = _ragged(np.searchsorted(x, x + far, side="right") - at - 1, at + 1)
    kept = x.take(b) - x.take(a) <= np.maximum(reach.take(a), reach.take(b))
    a, b = ids.take(a[kept]), ids.take(b[kept])
    return np.minimum(a, b), np.maximum(a, b)


def merge_tracks(state: FilterState, d_threshold: float) -> FilterState:
    """Collapse near-identical tracks that never co-occur in a hypothesis.

    Tracks sharing a hypothesis are, by construction, candidates for two
    distinct targets and are never merged. The remaining pairs are tested by
    the squared Mahalanobis distance between the tracks' moment-matched
    means under their existence-weighted pooled covariance; it depends only
    on the moments before the pass, so every pair is scored before the
    greedy loop, and only where its lower bound (:func:`_pair_bounds`) is
    under the threshold. The pairs that bound can pass are found without
    listing every pair, by one sort and sweep over the means' first
    coordinate (:func:`_swept_pairs`), and those sharing a hypothesis are
    then dropped. Close pairs are processed greedily in descending
    combined-existence order, each track merging at most once per pass. The
    merged track keeps the path and display status of the
    higher-existence member; its presence is the pair's existence-weighted
    average and its spatial part one moment-matched Gaussian: the
    existence-weighted mean and covariance of the pair's scored moments. A
    pair is skipped when the substitution would put incompatible paths into
    one hypothesis, counting the substitutions made earlier in the pass. The
    output table is built in one take, which swaps each kept member's row
    for its merged row and leaves out the merged-away members. The rows are
    padded once: the co-occurrence matrix and the fold read that one table.
    """
    _check_threshold(d_threshold, "merge threshold", math.inf)
    alpha = state.existence()
    tracks = state.tracks
    dists = tracks.dists
    n = len(tracks)
    spatial = np.bincount(dists.owner, minlength=n).nonzero()[0]  # tracks with a spatial mixture
    if len(spatial) < 2:
        return state
    means, covs = mixture_moments(dists)
    first, second = _swept_pairs(spatial, means, covs, d_threshold)
    if not len(first):
        return state
    pad = padded_rows(state.indptr, state.indices, n)
    co = _cooccurrence(pad, n)
    apart = ~co[first, second]
    first, second = first[apart], second[apart]
    bound = _pair_bounds(alpha, means, covs, first, second)
    near = ~np.isfinite(bound) | (bound < d_threshold * (1.0 + 1e-9))  # margin: rounding
    first, second = first[near], second[near]
    close = ~(_pair_distances(alpha, means, covs, first, second) >= d_threshold)
    first, second = first[close], second[close]
    if not len(first):
        return state
    order = np.lexsort((second, first, -(alpha[first] + alpha[second])))
    paths = tracks.paths
    obs_bit: dict = {}
    masks: dict[int, int] = {}

    def obs_mask(i: int) -> int:
        """Bitmask of track ``i``'s observations, built when first asked for."""
        if i not in masks:
            masks[i] = sum(1 << obs_bit.setdefault(o, len(obs_bit)) for o in paths[i].detections)
        return masks[i]

    # Each track id stands for itself until a merge folds it into another.
    stands_for = list(range(n))
    merged: list[tuple[int, int]] = []
    consumed: set[int] = set()
    existence = alpha.tolist()
    shares_a_row = co.any(axis=1).tolist()
    for a, b in zip(first[order].tolist(), second[order].tolist()):
        if a in consumed or b in consumed:
            continue
        # Keep the higher-existence member's path (ties: canonical order,
        # which is how the pair was generated).
        if existence[b] > existence[a]:
            a, b = b, a
        # The kept path must stay compatible inside every hypothesis that
        # held the dropped one, as earlier merges have relabelled it; a track
        # that shares no row is alone in each of its hypotheses.
        if shares_a_row[b]:
            held_with_b = 0
            for p in np.flatnonzero(co[b]).tolist():
                held_with_b |= obs_mask(stands_for[p])
            if held_with_b & obs_mask(a):
                continue
        merged.append((a, b))
        stands_for[b] = a
        consumed.update((a, b))
    if not merged:
        return state
    # A kept track's row becomes its merged row, appended to the table; the
    # merged-away tracks, which no row holds any more, leave in the same take.
    # The relabelled table's fill, n, stays above every renumbered id.
    a, b = np.array(merged).T
    src = np.arange(n)
    src[a] = n + np.arange(len(a))
    held, pad = held_tracks(n + 1, np.append(stands_for, n).astype(pad.dtype)[pad])
    ids = held[:n].nonzero()[0]
    rows = _merged(dists.presence, alpha, a, b, means, covs)
    dists = Mixtures.concat(dists, rows).take(src[ids])
    tracks = TrackTable([paths[i] for i in ids.tolist()], tracks.displayed[ids], dists)
    indptr, indices, weights = fold_rows(pad, state.weights, len(ids))
    return FilterState.from_table(state.scan, tracks, indptr, indices, weights)


def apply_pipeline(state: FilterState, cfg: ApproximationConfig) -> FilterState:
    """Run the enabled passes in their cheap-first order.

    Mass removals (presence, existence thresholds) run first, as one
    :func:`prune_by_existence` call that folds the table once, then the
    pairwise merge, the hard caps last. Gating is not applied here: it acts
    at association time inside the update.
    """
    prunes = cfg.presence_threshold, cfg.track_existence_threshold, cfg.hyp_existence_threshold
    if any(t is not None for t in prunes):
        state = prune_by_existence(
            state,
            cfg.track_existence_threshold or 0.0,
            cfg.hyp_existence_threshold or 0.0,
            presence_threshold=cfg.presence_threshold or 0.0,
        )
    if cfg.merge_threshold is not None:
        state = merge_tracks(state, cfg.merge_threshold)
    if cfg.max_tracks is not None or cfg.max_hypotheses is not None:
        state = cap_counts(state, cfg.max_tracks, cfg.max_hypotheses)
    return state
