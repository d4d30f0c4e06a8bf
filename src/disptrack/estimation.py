"""Consumer-facing statistics: MAP hypothesis and track extraction.

Extraction works on the most credible hypothesis only and applies a
confirm/de-confirm hysteresis on each track's probability of existence so
that the displayed set does not flicker when a track's credibility dwells
between the two thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import FilterState, Hypothesis, ObservationPath, Track, TrackTable
from .models import StateSpace, _check_threshold


@dataclass(frozen=True)
class ExtractionConfig:
    """Hysteresis thresholds plus the presence floor for display."""

    confirm_threshold: float = 0.98
    deconfirm_threshold: float = 0.90
    presence_display_floor: float = 0.02

    def __post_init__(self):
        for name in ("confirm_threshold", "deconfirm_threshold", "presence_display_floor"):
            _check_threshold(getattr(self, name), name)
        if not self.deconfirm_threshold < self.confirm_threshold:
            raise ValueError(
                "deconfirm_threshold must be strictly below confirm_threshold, got "
                f"{self.deconfirm_threshold} >= {self.confirm_threshold}"
            )


@dataclass(frozen=True)
class TrackEstimate:
    """One extracted target: identity, credibility, presence and point estimate."""

    track_id: ObservationPath
    existence: float
    presence: float
    point: np.ndarray
    displayed: bool


def map_hypothesis(state: FilterState) -> Hypothesis:
    """The hypothesis with the highest probability of existence.

    Ties break deterministically toward the canonically smallest hypothesis
    (fewest tracks, then lexicographic track order).
    """
    if not len(state.weights):
        raise ValueError("hypothesis set is empty: invalid filter state")
    return state.hypotheses[state.top_rows(1)[0]]


def point_estimate(track: Track, space: StateSpace) -> np.ndarray:
    """State estimate for one track: mean of the heaviest mixture component.

    The estimate is clamped onto the state-space bounds. Requires a positive
    probability of presence; an absent target has no meaningful point.
    """
    if track.dist.presence <= 0.0:
        raise ValueError(f"track {track.path} has zero presence, no point estimate")
    best = max(track.dist.spatial, key=lambda c: c.weight)
    return space.clamp(best.mean)


def extract_tracks(
    state: FilterState,
    cfg: ExtractionConfig,
    space: StateSpace,
) -> tuple[FilterState, list[TrackEstimate], Hypothesis]:
    """Extract the display-worthy tracks of the MAP hypothesis.

    A track is shown when it is in the MAP hypothesis and its existence
    exceeds the confirmation threshold, or it was shown before and its
    existence exceeds the lower de-confirmation threshold; every other track
    has its display status cleared. The estimates are the shown tracks whose
    probability of presence is at or above the display floor; a track with
    zero presence has no point estimate and is withheld whatever the floor.

    Returns the state with refreshed display flags, the estimates in
    canonical track order, and the MAP hypothesis.
    """
    best = map_hypothesis(state)
    table = state.tracks
    member = np.zeros(len(table.paths), dtype=bool)
    member[[table.index(p) for p in best.tracks]] = True
    alpha = state.existence(member)  # shown needs members only
    shown = member & (
        (alpha > cfg.confirm_threshold) | (table.displayed & (alpha > cfg.deconfirm_threshold))
    )
    presence = table.dists.presence
    listed = shown & (presence > 0.0) & (presence >= cfg.presence_display_floor)
    estimates = [
        TrackEstimate(
            table.paths[i],
            float(alpha[i]),
            float(presence[i]),
            point_estimate(table.track(i), space),
            True,
        )
        for i in np.flatnonzero(listed).tolist()
    ]
    tracks = TrackTable(table.paths, shown, table.dists)
    out = FilterState.from_table(state.scan, tracks, state.indptr, state.indices, state.weights)
    return out, estimates, best
