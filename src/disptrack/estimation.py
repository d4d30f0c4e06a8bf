"""Consumer-facing statistics: MAP hypothesis and track extraction.

Extraction works on the most credible hypothesis only and applies a
confirm/de-confirm hysteresis on each track's probability of existence so
that the displayed set does not flicker when a track's credibility dwells
between the two thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import FilterState, Hypothesis, ObservationPath, Track
from .models import StateSpace


@dataclass(frozen=True)
class ExtractionConfig:
    """Hysteresis thresholds plus the presence floor for display."""

    confirm_threshold: float = 0.98
    deconfirm_threshold: float = 0.90
    presence_display_floor: float = 0.02

    def __post_init__(self):
        for name in ("confirm_threshold", "deconfirm_threshold", "presence_display_floor"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
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
) -> tuple[FilterState, list[TrackEstimate]]:
    """Extract the display-worthy tracks of the MAP hypothesis.

    A candidate is extracted (and marked displayed) when its existence
    exceeds the confirmation threshold; a previously displayed candidate
    stays extracted while its existence exceeds the lower de-confirmation
    threshold; below that its display status is cleared. Tracks outside the
    MAP hypothesis are cleared as well. Candidates whose probability of
    presence is under the display floor are withheld from the output.

    Returns the state with refreshed display flags plus the estimates.
    """
    best = map_hypothesis(state)
    member = set(best.tracks)
    alphas = state.existence().tolist()

    new_tracks: dict[ObservationPath, Track] = {}
    estimates: list[TrackEstimate] = []
    for (path, tr), alpha in zip(state.tracks.items(), alphas):
        if path not in member:
            if tr.displayed:
                tr = Track(tr.path, tr.dist, False)
            new_tracks[path] = tr
            continue
        extract = False
        displayed = tr.displayed
        if alpha > cfg.confirm_threshold:
            extract = True
            displayed = True
        elif alpha > cfg.deconfirm_threshold:
            extract = tr.displayed
        else:
            displayed = False
        if displayed != tr.displayed:
            tr = Track(tr.path, tr.dist, displayed)
        new_tracks[path] = tr
        if extract and tr.dist.presence >= cfg.presence_display_floor:
            estimates.append(
                TrackEstimate(
                    track_id=path,
                    existence=alpha,
                    presence=tr.dist.presence,
                    point=point_estimate(tr, space),
                    displayed=tr.displayed,
                )
            )
    estimates.sort(key=lambda e: e.track_id)
    out = FilterState.from_table(state.scan, new_tracks, state.indptr, state.indices, state.weights)
    return out, estimates
