"""Why extraction uses two thresholds.

A track's credibility (the summed weight of the hypotheses containing it)
fluctuates scan to scan. Display is confirmed above the high threshold,
kept while credibility stays above the lower one, and cleared below it, so
the output does not flicker.
"""

import numpy as np

import disptrack as dt

cfg = dt.ExtractionConfig(
    confirm_threshold=0.98, deconfirm_threshold=0.90, presence_display_floor=0.02
)
space = dt.StateSpace(1, np.array([[-50.0, 50.0]]))
path = dt.ObservationPath(0, ((0, 0),))


def snapshot(existence, displayed):
    track = dt.Track(
        path,
        dt.AugmentedDistribution(
            1.0, (dt.GaussianComponent(1.0, np.array([1.5]), np.array([[0.4]])),)
        ),
        displayed,
    )
    hyps = [dt.Hypothesis((path,), existence), dt.Hypothesis((), 1.0 - existence)]
    return dt.FilterState(0, {path: track}, hyps)


trajectory = [0.40, 0.85, 0.99, 0.95, 0.92, 0.97, 0.91, 0.70, 0.95]
displayed = False

print(f"confirm > {cfg.confirm_threshold}, keep while > {cfg.deconfirm_threshold}")
print()
print("scan  existence  displayed  extracted")
for scan, alpha in enumerate(trajectory):
    state = snapshot(alpha, displayed)
    state, estimates, _ = dt.extract_tracks(state, cfg, space)
    displayed = state.tracks[path].displayed
    print(f"{scan:>4}  {alpha:9.2f}  {str(displayed):>9}  {str(bool(estimates)):>9}")

print()
print("The dips to 0.95..0.91 stay displayed (hysteresis); the drop to 0.70")
print("clears the status, and 0.95 alone is not enough to re-confirm.")
