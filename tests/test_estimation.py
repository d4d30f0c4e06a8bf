"""MAP hypothesis selection and hysteresis track extraction."""

import pytest

from disptrack import (
    ExtractionConfig,
    FilterState,
    Hypothesis,
    ObservationPath,
    Track,
    extract_tracks,
    map_hypothesis,
    point_estimate,
)

from helpers import dist, space_1d

P1 = ObservationPath(0, ((0, 0),))
P2 = ObservationPath(0, ((0, 1),))


def track(p, presence=1.0, mean=0.0, displayed=False, extra=None):
    comps = [(1.0, mean, 1.0)] if extra is None else extra
    return Track(p, dist(presence, *comps), displayed)


def state_of(tracks, hypotheses):
    return FilterState(0, {t.path: t for t in tracks}, [Hypothesis(k, w) for k, w in hypotheses])


class TestMapHypothesis:
    def test_single_hypothesis(self):
        s = state_of([track(P1)], [((P1,), 1.0)])
        assert map_hypothesis(s).tracks == (P1,)

    def test_argmax(self):
        s = state_of([track(P1)], [((P1,), 0.6), ((), 0.4)])
        assert map_hypothesis(s).tracks == (P1,)

    def test_tie_breaks_to_canonical_order(self):
        s = state_of([track(P1), track(P2)], [((P2,), 0.5), ((P1,), 0.5)])
        assert map_hypothesis(s).tracks == (P1,)
        s2 = state_of([track(P1)], [((P1,), 0.5), ((), 0.5)])
        assert map_hypothesis(s2).tracks == ()  # fewer tracks wins ties

    def test_empty_set_invalid(self):
        s = FilterState(0, {}, [])
        with pytest.raises(ValueError):
            map_hypothesis(s)


class TestPointEstimate:
    def test_single_component_mean(self):
        t = track(P1, mean=2.5)
        assert point_estimate(t, space_1d())[0] == pytest.approx(2.5)

    def test_heaviest_component_wins(self):
        t = track(P1, extra=[(0.7, -1.0, 1.0), (0.3, 3.0, 1.0)])
        assert point_estimate(t, space_1d())[0] == pytest.approx(-1.0)

    def test_out_of_bounds_clamped(self):
        t = track(P1, mean=500.0)
        assert point_estimate(t, space_1d(-100, 100))[0] == 100.0

    def test_zero_presence_rejected(self):
        t = Track(P1, dist(0.0, (1.0, 0.0, 1.0)), False)
        with pytest.raises(ValueError):
            point_estimate(t, space_1d())


class TestExtractionConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"confirm_threshold": True},
            {"deconfirm_threshold": False},
            {"presence_display_floor": float("nan")},
        ],
    )
    def test_invalid_thresholds_rejected(self, overrides):
        # A boolean used to load as a threshold of 1 or 0.
        with pytest.raises(ValueError, match=next(iter(overrides))):
            ExtractionConfig(**overrides)


class TestExtraction:
    CFG = ExtractionConfig(confirm_threshold=0.98, deconfirm_threshold=0.90,
                           presence_display_floor=0.02)

    def test_confirmation_displays_new_track(self):
        s = state_of([track(P1)], [((P1,), 0.99), ((), 0.01)])
        out, est, _ = extract_tracks(s, self.CFG, space_1d())
        assert [e.track_id for e in est] == [P1]
        assert out.tracks[P1].displayed

    def test_dwell_keeps_displayed_track(self):
        s = state_of([track(P1, displayed=True)], [((P1,), 0.95), ((), 0.05)])
        out, est, _ = extract_tracks(s, self.CFG, space_1d())
        assert [e.track_id for e in est] == [P1]
        assert out.tracks[P1].displayed

    def test_dwell_does_not_confirm_fresh_track(self):
        s = state_of([track(P1, displayed=False)], [((P1,), 0.95), ((), 0.05)])
        out, est, _ = extract_tracks(s, self.CFG, space_1d())
        assert est == []
        assert not out.tracks[P1].displayed

    def test_drop_below_deconfirm_clears_status(self):
        s = state_of([track(P1, displayed=True)], [((P1,), 0.5), ((), 0.5)])
        out, est, _ = extract_tracks(s, self.CFG, space_1d())
        assert est == []
        assert not out.tracks[P1].displayed

    def test_tracks_outside_map_hypothesis_cleared(self):
        s = state_of(
            [track(P1, displayed=True), track(P2, displayed=True)],
            [((P1,), 0.99), ((P2,), 0.01)],
        )
        out, est, _ = extract_tracks(s, self.CFG, space_1d())
        assert [e.track_id for e in est] == [P1]
        assert not out.tracks[P2].displayed

    def test_presence_floor_withholds_output(self):
        s = state_of([track(P1, presence=0.01)], [((P1,), 0.99), ((), 0.01)])
        out, est, _ = extract_tracks(s, self.CFG, space_1d())
        assert est == []
        # The hysteresis flag is still driven by existence.
        assert out.tracks[P1].displayed

    def test_confirmed_track_with_zero_presence_withheld(self):
        # With p_d = 1 a missed target drops to presence 0 while staying
        # confirmed; a zero floor must not send it to point_estimate.
        cfg = ExtractionConfig(presence_display_floor=0.0)
        s = state_of([track(P1, presence=0.0, displayed=True)], [((P1,), 0.99), ((), 0.01)])
        out, est, _ = extract_tracks(s, cfg, space_1d())
        assert est == []
        assert out.tracks[P1].displayed

    def test_flicker_free_dwell(self):
        # Existence held between the thresholds: status never toggles.
        s = state_of([track(P1)], [((P1,), 0.99), ((), 0.01)])
        s, est, _ = extract_tracks(s, self.CFG, space_1d())
        assert est
        for _ in range(10):
            s = state_of(
                [track(P1, displayed=s.tracks[P1].displayed)],
                [((P1,), 0.94), ((), 0.06)],
            )
            s, est, _ = extract_tracks(s, self.CFG, space_1d())
            assert [e.track_id for e in est] == [P1]
            assert s.tracks[P1].displayed

    def test_estimates_are_deterministic(self):
        s = state_of(
            [track(P1, mean=1.0), track(P2, mean=-1.0)],
            [((P1, P2), 0.99), ((), 0.01)],
        )
        out1 = extract_tracks(s, self.CFG, space_1d())[1]
        out2 = extract_tracks(s, self.CFG, space_1d())[1]
        assert [(e.track_id, e.point[0]) for e in out1] == [
            (e.track_id, e.point[0]) for e in out2
        ]
