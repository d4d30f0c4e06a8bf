"""MAP hypothesis selection and hysteresis track extraction."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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

from helpers import dist, reference_extract_tracks, reference_top_rows, space_1d

P1 = ObservationPath(0, ((0, 0),))
P2 = ObservationPath(0, ((0, 1),))
PATHS = [ObservationPath(0, ((0, k),)) for k in range(5)]


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


@st.composite
def extraction_states(draw):
    """Small tables whose weights often tie, are zero or sit on the thresholds of
    ``TestExtraction.CFG``; tracks at zero, sub-floor, floor or full presence,
    shown or not, some held by no row."""
    paths = PATHS[:draw(st.integers(0, len(PATHS)))]
    tracks = [
        track(p, presence=draw(st.sampled_from([0.0, 0.01, 0.02, 1.0])),
              mean=draw(st.floats(-3.0, 3.0)), displayed=draw(st.booleans()))
        for p in paths
    ]
    ids = st.frozensets(st.integers(0, max(len(paths) - 1, 0)), max_size=len(paths))
    rows = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    weights = st.sampled_from([0.0, 0.02, 0.08, 0.45, 0.9, 0.98])
    return state_of(tracks, [(tuple(paths[k] for k in sorted(r)), draw(weights)) for r in rows])


def extraction_bytes(result):
    """Everything an extraction returns, as bytes and exact float spellings."""
    state, estimates, best = result
    return (
        [getattr(state, a).tobytes() for a in ("indptr", "indices", "weights")],
        state.tracks.displayed.tobytes(),
        [(e.track_id, e.existence.hex(), e.presence.hex(), e.point.tobytes(), e.displayed)
         for e in estimates],
        best.tracks,
        best.weight.hex(),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(extraction_states())
# The empty MAP row: the shown track outside it is cleared.
@example(state_of([track(P1, displayed=True)], [((), 0.6), ((P1,), 0.4)]))
# Tied MAP weights: the canonically smaller row wins.
@example(state_of([track(P1), track(P2)], [((P2,), 0.49), ((P1,), 0.49), ((), 0.02)]))
# A shown track outside the MAP row is cleared despite its existence.
@example(state_of([track(P1), track(P2, displayed=True)], [((P2,), 0.98), ((P1,), 0.98)]))
# A confirmed member with zero presence keeps its flag but gives no estimate.
@example(state_of([track(P1, presence=0.0, displayed=True)], [((P1,), 0.98), ((), 0.02)]))
# Existence exactly at the confirmation threshold (fresh track, 0.08 + 0.9) and
# exactly at the de-confirmation threshold (shown track): neither is shown.
@example(state_of([track(P1), track(P2, displayed=True)], [((P1,), 0.08), ((P1, P2), 0.9)]))
@example(state_of([track(P1)], [((P1,), 0.98), ((), 0.02)]))
def test_extraction_matches_the_full_existence_reference(state):
    # extract_tracks sums existence over the MAP row's tracks only; the
    # reference sums every track's. Estimates, flags and the MAP row agree
    # byte for byte.
    cfg, space = TestExtraction.CFG, space_1d()
    got = extraction_bytes(extract_tracks(state, cfg, space))
    assert got == extraction_bytes(reference_extract_tracks(state, cfg, space))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(extraction_states(), st.data())
def test_masked_existence_matches_the_full_sum_bit_for_bit(state, data):
    n = len(state.tracks)
    only = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    full, masked = state.existence(), state.existence(only)
    assert masked[only].tobytes() == full[only].tobytes()
    assert not masked[~only].any()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(extraction_states())
@example(state_of([track(P1), track(P2)], [((P1, P2), 0.0), ((P2,), 0.0), ((), 0.0)]))
@example(state_of([track(P1), track(P2)], [((P2,), 0.0), ((P1, P2), 0.45), ((P1,), 0.45)]))
def test_top_row_matches_the_partition_form(state):
    # top_rows(1) cuts at the maximum; the partition form must pick the same
    # row, ties (zero weights included) broken toward canonical order.
    assert state.top_rows(1).tolist() == reference_top_rows(state, 1).tolist()
