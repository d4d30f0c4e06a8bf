"""Track table and hypothesis set maintenance: the multi-target recursion.

The filter state is a table of tracks (one per distinct observation path)
plus a weighted set of hypotheses, each hypothesis being a set of mutually
compatible tracks that could jointly account for the data collected so far.
Prediction moves every track's distribution forward and leaves hypothesis
weights untouched; the update enumerates, for every prior hypothesis and
every admissible way of explaining the new scan (detections of existing
tracks, appearing targets, false alarms), the resulting child hypothesis
and its Bayes weight.

Track identity is the observation path itself: two association schemes
producing the same path share one track, which is what makes the hypothesis
set a set over shared tracks rather than a tree of private copies.

State layout:

- ``FilterState.tracks`` (:class:`TrackTable`) holds the paths in canonical
  order, a track's integer id being its rank in that order, per-track
  ``displayed`` flags, and the distributions as one
  :class:`~disptrack.models.Mixtures` table: a presence per track and one
  row per Gaussian component (owner id, weight, mean, covariance). Paths
  are the only per-track objects; predict, the update and the passes read
  and write these arrays. Read as a mapping, the table builds each
  :class:`Track` when asked and caches nothing.
- The hypotheses are the rows of one CSR table over those ids: hypothesis
  ``r`` is the sorted id row ``indices[indptr[r]:indptr[r + 1]]`` with
  weight ``weights[r]``. Since ids follow path order, id rows compare like
  the path tuples they stand for.
- Every state stores ``indices`` at the narrowest unsigned type that holds
  its largest id (:func:`id_dtype`: one byte up to 256 tracks, two up to
  65,536) and ``indptr`` as int32. Tables padded from the rows
  (:func:`padded_rows`) hold int32 ids, so the passes work in one type.
  Arithmetic on stored ids runs on a wider copy, as uint8 255 + 1 is 0.
- ``state.hypotheses`` is a read-only view that builds each
  :class:`Hypothesis` when asked and caches nothing.
  ``FilterState(scan, tracks, hypotheses)`` is the validated entry point;
  the recursion and the passes build states with :meth:`FilterState.from_table`.

The update is a plan, then the writers. :func:`_plan` scores the whole scan in
stacked solves (:func:`models.score_scan`). Which associations a row admits
depends only on which observations its tracks can take, so each track gets a
signature, its option layout, and rows with the same signatures share one set
of patterns (:func:`_patterns`). From the patterns the plan counts the rows,
ids and bytes to be written. :func:`_write` holds those counts to the budgets
first (past ``_MAX_ROWS`` rows, or ``_MAX_ENTRIES`` ids, where int32 offsets
would overflow, it raises :class:`HypothesisBudgetError` before any row exists),
then writes the rows in place at the stored types, a child's id being its
rank among all the scan's children. The rows split into segments,
each of parents of one group taking every pattern of one newborn count,
parent-major. A segment of at least ``_BROADCAST_ROWS`` rows is written as a
parents x patterns broadcast (:func:`_broadcast`); the row writer takes the
rows between, ``_BLOCK`` at a time, each block in one pass over its widest
row. There a cell past its row's width names the option past the last, which
writes no id and adds 0.0 to the log weight, so each row adds the same terms
in the same order as a row-by-row join. Both writers stay because a
broadcast's set-up per segment outweighs its saving on short segments: the
largest segments of the cluttered and 60-track benchmark scenes hold 1,813
and 351 rows, while exact C9's last scan puts 2,091,537 of its 2,092,741 rows
in 15 segments of 8,505 to 419,823 rows. Each block of either writer is a job
over rows no other job writes; the main thread and a worker thread per further
usable CPU (``_CPUS``), at most one thread per job, take the jobs in turn, and
the subtract-and-exp and the divide of the normalisation run over ``_BLOCK``-row
blocks the same way. Every row takes the same operations in the same order
whatever the thread count, so the bytes do not depend on it. A phase of one
job, or any phase on one CPU, is its jobs called in turn on the main thread,
with no queue and no thread. The threads cut wall time, not CPU time. Once
each prior track is in a row and can be missed, some row holds every child;
otherwise (``p_s`` = ``p_d`` = 1, or a track no row holds, which only
``FilterState(...)`` makes) the children no row holds are dropped after
writing (:func:`keep_tracks`).
No row is sorted: tracks of a row share no observation, so their children
keep the parents' order, and newborns come last.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np

from .models import (
    AugmentedDistribution,
    BirthModel,
    Mixtures,
    Observation,
    ObsId,
    SensorModel,
    MotionModel,
    check_scan,
    log_predictive_likelihood,  # not called: perfbench's tracer patches this name
    score_scan,
    _check_dims,
    _check_threshold,
    _derived,
    _logs,
    _run_starts,
)
# Not called: perfbench's tracer patches birth_posterior, predict_distribution
# and update_distribution here.
from .single_target import (
    birth_posterior,
    detection_posteriors,
    miss_posteriors,
    predict_distribution,
    predict_mixtures,
    update_distribution,
)

NEG_INF = -math.inf
ID_DTYPE = np.int32  # track ids inside padded work tables
PTR_DTYPE = np.int32  # stored row offsets
_WORD_BITS = 64  # observations per bitmask word
_VIEW_CHUNK = 1 << 16  # rows per batch when iterating the view or summing existence
_BLOCK = 1 << 15  # partial patterns extended, or rows written, at once in update
_BROADCAST_ROWS = 1 << 12  # rows from which update writes a segment as one broadcast
_MAX_ROWS = 1 << 25  # rows one update may emit: 16 times the exact C9 case
_MAX_ENTRIES = np.iinfo(PTR_DTYPE).max  # track ids one update may emit: its offsets must fit
# Usable CPUs: update writes its row blocks on at most this many threads, the main one included.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class DegenerateUpdateError(RuntimeError):
    """Every admissible association has zero probability: model inconsistency."""


class HypothesisBudgetError(RuntimeError):
    """The update would emit more hypotheses than ``_MAX_ROWS``, or more track ids
    in its rows than ``_MAX_ENTRIES``."""


@dataclass(frozen=True, order=True)
class ObservationPath:
    """Birth scan plus the ordered observations a target has produced.

    ``detections`` holds one (scan, index) observation reference per scan at
    which the target was detected, in increasing scan order; scans between
    the birth scan and the current scan that are absent from the tuple are
    miss-detections. The first detection happens at the birth scan, so the
    path fully identifies a distinguishable target.
    """

    birth_scan: int
    detections: tuple[ObsId, ...]

    def __post_init__(self):
        if not self.detections:
            raise ValueError("an observation path carries at least its first detection")
        scans = [s for s, _ in self.detections]
        if any(nxt <= cur for cur, nxt in zip(scans, scans[1:])):
            raise ValueError(f"detection scans must strictly increase, got {scans}")
        if self.birth_scan != scans[0]:
            raise ValueError(
                f"birth scan {self.birth_scan} must equal first detection scan {scans[0]}"
            )

    def extended(self, obs_id: ObsId) -> "ObservationPath":
        """Path after a detection at a later scan."""
        return ObservationPath(self.birth_scan, self.detections + (obs_id,))

    def __str__(self) -> str:
        return f"{self.birth_scan}:" + ",".join(f"{s}.{i}" for s, i in self.detections)


def newborn_path(obs_id: ObsId) -> ObservationPath:
    """Path of an appearing target detected through ``obs_id``."""
    return ObservationPath(obs_id[0], (obs_id,))


def compatible(p1: ObservationPath, p2: ObservationPath) -> bool:
    """True iff the two paths share no observation reference."""
    return not set(p1.detections) & set(p2.detections)


def is_consistent(paths: Iterable[ObservationPath]) -> bool:
    """True iff all distinct pairs are compatible."""
    items = list(paths)
    return all(compatible(a, b) for a, b in combinations(items, 2))


@dataclass(frozen=True)
class Track:
    """A distinguishable target: path, state distribution, display status."""

    path: ObservationPath
    dist: AugmentedDistribution
    displayed: bool = False


class Hypothesis(NamedTuple):
    """A consistent set of track identifiers with its probability of existence."""

    tracks: tuple[ObservationPath, ...]  # sorted canonically
    weight: float


def id_dtype(n: int) -> np.dtype:
    """The narrowest unsigned type holding ``0 .. n - 1``: a table of ``n`` tracks
    stores its ids so, in one byte up to 256 tracks."""
    return np.min_scalar_type(max(n - 1, 0))


def row_offsets(lengths: np.ndarray) -> np.ndarray:
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _ragged(counts: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot ``i`` holds ``first[i] .. first[i] + counts[i] - 1``: each item's slot and value."""
    slot = np.arange(len(counts)).repeat(counts)
    return slot, np.arange(len(slot)) + (first - (counts.cumsum() - counts)).take(slot)


def _take_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """The CSR table restricted to ``rows``, in that order: (indptr, indices)."""
    lengths = indptr[rows + 1] - indptr[rows]
    return row_offsets(lengths), indices[_ragged(lengths, indptr[rows])[1]]


def padded_rows(indptr: np.ndarray, indices: np.ndarray, fill: int) -> np.ndarray:
    """The CSR rows as one fresh 2-D int32 array, short rows filled with ``fill``; with
    ``fill`` above every id, the table a pass folds (:func:`fold_rows`)."""
    lengths = indptr[1:] - indptr[:-1]
    out = np.empty((len(lengths), int(lengths.max(initial=0))), dtype=ID_DTYPE)
    out.fill(fill)
    # Row k of the lookup flags the first k cells: one gather along the long axis.
    out[np.tri(out.shape[1] + 1, out.shape[1], -1, dtype=bool).take(lengths, axis=0)] = indices
    return out


def unpadded_rows(pad: np.ndarray, rows: np.ndarray, fill: int):
    """Rows ``rows`` of a padded table, in that order, as CSR: ``(indptr, indices)``,
    the cells holding ``fill`` left out and the ids as ``ID_DTYPE``."""
    picked = pad.take(rows, axis=0)
    held = picked != fill
    return row_offsets(held.sum(axis=1)), picked[held]


def _row_runs(pad: np.ndarray):
    """Stable ``lexsort`` order of a 2-D array's rows (last column first), a flag on
    the first (earliest) row of each run of identical rows, and each row's run."""
    order = np.lexsort(pad.T) if pad.shape[1] else np.arange(len(pad))
    ranked = pad.take(order, axis=0)
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for j in range(pad.shape[1]):  # column by column: numpy is slow along a short axis
        starts[1:] |= ranked[1:, j] != ranked[:-1, j]
    label = np.empty(len(order), dtype=np.int64)
    label[order] = starts.cumsum() - 1
    return order, starts, label


def fold_rows(pad: np.ndarray, weights: np.ndarray):
    """Group the rows of a padded table that hold the same ids, adding their weights.

    Each row of ``pad`` holds its ids in increasing order, then the fill,
    which is above every id. Returns each group's first row, in table order,
    and the group's weight, added in table order. No row is built: a pass
    picks its rows from these and builds only those (:func:`unpadded_rows`).
    """
    order, starts, run = _row_runs(pad)
    first = order[starts]  # each run's earliest row
    by_first = first.argsort()
    return first[by_first], np.bincount(run, weights=weights)[by_first].astype(float, copy=False)


def _top_rows(weights: np.ndarray, k: int, tied_rows, fill: int) -> np.ndarray:
    """The ``k`` heaviest of ``weights``' rows, ties at the cut broken toward canonical order.

    Canonical hypothesis order is fewest tracks first, then lexicographic
    ids. Rows above the cut weight come first, in table order, then the
    tied rows in canonical order. ``tied_rows(tied)`` gives the rows
    ``tied`` padded with ``fill``, which is above every id: rows of one
    length then compare as their id tuples. For ``k == 1`` the cut is the
    maximum, read without the partitioned copy of the weights, and no row
    lies above it.
    """
    if k >= len(weights):
        return np.arange(len(weights))
    if k == 1:
        cut, above = weights.max(), np.empty(0, dtype=np.intp)
    else:
        cut = np.partition(weights, len(weights) - k)[len(weights) - k]
        above = (weights > cut).nonzero()[0]
    tied = (weights == cut).nonzero()[0]
    if len(above) + len(tied) > k:
        pad = tied_rows(tied)
        tied = tied[np.lexsort((*pad.T[::-1], (pad != fill).sum(axis=1)))]
    return np.concatenate([above, tied[:k - len(above)]])


class TrackTable(Mapping):
    """A state's tracks as arrays, read as a mapping from each path to its :class:`Track`.

    Track ``i`` is ``paths[i]`` (canonical order), shown when
    ``displayed[i]``, with distribution ``i`` of ``dists``. As a mapping the
    table is read-only, in path order, and builds each ``Track`` on request.
    """

    __slots__ = ("paths", "displayed", "dists")

    def __init__(self, paths: list[ObservationPath], displayed: np.ndarray, dists: Mixtures):
        self.paths, self.displayed, self.dists = paths, displayed, dists

    @classmethod
    def of(cls, tracks: Mapping[ObservationPath, Track]) -> "TrackTable":
        """The tracks of ``tracks``, in its order."""
        records = list(tracks.values())
        return cls(
            list(tracks),
            np.array([t.displayed for t in records], dtype=bool),
            Mixtures.of([t.dist for t in records]),
        )

    def take(self, ids: np.ndarray) -> "TrackTable":
        """Tracks ``ids`` (distinct), in that order."""
        paths = [self.paths[i] for i in ids.tolist()]
        return TrackTable(paths, self.displayed[ids], self.dists.take(ids))

    def index(self, path) -> int | None:
        """The id of ``path``; ``None`` when the table does not hold it."""
        if isinstance(path, ObservationPath):
            i = bisect_left(self.paths, path)
            if i < len(self.paths) and self.paths[i] == path:
                return i
        return None

    def track(self, i: int) -> Track:
        return Track(self.paths[i], self.dists.dist(i), bool(self.displayed[i]))

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __contains__(self, path) -> bool:
        return self.index(path) is not None

    def __getitem__(self, path) -> Track:
        i = self.index(path)
        if i is None:
            raise KeyError(path)
        return self.track(i)


def held_tracks(n: int, indices: np.ndarray):
    """Which of the track ids ``0 .. n - 1`` some entry of ``indices`` names, and
    ``indices`` renumbered over those (as given when every id is named)."""
    held = np.zeros(n, dtype=bool)
    held[indices] = True
    if held.all():
        return held, indices
    return held, (held.cumsum() - 1).astype(ID_DTYPE)[indices]


def keep_tracks(table: TrackTable, indices: np.ndarray):
    """The tracks some entry of ``indices`` names, and ``indices`` renumbered over them."""
    held, indices = held_tracks(len(table), indices)
    return (table if held.all() else table.take(held.nonzero()[0])), indices


class HypothesisView(Sequence):
    """Read-only sequence of a state's hypotheses, built from its table on request."""

    __slots__ = ("_state",)

    def __init__(self, state: "FilterState"):
        self._state = state

    def __len__(self) -> int:
        return len(self._state.weights)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        s = self._state
        paths = s.tracks.paths
        ids = s.indices[s.indptr[i]:s.indptr[i + 1]].tolist()
        return Hypothesis(tuple(paths[k] for k in ids), float(s.weights[i]))

    def __iter__(self):
        s = self._state
        get = s.tracks.paths.__getitem__
        # tuple.__new__ skips the generated named-tuple constructor, which
        # would dominate iterating a large table.
        new = tuple.__new__
        for start in range(0, len(self), _VIEW_CHUNK):
            stop = min(start + _VIEW_CHUNK, len(self))
            ptr = (s.indptr[start:stop + 1] - s.indptr[start]).tolist()
            ids = s.indices[s.indptr[start]:s.indptr[stop]].tolist()
            for r, w in enumerate(s.weights[start:stop].tolist()):
                yield new(Hypothesis, (tuple(map(get, ids[ptr[r]:ptr[r + 1]])), w))


class FilterState:
    """Immutable-by-convention snapshot: scan index, track table, hypothesis table.

    ``FilterState(scan, tracks, hypotheses)`` sorts the tracks into
    canonical order, builds the track table from them and converts the
    hypothesis list into the CSR table. It raises ``ValueError`` when a key
    of ``tracks`` is not its track's path, or when a hypothesis names a
    track missing from ``tracks``, repeats a track, lists its tracks out of
    canonical order, has a negative or non-finite weight, or is listed
    twice.
    """

    __slots__ = ("scan", "tracks", "indptr", "indices", "weights")

    def __init__(
        self,
        scan: int,
        tracks: Mapping[ObservationPath, Track],
        hypotheses: Iterable[Hypothesis],
    ):
        for p, t in tracks.items():
            if t.path != p:
                raise ValueError(f"track {t.path} is filed under the key {p}")
        paths = sorted(tracks)
        rank = {p: i for i, p in enumerate(paths)}
        lengths: list[int] = []
        ids: list[int] = []
        weights: list[float] = []
        rows: set[tuple[int, ...]] = set()
        for h in hypotheses:
            missing = [str(p) for p in h.tracks if p not in rank]
            if missing:
                raise ValueError(f"hypothesis names tracks {missing} missing from the track table")
            row = [rank[p] for p in h.tracks]
            for a, b in zip(row, row[1:]):
                if a == b:
                    raise ValueError(f"hypothesis repeats track {paths[a]}")
                if a > b:
                    raise ValueError(
                        f"hypothesis tracks {[str(p) for p in h.tracks]} are not in canonical order"
                    )
            weight = float(h.weight)
            if not 0.0 <= weight < math.inf:
                raise ValueError(f"hypothesis weight must be finite and >= 0, got {weight}")
            key = tuple(row)
            if key in rows:
                raise ValueError(f"hypothesis {[str(p) for p in h.tracks]} is listed twice")
            rows.add(key)
            lengths.append(len(row))
            ids += row
            weights.append(weight)
        self._assign(
            scan,
            TrackTable.of({p: tracks[p] for p in paths}),
            row_offsets(np.array(lengths, dtype=np.int64)),
            ids,
            np.array(weights, dtype=float),
        )

    @classmethod
    def from_table(
        cls,
        scan: int,
        tracks: TrackTable,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> "FilterState":
        """Unchecked constructor: ``tracks`` in canonical order, rows sorted and over its ids."""
        state = object.__new__(cls)
        state._assign(scan, tracks, indptr, indices, weights)
        return state

    def _assign(self, scan, tracks, indptr, indices, weights) -> None:
        self.scan = scan
        self.tracks = tracks
        self.indptr = np.asarray(indptr, dtype=PTR_DTYPE)
        self.indices = np.asarray(indices, dtype=id_dtype(len(tracks)))
        self.weights = np.asarray(weights, dtype=float)
        for a in (self.indptr, self.indices, self.weights, tracks.displayed, *tracks.dists):
            if a.flags.writeable:  # tracks passed on from another state are frozen already
                a.flags.writeable = False

    @property
    def hypotheses(self) -> HypothesisView:
        return HypothesisView(self)

    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def existence(self, only: np.ndarray | None = None) -> np.ndarray:
        """Per track id, the total weight of the hypotheses holding the track.

        A boolean mask ``only`` sums just the tracks it flags, to the same bits,
        and reads no row when it flags none; the other tracks read 0.
        """
        # Row blocks keep the temporaries small; add.at sums in table order.
        out = np.zeros(len(self.tracks))
        rows = len(self.weights) if only is None or only.any() else 0
        for start in range(0, rows, _VIEW_CHUNK):
            ptr = self.indptr[start:start + _VIEW_CHUNK + 1]
            ids = self.indices[ptr[0]:ptr[-1]]
            weights = self.weights[start:start + _VIEW_CHUNK].repeat(ptr[1:] - ptr[:-1])
            keep = slice(None) if only is None else only.take(ids)
            np.add.at(out, ids[keep], weights[keep])
        return out

    def top_rows(self, k: int) -> np.ndarray:
        """The ``k`` heaviest rows, ties at the cut broken toward canonical order (:func:`_top_rows`)."""
        n = len(self.tracks)

        def tied_rows(tied):
            return padded_rows(*_take_rows(self.indptr, self.indices, tied), n)

        return _top_rows(self.weights, k, tied_rows, n)

    def with_rows(self, keep: np.ndarray) -> "FilterState":
        """Only the rows flagged in ``keep`` (order and weights kept) and the tracks they
        hold, renumbered; with every row flagged, only the tracks no row holds leave."""
        indptr, indices, weights = self.indptr, self.indices, self.weights
        if not keep.all():
            indptr, indices = _take_rows(indptr, indices, keep.nonzero()[0])
            weights = weights[keep]
        tracks, indices = keep_tracks(self.tracks, indices)
        return FilterState.from_table(self.scan, tracks, indptr, indices, weights)


def init_filter() -> FilterState:
    """Pre-data state: no tracks, the single empty hypothesis with weight one."""
    return FilterState.from_table(-1, TrackTable.of({}), [0, 0], [], [1.0])


def predict(state: FilterState, motion: MotionModel) -> FilterState:
    """Move every track's distribution one step forward, in one stacked step.

    Paths, hypothesis composition and weights are untouched: no new data has
    arrived, so there is nothing to reassess.
    """
    t = state.tracks
    tracks = TrackTable(t.paths, t.displayed, predict_mixtures(t.dists, motion))
    return FilterState.from_table(state.scan, tracks, state.indptr, state.indices, state.weights)


def track_existence(state: FilterState, track_id: ObservationPath) -> float:
    """Total weight of the hypotheses containing the track: its credibility."""
    i = state.tracks.index(track_id)
    if i is None:
        raise KeyError(f"unknown track {track_id}")
    return float(state.existence(np.arange(len(state.tracks)) == i)[i])


class _Options(NamedTuple):
    """One row per way a single track (or a newborn) can explain the scan."""

    child: np.ndarray  # child track id
    logl: np.ndarray  # log factor: miss mass or predictive likelihood
    word: np.ndarray  # bitmask word of the consumed observation (0 for a miss)
    bit: np.ndarray  # bit of the consumed observation in that word (0 for a miss)
    det: np.ndarray  # 1 if the option consumes an observation


def _child_options(state, obs, birth, sensor, gate_threshold):
    """Per-track work: every candidate child track and the option that makes it.

    Each track that can be missed makes a miss option, and each scored
    detection of the scan another (:func:`score_scan`, for all tracks and
    the birth prior at once); the children's distributions are the miss and
    detection posteriors. Returns the table of every child (a child's id is
    its rank in canonical path order), the options, offsets ``ptr`` such that
    track ``t``'s options are ``ptr[t]:ptr[t + 1]`` (its miss first, then its
    detections in observation order) and the newborns' are
    ``ptr[-2]:ptr[-1]``, a signature per track and the birth prior, shared
    exactly by those whose options are laid out alike, and whether every
    track can be missed.
    """
    table = state.tracks
    n = len(table)
    mass, missed = miss_posteriors(table.dists, sensor)
    miss = (mass > 0.0).nonzero()[0]
    scored = table.dists
    if birth.max_births >= 1:  # newborns are owned by n
        scored = Mixtures.concat(scored, birth.prior)
    values = np.array([o.value for o in obs]).reshape(len(obs), sensor.obs_dim)
    owner, seen, logl, moments = score_scan(scored, values, sensor, gate_threshold)
    found = (logl > NEG_INF).nonzero()[0]
    # Options by owner, each miss before its detections; src: the row of
    # each option's posterior in (miss posteriors, detection posteriors).
    owner = np.concatenate([miss, owner[found]])
    by_owner = owner.argsort(kind="stable")
    owner = owner[by_owner]
    j = np.concatenate([np.full(len(miss), -1), seen[found]])[by_owner]
    logl = np.concatenate([_logs(mass[miss]), logl[found]])[by_owner]
    src = np.concatenate([miss, n + found])[by_owner]

    # Child paths are built unchecked: each adds a detection at the current
    # scan, after every earlier one, so they are valid by construction.
    paths, ids = table.paths, [o.id for o in obs]
    made = [
        paths[i] if k < 0
        else _derived(ObservationPath, paths[i].birth_scan, paths[i].detections + (ids[k],))
        if i < n else _derived(ObservationPath, ids[k][0], (ids[k],))
        for i, k in zip(owner.tolist(), j.tolist())
    ]
    # A birth scan is its first detection's scan, so detections alone order paths.
    keys = [p.detections for p in made]
    order = np.array(sorted(range(len(made)), key=keys.__getitem__), dtype=np.int64)
    child = np.empty(len(made), dtype=ID_DTYPE)
    child[order] = np.arange(len(made), dtype=ID_DTYPE)
    posteriors = Mixtures.concat(missed, detection_posteriors(*moments))
    shown = np.append(table.displayed, False)[owner[order]]
    children = TrackTable([made[i] for i in order.tolist()], shown, posteriors.take(src[order]))
    det = j >= 0
    bit = np.zeros(len(j), dtype=np.uint64)
    bit[det] = np.uint64(1) << (j[det] % _WORD_BITS).astype(np.uint64)
    word = np.maximum(j, 0) // _WORD_BITS
    opts = _Options(child, logl, word, bit, det.astype(np.int64))
    ptr = np.searchsorted(owner, np.arange(n + 2))
    signature = _row_runs(padded_rows(ptr, j, -2))[2]
    return children, opts, ptr, signature, len(miss) == n


def _patterns(tracks, lengths, opts, opt_ptr, max_births):
    """Every admissible association of the rows ``tracks`` (padded ids; ``lengths`` nondecreasing).

    The join pairs each partial pattern with its next track's options, depth first
    over blocks of at most ``_BLOCK``; a per-pattern observation bitmask, read and
    set through one flat index, drops pairings that reuse an observation. Births
    come last: newborns never share an observation, so the birth options a pattern
    leaves free are tested once, and each further newborn takes a later one.
    Returns ``(row, opt, ndet, n)``, by (n, row), each run in lexicographic order:
    pattern ``i``, of row ``row[i]`` of length ``k``, takes the options of ranks
    ``opt[i, :k]`` and birth options of ranks ``opt[i, k:k + n[i]]``, using
    ``ndet[i]`` observations; its other cells hold the number of birth options,
    so that, added to the first birth option, they name the option past the last.
    ``opt`` is of the narrowest unsigned type holding every rank and that number.
    Raises :class:`DegenerateUpdateError` if none completes,
    :class:`HypothesisBudgetError` past ``_MAX_ROWS`` patterns.
    """
    made, completed = 0, []

    def counted(m: int) -> int:
        nonlocal made
        made += m
        if made > _MAX_ROWS:
            raise HypothesisBudgetError(f"the update would emit more than {_MAX_ROWS} hypotheses")
        return m

    g, words = len(lengths), int(opts.word.max(initial=0)) + 1
    births = np.arange(opt_ptr[-2], opt_ptr[-1])  # in observation order
    ranks = id_dtype(int((opt_ptr[1:] - opt_ptr[:-1]).max(initial=0)) + 1)  # any rank, and len(births)
    stack = [(np.arange(g), np.zeros((g, words), np.uint64), np.zeros(g, np.int64),
              np.full((g, tracks.shape[1] + max_births), len(births), ranks), 0)]
    while stack:
        *part, k = stack.pop()
        if len(part[0]) > _BLOCK:
            starts = reversed(range(0, len(part[0]), _BLOCK))
            stack += [(*(a[s:s + _BLOCK] for a in part), k) for s in starts]
            continue
        # Rows run by length, so those ending here come first (and complete in row order).
        done = int(lengths.take(part[0]).searchsorted(k, "right"))
        if counted(done):
            completed.append([a[:done] for a in part])
        row, used, ndet, opt = (a[done:] for a in part)
        if len(row):
            first = opt_ptr.take(tracks[row, k])
            src, o = _ragged(opt_ptr.take(tracks[row, k] + 1) - first, first)
            word, bit = opts.word.take(o), opts.bit.take(o)
            free = ((used.reshape(-1).take(src * words + word) & bit) == 0).nonzero()[0]
            src, o = src.take(free), o.take(free)
            used = used.take(src, axis=0)
            used.reshape(-1)[np.arange(len(src)) * words + word.take(free)] |= bit.take(free)
            opt = opt.take(src, axis=0)
            opt[:, k] = o - first.take(src)
            stack.append((row.take(src), used, ndet.take(src) + opts.det.take(o), opt, k + 1))
    if not completed:
        raise DegenerateUpdateError("no admissible association has a defined posterior")

    row, used, ndet, opt = (np.concatenate(a) for a in zip(*completed))
    levels = [[(row, opt, ndet, np.zeros(len(row), np.int64))]] + [[] for _ in range(max_births)]
    k = lengths.take(row)
    for lo in range(0, len(row) if max_births else 0, _BLOCK):
        # (pattern, free birth option) pairs, row-major; newborns rank among birth options.
        free = (used[lo:lo + _BLOCK, opts.word[births]] & opts.bit[births]) == 0
        at, took = np.divmod(free.ravel().nonzero()[0], len(births))
        counts = np.bincount(at, minlength=len(free))
        ends = counts.cumsum()
        # pos: the last pair each pattern took, starting just before its first.
        root, pos, last = np.arange(lo, lo + len(free)), ends - counts - 1, opt[lo:lo + _BLOCK]
        for n in range(1, max_births + 1):
            src, pos = _ragged(ends.take(root - lo) - pos - 1, pos + 1)
            if not counted(len(src)):
                break
            root, last = root.take(src), last.take(src, axis=0)
            last[np.arange(len(src)), k.take(root) + n - 1] = took.take(pos)
            levels[n].append((row.take(root), last, ndet.take(root) + n, np.full(len(src), n)))
    return tuple(np.concatenate(a) for a in zip(*(p for level in levels for p in level)))


def _broadcast(ids, logw, prior, first, pats, tail, child, logl):
    """Jobs that write one segment's rows: each parent with each pattern, parent-major.

    Row ``(i, j)`` takes option ``first[i, c] + pats[j, c]`` at column ``c``;
    its ids go to ``ids`` and its log weight, ``prior[i]`` plus the options'
    ``logl`` and the pattern's ``tail`` terms, to ``logw``, added in that
    order. Each parent's children and log factors are tabled by (column,
    rank) first, so all parents gather through one index, ``_BLOCK`` rows
    at a time. Returns one job, a function of no argument, per block of
    parents: each writes only its parents' rows.
    """
    (m, w), c = first.shape, len(pats)
    ranks = np.arange(int(pats.max(initial=0)) + 1)
    at = pats + np.arange(w) * len(ranks)  # a pattern's cells in a parent's (column, rank) table
    cols = np.ascontiguousarray(at.T)
    ids, logw = ids.reshape(m, c, w), logw.reshape(m, c)
    step = min(c, _BLOCK)
    per = _BLOCK // step  # parents per block; one when a parent's rows span blocks

    def block(i):
        o = first[i:i + per, :, None] + ranks  # past a track's options: never read
        kids = child.take(o, mode="clip").reshape(len(o), -1)
        factors = logl.take(o, mode="clip").reshape(len(o), -1)
        for j in range(0, c, step):
            s = slice(j, j + step)
            np.take(kids, at[s], axis=1, out=ids[i:i + per, s], mode="wrap")
            part = logw[i:i + per, s]
            part[...] = prior[i:i + per, None]
            buf = np.empty(part.shape)
            for col in cols[:, s]:
                part += np.take(factors, col, axis=1, out=buf, mode="wrap")
            for term in tail[:, s]:
                part += term

    return [partial(block, i) for i in range(0, m, per)]


def _run(jobs) -> None:
    """Run each job once. The main thread and ``min(_CPUS, len(jobs)) - 1`` worker
    threads each take the next job until none is left; with one job or one CPU the
    main thread calls them in turn, with no queue and no thread. The jobs must write
    disjoint memory; the first error is raised here."""
    if min(_CPUS, len(jobs)) <= 1:
        for job in jobs:
            job()
        return
    todo, failed, workers = deque(jobs), [], []

    def drain():
        try:
            while True:
                try:
                    job = todo.popleft()
                except IndexError:
                    return
                job()
        except BaseException as error:  # raised again on the main thread
            todo.clear()  # the other threads stop after their current job
            failed.append(error)

    try:
        for _ in range(min(_CPUS, len(todo)) - 1):
            worker = threading.Thread(target=drain)
            worker.start()
            workers.append(worker)
        drain()
    finally:
        todo.clear()  # after a failed start, the started workers take no more jobs
        for worker in workers:
            worker.join()
    if failed:
        raise failed[0]


def update(
    state: FilterState,
    scan_obs: Sequence[Observation],
    birth: BirthModel,
    sensor: SensorModel,
    gate_threshold: float | None = None,
) -> FilterState:
    """Bayes update of the track table and hypothesis set with one scan.

    Equivalent to enumerating, for every prior hypothesis and every birth
    count in the cardinality support, all admissible associations, weighting
    each by prior * cardinality * association likelihood, and normalizing
    once over everything produced. Child tracks are deduplicated across
    hypotheses by path, newborn tracks start undisplayed, and surviving
    tracks inherit their parent's display status. The track table keeps the
    children some hypothesis holds.

    ``gate_threshold`` (``None``: no gate) drops every (track or birth prior,
    observation) pair whose ``mahalanobis_sq`` exceeds it, before scoring.

    Associations that would condition a track on a zero-probability event
    (detection of an absent target, miss of a surely detected one) are
    skipped: their posterior is undefined and their weight is zero anyway.
    Every other association yields a row, at weight zero when its prior,
    cardinality or false-alarm factor is zero. Raises
    :class:`DegenerateUpdateError` when nothing admissible has positive
    probability, and :class:`HypothesisBudgetError`, before building any
    row, when the update would emit more than ``_MAX_ROWS`` rows or more
    than ``_MAX_ENTRIES`` track ids in them, past which its int32 row
    offsets would overflow.
    """
    obs = sorted(scan_obs, key=lambda o: o.id)
    check_scan(obs, state.scan + 1)
    _check_dims(sensor, [o.value.shape[0] for o in obs])
    prior_total = state.total_weight()
    if not (0.0 < prior_total <= 1.0 + 1e-6):
        raise ValueError(f"prior hypothesis weights must sum into (0, 1], got {prior_total}")
    if gate_threshold is not None:
        _check_threshold(gate_threshold, "gate threshold", math.inf)
    return _write(_plan(state, obs, birth, sensor, gate_threshold), state)


class _Plan(NamedTuple):
    """One update, counted before any row is written. Pair ``i`` is prior row ``parent[i]``
    with ``newborns[i]`` newborns: rows ``pair_rows[i]:pair_rows[i + 1]`` of ``width[i]``
    ids, taking the patterns from ``shift[i]`` plus the row. Pairs ``seg[s]:seg[s + 1]``,
    parents of one group with one newborn count, form segment ``s``."""

    children: TrackTable  # every candidate child, its id its rank
    opts: _Options
    base: np.ndarray  # per prior row, each cell's first option (the birth prior's past the row)
    opt: np.ndarray  # the patterns' option ranks, as _patterns gives them
    tail: np.ndarray  # per pattern: log cardinality, detection and false-alarm terms
    parent: np.ndarray
    newborns: np.ndarray
    width: np.ndarray
    pair_rows: np.ndarray
    shift: np.ndarray
    seg: np.ndarray
    rows: int
    ids: int
    nbytes: int  # of the written table: int32 offsets, ids at the stored type, float64 weights
    every_child: bool  # some row holds every child


def _plan(state, obs, birth, sensor, gate_threshold) -> _Plan:
    """Score the scan, join its patterns and count the rows, ids and bytes they make."""
    children, opts, opt_ptr, signature, missable = _child_options(state, obs, birth, sensor, gate_threshold)
    lengths = state.indptr[1:] - state.indptr[:-1]
    tracks = padded_rows(state.indptr, state.indices, len(state.tracks))  # the birth prior pads
    # Rows with equal signatures admit the same patterns: join the first of each, by length.
    order, starts, group = _row_runs(np.concatenate((signature[tracks], lengths[:, None]), axis=1))
    reps = order[starts]
    rep, opt, ndet, n = _patterns(tracks[reps], lengths[reps], opts, opt_ptr, birth.max_births)

    # Rows come by (k, n), then by parent and pattern: pair (parent, n) makes
    # a row per pattern of n newborns of its group's first row.
    depth, g = birth.max_births + 1, len(reps)
    per_cell = np.bincount(n * g + rep, minlength=depth * g)  # the table runs by cell
    count = per_cell.reshape(depth, g).take(group, axis=1).ravel()
    newborns, parent = np.divmod(count.nonzero()[0], len(lengths))
    by_group = (lengths.take(parent) * depth + newborns).argsort(kind="stable")
    parent, newborns = parent[by_group], newborns[by_group]
    count = count[newborns * len(lengths) + parent]
    pair_rows = row_offsets(count)
    width = lengths[parent] + newborns
    shift = (per_cell.cumsum() - per_cell)[newborns * g + group[parent]] - pair_rows[:-1]
    seg = np.append(_run_starts(group[parent] * depth + newborns).nonzero()[0], len(parent))

    # A row's options: its parent's tracks' first options plus the pattern's
    # ranks (newborns rank among the birth prior's, whose id pads).
    base = np.full((len(lengths), opt.shape[1]), opt_ptr[-2], dtype=np.int32)
    base[:, :tracks.shape[1]] = opt_ptr.take(tracks)
    lpfa = math.log(sensor.p_fa) if sensor.p_fa > 0.0 else NEG_INF
    fa = (len(obs) - ndet) * lpfa if lpfa > NEG_INF else np.where(len(obs) > ndet, NEG_INF, 0.0)
    lcard = np.array([math.log(c) if c > 0.0 else NEG_INF for c in birth.cardinality.tolist()])
    tail = np.array([lcard.take(n), ndet * math.log1p(-sensor.p_fa), fa])
    rows, ids = int(pair_rows[-1]), int(count @ width)
    nbytes = (rows + 1) * PTR_DTYPE().itemsize + ids * id_dtype(len(children)).itemsize + rows * 8
    # Some row holds every child when every prior track is held and can be missed.
    every_child = missable and bool(np.bincount(state.indices, minlength=len(state.tracks)).all())
    return _Plan(children, opts, base, opt, tail, parent, newborns, width, pair_rows, shift, seg,
                 rows, ids, nbytes, every_child)


def _write(plan: _Plan, state: FilterState) -> FilterState:
    """The update of ``state``: check ``plan`` against the budgets, allocate its table and
    write it, then normalise the weights and keep the children some row holds."""
    if plan.rows > _MAX_ROWS:
        raise HypothesisBudgetError(f"the update would emit more than {_MAX_ROWS} hypotheses: {plan.rows}")
    if plan.ids > _MAX_ENTRIES:
        raise HypothesisBudgetError(f"the update would emit more than {_MAX_ENTRIES} track ids: {plan.ids}")
    parent, width, pair_rows, shift, rows = plan.parent, plan.width, plan.pair_rows, plan.shift, plan.rows
    child = plan.opts.child.astype(id_dtype(len(plan.children)))  # the stored type, where every child is kept
    with np.errstate(divide="ignore"):
        prior = np.log(state.weights)
    weights = np.empty(rows)
    out_ptr = np.zeros(rows + 1, dtype=PTR_DTYPE)
    cut = _run_starts(width).nonzero()[0]  # runs of pairs whose rows have one width
    bounds = pair_rows[cut].tolist() + [rows]
    for start, stop, w in zip(bounds, bounds[1:], width[cut].tolist()):  # offsets step by the width
        first = int(out_ptr[start])
        last = first + (stop - start) * w
        out_ptr[start + 1:stop + 1] = np.arange(first + w, last + 1, w, dtype=PTR_DTYPE) if w else first
    out_ids = np.empty(plan.ids, dtype=child.dtype)

    # A segment's rows are each of its parents with each pattern of one cell, parent-major.
    # Every job writes rows no other job writes, so the bytes do not depend on the threads.
    seg, jobs = plan.seg, []
    large = (pair_rows[seg[1:]] - pair_rows[seg[:-1]] >= _BROADCAST_ROWS).nonzero()[0]
    spans, lo = [], 0  # the rows between large segments, for the row writer
    for a, b in zip(seg[large].tolist(), seg[large + 1].tolist()):
        start, stop, w = int(pair_rows[a]), int(pair_rows[b]), int(width[a])
        q = slice(start + int(shift[a]), int(pair_rows[a + 1] + shift[a]))  # the cell's patterns
        jobs += _broadcast(out_ids[out_ptr[start]:out_ptr[stop]], weights[start:stop],
                           prior.take(parent[a:b]), plan.base[parent[a:b], :w], plan.opt[q, :w],
                           plan.tail[:, q], child, plan.opts.logl)
        spans.append((lo, start))
        lo = stop
    spans.append((lo, rows))
    logl = np.append(plan.opts.logl, 0.0)  # an absent cell's option, one past the last, adds 0.0

    def write_rows(lo, hi):  # in one pass over the widest row
        a, b = pair_rows.searchsorted(lo, "right") - 1, pair_rows.searchsorted(hi)
        clip = np.minimum(pair_rows[a + 1:b + 1], hi) - np.maximum(pair_rows[a:b], lo)
        at, q = parent[a:b].repeat(clip), shift[a:b].repeat(clip)
        q += np.arange(lo, hi)
        w = int(width[a:b].max())
        o = plan.base[:, :w].take(at, axis=0)
        o += plan.opt[:, :w].take(q, axis=0)
        # take(out=) buffers under mode="raise"; the indices are valid by construction.
        child.take(o[o < len(child)], out=out_ids[out_ptr[lo]:out_ptr[hi]], mode="wrap")
        factors = logl.take(o)
        logw = weights[lo:hi]  # log weights add up column by column, as the factors arise
        prior.take(at, out=logw, mode="wrap")
        for c in range(w):
            logw += factors[:, c]
        for term in plan.tail:
            logw += term.take(q)

    blocks = [(lo, min(lo + _BLOCK, end)) for begin, end in spans for lo in range(begin, end, _BLOCK)]
    _run(jobs + [partial(write_rows, lo, hi) for lo, hi in blocks])
    top = float(weights.max())
    if top == NEG_INF:
        raise DegenerateUpdateError("all association weights are zero")
    parts = [weights[lo:lo + _BLOCK] for lo in range(0, rows, _BLOCK)]

    def exp_shifted(part):
        part -= top
        np.exp(part, out=part)

    _run([partial(exp_shifted, part) for part in parts])
    total = weights.sum()
    _run([partial(np.divide, part, total, out=part) for part in parts])
    children, out_ids = (plan.children, out_ids) if plan.every_child else keep_tracks(plan.children, out_ids)
    return FilterState.from_table(state.scan + 1, children, out_ptr, out_ids, weights)
