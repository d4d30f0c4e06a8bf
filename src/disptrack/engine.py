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
- ``state.hypotheses`` is a read-only view that builds each
  :class:`Hypothesis` when asked and caches nothing.
  ``FilterState(scan, tracks, hypotheses)`` is the validated entry point;
  the recursion and the passes build states with :meth:`FilterState.from_table`.

The update scores the whole scan in stacked solves (the gate, likelihoods and
Kalman moments of every track and the birth prior, :func:`models.score_scan`),
then builds the child rows with a numpy join over the parent rows, one track
position at a time: each partial row is paired with its next track's options,
and a per-row observation bitmask, read and set through one flat index, drops
pairings that reuse an observation. Births come last: newborns never share an
observation, so the birth options a completed row leaves free are tested
once, and each further newborn takes a later one of them. The join runs depth
first over blocks of at most ``_ROW_BLOCK`` partial rows, so its temporaries
stay block-sized and the peak memory follows the output.

A partial row holds no ids, only back pointers: the partial row it extended
and the option it took. When a row completes, its child ids are gathered once
by walking the pointers back, and they are already in canonical order, so no
row is sorted: tracks of one row share no observation, so their children keep
the parents' order, and newborns are born at the current scan, after every
older track, and are taken in observation order. The finished blocks are
copied into one table allocated for them, each block freed as it is copied.
An update that would emit more than ``_MAX_ROWS`` rows raises
:class:`HypothesisBudgetError` instead of running out of memory.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np

from .models import (
    AugmentedDistribution,
    BirthModel,
    Mixtures,
    ModelConfigError,
    Observation,
    ObsId,
    SensorModel,
    MotionModel,
    check_scan,
    log_predictive_likelihood,  # not called: perfbench's tracer patches this name
    score_scan,
    _check_threshold,
    _derived,
    _logs,
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
ID_DTYPE = np.int32  # track ids inside hypothesis rows
_WORD_BITS = 64  # observations per bitmask word
_VIEW_CHUNK = 1 << 16  # rows per batch when iterating the view or summing existence
_ROW_BLOCK = 1 << 15  # partial rows extended at once in update
_MAX_ROWS = 1 << 25  # rows one update may emit: 16 times the exact C9 case


class DegenerateUpdateError(RuntimeError):
    """Every admissible association has zero probability: model inconsistency."""


class HypothesisBudgetError(RuntimeError):
    """The update would emit more hypotheses than ``_MAX_ROWS``."""


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


def row_offsets(lengths: np.ndarray) -> np.ndarray:
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _ragged(counts: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot ``i`` holds ``first[i] .. first[i] + counts[i] - 1``: each item's slot and value."""
    slot = np.repeat(np.arange(len(counts)), counts)
    return slot, np.arange(len(slot)) + (first - (np.cumsum(counts) - counts))[slot]


def _take_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """The CSR table restricted to ``rows``, in that order: (indptr, indices)."""
    lengths = indptr[rows + 1] - indptr[rows]
    return row_offsets(lengths), indices[_ragged(lengths, indptr[rows])[1]]


def padded_rows(indptr: np.ndarray, indices: np.ndarray, fill: int) -> np.ndarray:
    """The CSR rows as one 2-D array, short rows filled with ``fill``."""
    lengths = np.diff(indptr)
    out = np.full((len(lengths), int(lengths.max(initial=0))), fill, dtype=ID_DTYPE)
    out[np.arange(out.shape[1]) < lengths[:, None]] = indices
    return out


def fold_rows(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray):
    """Sort every row, then merge identical rows by adding their weights.

    One stable ``lexsort`` groups the rows; merged rows keep the position of
    their first occurrence, weights added in table order. Returns
    ``(indptr, indices, weights)``.
    """
    fill = np.iinfo(ID_DTYPE).max
    pad = padded_rows(indptr, indices, fill)
    pad.sort(axis=1)
    order = np.lexsort(pad.T) if pad.shape[1] else np.arange(len(pad))
    ranked = pad[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    head = np.empty_like(order)  # each row's first occurrence
    head[order] = order[starts][np.cumsum(starts) - 1]
    first = head == np.arange(len(head))
    folded = np.bincount((np.cumsum(first) - 1)[head], weights=weights)
    uniq = pad[first]
    real = uniq != fill
    return row_offsets(real.sum(axis=1)), uniq[real], folded.astype(float, copy=False)


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


def keep_tracks(table: TrackTable, indices: np.ndarray):
    """The tracks some entry of ``indices`` names, and ``indices`` renumbered over them."""
    held = np.zeros(len(table), dtype=bool)
    held[indices] = True
    if held.all():
        return table, indices
    new_id = (np.cumsum(held) - 1).astype(ID_DTYPE)
    return table.take(np.flatnonzero(held)), new_id[indices]


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
    hypothesis list into the CSR table. It raises ``ValueError`` when a
    hypothesis names a track missing from ``tracks``, repeats a track, or
    lists its tracks out of canonical order.
    """

    __slots__ = ("scan", "tracks", "indptr", "indices", "weights")

    def __init__(
        self,
        scan: int,
        tracks: Mapping[ObservationPath, Track],
        hypotheses: Iterable[Hypothesis],
    ):
        paths = sorted(tracks)
        rank = {p: i for i, p in enumerate(paths)}
        lengths: list[int] = []
        ids: list[int] = []
        weights: list[float] = []
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
            lengths.append(len(row))
            ids += row
            weights.append(float(h.weight))
        self._assign(
            scan,
            TrackTable.of({p: tracks[p] for p in paths}),
            row_offsets(np.array(lengths, dtype=np.int64)),
            np.array(ids, dtype=ID_DTYPE),
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
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=ID_DTYPE)
        self.weights = np.asarray(weights, dtype=float)
        for a in (self.indptr, self.indices, self.weights, tracks.displayed, *tracks.dists):
            a.flags.writeable = False

    @property
    def hypotheses(self) -> HypothesisView:
        return HypothesisView(self)

    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def existence(self) -> np.ndarray:
        """Per track id, the total weight of the hypotheses holding the track."""
        # Row blocks keep the temporaries small; add.at sums in table order.
        out = np.zeros(len(self.tracks))
        for start in range(0, len(self.weights), _VIEW_CHUNK):
            ptr = self.indptr[start:start + _VIEW_CHUNK + 1]
            weights = np.repeat(self.weights[start:start + _VIEW_CHUNK], np.diff(ptr))
            np.add.at(out, self.indices[ptr[0]:ptr[-1]], weights)
        return out

    def top_rows(self, k: int) -> np.ndarray:
        """The ``k`` heaviest rows, ties at the cut broken toward canonical order.

        Canonical hypothesis order is fewest tracks first, then lexicographic
        ids. Rows above the cut weight come first, in table order, then the
        tied rows in canonical order.
        """
        w = self.weights
        if k >= len(w):
            return np.arange(len(w))
        cut = np.partition(w, len(w) - k)[len(w) - k]
        above = np.flatnonzero(w > cut)
        tied = np.flatnonzero(w == cut)
        if len(above) + len(tied) > k:
            indptr, indices = _take_rows(self.indptr, self.indices, tied)
            pad = padded_rows(indptr, indices, -1)
            tied = tied[np.lexsort((*pad.T[::-1], np.diff(indptr)))]
        return np.concatenate([above, tied[:k - len(above)]])

    def with_rows(self, keep: np.ndarray) -> "FilterState":
        """Only the rows flagged in ``keep`` (order and weights kept) and the tracks they hold."""
        indptr, indices = _take_rows(self.indptr, self.indices, np.flatnonzero(keep))
        tracks, indices = keep_tracks(self.tracks, indices)
        return FilterState.from_table(self.scan, tracks, indptr, indices, self.weights[keep])


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
    return float(state.existence()[i])


class _Options(NamedTuple):
    """One row per way a single track (or a newborn) can explain the scan."""

    child: np.ndarray  # child track id
    logl: np.ndarray  # log factor: miss mass or predictive likelihood
    word: np.ndarray  # bitmask word of the consumed observation (0 for a miss)
    bit: np.ndarray  # bit of the consumed observation in that word (0 for a miss)
    det: np.ndarray  # 1 if the option consumes an observation


class _Node(NamedTuple):
    """The last choice of each partial row: the row it extended and the option it took."""

    back: np.ndarray  # index into the parent node's rows
    opt: np.ndarray  # option taken
    parent: "_Node | None"  # the choices before; None at the parent row


class _Partials(NamedTuple):
    """Child rows under construction, one entry per (parent row, choices so far)."""

    row: np.ndarray  # parent row
    logw: np.ndarray  # log weight accumulated so far
    used: np.ndarray  # (n, words) bitmask of the observations consumed so far
    ndet: np.ndarray  # observations consumed so far, by tracks and newborns
    node: _Node | None  # the choices so far, as back pointers

    def take(self, sel) -> "_Partials":
        node = self.node
        if node is not None:
            node = _Node(node.back[sel], node.opt[sel], node.parent)
        return _Partials(self.row[sel], self.logw[sel], self.used[sel], self.ndet[sel], node)


def _extend(parts: _Partials, first: np.ndarray, count: np.ndarray, opts: _Options) -> _Partials:
    """Pair every partial row with options ``first .. first + count - 1`` of its own.

    Pairings that reuse an observation are dropped.
    """
    src, o = _ragged(count, first)
    words = parts.used.shape[1]
    word, bit = opts.word[o], opts.bit[o]
    free = np.flatnonzero((parts.used.reshape(-1)[src * words + word] & bit) == 0)
    src, o, word, bit = src[free], o[free], word[free], bit[free]
    used = np.take(parts.used, src, axis=0)
    used.reshape(-1)[np.arange(len(src)) * words + word] |= bit
    return _Partials(
        parts.row[src],
        parts.logw[src] + opts.logl[o],
        used,
        parts.ndet[src] + opts.det[o],
        _Node(src, o, parts.node),
    )


def _child_ids(node: _Node | None, rows: int, width: int, child: np.ndarray) -> np.ndarray:
    """The ``(rows, width)`` child ids of completed rows, gathered along their back pointers."""
    ids = np.empty((rows, width), dtype=ID_DTYPE)
    at = slice(None)
    for col in reversed(range(width)):
        ids[:, col] = child[node.opt[at]]
        at, node = node.back[at], node.parent
    return ids


def _child_options(state, obs, birth, sensor, gate_threshold):
    """Per-track work: every candidate child track and the option that makes it.

    Each track that can be missed makes a miss option, and each scored
    detection of the scan another (:func:`score_scan`, for all tracks and
    the birth prior at once); the children's distributions are the miss and
    detection posteriors, written into one table. Returns the children as a
    table in canonical path order (a child's id is its index), the options,
    and offsets ``ptr`` such that track ``t``'s options are
    ``ptr[t]:ptr[t + 1]`` (its miss first, then its detections in
    observation order) and the newborns' are ``ptr[-2]:ptr[-1]``.
    """
    table = state.tracks
    n = len(table)
    mass, missed = miss_posteriors(table.dists, sensor)
    miss = np.flatnonzero(mass > 0.0)
    scored = table.dists
    if birth.max_births >= 1:  # newborns are owned by n
        scored = Mixtures.concat(scored, Mixtures.of([birth.spatial]))
    values = np.array([o.value for o in obs]).reshape(len(obs), sensor.obs_dim)
    owner, seen, logl, moments = score_scan(scored, values, sensor, gate_threshold)
    found = np.flatnonzero(logl > NEG_INF)
    # Options by owner, each miss before its detections; src: the row of
    # each option's posterior in (miss posteriors, detection posteriors).
    owner = np.concatenate([miss, owner[found]])
    by_owner = np.argsort(owner, kind="stable")
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
    children = TrackTable(
        [made[k] for k in order.tolist()],
        np.append(table.displayed, False)[owner[order]],
        Mixtures.concat(missed, detection_posteriors(*moments)).take(src[order]),
    )
    det = j >= 0
    bit = np.zeros(len(j), dtype=np.uint64)
    bit[det] = np.uint64(1) << (j[det] % _WORD_BITS).astype(np.uint64)
    word = np.maximum(j, 0) // _WORD_BITS
    opts = _Options(child, logl, word, bit, det.astype(np.int64))
    ptr = np.searchsorted(owner, np.arange(n + 2))
    return children, opts, ptr


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
    probability.
    """
    scan = state.scan + 1
    obs = sorted(scan_obs, key=lambda o: o.id)
    check_scan(obs, scan)
    for o in obs:
        if o.value.shape[0] != sensor.obs_dim:
            raise ModelConfigError(
                f"observation dim {o.value.shape[0]} does not match sensor dim {sensor.obs_dim}"
            )
    prior_total = state.total_weight()
    if not (0.0 < prior_total <= 1.0 + 1e-6):
        raise ValueError(f"prior hypothesis weights must sum into (0, 1], got {prior_total}")

    if gate_threshold is not None:
        _check_threshold(gate_threshold, "gate threshold", math.inf)
    children, opts, opt_ptr = _child_options(state, obs, birth, sensor, gate_threshold)
    births = np.arange(opt_ptr[-2], len(opts.child))  # newborn options, in observation order

    nz = len(obs)
    lcard = [math.log(c) if c > 0.0 else NEG_INF for c in birth.cardinality]
    l1mpfa = math.log1p(-sensor.p_fa)
    lpfa = math.log(sensor.p_fa) if sensor.p_fa > 0.0 else NEG_INF
    # Completed blocks by (tracks, newborns), in the order made.
    out: dict[tuple[int, int], deque] = defaultdict(deque)
    emitted = entries = 0  # rows and ids in them

    def finish(parts: _Partials, k: int) -> None:
        """Add 0..max_births newborns to complete rows and emit them with their weights.

        Newborns never share an observation, so the birth options each row
        leaves free are found once, as one list of (row, option) pairs in
        row-major order; a further newborn takes a later pair of its row.
        """
        nonlocal emitted, entries
        rows = np.arange(len(parts.row))
        free = np.empty((len(rows), len(births)), dtype=bool)
        for j, o in enumerate(births.tolist()):  # a column at a time: 1-D tests are fast
            np.equal(parts.used[:, opts.word[o]] & opts.bit[o], 0, out=free[:, j])
        pairs = np.flatnonzero(free)
        took = births[pairs % len(births)]
        counts = np.bincount(pairs // len(births), minlength=len(rows))
        ends = np.cumsum(counts)
        # pos: the last pair each row took, starting just before its first.
        root, pos, logw, node = rows, ends - counts - 1, parts.logw, parts.node
        for n in range(birth.max_births + 1):
            if n:
                src, pos = _ragged(ends[root] - pos - 1, pos + 1)
                root, logw = root[src], logw[src] + opts.logl[took[pos]]
                node = _Node(src, took[pos], node)
            if not len(root):
                return
            emitted += len(root)
            entries += len(root) * (k + n)
            if emitted > _MAX_ROWS:
                raise HypothesisBudgetError(
                    f"the update would emit more than {_MAX_ROWS} hypotheses"
                )
            ndet = parts.ndet[root] + n
            n_fa = nz - ndet
            fa = n_fa * lpfa if lpfa > NEG_INF else np.where(n_fa > 0, NEG_INF, 0.0)
            out[k, n].append((
                logw + lcard[n] + ndet * l1mpfa + fa,
                _child_ids(node, len(root), k + n, opts.child),
            ))

    lengths = np.diff(state.indptr)
    n_rows = len(lengths)
    with np.errstate(divide="ignore"):
        prior_logw = np.log(state.weights)
    words = max(1, -(-nz // _WORD_BITS))
    parts = _Partials(
        np.arange(n_rows),
        prior_logw,
        np.zeros((n_rows, words), dtype=np.uint64),
        np.zeros(n_rows, dtype=np.int64),
        None,
    )
    # Depth first over blocks of partial rows holding k of their tracks: each
    # block is taken to the end before the next, so temporaries stay
    # block-sized, and every output group still gets its rows in table order.
    stack = [(parts, 0)]
    while stack:
        parts, k = stack.pop()
        if len(parts.row) > _ROW_BLOCK:
            starts = reversed(range(0, len(parts.row), _ROW_BLOCK))
            stack += [(parts.take(slice(s, s + _ROW_BLOCK)), k) for s in starts]
            continue
        done = lengths[parts.row] == k
        if done.any():
            finish(parts.take(np.flatnonzero(done)), k)
            parts = parts.take(np.flatnonzero(~done))
        if len(parts.row):
            t = state.indices[state.indptr[parts.row] + k]
            stack.append((_extend(parts, opt_ptr[t], opt_ptr[t + 1] - opt_ptr[t], opts), k + 1))

    if not out:
        raise DegenerateUpdateError("no admissible association has a defined posterior")
    # Groups in (tracks, newborns) order; each block is dropped as it is copied.
    weights = np.empty(emitted)
    indptr = np.empty(emitted + 1, dtype=np.int64)
    indices = np.empty(entries, dtype=ID_DTYPE)
    indptr[0] = r = e = 0
    for group in sorted(out):
        blocks = out.pop(group)
        while blocks:
            logw, ids = blocks.popleft()
            m, width = ids.shape
            weights[r:r + m] = logw
            indptr[r + 1:r + m + 1] = e + width * np.arange(1, m + 1)
            indices[e:e + ids.size] = ids.ravel()
            r, e = r + m, e + ids.size
    top = float(np.max(weights))
    if top == NEG_INF:
        raise DegenerateUpdateError("all association weights are zero")
    weights -= top
    np.exp(weights, out=weights)
    weights /= weights.sum()
    tracks, indices = keep_tracks(children, indices)
    return FilterState.from_table(scan, tracks, indptr, indices, weights)
