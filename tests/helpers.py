"""Shared builders for compact one-dimensional test models."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from disptrack import (
    AugmentedDistribution,
    BirthModel,
    DegenerateUpdateError,
    GaussianComponent,
    MotionModel,
    Observation,
    SensorModel,
    StateSpace,
    TrackEstimate,
    association_weight,
    enumerate_associations,
    missdetection_mass,
    newborn_path,
    point_estimate,
)
from disptrack.approximations import _cooccurrence
from disptrack.engine import (
    ID_DTYPE,
    NEG_INF,
    FilterState,
    ObservationPath,
    Track,
    TrackTable,
    _child_options,
    _ragged,
    _take_rows,
    keep_tracks,
    padded_rows,
    row_offsets,
)
from disptrack.models import log_predictive_likelihood, moment_match


def comp(weight: float, mean: float, var: float) -> GaussianComponent:
    return GaussianComponent(weight, np.array([mean]), np.array([[var]]))


def dist(presence: float, *components: tuple[float, float, float]) -> AugmentedDistribution:
    return AugmentedDistribution(presence, tuple(comp(*c) for c in components))


def unit_dist(presence: float = 1.0, mean: float = 0.0, var: float = 1.0) -> AugmentedDistribution:
    return dist(presence, (1.0, mean, var))


def rebuild_checked(d):
    """Rebuild a derived distribution, path or track through the checked constructors.

    The filter builds derived records without the constructors' checks; this
    raises ``ModelConfigError`` (``ValueError`` for a path) wherever a check
    would have failed, and asserts the derived values are in the form the
    checked constructors store (so reports serialize alike either way).
    """
    if isinstance(d, Track):
        return Track(rebuild_checked(d.path), rebuild_checked(d.dist), d.displayed)
    if isinstance(d, ObservationPath):
        assert type(d.birth_scan) is int and type(d.detections) is tuple
        assert all(type(s) is int and type(i) is int for s, i in d.detections)
        path = ObservationPath(d.birth_scan, d.detections)
        assert path == d
        return path
    assert type(d.presence) is float and type(d.spatial) is tuple
    for c in d.spatial:
        assert type(c.weight) is float
        assert c.mean.dtype == np.float64 and c.mean.ndim == 1
        assert c.cov.dtype == np.float64 and c.cov.ndim == 2
    comps = tuple(GaussianComponent(c.weight, c.mean, c.cov) for c in d.spatial)
    return AugmentedDistribution(d.presence, comps)


def motion_1d(p_s: float = 1.0, f: float = 1.0, q: float = 0.0) -> MotionModel:
    return MotionModel(np.array([[f]]), np.array([[q]]), p_s)


def sensor_1d(p_d: float = 1.0, p_fa: float = 0.0, r: float = 1.0, h: float = 1.0) -> SensorModel:
    return SensorModel(np.array([[h]]), np.array([[r]]), p_d, p_fa)


def birth_1d(cardinality, mean: float = 0.0, var: float = 10.0) -> BirthModel:
    return BirthModel(np.asarray(cardinality, dtype=float), unit_dist(1.0, mean, var))


def obs(scan: int, idx: int, value: float) -> Observation:
    return Observation((scan, idx), np.array([value]))


def space_1d(lo: float = -100.0, hi: float = 100.0) -> StateSpace:
    return StateSpace(1, np.array([[lo, hi]]))


def random_scans(rng: np.random.Generator, counts: list[int], spread: float = 5.0):
    """Observation scans with the given per-scan counts, values spread around 0."""
    return [
        [obs(t, k, float(rng.uniform(-spread, spread))) for k in range(c)]
        for t, c in enumerate(counts)
    ]


def reference_update(state, scan_obs, birth, sensor, gate=None):
    """Slow reference update: explicit association enumeration plus per-association weights.

    Returns {child hypothesis: normalized weight}, or {} when no admissible
    association has positive weight. Associations that condition a track on
    a zero-probability event (a miss of a surely detected target, a
    detection the target cannot produce) have no posterior and yield no
    child. ``gate`` is a one-pair (distribution, observation) predicate, as
    ``make_gate`` builds.
    """
    path_gate = None
    if gate is not None:
        def path_gate(path, z):
            return gate(birth.spatial if path is None else state.tracks[path].dist, z)

    raw = {}
    for h in state.hypotheses:
        base = math.log(h.weight) if h.weight > 0 else -math.inf
        for n, c in enumerate(birth.cardinality):
            lc = math.log(c) if c > 0 else -math.inf
            for assoc in enumerate_associations(h, n, scan_obs, path_gate):
                detected = dict(assoc.detected)
                if any(
                    missdetection_mass(state.tracks[p].dist, sensor) <= 0
                    for p in h.tracks
                    if p not in detected
                ) or any(
                    log_predictive_likelihood(state.tracks[p].dist, z, sensor) == -math.inf
                    for p, z in assoc.detected
                ):
                    continue
                members = [p.extended(detected[p].id) if p in detected else p for p in h.tracks]
                members += [newborn_path(z.id) for z in assoc.birth_obs]
                key = tuple(sorted(members))
                w = base + lc + association_weight(h, assoc, scan_obs, birth, sensor, state)
                prev = raw.get(key)
                raw[key] = w if prev is None else np.logaddexp(prev, w)
    if not raw or max(raw.values()) == -math.inf:
        return {}
    m = max(raw.values())
    lin = {k: math.exp(v - m) for k, v in raw.items()}
    total = sum(lin.values())
    return {k: v / total for k, v in lin.items()}


def assert_matches_reference(state, ref):
    """The state's hypotheses are the keys of ``reference_update``'s result, weights to 1e-12."""
    got = [(h.tracks, h.weight) for h in state.hypotheses]
    keys = [k for k, _ in got]
    assert len(set(keys)) == len(keys), "duplicate hypothesis rows"
    assert set(keys) == set(ref)
    for key, w in got:
        assert abs(w - ref[key]) <= 1e-12 * ref[key], (key, w, ref[key])


def reference_fold_rows(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray):
    """The row fold by ``np.unique(axis=0)``: the reference ``fold_rows`` must match bit for bit.

    Sorts every row, then merges identical rows by adding their weights in
    table order; merged rows keep the position of their first occurrence.
    """
    fill = np.iinfo(ID_DTYPE).max
    pad = padded_rows(indptr, indices, fill)
    pad.sort(axis=1)
    uniq, first, inverse = np.unique(pad, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    folded = np.bincount(inverse.reshape(-1), weights=weights, minlength=len(uniq))
    uniq = uniq[order]
    real = uniq != fill
    return row_offsets(real.sum(axis=1)), uniq[real], folded[order]


def reference_top_rows(state: FilterState, k: int) -> np.ndarray:
    """``FilterState.top_rows`` with the cut read from ``np.partition`` for every ``k``.

    Rows above the cut weight come first, in table order, then the tied rows
    in canonical order (fewest tracks, then lexicographic ids).
    """
    w = state.weights
    if k >= len(w):
        return np.arange(len(w))
    cut = np.partition(w, len(w) - k)[len(w) - k]
    above = np.flatnonzero(w > cut)
    tied = np.flatnonzero(w == cut)
    if len(above) + len(tied) > k:
        indptr, indices = _take_rows(state.indptr, state.indices, tied)
        pad = padded_rows(indptr, indices, -1)
        tied = tied[np.lexsort((*pad.T[::-1], np.diff(indptr)))]
    return np.concatenate([above, tied[:k - len(above)]])


def reference_extract_tracks(state: FilterState, cfg, space: StateSpace):
    """Extraction from every track's existence: ``extract_tracks`` must match it bit for bit.

    Sums the existence of all tracks over the whole table, where
    ``extract_tracks`` sums it only for the MAP hypothesis's tracks, and
    picks the MAP row by ``reference_top_rows``. Returns ``(state,
    estimates, MAP hypothesis)`` like ``extract_tracks``.
    """
    best = state.hypotheses[reference_top_rows(state, 1)[0]]
    table = state.tracks
    member = np.zeros(len(table.paths), dtype=bool)
    member[[table.index(p) for p in best.tracks]] = True
    alpha = state.existence()
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


def _child_ids(node: _Node | None, rows: int, width: int, child: np.ndarray) -> np.ndarray:
    """The ``(rows, width)`` child ids of completed rows, gathered along their back pointers."""
    ids = np.empty((rows, width), dtype=ID_DTYPE)
    at = slice(None)
    for col in reversed(range(width)):
        ids[:, col] = child[node.opt[at]]
        at, node = node.back[at], node.parent
    return ids


def reference_join_update(state, scan_obs, birth, sensor, gate_threshold=None):
    """The update by a back-pointer join over every parent row: ``update`` must match it bit for bit.

    It enumerates each parent row's associations itself, where ``update``
    shares them between rows of equal track signatures, and so pins the
    table's bytes and row order. Each partial row pairs with its next
    track's options, a per-row observation bitmask dropping pairings that
    reuse an observation; births come last, each further newborn taking a
    later free birth option. It runs depth first over blocks of partial
    rows, has no hypothesis budget and does not validate its inputs.
    """
    block = 1 << 15
    scan = state.scan + 1
    obs = sorted(scan_obs, key=lambda o: o.id)
    children, opts, opt_ptr = _child_options(state, obs, birth, sensor, gate_threshold)[:3]
    births = np.arange(opt_ptr[-2], len(opts.child))
    nz = len(obs)
    lcard = [math.log(c) if c > 0.0 else NEG_INF for c in birth.cardinality]
    l1mpfa = math.log1p(-sensor.p_fa)
    lpfa = math.log(sensor.p_fa) if sensor.p_fa > 0.0 else NEG_INF
    out: dict = defaultdict(list)  # completed blocks by (tracks, newborns), in the order made

    def extend(parts: _Partials, first: np.ndarray, count: np.ndarray) -> _Partials:
        src, o = _ragged(count, first)
        words = parts.used.shape[1]
        word, bit = opts.word[o], opts.bit[o]
        free = np.flatnonzero((parts.used.reshape(-1)[src * words + word] & bit) == 0)
        src, o, word, bit = src[free], o[free], word[free], bit[free]
        used = np.take(parts.used, src, axis=0)
        used.reshape(-1)[np.arange(len(src)) * words + word] |= bit
        logw = parts.logw[src] + opts.logl[o]
        return _Partials(parts.row[src], logw, used, parts.ndet[src] + opts.det[o], _Node(src, o, parts.node))

    def finish(parts: _Partials, k: int) -> None:
        rows = np.arange(len(parts.row))
        free = np.empty((len(rows), len(births)), dtype=bool)
        for j, o in enumerate(births.tolist()):
            np.equal(parts.used[:, opts.word[o]] & opts.bit[o], 0, out=free[:, j])
        pairs = np.flatnonzero(free)
        took = births[pairs % len(births)]
        counts = np.bincount(pairs // len(births), minlength=len(rows))
        ends = np.cumsum(counts)
        root, pos, logw, node = rows, ends - counts - 1, parts.logw, parts.node
        for n in range(birth.max_births + 1):
            if n:
                src, pos = _ragged(ends[root] - pos - 1, pos + 1)
                root, logw = root[src], logw[src] + opts.logl[took[pos]]
                node = _Node(src, took[pos], node)
            if not len(root):
                return
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
    words = max(1, -(-nz // 64))
    parts = _Partials(
        np.arange(n_rows),
        prior_logw,
        np.zeros((n_rows, words), dtype=np.uint64),
        np.zeros(n_rows, dtype=np.int64),
        None,
    )
    stack = [(parts, 0)]
    while stack:
        parts, k = stack.pop()
        if len(parts.row) > block:
            starts = reversed(range(0, len(parts.row), block))
            stack += [(parts.take(slice(s, s + block)), k) for s in starts]
            continue
        done = lengths[parts.row] == k
        if done.any():
            finish(parts.take(np.flatnonzero(done)), k)
            parts = parts.take(np.flatnonzero(~done))
        if len(parts.row):
            # Widened: a stored id is as narrow as uint8, where 255 + 1 wraps to 0.
            t = state.indices[state.indptr[parts.row] + k].astype(np.intp)
            parts = extend(parts, opt_ptr[t], opt_ptr[t + 1] - opt_ptr[t])
            stack.append((parts, k + 1))

    if not out:
        raise DegenerateUpdateError("no admissible association has a defined posterior")
    weights, ids, indptr, e = [], [], [0], 0
    for group in sorted(out):
        for logw, block_ids in out[group]:
            weights.append(logw)
            ids.append(block_ids.ravel())
            width = block_ids.shape[1]
            indptr.extend((e + width * np.arange(1, len(logw) + 1)).tolist())
            e += block_ids.size
    weights = np.concatenate(weights)
    top = float(np.max(weights))
    if top == NEG_INF:
        raise DegenerateUpdateError("all association weights are zero")
    weights -= top
    np.exp(weights, out=weights)
    weights /= weights.sum()
    tracks, indices = keep_tracks(children, np.concatenate(ids).astype(ID_DTYPE))
    return FilterState.from_table(scan, tracks, np.array(indptr, dtype=np.int64), indices, weights)


def _reference_merged_track(a: Track, b: Track, alpha_a: float, alpha_b: float, ca, cb) -> Track:
    """The pair's two-way moment match, written out: existence weights, even when both are zero."""
    total = alpha_a + alpha_b
    wa, wb = (alpha_a / total, alpha_b / total) if total > 0.0 else (0.5, 0.5)
    presence = min(1.0, max(0.0, wa * a.dist.presence + wb * b.dist.presence))
    mean = wa * ca.mean + wb * cb.mean
    da, db = ca.mean - mean, cb.mean - mean
    cov = wa * (ca.cov + np.outer(da, da)) + wb * (cb.cov + np.outer(db, db))
    comp = GaussianComponent(1.0, mean, 0.5 * (cov + cov.T))
    return Track(a.path, AugmentedDistribution(presence, (comp,)), a.displayed)


def reference_merge_tracks(state: FilterState, d_threshold: float) -> FilterState:
    """Per-pair greedy merge pass: the pair distance is solved inside the loop.

    The merge pass as it was before its pair distances were batched, kept
    unchanged as the reference that ``merge_tracks`` must match exactly; the
    merged track is the two-way moment match written out in full.

    Tracks sharing a hypothesis are, by construction, candidates for two
    distinct targets and are never merged. Eligible pairs are processed
    greedily in descending combined-existence order, each track merging at
    most once per pass. The merged track keeps the path and display status
    of the higher-existence member; its presence and spatial mixture are the
    existence-weighted combination of the pair. A pair is skipped when the
    substitution would put incompatible paths into one hypothesis, counting
    the substitutions made earlier in the pass.
    """
    if d_threshold < 0.0:
        raise ValueError(f"merge threshold must be nonnegative, got {d_threshold}")
    alpha = state.existence()
    tracks = list(state.tracks.values())
    n = len(tracks)
    spatial = np.array([bool(t.dist.spatial) for t in tracks], dtype=bool)
    first, second = np.triu_indices(n, 1)
    eligible = spatial[first] & spatial[second]
    first, second = first[eligible], second[eligible]
    order = np.lexsort((second, first, -(alpha[first] + alpha[second])))
    co = _cooccurrence(padded_rows(state.indptr, state.indices, n), n)
    obs_bit: dict = {}
    obs_mask = [
        sum(1 << obs_bit.setdefault(o, len(obs_bit)) for o in p.detections) for p in state.tracks
    ]
    moments: dict[int, GaussianComponent] = {}

    def matched(i: int) -> GaussianComponent:
        if i not in moments:
            moments[i] = moment_match(tracks[i].dist.spatial)
        return moments[i]

    # Each track id stands for itself until a merge folds it into another.
    stands_for = list(range(n))
    merged: dict[int, Track] = {}
    consumed = np.zeros(n, dtype=bool)
    for a, b in zip(first[order].tolist(), second[order].tolist()):
        if consumed[a] or consumed[b] or co[a, b]:
            continue
        ca, cb = matched(a), matched(b)
        total = alpha[a] + alpha[b]
        if total > 0.0:
            pooled = (alpha[a] * ca.cov + alpha[b] * cb.cov) / total
        else:
            pooled = 0.5 * (ca.cov + cb.cov)
        diff = ca.mean - cb.mean
        if float(diff @ np.linalg.solve(pooled, diff)) >= d_threshold:
            continue
        # Keep the higher-existence member's path (ties: canonical order,
        # which is how the pair was generated).
        if alpha[b] > alpha[a]:
            a, b = b, a
        # The kept path must stay compatible inside every hypothesis that
        # held the dropped one, as earlier merges have relabelled it.
        held_with_b = 0
        for p in np.flatnonzero(co[b]).tolist():
            held_with_b |= obs_mask[stands_for[p]]
        if held_with_b & obs_mask[a]:
            continue
        merged[a] = _reference_merged_track(
            tracks[a], tracks[b], float(alpha[a]), float(alpha[b]), matched(a), matched(b)
        )
        stands_for[b] = a
        consumed[a] = consumed[b] = True
    if not merged:
        return state
    stands = np.array(stands_for)
    table = TrackTable.of({p: merged.get(i, t) for i, (p, t) in enumerate(state.tracks.items())})
    table, indices = keep_tracks(table, stands[state.indices])
    indptr, indices, weights = reference_fold_rows(state.indptr, indices, state.weights)
    return FilterState.from_table(state.scan, table, indptr, indices, weights)
