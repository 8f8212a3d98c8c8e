"""Vectorized batch similarity kernel (the ``backend="numpy"`` hot path).

The scalar engine in :mod:`repro.core.similarity` scores one pair at a
time, window by window, with Python loops over dict-backed bins — faithful
to Eq. 2 / Alg. 1 and easy to audit, but every one of the paper's figures
spends most of its runtime there.  This module re-implements the same
arithmetic over blocks of candidate pairs:

1.  **Gather** — one sort-merge join per block finds every
    ``(pair, window)`` *interaction*: the block entities' window
    directories (:meth:`repro.core.corpus.HistoryCorpus.window_index`)
    are expanded per pair, keyed on ``pair * span + window`` and matched
    by one ``searchsorted``, pair-major with windows ascending.  Each
    interaction is a slice of the corpus-wide flat arrays
    (:meth:`repro.core.corpus.HistoryCorpus.arrays`: cell ids,
    geometry-table slots, IDFs; Morton-sorted for locality).
2.  **Shape grouping** — interactions whose distance matrix is a *vector*
    (one cell on either side, the overwhelming majority in real
    workloads) are processed ragged in a single flat dispatch with
    segment reductions (``np.minimum.reduceat`` et al.); true matrices
    (``m, n >= 2``) are padded into square power-of-two buckets
    (``pow2ceil(max(m, n))``), so a whole block needs only a handful of
    dense ``(B, s, s)`` tensor dispatches.
3.  **Distance** — haversine centre angle from precomputed
    lat/lng/cos(lat) minus both circumradii, clamped at zero, identical
    cells exactly ``0.0`` (the lower bound of
    :meth:`repro.geo.cell.CellId.distance_meters` on the same per-cell
    constants), then the Eq. 1 proximity.  When the cell tables hold no
    more slot pairs (``C_u * C_v``) than the block's ``sum(m * n)``
    evaluations, both are computed once per slot pair and gathered by
    ``slot_u * C_v + slot_v``; otherwise per element.  The arithmetic is
    the same either way, so the cost rule never changes a bit.
4.  **Pairing** — greedy mutually-nearest (MNN) and mutually-furthest
    (MFN) selections are run for all matrices of a group simultaneously:
    one stable ``argsort`` over the flattened matrices, then ``m*n``
    vectorized accept/reject steps with used-row/used-column masks.  Stable
    ordering reproduces the scalar ``greedy_index_pairs`` tie-break
    (row-major on equal distances) exactly.
5.  **Aggregation** — proximity (Eq. 1), min-IDF weights, the MFN
    negative-only alibi contributions, and all the instrumentation counters
    (bin comparisons, common windows, alibi bin/entity pairs) are reduced
    per pair with ``np.add.at`` and normalised by the BM25-style length
    norms.

The scalar path stays available as the verification oracle; the parity
suite (``tests/core/test_kernels_parity.py``) asserts both backends agree
to within 1e-9 on scores, counters and final links across every pairing /
MFN / IDF / normalisation combination.

Two properties of this kernel matter to the streaming layer
(:mod:`repro.core.streaming`):

* **dispatch determinism** — a pair's per-window contributions are
  accumulated in the same order (windows ascending; vector interactions,
  then matrix buckets by size) regardless of which other pairs share the
  batch, so scoring a pair alone reproduces its in-block result bit for
  bit.  That is what lets a delta relink re-score only cache misses and
  still match a cold run exactly;
* **normalisation is a separable epilogue** — with
  ``use_normalization=False`` the kernel returns the raw Eq. 2 totals the
  :class:`~repro.core.score_cache.ScoreCache` memoises; the engine applies
  the live length norms afterwards (the identical ``raw / norm``
  operation this kernel would have performed).

Doctest — batched greedy pairing, the heart of step 4:

>>> import numpy as np
>>> distances = np.array([[[0.0, 5.0],
...                        [5.0, 1.0]]])
>>> greedy_select_batch(distances, reverse=False)[0]
array([[ True, False],
       [False,  True]])
>>> greedy_select_batch(distances, reverse=True)[0]  # furthest pairing
array([[False,  True],
       [ True, False]])
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence, Tuple

import numpy as np

from ..geo.point import EARTH_RADIUS_METERS
from .corpus import CellTable, HistoryCorpus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .similarity import SimilarityConfig

__all__ = [
    "BatchScoreResult",
    "concat_results",
    "score_pairs_batch",
    "greedy_select_batch",
]

class BatchScoreResult:
    """Per-pair outputs of one batch kernel dispatch (parallel arrays)."""

    __slots__ = (
        "scores",
        "bin_comparisons",
        "common_windows",
        "alibi_bin_pairs",
    )

    def __init__(
        self,
        scores: np.ndarray,
        bin_comparisons: np.ndarray,
        common_windows: np.ndarray,
        alibi_bin_pairs: np.ndarray,
    ) -> None:
        self.scores = scores
        self.bin_comparisons = bin_comparisons
        self.common_windows = common_windows
        self.alibi_bin_pairs = alibi_bin_pairs

    @classmethod
    def empty(cls) -> "BatchScoreResult":
        """A zero-pair result (the identity of :func:`concat_results`)."""
        return cls(
            scores=np.empty(0, dtype=np.float64),
            bin_comparisons=np.zeros(0, dtype=np.int64),
            common_windows=np.zeros(0, dtype=np.int64),
            alibi_bin_pairs=np.zeros(0, dtype=np.int64),
        )


def concat_results(results: Sequence[BatchScoreResult]) -> BatchScoreResult:
    """Concatenate per-shard kernel results back into pair order.

    The executor-backed scoring path shards a candidate block across
    workers and stitches the per-shard :class:`BatchScoreResult`\\ s back
    together with this; dispatch determinism (see the module docstring)
    is what makes the stitched result bit-identical to one unsharded
    dispatch.
    """
    if not results:
        return BatchScoreResult.empty()
    if len(results) == 1:
        return results[0]
    return BatchScoreResult(
        scores=np.concatenate([r.scores for r in results]),
        bin_comparisons=np.concatenate([r.bin_comparisons for r in results]),
        common_windows=np.concatenate([r.common_windows for r in results]),
        alibi_bin_pairs=np.concatenate([r.alibi_bin_pairs for r in results]),
    )


def greedy_select_batch(
    distances: np.ndarray, reverse: bool, valid: "np.ndarray | None" = None
) -> np.ndarray:
    """Batched greedy mutual pairing over ``(B, m, n)`` distance tensors.

    The vector twin of :func:`repro.core.pairing.greedy_index_pairs`: for
    every matrix of the batch, repeatedly take the smallest (``reverse`` =
    False) or largest (True) remaining entry whose row and column are both
    unused, until ``min(m, n)`` entries are selected.  ``valid`` (optional
    boolean mask, same shape) excludes padded entries from selection.
    Returns a boolean selection mask of the same shape.

    Vector shapes (one row or one column) reduce to a single
    ``argmin``/``argmax``.  General matrices use the locally-dominant
    formulation of sequential greedy: rank all entries by one stable sort,
    then accept, in rounds, every entry that is the best-ranked survivor
    of both its row and its column — such entries never conflict, and the
    fixpoint equals the one-at-a-time greedy result.  Rounds are bounded
    by ``min(m, n)`` and are O(1) numpy passes each, so the whole batch
    costs a handful of vector operations instead of a Python loop per
    candidate.

    Ties break exactly like the scalar code: stable ordering (and
    first-occurrence ``argmin``/``argmax``) resolves equal distances
    row-major.
    """
    batch, rows, cols = distances.shape
    size = rows * cols
    if rows == 1 and cols == 1:
        return np.ones((batch, 1, 1), dtype=bool)
    flat = distances.reshape(batch, size)
    batch_index = np.arange(batch)
    if rows == 1 or cols == 1:
        # (The kernel's own vector dispatch never pads, but honour the
        # documented `valid` contract for external callers: masked entries
        # must not win the argmin/argmax.)
        if valid is not None:
            flat = np.where(
                valid.reshape(batch, size), flat, -np.inf if reverse else np.inf
            )
        best = np.argmax(flat, axis=1) if reverse else np.argmin(flat, axis=1)
        selected = np.zeros((batch, size), dtype=bool)
        selected[batch_index, best] = True
        return selected.reshape(batch, rows, cols)
    if rows == 2 and cols == 2 and valid is None:
        # Closed form: greedy takes the extreme entry, which forces the
        # diagonally opposite entry as the only remaining valid pair.
        best = np.argmax(flat, axis=1) if reverse else np.argmin(flat, axis=1)
        selected = np.zeros((batch, size), dtype=bool)
        selected[batch_index, best] = True
        selected[batch_index, 3 - best] = True
        return selected.reshape(batch, rows, cols)

    order = np.argsort(-flat if reverse else flat, axis=1, kind="stable")
    ranks = np.empty((batch, size), dtype=np.int64)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(size), (batch, size)), axis=1
    )
    ranks = ranks.reshape(batch, rows, cols)

    alive = (
        np.ones((batch, rows, cols), dtype=bool) if valid is None else valid.copy()
    )
    selected = np.zeros((batch, rows, cols), dtype=bool)
    # Rows of the batch finish at different rounds; once most are done it
    # is cheaper to compact the survivors than to keep scanning everyone.
    live_map: "np.ndarray | None" = None
    while True:
        masked = np.where(alive, ranks, size)
        accept = (
            (masked == masked.min(axis=2, keepdims=True))
            & (masked == masked.min(axis=1, keepdims=True))
            & alive
        )
        if live_map is None:
            selected |= accept
        else:
            selected[live_map] |= accept
        alive &= ~(
            accept.any(axis=2, keepdims=True) | accept.any(axis=1, keepdims=True)
        )
        live = alive.any(axis=(1, 2))
        survivors = int(live.sum())
        if not survivors:
            return selected
        if survivors * 2 < live.shape[0]:
            keep = np.nonzero(live)[0]
            live_map = keep if live_map is None else live_map[keep]
            alive = alive[keep]
            ranks = ranks[keep]


def _pow2ceil(values: np.ndarray) -> np.ndarray:
    """Elementwise smallest power of two >= ``values`` (ints >= 1).

    Uses ``frexp`` (exact for integers below 2**53) instead of ``log2``
    rounding, so exact powers of two map to themselves.

    >>> _pow2ceil(np.array([1, 2, 3, 4, 9])).tolist()
    [1, 2, 4, 4, 16]
    """
    frac, exponent = np.frexp(values.astype(np.float64))
    return np.where(frac == 0.5, values, np.left_shift(1, exponent))


def _cell_distances(
    geo_u: CellTable,
    slots_u: np.ndarray,
    cells_u: np.ndarray,
    geo_v: CellTable,
    slots_v: np.ndarray,
    cells_v: np.ndarray,
) -> np.ndarray:
    """Elementwise cell distances over broadcastable slot arrays of two
    cell tables: haversine centre separation minus both circumradii,
    clamped at zero; identical cells are exactly zero (the same lower
    bound as :meth:`repro.geo.cell.CellId.distance_meters`)."""
    lat_u, cos_u = geo_u.lat[slots_u], geo_u.cos_lat[slots_u]
    lat_v, cos_v = geo_v.lat[slots_v], geo_v.cos_lat[slots_v]
    sin_dlat = np.sin((lat_v - lat_u) * 0.5)
    sin_dlng = np.sin((geo_v.lng[slots_v] - geo_u.lng[slots_u]) * 0.5)
    haversine = sin_dlat * sin_dlat + (cos_u * cos_v) * sin_dlng * sin_dlng
    angle = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(haversine)))
    separation = (
        angle * EARTH_RADIUS_METERS - geo_u.radius[slots_u] - geo_v.radius[slots_v]
    )
    distances = np.maximum(separation, 0.0)
    distances[cells_u == cells_v] = 0.0
    return distances


def _slot_table_pays(cells_u: int, cells_v: int, evaluations: int) -> bool:
    """Cost rule of :class:`_CellPairs`: tabulate only when the table is no
    larger than the block's element-wise evaluations."""
    return cells_u * cells_v <= evaluations


class _CellPairs:
    """Distances, Eq. 1 proximities and (IDF-weighted) contributions of
    flat-bin index pairs.

    When :func:`_slot_table_pays` for ``evaluations`` element-wise
    evaluations, distances and proximities are evaluated once per
    ``(left slot, right slot)`` pair of the corpora's cell tables and
    gathered by the key ``slot_u * C_v + slot_v``; otherwise they are
    evaluated element by element on the gathered per-cell constants.
    Each value sees the same arithmetic on the same constants either way,
    so both routes are bit-identical.
    """

    def __init__(
        self,
        left: HistoryCorpus,
        right: HistoryCorpus,
        config: "SimilarityConfig",
        evaluations: int,
    ) -> None:
        self._flats_u = left.arrays()
        self._flats_v = right.arrays()
        self._geo_u = left.cell_table()
        self._geo_v = right.cell_table()
        self._use_idf = config.use_idf
        self._runaway = config.runaway_meters
        self._ceiling = 2.0 - config.alibi_eps
        self._width = len(self._geo_v.cell_ids)
        self._table: "Tuple[np.ndarray, np.ndarray] | None" = None
        if _slot_table_pays(len(self._geo_u.cell_ids), self._width, evaluations):
            distances = _cell_distances(
                self._geo_u,
                np.arange(len(self._geo_u.cell_ids))[:, None],
                self._geo_u.cell_ids[:, None],
                self._geo_v,
                np.arange(self._width),
                self._geo_v.cell_ids,
            ).ravel()
            self._table = (distances, self._proximity(distances))

    def _proximity(self, distances: np.ndarray) -> np.ndarray:
        return np.log2(2.0 - np.minimum(distances / self._runaway, self._ceiling))

    def __call__(
        self, u_idx: np.ndarray, v_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(distances, proximities, contributions)`` broadcast over flat
        index arrays (a contribution is the proximity times the min IDF)."""
        slots_u = self._flats_u.slots[u_idx]
        slots_v = self._flats_v.slots[v_idx]
        if self._table is not None:
            key = slots_u * self._width + slots_v
            distances, prox = self._table[0][key], self._table[1][key]
        else:
            distances = _cell_distances(
                self._geo_u,
                slots_u,
                self._flats_u.cells[u_idx],
                self._geo_v,
                slots_v,
                self._flats_v.cells[v_idx],
            )
            prox = self._proximity(distances)
        if not self._use_idf:
            return distances, prox, prox
        weight = np.minimum(self._flats_u.idf[u_idx], self._flats_v.idf[v_idx])
        return distances, prox, prox * weight


def _segment_first_extreme(
    values: np.ndarray,
    seg_start: np.ndarray,
    lengths: np.ndarray,
    largest: bool,
) -> np.ndarray:
    """Index of the first per-segment minimum (or maximum) of a ragged
    flat array — the segment twin of first-occurrence ``argmin``/``argmax``,
    which is exactly the scalar greedy tie-break for vector matrices."""
    reducer = np.maximum if largest else np.minimum
    extreme = reducer.reduceat(values, seg_start)
    is_extreme = values == np.repeat(extreme, lengths)
    hits = np.cumsum(is_extreme)
    before = np.empty(len(seg_start), dtype=np.int64)
    before[0] = 0
    if len(seg_start) > 1:
        before[1:] = hits[seg_start[1:] - 1]
    first = is_extreme & ((hits - np.repeat(before, lengths)) == 1)
    return np.nonzero(first)[0]


def _score_vector_interactions(
    cell_pairs: _CellPairs,
    config: "SimilarityConfig",
    runaway: float,
    pair_of: np.ndarray,
    off_u: np.ndarray,
    count_u: np.ndarray,
    off_v: np.ndarray,
    count_v: np.ndarray,
    totals: np.ndarray,
    alibi_bins: np.ndarray,
) -> None:
    """Score every interaction whose distance matrix is a vector
    (``min(m, n) == 1``) in one ragged flat dispatch.

    MNN degenerates to the first per-segment minimum, MFN to the first
    per-segment maximum (skipped when it coincides with the MNN pick —
    the scalar "avoid double counting" rule), and the all-pairs ablation
    to a plain segment sum, so no greedy loop is needed at all.
    """
    lengths = count_u * count_v
    seg_start = np.cumsum(lengths) - lengths
    position = _ragged_arange(np.zeros_like(lengths), lengths)
    u_advances = np.repeat(count_v == 1, lengths)
    u_idx = np.repeat(off_u, lengths) + np.where(u_advances, position, 0)
    v_idx = np.repeat(off_v, lengths) + np.where(u_advances, 0, position)

    distances, prox, contribution = cell_pairs(u_idx, v_idx)

    if config.pairing == "mnn":
        nearest = _segment_first_extreme(distances, seg_start, lengths, largest=False)
        seg_totals = contribution[nearest]
        seg_alibi = (prox[nearest] < 0.0).astype(np.int64)
        if config.use_mfn and bool((distances > runaway).any()):
            furthest = _segment_first_extreme(
                distances, seg_start, lengths, largest=True
            )
            delta = contribution[furthest]
            negative = (furthest != nearest) & (delta < 0.0)
            seg_totals = seg_totals + np.where(negative, delta, 0.0)
            seg_alibi += negative
    else:
        seg_totals = np.add.reduceat(contribution, seg_start)
        seg_alibi = np.add.reduceat((prox < 0.0).astype(np.int64), seg_start)

    np.add.at(totals, pair_of, seg_totals)
    np.add.at(alibi_bins, pair_of, seg_alibi)


def _score_shape_group(
    cell_pairs: _CellPairs,
    config: "SimilarityConfig",
    runaway: float,
    pair_index: np.ndarray,
    idx_u: np.ndarray,
    idx_v: np.ndarray,
    valid: "np.ndarray | None",
    totals: np.ndarray,
    alibi_bins: np.ndarray,
) -> None:
    """Score every interaction of one padded shape bucket in place.

    ``idx_u`` / ``idx_v`` are the ``(B, s)`` flat-bin rows of each side.
    ``valid`` masks real (non-padded) matrix entries; ``None`` means the
    whole bucket is unpadded.  Padded rows/columns duplicate the last real
    cell of their side, so the distance math never sees garbage — they are
    simply excluded from selection and aggregation.
    """
    rows = idx_u.shape[1]
    cols = idx_v.shape[1]
    mnn = config.pairing == "mnn"
    use_mfn = config.use_mfn and mnn and (rows > 1 or cols > 1)

    distances, prox, contribution = cell_pairs(idx_u[:, :, None], idx_v[:, None, :])

    if mnn:
        selected = greedy_select_batch(distances, reverse=False, valid=valid)
    elif valid is None:
        selected = np.ones_like(contribution, dtype=bool)
    else:
        selected = valid

    group_totals = np.where(selected, contribution, 0.0).sum(axis=(1, 2))
    group_alibi = (selected & (prox < 0.0)).sum(axis=(1, 2))

    if use_mfn:
        # The MFN pass can only contribute negative (alibi) terms, and
        # those need a distance beyond the runaway — matrices without one
        # are skipped wholesale, which on friendly workloads prunes almost
        # the entire furthest-pairing cost.
        alibi_possible = distances > runaway
        if valid is not None:
            alibi_possible &= valid
        needs_mfn = np.nonzero(alibi_possible.any(axis=(1, 2)))[0]
        if needs_mfn.size:
            furthest = greedy_select_batch(
                distances[needs_mfn],
                reverse=True,
                valid=None if valid is None else valid[needs_mfn],
            )
            negative = (
                furthest & ~selected[needs_mfn] & (contribution[needs_mfn] < 0.0)
            )
            group_totals[needs_mfn] += np.where(
                negative, contribution[needs_mfn], 0.0
            ).sum(axis=(1, 2))
            group_alibi[needs_mfn] += negative.sum(axis=(1, 2))

    np.add.at(totals, pair_index, group_totals)
    np.add.at(alibi_bins, pair_index, group_alibi)


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``
    in one vector pass.

    >>> _ragged_arange(np.array([5, 0, 2]), np.array([2, 0, 3])).tolist()
    [5, 6, 2, 3, 4]
    """
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        starts - (ends - lengths), lengths
    )


def _block_directory(
    corpus: HistoryCorpus, entities: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The window directories of a block's distinct entities, fetched once
    and concatenated: ``(windows, offsets, counts, rows, lengths)``.
    ``rows`` lists the directory rows of ``entities[0]`` (windows
    ascending), then of ``entities[1]``, and so on; ``lengths[i]`` is the
    number of rows of ``entities[i]``."""
    ordinal: Dict[str, int] = {}
    position = [ordinal.setdefault(entity, len(ordinal)) for entity in entities]
    indexes = [corpus.window_index(entity) for entity in ordinal]
    sizes = np.array([len(index) for index in indexes], dtype=np.int64)
    lengths = sizes[position]
    return (
        np.concatenate([index.windows for index in indexes]),
        np.concatenate([index.offsets for index in indexes]),
        np.concatenate([index.counts for index in indexes]),
        _ragged_arange((np.cumsum(sizes) - sizes)[position], lengths),
        lengths,
    )


def _join_windows(
    left: HistoryCorpus,
    right: HistoryCorpus,
    pairs: Sequence[Tuple[str, str]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every ``(pair, common window)`` interaction of a non-empty block in
    one sort-merge join: ``(pair, offset_u, count_u, offset_v, count_v)``,
    pair-major with windows ascending.

    Each side's directory rows are expanded per pair and keyed on
    ``pair * span + window``.  Both key arrays come out sorted, so one
    ``searchsorted`` of the left keys into the right keys finds every
    match, in key order.
    """
    lefts, rights = zip(*pairs)
    win_u, off_u, count_u, rows_u, len_u = _block_directory(left, lefts)
    win_v, off_v, count_v, rows_v, len_v = _block_directory(right, rights)
    if not rows_u.size or not rows_v.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty, empty
    low = min(int(win_u.min()), int(win_v.min()))
    span = max(int(win_u.max()), int(win_v.max())) - low + 1
    base = np.arange(len(pairs), dtype=np.int64) * span - low
    keys_u = np.repeat(base, len_u) + win_u[rows_u]
    keys_v = np.repeat(base, len_v) + win_v[rows_v]
    found = np.searchsorted(keys_v, keys_u)
    np.minimum(found, len(keys_v) - 1, out=found)
    hit = np.nonzero(keys_v[found] == keys_u)[0]
    row_u = rows_u[hit]
    row_v = rows_v[found[hit]]
    return (
        keys_u[hit] // span,
        off_u[row_u],
        count_u[row_u],
        off_v[row_v],
        count_v[row_v],
    )


def score_pairs_batch(
    left: HistoryCorpus,
    right: HistoryCorpus,
    pairs: Sequence[Tuple[str, str]],
    config: "SimilarityConfig",
) -> BatchScoreResult:
    """Score a block of candidate pairs through the vectorized kernel.

    Semantically identical to running the scalar
    :meth:`repro.core.similarity.SimilarityEngine.score_with_stats` over
    ``pairs``; all the per-pair counters of
    :class:`~repro.core.similarity.SimilarityStats` are reproduced so the
    instrumented figures (bin comparisons, alibi pairs) are backend
    independent.
    """
    num_pairs = len(pairs)
    totals = np.zeros(num_pairs, dtype=np.float64)
    bin_comparisons = np.zeros(num_pairs, dtype=np.int64)
    common_windows = np.zeros(num_pairs, dtype=np.int64)
    alibi_bins = np.zeros(num_pairs, dtype=np.int64)
    result = BatchScoreResult(
        scores=totals,
        bin_comparisons=bin_comparisons,
        common_windows=common_windows,
        alibi_bin_pairs=alibi_bins,
    )
    if not num_pairs:
        return result
    pair_of, off_u, count_u, off_v, count_v = _join_windows(left, right, pairs)
    if not pair_of.size:
        return result

    comparisons = count_u * count_v
    common_windows += np.bincount(pair_of, minlength=num_pairs).astype(np.int64)
    bin_comparisons += np.bincount(
        pair_of, weights=comparisons.astype(np.float64), minlength=num_pairs
    ).astype(np.int64)
    runaway = config.runaway_meters
    cell_pairs = _CellPairs(left, right, config, int(comparisons.sum()))

    # Vector-shaped interactions (one cell on either side) take the flat
    # ragged path: one dispatch, no padding, no greedy loop.
    vector = (count_u == 1) | (count_v == 1)
    if vector.any():
        members = np.nonzero(vector)[0]
        _score_vector_interactions(
            cell_pairs,
            config,
            runaway,
            pair_of[members],
            off_u[members],
            count_u[members],
            off_v[members],
            count_v[members],
            totals,
            alibi_bins,
        )

    # True matrices go into square power-of-two buckets: a (m, n) matrix
    # lands in bucket s = pow2ceil(max(m, n)), padded by repeating each
    # side's last cell (masked out of selection/aggregation).  Bounded
    # padding waste buys an O(log) bucket count instead of one dispatch
    # per distinct shape.
    matrix = np.nonzero(~vector)[0]
    if matrix.size:
        sizes = _pow2ceil(np.maximum(count_u[matrix], count_v[matrix]))
        for side in np.unique(sizes).tolist():
            members = matrix[sizes == side]
            m_real = count_u[members, None]
            n_real = count_v[members, None]
            span = np.arange(side)
            idx_u = off_u[members, None] + np.minimum(span, m_real - 1)
            idx_v = off_v[members, None] + np.minimum(span, n_real - 1)
            if (m_real < side).any() or (n_real < side).any():
                valid = (span < m_real)[:, :, None] & (span < n_real)[:, None, :]
            else:
                valid = None
            _score_shape_group(
                cell_pairs,
                config,
                runaway,
                pair_of[members],
                idx_u,
                idx_v,
                valid,
                totals,
                alibi_bins,
            )

    if config.use_normalization:
        norms = left.length_norms((u for u, _ in pairs), config.b) * (
            right.length_norms((v for _, v in pairs), config.b)
        )
        np.divide(totals, norms, out=totals, where=norms > 0)
    return result
