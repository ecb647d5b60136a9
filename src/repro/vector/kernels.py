"""Vectorized dual-space query kernels (Proposition 1, §3.1-3.5).

Each kernel evaluates one of the paper's geometric predicates over a
whole column store in a few array passes instead of a Python loop per
object:

* :func:`mor_mask` — the MOR membership test.  Proposition 1 phrases
  it as a convex wedge in the Hough-X ``(v, a)`` plane; evaluated in
  the primal it is "the swept interval ``[min(y(t1), y(t2)),
  max(y(t1), y(t2))]`` intersects ``[y1, y2]``".  The kernel uses the
  primal form because it performs *bit-identical* float arithmetic to
  the scalar oracle :func:`repro.core.predicates.matches_1d` — the
  batch paths are differential-tested byte-for-byte against the
  scalar paths, so the kernels must not introduce epsilon drift.
* :func:`wedge_mask` — the literal Hough-X half-plane (simplex) test
  of Proposition 1, for callers holding dual points (same arithmetic
  and slack as :meth:`repro.core.duality.HalfPlane.contains`).
* :func:`b_range_mask` / :func:`hough_y_exact_mask` — the Hough-Y
  horizon-crossing machinery of §3.5.2: the rectangle
  ``b``-range prefilter (with its bounded false-positive area ``E``)
  and the exact dual filter that removes those false positives.
* :func:`snapshot_mask` — the MOR1 instant test (§3.6).
* :func:`knn_distances` / :func:`knn_candidates` /
  :func:`rank_candidates` / :func:`knn_select` — batched k-NN at a
  future instant: an O(n) partition to the boundary-inclusive
  candidates, then a sort of those alone, with the ``(distance,
  oid)`` tie-break of :func:`repro.extensions.neighbors.knn_at`.
* :func:`proximity_pair_mask` / :func:`proximity_pairs_blocked` — the
  pairwise proximity prefilter: the relative motion of two linear
  motions is linear, so the window-minimum gap of every pair is an
  endpoint/crossing expression evaluated on broadcast blocks.

All kernels take raw arrays (or a :class:`MotionColumns` unpacked via
``arrays()``) and are pure: no I/O simulation, no state.  Zero and
negative velocities are handled where the scalar predicate handles
them; Hough-Y kernels mirror the scalar convention that ``v == 0`` has
no dual image (such rows simply never match).
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from repro.core.duality import ConvexRegion, hough_y_b_range
from repro.core.queries import MORQuery1D

#: Block edge for the pairwise proximity kernel: bounds peak memory at
#: ``block * n`` floats per broadcast buffer while keeping each block
#: large enough to amortize dispatch overhead.
PAIR_BLOCK = 512


def positions_at(
    y0: np.ndarray, v: np.ndarray, t0: np.ndarray, t: float
) -> np.ndarray:
    """Extrapolated locations ``y0 + v * (t - t0)`` at instant ``t``."""
    return y0 + v * (t - t0)


# -- range membership ---------------------------------------------------------


def mor_mask(
    y0: np.ndarray, v: np.ndarray, t0: np.ndarray, query: MORQuery1D
) -> np.ndarray:
    """Boolean mask of objects satisfying the MOR query.

    Bit-identical to mapping :func:`repro.core.predicates.matches_1d`
    over the rows (same operations in the same order, float64
    throughout), for every velocity including ``v == 0``.
    """
    y_start = y0 + v * (query.t1 - t0)
    y_end = y0 + v * (query.t2 - t0)
    lo = np.minimum(y_start, y_end)
    hi = np.maximum(y_start, y_end)
    return (lo <= query.y2) & (hi >= query.y1)


def snapshot_mask(
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
    y1: float,
    y2: float,
    t: float,
) -> np.ndarray:
    """Boolean mask of objects inside ``[y1, y2]`` exactly at ``t``.

    Bit-identical to :func:`repro.core.predicates.matches_mor1`.
    """
    y = y0 + v * (t - t0)
    return (y1 <= y) & (y <= y2)


# -- Hough-X: the Proposition 1 wedge ----------------------------------------


def hough_x_points(
    y0: np.ndarray, v: np.ndarray, t0: np.ndarray, t_ref: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Columnar Hough-X dual points ``(v, a)`` relative to ``t_ref``."""
    return v, y0 + v * (t_ref - t0)


def wedge_mask(
    v: np.ndarray,
    a: np.ndarray,
    region: ConvexRegion,
    eps: float = 1e-9,
) -> np.ndarray:
    """Membership of dual points in a convex wedge (Proposition 1).

    Evaluates every half-plane of ``region`` over the point columns,
    with the same ``eps`` slack as the scalar
    :meth:`~repro.core.duality.HalfPlane.contains` — a point is inside
    the wedge iff the scalar test says so.
    """
    mask = np.ones(v.shape, dtype=bool)
    for hp in region.constraints:
        mask &= (hp.cx * v + hp.cy * a) <= (hp.rhs + eps)
    return mask


# -- Hough-Y: the §3.5.2 b-range approximation -------------------------------


def hough_y_points(
    y0: np.ndarray, v: np.ndarray, t0: np.ndarray, y_r: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Columnar Hough-Y dual points ``(n, b)`` for horizon ``y_r``.

    ``n = 1/v`` and ``b = t0 + (y_r - y0) / v`` — the same division
    chain as :func:`repro.core.duality.hough_y`.  Rows with ``v == 0``
    (no Hough-Y image; the scalar transform raises) come back as
    ``inf``/``nan`` and fail every downstream comparison, so they are
    excluded from Hough-Y answers exactly like the scalar pipeline
    excludes them from the moving population.
    """
    # over= covers subnormal speeds (1/v -> inf), which downstream
    # comparisons reject the same way they reject the v == 0 rows.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n = 1.0 / v
        b = t0 + (y_r - y0) / v
    return n, b


def b_range_mask(
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
    query: MORQuery1D,
    y_r: float,
    v_min: float,
    v_max: float,
) -> np.ndarray:
    """The Hough-Y rectangle prefilter: ``b`` within the §3.5.2 range.

    This is the candidate-fetch predicate of the B+-tree forest — a
    superset of the exact answer for the *positive-velocity*
    population with bounded extra area ``E`` (equations (1)-(2)); pair
    with :func:`hough_y_exact_mask` to drop the false positives.
    Rows with ``v <= 0`` never match (reflect them first, §3.2).
    """
    b_lo, b_hi = hough_y_b_range(query, y_r, v_min, v_max)
    _, b = hough_y_points(y0, v, t0, y_r)
    with np.errstate(invalid="ignore"):
        return (v > 0) & (b_lo <= b) & (b <= b_hi)


def hough_y_exact_mask(
    n: np.ndarray,
    b: np.ndarray,
    query: MORQuery1D,
    y_r: float,
) -> np.ndarray:
    """Exact Hough-Y membership over dual-point columns.

    Same arithmetic and relative slack as the scalar
    :func:`repro.core.duality.hough_y_matches` — used to discard the
    rectangle approximation's false positives.
    """
    lhs_1 = b + (query.y1 - y_r) * n
    lhs_2 = b + (query.y2 - y_r) * n
    eps_1 = 1e-9 * (1.0 + np.abs(lhs_1) + abs(query.t2))
    eps_2 = 1e-9 * (1.0 + np.abs(lhs_2) + abs(query.t1))
    with np.errstate(invalid="ignore"):
        return (lhs_1 <= query.t2 + eps_1) & (lhs_2 >= query.t1 - eps_2)


# -- batched k-nearest-neighbor ----------------------------------------------


def knn_distances(
    y0: np.ndarray, v: np.ndarray, t0: np.ndarray, y: float, t: float
) -> np.ndarray:
    """``|y(t) - y|`` for every object — the k-NN ranking key."""
    return np.abs(y0 + v * (t - t0) - y)


def knn_candidates(
    oid: np.ndarray, dist: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every row that can rank in the top-``k`` by ``(distance, oid)``.

    ``np.partition`` finds the ``k``-th smallest distance in O(n); the
    candidates are all rows at or below it, so ties straddling the
    boundary survive and the oid tie-break stays exact for whoever
    ranks them.  Returns fresh ``(oid, dist)`` arrays (never views of
    the inputs) of ``k`` rows plus any boundary ties; every row when
    the population is at most ``k`` or the ``k``-th distance is NaN (a
    NaN threshold would compare false against every row).
    """
    n = oid.size
    if k <= 0 or n == 0:
        return oid[:0].copy(), dist[:0].copy()
    if k < n:
        kth = np.partition(dist, k - 1)[k - 1]
        if kth == kth:  # not NaN
            keep = dist <= kth
            return oid[keep], dist[keep]
    return oid.copy(), dist.copy()


def rank_candidates(
    oid: np.ndarray, dist: np.ndarray, k: int
) -> List[Tuple[int, float]]:
    """The first ``k`` of ``(oid, dist)`` rows by ``(distance, oid)``.

    O(c log c) in the number of rows ``c``; oids must be unique.
    """
    # lexsort keys are least-significant first: oid breaks dist ties.
    order = np.lexsort((oid, dist))[:k]
    return list(zip(oid[order].tolist(), dist[order].tolist()))


def knn_select(
    oid: np.ndarray, dist: np.ndarray, k: int
) -> List[Tuple[int, float]]:
    """Top-``k`` by ``(distance, oid)`` — the exact knn_at tie-break.

    Returns ``[(oid, distance), ...]``; fewer than ``k`` entries when
    the population is smaller.  O(n + c log c), where ``c`` is the
    boundary-inclusive candidate count of :func:`knn_candidates`.
    """
    return rank_candidates(*knn_candidates(oid, dist, k), k)


# -- pairwise proximity -------------------------------------------------------


def proximity_pair_mask(
    g1: np.ndarray, g2: np.ndarray, d: float
) -> np.ndarray:
    """Pairs whose window-minimum gap is at most ``d``.

    ``g1``/``g2`` are the pairwise gaps at the window endpoints; the
    gap of two linear motions is linear, so its |·|-minimum over the
    window is 0 when the sign changes and the nearer endpoint
    otherwise — the same closed form as
    :func:`repro.extensions.joins.min_gap`.
    """
    crossing = ((g1 <= 0.0) & (g2 >= 0.0)) | ((g2 <= 0.0) & (g1 >= 0.0))
    gap = np.where(crossing, 0.0, np.minimum(np.abs(g1), np.abs(g2)))
    return gap <= d


# -- columnar write kernels ---------------------------------------------------
#
# The write-path mirror of the query kernels above: one vectorized
# pass over the (oid, y0, v, t0) columns per *batch* of writes instead
# of one interpreter round-trip per object.  All three are pure array
# transforms — slot-map bookkeeping stays with the MotionColumns owner.


def patch_rows(
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
    slots: np.ndarray,
    y0_new: np.ndarray,
    v_new: np.ndarray,
    t0_new: np.ndarray,
) -> None:
    """Scatter replacement motions into existing rows in one pass.

    ``slots`` indexes the rows to overwrite; the three value arrays are
    parallel to it.  Duplicate slots are legal — numpy fancy-index
    assignment applies them left-to-right, so the last write for a row
    wins, matching per-op apply order.
    """
    y0[slots] = y0_new
    v[slots] = v_new
    t0[slots] = t0_new


def append_rows(
    oid: np.ndarray,
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
    n: int,
    oid_new: np.ndarray,
    y0_new: np.ndarray,
    v_new: np.ndarray,
    t0_new: np.ndarray,
) -> int:
    """Append new rows after row ``n`` in one slice assignment.

    The caller guarantees capacity (``oid.shape[0] >= n + m``) and
    oid-uniqueness; returns the new live-row count.
    """
    m = oid_new.shape[0]
    oid[n : n + m] = oid_new
    y0[n : n + m] = y0_new
    v[n : n + m] = v_new
    t0[n : n + m] = t0_new
    return n + m


def delete_rows(
    oid: np.ndarray,
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
    n: int,
    doomed: np.ndarray,
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Compact ``doomed`` rows out of the live prefix in one pass.

    ``doomed`` holds unique row indices (< ``n``).  The batched
    generalization of the scalar swap-with-last delete: surviving rows
    from the tail move down into the holes so the live prefix stays
    dense.  Returns ``(new_n, moved_oids, moved_to)`` — the rows that
    changed slot, for the owner's slot-map maintenance.
    """
    k = doomed.shape[0]
    new_n = n - k
    holes = doomed[doomed < new_n]
    tail = np.arange(new_n, n, dtype=np.int64)
    survivors = tail[~np.isin(tail, doomed)]
    # len(survivors) == len(holes): both count live-tail rows.
    for col in (oid, y0, v, t0):
        col[holes] = col[survivors]
    return new_n, oid[holes].copy(), holes


def proximity_pairs_blocked(
    oid: np.ndarray,
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
    d: float,
    t1: float,
    t2: float,
    block: int = PAIR_BLOCK,
) -> Set[Tuple[int, int]]:
    """All unordered pairs within ``d`` during ``[t1, t2]``.

    Broadcasts the endpoint gaps block-by-block (``block * n`` floats
    of peak scratch) so a 10k-object store does not materialize a
    dense n×n matrix.  Result matches the scalar
    :func:`~repro.extensions.joins.pair_within` pair set exactly.
    """
    n = oid.size
    pairs: Set[Tuple[int, int]] = set()
    if n < 2:
        return pairs
    p1 = y0 + v * (t1 - t0)
    p2 = y0 + v * (t2 - t0)
    for start in range(0, n, block):
        stop = min(start + block, n)
        g1 = p1[start:stop, None] - p1[None, start:]
        g2 = p2[start:stop, None] - p2[None, start:]
        hit = proximity_pair_mask(g1, g2, d)
        rows, cols = np.nonzero(hit)
        keep = cols > rows  # strict upper triangle: each pair once
        for r, c in zip(rows[keep], cols[keep]):
            a = int(oid[start + r])
            b = int(oid[start + c])
            pairs.add((a, b) if a < b else (b, a))
    return pairs
