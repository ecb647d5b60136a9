"""Dispatch query operations onto the vectorized kernels: partials, then one merge.

A query is answered in two steps, so its cost is one scan plus work
proportional to its answer:

* :func:`evaluate_partial` runs one operation over one store's
  ``(oid, y0, v, t0)`` rows and returns a raw numpy *partial* — the
  matching ``oid`` array for ``Within`` / ``SnapshotAt``, the
  boundary-inclusive k-NN candidates ``(oid, dist)`` for ``Nearest``
  (:func:`repro.vector.kernels.knn_candidates`: the ``k`` nearest plus
  any rows tied with the ``k``-th), and the pair set for
  ``ProximityPairs``.  :func:`evaluate_batch` is the same over a
  :class:`MotionColumns` mirror for a whole batch.  Pool workers call
  :func:`evaluate_partial` on their shared-memory snapshot
  (:mod:`repro.vector.shm`), so what crosses the process boundary is
  a few arrays per operation, and the in-process and pooled paths run
  literally the same code on the same dtypes.
* :func:`merge` turns the partials of any number of stores into the
  final answer, once per query: a ``set`` of python ints for range
  queries, a ranked ``[(oid, distance), ...]`` for k-NN, a set of
  unordered pairs for proximity — the scalar API's containers, so
  callers compare them to scalar answers with plain ``==``.  It
  dedups by oid, so an object answered by two stores (replicas, or
  both owners during a migration) counts once.

A ``Nearest`` costs O(n + c log c) per store, where ``c`` is its
candidate count (``k`` unless distances tie at the boundary), and the
merge sorts only the candidates of all stores.

:func:`evaluate_arrays` / :func:`evaluate_query` keep the one-store
final-answer contract, defined as ``merge(op, [partial])``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.queries import MORQuery1D
from repro.errors import InvalidQueryError
from repro.vector.columns import MotionColumns
from repro.vector.kernels import (
    knn_candidates,
    knn_distances,
    mor_mask,
    proximity_pairs_blocked,
    rank_candidates,
    snapshot_mask,
)
from repro.vector.ops import Nearest, ProximityPairs, QueryOp, SnapshotAt, Within


def evaluate_partial(
    oid: np.ndarray,
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
    op: QueryOp,
):
    """One operation's partial answer over bare ``(oid, y0, v, t0)`` rows.

    The partial never aliases the input arrays, so it stays valid
    after the store is written to.
    """
    if isinstance(op, Within):
        query = MORQuery1D(op.y1, op.y2, op.t1, op.t2)
        return oid[mor_mask(y0, v, t0, query)]
    if isinstance(op, SnapshotAt):
        return oid[snapshot_mask(y0, v, t0, op.y1, op.y2, op.t)]
    if isinstance(op, Nearest):
        if op.k <= 0:
            # Same contract as the scalar knn_at.
            raise InvalidQueryError(f"k must be positive, got {op.k}")
        return knn_candidates(oid, knn_distances(y0, v, t0, op.y, op.t), op.k)
    if isinstance(op, ProximityPairs):
        if op.d < 0:
            # Same contracts as the scalar index_distance_join/min_gap.
            raise InvalidQueryError(f"distance must be >= 0, got {op.d}")
        if op.t1 > op.t2:
            raise InvalidQueryError(f"empty window [{op.t1}, {op.t2}]")
        return proximity_pairs_blocked(oid, y0, v, t0, op.d, op.t1, op.t2)
    raise TypeError(f"unknown query operation {op!r}")


def empty_partial(op: QueryOp):
    """The partial of a store that holds nothing (merges as a no-op)."""
    none = np.empty(0, dtype=np.int64)
    if isinstance(op, Nearest):
        return none, np.empty(0, dtype=np.float64)
    if isinstance(op, ProximityPairs):
        return set()
    return none


def merge(op: QueryOp, partials: Sequence):
    """The final answer to ``op`` from its partials, deduplicated by oid."""
    if isinstance(op, Nearest):
        if len(partials) == 1:
            oid, dist = partials[0]
        else:
            oid, first = np.unique(
                np.concatenate([p[0] for p in partials]), return_index=True
            )
            dist = np.concatenate([p[1] for p in partials])[first]
        return rank_candidates(oid, dist, op.k)
    if isinstance(op, ProximityPairs):
        return set().union(*partials)
    if len(partials) == 1:
        return set(partials[0].tolist())
    return set(np.concatenate(partials).tolist())


def evaluate_arrays(
    oid: np.ndarray,
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
    op: QueryOp,
):
    """Answer one operation against one store's bare rows."""
    return merge(op, [evaluate_partial(oid, y0, v, t0, op)])


def evaluate_query(columns: MotionColumns, op: QueryOp):
    """Answer one operation against the columnar mirror."""
    return evaluate_arrays(*columns.arrays(), op)


def evaluate_batch(columns: MotionColumns, ops: Sequence[QueryOp]) -> List:
    """Partials for a whole batch, from one consistent view of the store."""
    oid, y0, v, t0 = columns.arrays()
    return [evaluate_partial(oid, y0, v, t0, op) for op in ops]
