"""Vectorized batch query evaluation (``repro.vector``).

The columnar fast path for the paper's dual-space predicates: a
structure-of-arrays mirror of the live population
(:class:`MotionColumns`), whole-population kernels for the Hough-X
wedge / Hough-Y b-range / snapshot / k-NN / proximity predicates
(:mod:`repro.vector.kernels`), per-store partial answers merged once
per query (:mod:`repro.vector.evaluate`), a shared batch-query
vocabulary (:mod:`repro.vector.ops`), a versioned memoizing result cache
(:class:`QueryResultCache`), and a shared-memory variant of the store
(:class:`SharedMotionColumns`) whose rows worker processes can read
without pickling (:mod:`repro.vector.shm`).

The vocabulary and the cache are pure Python; the columnar store and
kernels need ``numpy``.  When the array stack is unavailable the
package still imports — ``HAVE_NUMPY`` is ``False`` and every consumer
falls back to the scalar paths.
"""

from repro.vector.cache import QueryResultCache
from repro.vector.ops import (
    Nearest,
    ProximityPairs,
    QueryOp,
    SnapshotAt,
    Within,
    query_key,
    validate_query,
)

try:  # numpy-dependent fast path
    from repro.vector.columns import MotionColumns
    from repro.vector.evaluate import (
        evaluate_arrays,
        evaluate_batch,
        evaluate_partial,
        evaluate_query,
        merge,
    )
    from repro.vector.shm import SharedMotionColumns, TornSegmentError

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised only without numpy
    MotionColumns = None  # type: ignore[assignment]
    SharedMotionColumns = None  # type: ignore[assignment]
    TornSegmentError = None  # type: ignore[assignment]
    evaluate_arrays = None  # type: ignore[assignment]
    evaluate_batch = None  # type: ignore[assignment]
    evaluate_partial = None  # type: ignore[assignment]
    evaluate_query = None  # type: ignore[assignment]
    merge = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = [
    "HAVE_NUMPY",
    "MotionColumns",
    "Nearest",
    "ProximityPairs",
    "QueryOp",
    "QueryResultCache",
    "SharedMotionColumns",
    "SnapshotAt",
    "TornSegmentError",
    "Within",
    "evaluate_arrays",
    "evaluate_batch",
    "evaluate_partial",
    "evaluate_query",
    "merge",
    "query_key",
    "validate_query",
]
