"""Unit tests: the columnar store and the vectorized kernels.

The property suite (test_vector_properties) covers random agreement
with the scalar predicates; here the deterministic corners live — the
swap-with-last delete bookkeeping, capacity growth, listener dialect,
k-NN tie-breaks and the blocked pairwise proximity kernel against the
brute-force join oracle.
"""

import random

import numpy as np
import pytest

from repro.core import LinearMotion1D, MobileObject1D
from repro.errors import InvalidQueryError
from repro.extensions.joins import brute_force_distance_join
from repro.vector.columns import MotionColumns
from repro.vector.evaluate import (
    empty_partial,
    evaluate_batch,
    evaluate_query,
    merge,
)
from repro.vector.kernels import (
    knn_candidates,
    knn_distances,
    knn_select,
    proximity_pairs_blocked,
)
from repro.vector.ops import (
    Nearest,
    ProximityPairs,
    SnapshotAt,
    Within,
    query_key,
)

pytestmark = pytest.mark.batch


def motion(y0=0.0, v=1.0, t0=0.0):
    return LinearMotion1D(y0, v, t0)


# -- MotionColumns ------------------------------------------------------------


class TestMotionColumns:
    def test_upsert_insert_and_overwrite(self):
        columns = MotionColumns()
        columns.upsert(7, motion(10.0, 1.0, 0.0))
        columns.upsert(7, motion(20.0, -1.0, 5.0))
        assert len(columns) == 1
        m = columns.motion_of(7)
        assert (m.y0, m.v, m.t0) == (20.0, -1.0, 5.0)

    def test_delete_swaps_last_row_into_hole(self):
        columns = MotionColumns()
        for oid in range(5):
            columns.upsert(oid, motion(float(oid)))
        columns.delete(1)
        assert len(columns) == 4
        assert 1 not in columns
        # The moved row (oid 4) must still resolve correctly.
        assert columns.motion_of(4).y0 == 4.0
        oid_col, y0_col, _, _ = columns.arrays()
        assert sorted(oid_col.tolist()) == [0, 2, 3, 4]
        assert dict(zip(oid_col.tolist(), y0_col.tolist()))[4] == 4.0

    def test_delete_missing_is_a_noop(self):
        columns = MotionColumns()
        columns.upsert(1, motion())
        version = columns.version
        columns.delete(99)
        assert len(columns) == 1
        assert columns.version == version

    def test_growth_past_initial_capacity(self):
        columns = MotionColumns(capacity=4)
        for oid in range(100):
            columns.upsert(oid, motion(float(oid)))
        assert len(columns) == 100
        oid_col, y0_col, _, _ = columns.arrays()
        assert oid_col.tolist() == sorted(oid_col.tolist())
        assert y0_col.tolist() == [float(o) for o in oid_col.tolist()]

    def test_version_increments_on_every_mutation(self):
        columns = MotionColumns()
        v0 = columns.version
        columns.upsert(1, motion())
        columns.upsert(1, motion(5.0))
        columns.delete(1)
        columns.clear()
        assert columns.version == v0 + 4

    def test_listener_speaks_the_trace_dialect(self):
        columns = MotionColumns()
        listener = columns.as_listener()
        listener("insert", 1, motion(1.0))
        listener("update", 1, motion(2.0))
        listener("delete", 1, None)
        assert len(columns) == 0
        listener("insert", 2, motion(3.0))
        assert columns.motion_of(2).y0 == 3.0

    def test_from_motions_round_trips(self):
        source = {oid: motion(float(oid), 1.0, 0.0) for oid in range(10)}
        columns = MotionColumns.from_motions(source)
        assert dict(columns.motions()).keys() == source.keys()
        assert all(
            columns.motion_of(oid).y0 == m.y0 for oid, m in source.items()
        )


# -- query_key ---------------------------------------------------------------


def test_query_key_distinguishes_kinds_and_buckets():
    keys = {
        query_key(Within(0.0, 1.0, 2.0, 3.0)),
        query_key(SnapshotAt(0.0, 1.0, 2.0)),
        query_key(Nearest(0.0, 1.0, 2)),
        query_key(ProximityPairs(0.5, 1.0, 2.0)),
        query_key(Within(0.0, 1.0, 2.0, 3.0), bucket=1),
    }
    assert len(keys) == 5
    with pytest.raises(TypeError):
        query_key("not a query")


# -- k-NN selection -----------------------------------------------------------


def test_knn_select_ties_break_toward_smaller_oid():
    oid = np.array([9, 3, 5], dtype=np.int64)
    dist = np.array([1.0, 1.0, 0.5])
    assert knn_select(oid, dist, 2) == [(5, 0.5), (3, 1.0)]
    assert knn_select(oid, dist, 10) == [(5, 0.5), (3, 1.0), (9, 1.0)]
    assert knn_select(oid, dist, 0) == []


def test_knn_candidates_keep_boundary_ties():
    oid = np.array([9, 3, 5, 4, 7], dtype=np.int64)
    dist = np.array([1.0, 1.0, 0.5, 3.0, 1.0])
    got_oid, got_dist = knn_candidates(oid, dist, 2)
    # k-th distance is 1.0: all three rows at 1.0 survive.
    assert sorted(got_oid.tolist()) == [3, 5, 7, 9]
    assert sorted(got_dist.tolist()) == [0.5, 1.0, 1.0, 1.0]
    assert knn_candidates(oid, dist, 0)[0].tolist() == []
    assert knn_candidates(oid, dist, 9)[0].tolist() == oid.tolist()


def test_knn_select_falls_back_to_full_sort_on_nan_threshold():
    oid = np.array([1, 2, 3], dtype=np.int64)
    dist = np.array([np.nan, 0.5, np.nan])
    assert knn_candidates(oid, dist, 2)[0].tolist() == [1, 2, 3]
    got = knn_select(oid, dist, 2)
    assert got[0] == (2, 0.5) and got[1][0] == 1


def test_knn_distances_at_instant():
    columns = MotionColumns.from_motions({
        1: motion(0.0, 1.0, 0.0),   # at t=10: y=10
        2: motion(30.0, -1.0, 0.0),  # at t=10: y=20
    })
    oid, y0, v, t0 = columns.arrays()
    dist = knn_distances(y0, v, t0, 12.0, 10.0)
    assert dict(zip(oid.tolist(), dist.tolist())) == {1: 2.0, 2: 8.0}


# -- pairwise proximity -------------------------------------------------------


@pytest.mark.parametrize("block", [1, 3, 512])
def test_blocked_proximity_matches_brute_force(block):
    rng = random.Random(11)
    objects = [
        MobileObject1D(
            oid,
            motion(
                rng.uniform(0, 100),
                rng.uniform(-2.0, 2.0),
                rng.uniform(0, 3),
            ),
        )
        for oid in range(40)
    ]
    columns = MotionColumns.from_motions(
        {o.oid: o.motion for o in objects}
    )
    oid, y0, v, t0 = columns.arrays()
    got = proximity_pairs_blocked(oid, y0, v, t0, 4.0, 5.0, 12.0, block=block)
    directed = brute_force_distance_join(objects, objects, 4.0, 5.0, 12.0)
    expected = {(min(a, b), max(a, b)) for a, b in directed}
    assert got == expected


def test_proximity_trivial_populations():
    empty = MotionColumns()
    assert proximity_pairs_blocked(*empty.arrays(), 1.0, 0.0, 1.0) == set()
    single = MotionColumns.from_motions({1: motion()})
    assert proximity_pairs_blocked(*single.arrays(), 1.0, 0.0, 1.0) == set()


# -- evaluate dispatch --------------------------------------------------------


def test_evaluate_query_contracts():
    columns = MotionColumns.from_motions({
        1: motion(10.0, 1.0, 0.0),
        2: motion(500.0, -1.0, 0.0),
    })
    assert evaluate_query(columns, Within(0.0, 50.0, 0.0, 10.0)) == {1}
    assert evaluate_query(columns, SnapshotAt(0.0, 50.0, 5.0)) == {1}
    assert evaluate_query(columns, Nearest(16.0, 5.0, k=2)) == [
        (1, 1.0),
        (2, 479.0),
    ]
    with pytest.raises(InvalidQueryError, match="k must be positive"):
        evaluate_query(columns, Nearest(0.0, 0.0, k=0))
    with pytest.raises(InvalidQueryError, match="distance must be >= 0"):
        evaluate_query(columns, ProximityPairs(-1.0, 0.0, 1.0))
    with pytest.raises(InvalidQueryError, match="empty window"):
        evaluate_query(columns, ProximityPairs(1.0, 5.0, 1.0))
    with pytest.raises(TypeError):
        evaluate_query(columns, "nonsense")


def test_evaluate_batch_preserves_order():
    columns = MotionColumns.from_motions({1: motion(10.0, 1.0, 0.0)})
    ops = [
        SnapshotAt(0.0, 50.0, 5.0),
        Within(900.0, 950.0, 0.0, 1.0),
        Nearest(0.0, 0.0, k=1),
    ]
    partials = evaluate_batch(columns, ops)
    assert [p.tolist() for p in partials[:2]] == [[1], []]
    assert [a.tolist() for a in partials[2]] == [[1], [10.0]]
    answers = [merge(op, [p]) for op, p in zip(ops, partials)]
    assert answers == [{1}, set(), [(1, 10.0)]]


def test_partials_do_not_alias_the_store():
    columns = MotionColumns.from_motions({1: motion(10.0, 1.0, 0.0)})
    ops = [Within(0.0, 50.0, 0.0, 1.0), Nearest(0.0, 0.0, k=3)]
    within, (near_oid, _) = evaluate_batch(columns, ops)
    columns.delete(1)
    columns.upsert(2, motion(99.0))
    assert within.tolist() == [1] and near_oid.tolist() == [1]


# -- merge ----------------------------------------------------------------------


def test_merge_dedups_range_partials_by_oid():
    a = np.array([4, 1, 7], dtype=np.int64)
    b = np.array([7, 2], dtype=np.int64)
    op = Within(0.0, 1.0, 0.0, 1.0)
    assert merge(op, [a, b]) == {1, 2, 4, 7}
    assert merge(op, [a, empty_partial(op)]) == {1, 4, 7}
    assert merge(SnapshotAt(0.0, 1.0, 0.0), [empty_partial(op)]) == set()


def test_merge_ranks_nearest_candidates_once_per_oid():
    op = Nearest(0.0, 0.0, k=3)
    shard_a = (np.array([5, 3], dtype=np.int64), np.array([2.0, 1.0]))
    # oid 3 again (a replica / migration copy) plus a boundary tie.
    shard_b = (np.array([3, 9, 8], dtype=np.int64), np.array([1.0, 2.0, 2.0]))
    assert merge(op, [shard_a, shard_b]) == [(3, 1.0), (5, 2.0), (8, 2.0)]
    assert merge(op, [shard_a, empty_partial(op)]) == [(3, 1.0), (5, 2.0)]


def test_merge_unions_proximity_pairs():
    op = ProximityPairs(1.0, 0.0, 1.0)
    assert merge(op, [{(1, 2)}, {(1, 2), (3, 4)}]) == {(1, 2), (3, 4)}
    assert merge(op, [empty_partial(op)]) == set()
