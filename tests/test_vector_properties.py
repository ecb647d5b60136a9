"""Property-based agreement: vectorized kernels vs scalar predicates.

Every kernel in :mod:`repro.vector.kernels` claims either bit-identity
with a scalar oracle (`mor_mask` / `snapshot_mask` / `wedge_mask`) or
exact agreement with the scalar dual machinery (`b_range_mask` /
`hough_y_exact_mask`).  Hypothesis sweeps random motions — including
``v = 0``, negative velocities and empty stores, which the columnar
paths must handle exactly like the scalar ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LinearMotion1D, MOR1Query, MORQuery1D
from repro.core.duality import (
    hough_x,
    hough_y,
    hough_y_b_range,
    hough_y_matches,
    mor_wedge,
)
from repro.core.predicates import matches_1d, matches_mor1
from repro.vector.columns import MotionColumns
from repro.vector.kernels import (
    b_range_mask,
    hough_x_points,
    hough_y_exact_mask,
    hough_y_points,
    knn_distances,
    knn_select,
    mor_mask,
    snapshot_mask,
    wedge_mask,
)

from .helpers import PAPER_MODEL

pytestmark = pytest.mark.batch

# -- strategies ---------------------------------------------------------------

#: Motions across the full velocity spectrum: fast positive, fast
#: negative, slow, and exactly zero.
any_motions = st.builds(
    LinearMotion1D,
    y0=st.floats(min_value=0, max_value=1000),
    v=st.one_of(
        st.floats(min_value=0.16, max_value=1.66),
        st.floats(min_value=-1.66, max_value=-0.16),
        st.floats(min_value=-0.16, max_value=0.16),
        st.just(0.0),
    ),
    t0=st.floats(min_value=0, max_value=100),
)

positive_motions = st.builds(
    LinearMotion1D,
    y0=st.floats(min_value=0, max_value=1000),
    v=st.floats(min_value=0.16, max_value=1.66),
    t0=st.floats(min_value=0, max_value=100),
)

queries = st.builds(
    lambda y1, dy, t1, dt: MORQuery1D(y1, y1 + dy, t1, t1 + dt),
    y1=st.floats(min_value=0, max_value=900),
    dy=st.floats(min_value=0, max_value=150),
    t1=st.floats(min_value=0, max_value=150),
    dt=st.floats(min_value=0, max_value=60),
)


def columns_of(motions):
    return MotionColumns.from_motions(
        {oid: motion for oid, motion in enumerate(motions)}
    )


# -- primal kernels: bit-identical to the scalar predicates -------------------


@settings(max_examples=200, deadline=None)
@given(ms=st.lists(any_motions, max_size=30), query=queries)
def test_mor_mask_matches_scalar_predicate(ms, query):
    _, y0, v, t0 = columns_of(ms).arrays()
    mask = mor_mask(y0, v, t0, query)
    expected = [matches_1d(m, query) for m in ms]
    assert mask.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(
    ms=st.lists(any_motions, max_size=30),
    y1=st.floats(min_value=0, max_value=900),
    dy=st.floats(min_value=0, max_value=150),
    t=st.floats(min_value=0, max_value=200),
)
def test_snapshot_mask_matches_scalar_predicate(ms, y1, dy, t):
    _, y0, v, t0 = columns_of(ms).arrays()
    mask = snapshot_mask(y0, v, t0, y1, y1 + dy, t)
    expected = [matches_mor1(m, MOR1Query(y1, y1 + dy, t)) for m in ms]
    assert mask.tolist() == expected


# -- Hough-X: the Proposition 1 wedge -----------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    ms=st.lists(any_motions, max_size=30),
    query=queries,
    sign=st.sampled_from([1, -1]),
    t_ref=st.floats(min_value=0, max_value=100),
)
def test_wedge_mask_matches_scalar_region(ms, query, sign, t_ref):
    region = mor_wedge(query, PAPER_MODEL, sign, t_ref=t_ref)
    _, y0, v_col, t0 = columns_of(ms).arrays()
    v, a = hough_x_points(y0, v_col, t0, t_ref)
    mask = wedge_mask(v, a, region)
    expected = [region.contains(*hough_x(m, t_ref)) for m in ms]
    assert mask.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(ms=st.lists(positive_motions, max_size=30), query=queries)
def test_wedge_membership_equals_primal_for_fast_positive(ms, query):
    """Proposition 1, both directions: for motions inside the model's
    positive speed band the wedge answers exactly the MOR predicate."""
    region = mor_wedge(query, PAPER_MODEL, sign=1, t_ref=0.0)
    for m in ms:
        in_wedge = region.contains(*hough_x(m, 0.0))
        in_primal = matches_1d(m, query)
        if in_wedge != in_primal:
            # The wedge carries epsilon slack for boundary objects;
            # only hair's-breadth disagreements are tolerable.
            y_start = m.position(query.t1)
            y_end = m.position(query.t2)
            lo, hi = min(y_start, y_end), max(y_start, y_end)
            margin = min(abs(lo - query.y2), abs(hi - query.y1))
            assert margin < 1e-6


# -- Hough-Y: b-range prefilter and exact dual filter -------------------------


@settings(max_examples=200, deadline=None)
@given(ms=st.lists(any_motions, max_size=30), query=queries)
def test_b_range_mask_matches_scalar_range(ms, query):
    y_r = 0.0
    b_lo, b_hi = hough_y_b_range(
        query, y_r, PAPER_MODEL.v_min, PAPER_MODEL.v_max
    )
    _, y0, v, t0 = columns_of(ms).arrays()
    mask = b_range_mask(
        y0, v, t0, query, y_r, PAPER_MODEL.v_min, PAPER_MODEL.v_max
    )
    for m, got in zip(ms, mask.tolist()):
        if m.v <= 0:
            assert got is False  # no Hough-Y image / wrong population
        else:
            _, b = hough_y(m, y_r)
            assert got == (b_lo <= b <= b_hi)


@settings(max_examples=200, deadline=None)
@given(ms=st.lists(positive_motions, max_size=30), query=queries)
def test_hough_y_exact_mask_matches_scalar(ms, query):
    y_r = 0.0
    _, y0, v, t0 = columns_of(ms).arrays()
    n, b = hough_y_points(y0, v, t0, y_r)
    mask = hough_y_exact_mask(n, b, query, y_r)
    expected = [hough_y_matches(*hough_y(m, y_r), query, y_r) for m in ms]
    assert mask.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(ms=st.lists(positive_motions, max_size=30), query=queries)
def test_b_range_prefilter_is_superset_of_exact(ms, query):
    """§3.5.2: the rectangle never loses a true positive-velocity
    answer — false positives only."""
    y_r = 0.0
    _, y0, v, t0 = columns_of(ms).arrays()
    prefilter = b_range_mask(
        y0, v, t0, query, y_r, PAPER_MODEL.v_min, PAPER_MODEL.v_max
    )
    exact = mor_mask(y0, v, t0, query)
    assert not np.any(exact & ~prefilter)


# -- k-NN ---------------------------------------------------------------------


#: Integer-grid motions: at an integer instant every position is an
#: integer, so distances from an integer point tie — often at the
#: k-th place, where the partition threshold must keep every tie.
grid_motions = st.builds(
    LinearMotion1D,
    y0=st.integers(min_value=0, max_value=30).map(float),
    v=st.sampled_from([-1.0, 0.0, 1.0]),
    t0=st.integers(min_value=0, max_value=5).map(float),
)


@settings(max_examples=100, deadline=None)
@given(
    ms=st.one_of(
        st.lists(any_motions, max_size=300),
        st.lists(grid_motions, max_size=300),
    ),
    y=st.one_of(
        st.floats(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=30).map(float),
    ),
    t=st.one_of(
        st.floats(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=10).map(float),
    ),
    k=st.integers(min_value=1, max_value=60),
)
def test_knn_select_matches_scalar_ranking(ms, y, t, k):
    oid, y0, v, t0 = columns_of(ms).arrays()
    got = knn_select(oid, knn_distances(y0, v, t0, y, t), k)
    ranked = sorted(
        ((abs(m.position(t) - y), i) for i, m in enumerate(ms))
    )
    expected = [(i, d) for d, i in ranked[:k]]
    assert got == expected


# -- empty stores -------------------------------------------------------------


def test_all_kernels_on_empty_store():
    columns = MotionColumns()
    oid, y0, v, t0 = columns.arrays()
    query = MORQuery1D(10.0, 20.0, 1.0, 5.0)
    assert mor_mask(y0, v, t0, query).tolist() == []
    assert snapshot_mask(y0, v, t0, 10.0, 20.0, 1.0).tolist() == []
    assert b_range_mask(y0, v, t0, query, 0.0, 0.16, 1.66).tolist() == []
    n, b = hough_y_points(y0, v, t0, 0.0)
    assert hough_y_exact_mask(n, b, query, 0.0).tolist() == []
    region = mor_wedge(query, PAPER_MODEL, sign=1)
    pv, pa = hough_x_points(y0, v, t0, 0.0)
    assert wedge_mask(pv, pa, region).tolist() == []
    assert knn_select(oid, knn_distances(y0, v, t0, 5.0, 1.0), 3) == []
