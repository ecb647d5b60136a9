"""Live shard rebalancing: router, planner, and two-phase migration.

The functional half of the rebalancing acceptance criteria (the chaos
half lives in ``test_rebalance_chaos.py``):

* :class:`BandRouter` validates cuts and gates replacements on a
  strictly newer band epoch; :class:`OwnershipTable` fences every
  migration step on its epoch;
* the controller's equi-depth plan flattens an adversarially skewed
  population and its dual-space cost model agrees the new cut is
  cheaper;
* during the double-write window queries merge over the two-shard
  ownership set and dedup by oid — no duplicates, no gaps — and a
  speed-crossing report never forks ownership (the stale-routing
  regression);
* a full controller pass improves spread at least 2x, under the plain
  service, under replication, and mid-soak against every oracle.
"""

import random

import pytest

from repro.engine import MotionDatabase
from repro.errors import ObjectNotFoundError, StaleMigrationError
from repro.service import (
    BandRouter,
    FaultTolerantMotionService,
    OwnershipTable,
    RebalanceConfig,
    RebalanceController,
    RetryPolicy,
)
from repro.service.service import ShardedMotionService
from repro.soak.harness import SoakConfig, run_soak
from repro.vector.ops import Nearest, ProximityPairs, SnapshotAt, Within

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66

from .helpers import grid_motions, grid_queries, oracle_answer

pytestmark = pytest.mark.rebalance


def make_service(shards=4, **kwargs) -> ShardedMotionService:
    return ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=shards, router="velocity", **kwargs
    )


def skewed_motion(rng: random.Random):
    """80% of draws in the slowest tenth of the speed range."""
    if rng.random() < 0.8:
        v = V_MIN + rng.random() * 0.1 * (V_MAX - V_MIN)
    else:
        v = rng.uniform(V_MIN, V_MAX)
    return rng.uniform(0.0, Y_MAX), v * rng.choice((-1.0, 1.0)), 0.0


def populate_skewed(service, n, seed, oracle=None):
    rng = random.Random(seed)
    for oid in range(n):
        y0, v, t0 = skewed_motion(rng)
        service.register(oid, y0, v, t0)
        if oracle is not None:
            oracle.register(oid, y0, v, t0)


# -- router and ownership-table units --------------------------------------------


def test_velocity_router_default_cut_is_even():
    service = make_service(shards=4)
    assert service.router.band_edges() == tuple(
        V_MAX * i / 4 for i in range(1, 4)
    )
    assert service.router.epoch == 0
    # |v| routes: direction never matters to placement.
    assert service.router.band_of(-V_MIN) == service.router.band_of(V_MIN)
    assert service.router.band_of(V_MAX * 10) == 3  # clamped, still routes


def test_band_router_validates_cuts_and_epochs():
    router = BandRouter(3, V_MAX)
    with pytest.raises(ValueError):
        router.set_bands((0.5,), epoch=1)  # wrong edge count
    with pytest.raises(ValueError):
        router.set_bands((0.9, 0.4), epoch=1)  # not increasing
    with pytest.raises(ValueError):
        router.set_bands((0.4, V_MAX + 1.0), epoch=1)  # out of range
    router.set_bands((0.4, 0.9), epoch=3)
    assert router.band_edges() == (0.4, 0.9)
    with pytest.raises(StaleMigrationError):
        router.set_bands((0.3, 0.8), epoch=3)  # not strictly newer
    # A rejected cut leaves the previous layout fully intact.
    assert router.band_edges() == (0.4, 0.9)
    assert router.epoch == 3


def test_ownership_table_fences_every_step():
    table = OwnershipTable()
    table.owner[7] = 0
    state = table.begin_migration(7, source=0, dest=2)
    assert table.owners_of(7) == (0, 2)
    assert table.admits(7, state.epoch)
    with pytest.raises(StaleMigrationError):
        table.begin_migration(7, source=0, dest=1)  # already migrating
    table.commit_migration(state)
    assert table.owners_of(7) == (2,)
    assert not table.admits(7, state.epoch)
    with pytest.raises(StaleMigrationError):
        table.commit_migration(state)  # fenced: the token is spent
    with pytest.raises(ObjectNotFoundError):
        table.owners_of(99)


# -- planning ---------------------------------------------------------------------


def test_equi_depth_plan_flattens_skew_and_lowers_cost():
    service = make_service(shards=4)
    populate_skewed(service, 400, seed=1)
    controller = RebalanceController(service)
    assert controller.skew() > 2.0  # the even cut piles objects up
    plan = controller.plan()
    assert len(plan.edges) == 3
    assert list(plan.edges) == sorted(plan.edges)
    # Equi-depth: every planned band holds roughly n / shards objects.
    assert max(plan.counts_after) <= 2 * min(plan.counts_after)
    assert plan.cost_after < plan.cost_before
    assert plan.improves


# -- the double-write window ------------------------------------------------------


def test_window_queries_merge_two_shard_ownership_and_dedup():
    service = make_service(shards=2)
    service.register(1, 100.0, 0.2, 0.0)   # slow: band 0
    service.register(2, 500.0, 1.5, 0.0)   # fast: band 1
    state = service.begin_migration(1, dest=1)
    try:
        assert service.owners_of(1) == (0, 1)
        assert service.shard_of(1) == 0  # ownership moves at cutover
        # Resident on both shards, yet every read sees it exactly once.
        assert all(1 in pop for pop in service.shard_populations())
        assert service.within(0.0, Y_MAX, 0.0, 5.0) == {1, 2}
        assert service.snapshot_at(0.0, Y_MAX, 1.0) == {1, 2}
        ranked = service.nearest(100.0, 1.0, k=4)
        assert [oid for oid, _ in ranked] == [1, 2]
        assert service.proximity_pairs(Y_MAX, 0.0, 1.0) == {(1, 2)}
        # A report mid-window double-writes: both copies take the new
        # motion, so the cutover can land on either side losslessly.
        service.report(1, 110.0, 0.3, 2.0)
        for pop_db in service._shards:
            if 1 in pop_db:
                assert pop_db.motion_of(1).v == 0.3
    finally:
        service.commit_migration(state)
    assert service.owners_of(1) == (1,)
    assert [1 in pop for pop in service.shard_populations()] == [
        False, True,
    ]
    assert service.location_of(1, 2.0) == 110.0


def test_window_batch_merge_matches_oracle_with_ties():
    """Batch reads while a third of the population sits on two shards:
    the two copies' partials (k-NN candidates tied at the boundary
    included) merge to the brute-force answers, each object once."""
    service = make_service(shards=2, cache_capacity=0)
    rng = random.Random(37)
    motions = grid_motions(rng, 60)
    for oid, m in motions.items():
        service.register(oid, m.y0, m.v, m.t0)
    states = [
        service.begin_migration(oid, dest=1 - service.shard_of(oid))
        for oid in range(0, 60, 3)
    ]
    try:
        assert all(len(service.owners_of(st.oid)) == 2 for st in states)
        ops = grid_queries(rng, 30)
        assert service.query_batch(ops) == [
            oracle_answer(motions, op) for op in ops
        ]
    finally:
        for state in states:
            service.commit_migration(state)
    assert service.query_batch(ops) == [
        oracle_answer(motions, op) for op in ops
    ]


def test_abort_drops_the_destination_copy_only():
    service = make_service(shards=2)
    service.register(1, 100.0, 0.2, 0.0)
    state = service.begin_migration(1, dest=1)
    service.abort_migration(state)
    assert service.owners_of(1) == (0,)
    assert [1 in pop for pop in service.shard_populations()] == [
        True, False,
    ]
    with pytest.raises(StaleMigrationError):
        service.commit_migration(state)  # the fencing token is dead


def test_speed_crossing_report_never_forks_ownership():
    """The stale-routing regression (satellite of the rebalance work):
    routing consults the ownership table, never a motion recompute, so
    a report that crosses band edges leaves exactly one owner."""
    service = make_service(shards=4)
    service.register(1, 100.0, 0.2, 0.0)  # band 0
    for tick in range(1, 6):
        # Bounce between the slowest and fastest bands.
        v = 1.6 if tick % 2 else 0.2
        service.report(1, 100.0 + tick, v, float(tick))
        owners = service.owners_of(1)
        assert len(owners) == 1
        holders = [
            shard for shard, pop in enumerate(service.shard_populations())
            if 1 in pop
        ]
        assert holders == [service.shard_of(1)]
        assert service.snapshot_at(99.0, 111.0, float(tick)) == {1}
    assert service.location_of(1, 5.0) == 105.0


# -- the controller end to end ----------------------------------------------------


def test_rebalance_once_improves_spread_two_fold():
    service = make_service(shards=4)
    populate_skewed(service, 400, seed=2)
    controller = RebalanceController(service)
    report = controller.rebalance_once(force=True)
    assert report.triggered
    assert report.migrated > 0
    assert report.skew_after * 2 <= report.skew_before
    assert sum(report.counts_after) == 400  # nothing lost, nothing forked
    counters = service.metrics.snapshot()["counters"]
    assert counters["rebalance_runs"] == 1
    assert counters["rebalance_migrations"] == report.migrated
    assert counters["rebalance_band_updates"] >= 1
    # Convergence: a second pass finds an already-balanced catalog.
    assert controller.rebalance_once(force=True).migrated == 0


def test_rebalance_respects_gates_and_caps():
    service = make_service(shards=4)
    populate_skewed(service, 60, seed=3)
    gated = RebalanceController(
        service, RebalanceConfig(min_objects=1000)
    )
    assert not gated.rebalance_once(force=True).triggered
    capped = RebalanceController(
        service, RebalanceConfig(min_objects=1, max_migrations=5)
    )
    report = capped.rebalance_once(force=True)
    assert report.triggered
    assert report.migrated + report.aborted + report.skipped <= 5


def test_latency_skew_detector_needs_two_reporting_shards():
    service = make_service(shards=4)
    populate_skewed(service, 100, seed=4)
    controller = RebalanceController(service)
    # No compute spans at all, then only one shard reporting: both are
    # "no evidence", not "infinitely skewed".
    assert controller.latency_skew() == 0.0
    service.metrics.record_shard_latency(0, "query_batch.compute", 0.1)
    assert controller.latency_skew() == 0.0
    service.metrics.record_shard_latency(1, "query_batch.compute", 0.1)
    assert controller.latency_skew() == pytest.approx(1.0)


def test_latency_skew_trips_should_rebalance_when_counts_are_even():
    service = make_service(shards=4)
    rng = random.Random(5)
    # A perfectly even placement: the count detector sees nothing.
    for oid in range(200):
        v = V_MIN + (V_MAX - V_MIN) * ((oid % 4) + 0.5) / 4
        service.register(oid, rng.uniform(0, Y_MAX), v, 0.0)
    controller = RebalanceController(
        service,
        RebalanceConfig(skew_threshold=1.5, latency_skew_threshold=2.0),
    )
    assert controller.skew() == pytest.approx(1.0)
    assert not controller.should_rebalance()
    # One slow lane: cost imbalance the counts cannot see.
    for shard in range(4):
        latency = 0.200 if shard == 0 else 0.010
        for _ in range(10):
            service.metrics.record_shard_latency(
                shard, "query_batch.compute", latency
            )
    assert controller.latency_skew() > 2.0
    assert controller.should_rebalance()
    report = controller.maybe_rebalance()
    assert report is not None
    counters = service.metrics.snapshot()["counters"]
    assert counters["rebalance_auto_triggers"] == 1
    assert counters["rebalance_runs"] == 1


def test_maybe_rebalance_is_a_no_op_when_balanced():
    service = make_service(shards=4)
    rng = random.Random(6)
    for oid in range(100):
        service.register(
            oid,
            rng.uniform(0, Y_MAX),
            rng.uniform(V_MIN, V_MAX),
            0.0,
        )
    controller = RebalanceController(service)
    # Balanced latencies: the gate stays shut, no run is charged.
    for shard in range(4):
        service.metrics.record_shard_latency(
            shard, "query_batch.compute", 0.01
        )
    if not controller.should_rebalance():
        assert controller.maybe_rebalance() is None
        counters = service.metrics.snapshot()["counters"]
        assert counters.get("rebalance_auto_triggers", 0) == 0
        assert counters.get("rebalance_runs", 0) == 0


def test_replicated_rebalance_matches_oracle():
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX,
        shards=4,
        replication_factor=2,
        router="velocity",
        retry=RetryPolicy(attempts=3, backoff_s=0.001, sleep=lambda s: None),
    )
    oracle = MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")
    populate_skewed(service, 200, seed=4, oracle=oracle)
    controller = RebalanceController(service)
    report = controller.rebalance_once(force=True)
    assert report.migrated > 0
    assert report.skew_after * 2 <= report.skew_before
    now = service.now
    assert service.within(0.0, Y_MAX, 0.0, now + 10.0) == oracle.within(
        0.0, Y_MAX, 0.0, now + 10.0
    )
    assert service.snapshot_at(
        0.0, Y_MAX / 2, now + 1.0
    ) == oracle.snapshot_at(0.0, Y_MAX / 2, now + 1.0)
    assert service.nearest(Y_MAX / 3, now + 1.0, k=5) == oracle.nearest(
        Y_MAX / 3, now + 1.0, k=5
    )
    service.close()


# -- the migration-storm differential (queries during the window) -----------------


def check_against_oracle(service, oracle, rng):
    """Scalar vs ``query_batch`` vs oracle, dedup asserted by type."""
    now = max(service.now, oracle.now)
    y1 = rng.uniform(0.0, Y_MAX / 2)
    y2 = y1 + rng.uniform(50.0, Y_MAX / 2)
    ops = [
        Within(y1, y2, now, now + rng.uniform(1.0, 10.0)),
        SnapshotAt(y1, y2, now + 1.0),
        Nearest(rng.uniform(0.0, Y_MAX), now + 1.0, 5),
        ProximityPairs(2.0, now, now + 2.0),
    ]
    batch = service.query_batch(ops)
    scalar = [
        service.within(ops[0].y1, ops[0].y2, ops[0].t1, ops[0].t2),
        service.snapshot_at(ops[1].y1, ops[1].y2, ops[1].t),
        service.nearest(ops[2].y, ops[2].t, ops[2].k),
        service.proximity_pairs(ops[3].d, ops[3].t1, ops[3].t2),
    ]
    expected = [
        oracle.within(ops[0].y1, ops[0].y2, ops[0].t1, ops[0].t2),
        oracle.snapshot_at(ops[1].y1, ops[1].y2, ops[1].t),
        oracle.nearest(ops[2].y, ops[2].t, ops[2].k),
        oracle.proximity_pairs(ops[3].d, ops[3].t1, ops[3].t2),
    ]
    assert batch == scalar == expected
    ranked_oids = [oid for oid, _ in scalar[2]]
    assert len(ranked_oids) == len(set(ranked_oids))  # kNN dedups by oid
    assert all(a < b for a, b in scalar[3])  # no self-pairs from copies


def test_migration_storm_differential():
    """Satellite: scalar vs batch vs oracle while migrations are OPEN
    (objects resident on two shards) and across commits/aborts."""
    service = make_service(shards=3)
    oracle = MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")
    populate_skewed(service, 120, seed=5, oracle=oracle)
    controller = RebalanceController(service, RebalanceConfig(min_objects=1))
    rng = random.Random(5)
    layouts = [(0.3, 0.8), (0.6, 1.2)]
    committed = 0
    for round_no in range(4):
        edges = layouts[round_no % 2]
        if edges != service.router.band_edges():
            service.set_bands(edges)
        moves = controller.moves()[:6]
        open_states = [
            service.begin_migration(oid, dest) for oid, _src, dest in moves
        ]
        check_against_oracle(service, oracle, rng)  # mid-window reads
        for i, state in enumerate(open_states):
            if i % 3 == 2:
                service.abort_migration(state)
            else:
                service.commit_migration(state)
                committed += 1
        check_against_oracle(service, oracle, rng)  # post-cutover reads
    assert committed > 0
    assert len(service) == 120
    populations = service.shard_populations()
    for oid in range(120):
        holders = [s for s, pop in enumerate(populations) if oid in pop]
        assert holders == [service.shard_of(oid)]


# -- live repartitioning mid-soak -------------------------------------------------


@pytest.mark.soak
def test_adversarial_soak_with_rebalances_converges():
    report = run_soak(SoakConfig(
        scenario="adversarial",
        n=300,
        ticks=6,
        shards=4,
        replication=2,
        router="velocity",
        rebalances=2,
        subscriptions=4,
        crashes=0,
        seed=7,
    ))
    assert report.ok, report.divergence_labels
    stats = report.rebalance
    assert stats["runs"] == 2
    assert stats["migrated"] > 0
    assert stats["skew_final"] * 2 <= stats["skew_initial"]
