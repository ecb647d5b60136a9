"""The batched write path: differential wall + crash chaos.

Contract under test at every layer: ``apply_batch`` changes the
*transport* of writes (one lock round, one grouped WAL append + fsync
per shard, one listener fire), never their semantics.  The service's
scalar writes are one-op batches through the same routine, so the
service is checked against independent references instead of against
itself: a plain :class:`MotionDatabase` driven op by op through its
engine scalar methods, the brute-force :func:`oracle_answer`, an
outcome spec computed from the stream alone (:func:`expected_outcomes`)
and, for the logs, the records :func:`write_record` derives per
replica group.  Covered: rejected operations, duplicate oids inside
one batch, and recovery after a crash at either write-batch boundary
(:data:`WRITE_BATCH_CRASH_POINTS`).
"""

import random

import pytest

from repro.core import LinearMotion1D, MobileObject1D, MORQuery1D
from repro.engine import MotionDatabase
from repro.errors import (
    InvalidMotionError,
    ObjectNotFoundError,
    ShardUnavailableError,
    SimulatedCrashError,
)
from repro.indexes.hough_y_forest import HoughYForestIndex
from repro.service import (
    BatchExecutor,
    CrashPointInjector,
    Deregister,
    FaultInjector,
    FaultSpec,
    FaultTolerantMotionService,
    Register,
    Report,
    RetryPolicy,
    ShardedMotionService,
    SubscriptionManager,
    WRITE_BATCH_CRASH_POINTS,
)
from repro.service.update_bench import UpdateBenchConfig, run_update_bench
from repro.vector.ops import (
    DeregisterOp,
    RegisterOp,
    Nearest,
    ReportOp,
    SnapshotAt,
    Within,
    write_record,
)

from .helpers import PAPER_MODEL, oracle_answer

pytestmark = pytest.mark.writebatch

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66


# -- workload ------------------------------------------------------------------


def build_stream(rng, n, rounds=2, churn=0.1, errors=0.05):
    """Mixed write stream: initial registers, then report rounds with
    deregister/re-register churn and contained-error probes sprinkled
    in.  Invalid-speed reports are deliberately absent: the scalar
    path's partial-application quirk for them is documented, not a
    batch regression."""
    stream = [
        RegisterOp(
            oid,
            rng.uniform(0, Y_MAX),
            rng.choice([1.0, -1.0]) * rng.uniform(V_MIN, V_MAX),
            0.0,
        )
        for oid in range(n)
    ]
    population = list(range(n))
    fresh = n
    for round_index in range(1, rounds + 1):
        now = float(round_index)
        order = list(population)
        rng.shuffle(order)
        for oid in order:
            draw = rng.random()
            if draw < errors:
                probe = rng.randrange(3)
                unknown = 10_000_000 + len(stream)
                if probe == 0:
                    stream.append(ReportOp(unknown, 1.0, 1.0, now))
                elif probe == 1:
                    stream.append(DeregisterOp(unknown))
                else:
                    stream.append(RegisterOp(oid, 1.0, 1.0, now))
            elif draw < errors + churn:
                stream.append(DeregisterOp(oid))
                stream.append(
                    RegisterOp(
                        fresh,
                        rng.uniform(0, Y_MAX),
                        rng.choice([1.0, -1.0]) * rng.uniform(V_MIN, V_MAX),
                        now,
                    )
                )
                population[population.index(oid)] = fresh
                fresh += 1
            else:
                stream.append(
                    ReportOp(
                        oid,
                        rng.uniform(0, Y_MAX),
                        rng.choice([1.0, -1.0]) * rng.uniform(V_MIN, V_MAX),
                        now,
                    )
                )
    return stream


def apply_scalar(target, stream):
    """Drive ``stream`` op by op through ``target``'s scalar methods
    (on a :class:`MotionDatabase`, the engine scalar writes — the
    reference every service leg is checked against)."""
    outcomes = []
    for op in stream:
        try:
            if isinstance(op, RegisterOp):
                target.register(op.oid, op.y0, op.v, op.t0)
            elif isinstance(op, ReportOp):
                target.report(op.oid, op.y0, op.v, op.t0)
            else:
                target.deregister(op.oid)
            outcomes.append(None)
        except (InvalidMotionError, ObjectNotFoundError) as exc:
            outcomes.append(exc)
    return outcomes


def apply_batched(service, stream, batch_size):
    outcomes = []
    for begin in range(0, len(stream), batch_size):
        outcomes.extend(service.apply_batch(stream[begin:begin + batch_size]))
    return outcomes


def expected_outcomes(stream):
    """The service's per-op outcomes, from the stream alone: duplicate
    registers, unknown oids and over-speed motions are rejected with
    the service's messages; everything else applies."""
    live = set()
    outcomes = []
    for op in stream:
        if isinstance(op, RegisterOp) and op.oid in live:
            outcomes.append(InvalidMotionError(
                f"object {op.oid} is already registered; use report()"
            ))
        elif not isinstance(op, RegisterOp) and op.oid not in live:
            outcomes.append(ObjectNotFoundError(
                f"object {op.oid} is not registered"
            ))
        elif not isinstance(op, DeregisterOp) and abs(op.v) > V_MAX:
            outcomes.append(InvalidMotionError(
                f"speed {op.v} above v_max {V_MAX}"
            ))
        else:
            outcomes.append(None)
            if isinstance(op, DeregisterOp):
                live.discard(op.oid)
            else:
                live.add(op.oid)
    return outcomes


def reference(stream):
    """A plain database fed ``stream`` through its scalar writes."""
    db = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    outcomes = apply_scalar(db, stream)
    return db, outcomes


def probe_queries():
    queries = []
    for y1 in (0.0, 200.0, 450.0, 700.0):
        for t1, t2 in ((2.0, 2.0), (2.5, 4.0), (3.0, 20.0)):
            queries.append(MORQuery1D(y1, min(y1 + 260.0, Y_MAX), t1, t2))
    return queries


def assert_matches_reference(service, got, stream, db, db_outcomes):
    """``service`` (after ``stream``, outcomes ``got``) agrees with the
    reference database ``db``: outcome types with the database's and
    types *and* messages with :func:`expected_outcomes`; catalogs; and
    probe answers with both the database and the brute-force oracle."""
    want = expected_outcomes(stream)
    assert len(got) == len(want) == len(db_outcomes)
    for i, (a, b, c) in enumerate(zip(want, got, db_outcomes)):
        assert type(a) is type(b) is type(c), f"outcome {i}: {a!r} vs {b!r}"
        if a is not None:
            assert str(a) == str(b), f"outcome {i}: {a!r} vs {b!r}"
    motions = db.motion_snapshot()
    assert service.motion_snapshot() == motions
    for q in probe_queries():
        assert service.within(q.y1, q.y2, q.t1, q.t2) == db.within(
            q.y1, q.y2, q.t1, q.t2
        ) == oracle_answer(motions, Within(q.y1, q.y2, q.t1, q.t2))
        assert service.snapshot_at(q.y1, q.y2, q.t1) == db.snapshot_at(
            q.y1, q.y2, q.t1
        ) == oracle_answer(motions, SnapshotAt(q.y1, q.y2, q.t1))


# -- the differential wall -----------------------------------------------------


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_sharded_service_across_seeds_and_shards(self, seed, shards):
        stream = build_stream(random.Random(seed), n=80)
        db, db_outcomes = reference(stream)
        scalar = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=shards)
        batched = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=shards)
        assert_matches_reference(
            scalar, apply_scalar(scalar, stream), stream, db, db_outcomes
        )
        assert_matches_reference(
            batched, apply_batched(batched, stream, batch_size=37),
            stream, db, db_outcomes,
        )

    def test_motion_database_rebuild_threshold_crossing(self):
        """Engine-level: a storm big enough to trigger the forest's
        STR rebuild answers exactly like the engine's scalar reports."""
        rng = random.Random(5)
        batched = MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")
        n = HoughYForestIndex.REBUILD_MIN_BATCH + 100
        stream = build_stream(rng, n=n, rounds=1, churn=0.05)
        db, db_outcomes = reference(stream)
        # One batch spanning every report: the rebuild must fire.
        got = batched.apply_batch(stream)
        assert [type(o) for o in got] == [type(o) for o in db_outcomes]
        assert [str(o) for o in got] == [str(o) for o in db_outcomes]
        motions = db.motion_snapshot()
        assert batched.motion_snapshot() == motions
        for q in probe_queries():
            assert batched.within(q.y1, q.y2, q.t1, q.t2) == db.within(
                q.y1, q.y2, q.t1, q.t2
            ) == oracle_answer(motions, Within(q.y1, q.y2, q.t1, q.t2))
            assert batched.snapshot_at(q.y1, q.y2, q.t1) == db.snapshot_at(
                q.y1, q.y2, q.t1
            ) == oracle_answer(motions, SnapshotAt(q.y1, q.y2, q.t1))

    def test_duplicate_oid_in_one_batch_applies_in_order(self):
        """Same-oid operations inside one batch land in submission
        order: last writer wins, and errors surface exactly where the
        scalar sequence would raise them."""
        stream = [
            RegisterOp(1, 100.0, 1.0, 0.0),
            ReportOp(1, 200.0, -1.0, 1.0),
            ReportOp(1, 300.0, 1.0, 2.0),
            DeregisterOp(1),
            ReportOp(1, 400.0, 1.0, 3.0),   # -> ObjectNotFoundError
            RegisterOp(1, 500.0, 1.0, 4.0),  # re-register after delete
            RegisterOp(1, 600.0, 1.0, 5.0),  # -> duplicate
            ReportOp(1, 700.0, -1.0, 6.0),
        ]
        db, db_outcomes = reference(stream)
        batched = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2)
        got = batched.apply_batch(stream)
        assert isinstance(got[4], ObjectNotFoundError)
        assert isinstance(got[6], InvalidMotionError)
        assert_matches_reference(batched, got, stream, db, db_outcomes)
        assert batched.motion_snapshot()[1] == LinearMotion1D(
            700.0, -1.0, 6.0
        )

    def test_rejections_never_disturb_neighbours(self):
        stream = [
            RegisterOp(1, 10.0, 1.0, 0.0),
            RegisterOp(1, 20.0, 1.0, 0.0),      # duplicate
            ReportOp(99, 30.0, 1.0, 0.5),        # unknown
            RegisterOp(2, 40.0, -1.0, 0.0),
            DeregisterOp(98),                    # unknown
            ReportOp(2, 50.0, 1.0, 1.0),
            RegisterOp(3, 60.0, 5.0, 0.0),       # invalid speed
        ]
        service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3)
        outcomes = service.apply_batch(stream)
        assert [type(o) for o in outcomes] == [
            type(None), InvalidMotionError, ObjectNotFoundError,
            type(None), ObjectNotFoundError, type(None),
            InvalidMotionError,
        ]
        assert service.motion_snapshot() == {
            1: LinearMotion1D(10.0, 1.0, 0.0),
            2: LinearMotion1D(50.0, 1.0, 1.0),
        }

    def test_report_batch_alias(self):
        service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2)
        service.register(1, 10.0, 1.0, 0.0)
        outcomes = service.report_batch([ReportOp(1, 20.0, -1.0, 1.0)])
        assert outcomes == [None]
        assert service.motion_snapshot()[1] == LinearMotion1D(20.0, -1.0, 1.0)

    def test_executor_batch_updates_mode(self):
        """The executor's update phase (one ``apply_batch`` call, per
        shard-hint group in timestamp order) ends in the state of a
        plain database fed the same ops through its scalar writes, op
        for op, with the same per-op acceptance."""
        rng = random.Random(23)
        ops = [Register(oid, rng.uniform(0, Y_MAX), 1.0, 0.0)
               for oid in range(40)]
        ops += [Report(oid, rng.uniform(0, Y_MAX), -1.0, 1.0)
                for oid in range(0, 40, 2)]
        ops += [Deregister(39), Deregister(39), Report(999, 1.0, 1.0, 2.0)]
        stream = [
            RegisterOp(op.oid, op.y0, op.v, op.t0) if isinstance(op, Register)
            else ReportOp(op.oid, op.y0, op.v, op.t0)
            if isinstance(op, Report) else DeregisterOp(op.oid)
            for op in ops
        ]
        db, db_outcomes = reference(stream)
        service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3)
        with BatchExecutor(service) as executor:
            results = executor.run(list(ops))
        assert len(results) == len(ops)
        for op, result, want in zip(ops, results, db_outcomes):
            assert result.op == op
            assert type(result.error) is type(want)
        assert service.motion_snapshot() == db.motion_snapshot()
        calls = service.service_stats()["metrics"]["operations"]
        assert calls["register"]["calls"] == 40
        assert calls["report"]["calls"] == 21
        assert calls["apply_batch"]["calls"] == 1


#: Writes no index can hold.  Before every write path validated up
#: front, the batch path raised mid-batch (leaving rows or a wedged
#: catalog entry behind), an off-terrain report dropped the object's
#: old index entry before failing, and NaN motions were accepted.
MALFORMED_WRITES = [
    RegisterOp(50, -5.0, 1.0, 1.0),
    RegisterOp(50, 10.0, float("nan"), 1.0),
    RegisterOp(50, 10.0, 1.0, float("nan")),
    RegisterOp(50, 10.0, 1.0, float("inf")),
    RegisterOp(50, 10.0, 5.0, 1.0),
    ReportOp(3, -5.0, 1.0, 1.0),
    ReportOp(3, 10.0, float("nan"), 1.0),
    ReportOp(3, float("nan"), 1.0, 1.0),
]

#: Well-formed ops around the malformed one; all must still apply.
NEIGHBOURS_BEFORE = [RegisterOp(40, 100.0, 1.0, 1.0)]
NEIGHBOURS_AFTER = [
    RegisterOp(41, 20.0, -1.0, 1.0),
    ReportOp(5, 200.0, -1.0, 1.0),
]


def write_target(kind):
    if kind == "database":
        target = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    elif kind == "sharded":
        target = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2)
    else:
        target = FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=2, replication_factor=2
        )
    for oid in range(20):
        target.register(oid, 50.0 * oid + 5.0, (-1.0) ** oid, 0.0)
    return target


def column_rows(target):
    shards = getattr(target, "_shards", [target])
    return [dict(db.columns.motions()) for db in shards]


@pytest.mark.parametrize("path", ["scalar", "batch"])
@pytest.mark.parametrize("kind", ["database", "sharded", "fault_tolerant"])
@pytest.mark.parametrize(
    "bad", MALFORMED_WRITES, ids=[repr(op) for op in MALFORMED_WRITES]
)
def test_malformed_write_rejected_before_any_state_changes(bad, kind, path):
    target = write_target(kind)
    twin = write_target(kind)
    good = NEIGHBOURS_BEFORE + NEIGHBOURS_AFTER
    if path == "batch":
        outcomes = target.apply_batch(
            NEIGHBOURS_BEFORE + [bad] + NEIGHBOURS_AFTER
        )
        assert [type(o) for o in outcomes] == [
            type(None), InvalidMotionError, type(None), type(None)
        ]
        assert twin.apply_batch(good) == [None] * len(good)
    else:
        assert apply_scalar(target, NEIGHBOURS_BEFORE) == [None]
        with pytest.raises(InvalidMotionError):
            if isinstance(bad, RegisterOp):
                target.register(bad.oid, bad.y0, bad.v, bad.t0)
            else:
                target.report(bad.oid, bad.y0, bad.v, bad.t0)
        assert apply_scalar(target, NEIGHBOURS_AFTER) == [None, None]
        assert apply_scalar(twin, good) == [None] * len(good)
    queries = [
        Within(0.0, Y_MAX, 0.5, 3.0),
        SnapshotAt(0.0, 300.0, 1.0),
        Nearest(10.0, 1.0, 3),
    ]
    assert len(target) == len(twin) == 22
    assert target.motion_snapshot() == twin.motion_snapshot()
    assert target.within(0.0, Y_MAX, 0.5, 3.0) == twin.within(
        0.0, Y_MAX, 0.5, 3.0
    )
    assert target.nearest(10.0, 1.0, 3) == twin.nearest(10.0, 1.0, 3)
    assert target.query_batch(queries) == twin.query_batch(queries)
    assert column_rows(target) == column_rows(twin)
    # Nothing is wedged: the rejected oid is free or keeps its motion.
    apply_scalar(target, [RegisterOp(50, 30.0, 1.0, 2.0)])
    apply_scalar(twin, [RegisterOp(50, 30.0, 1.0, 2.0)])
    assert target.motion_snapshot() == twin.motion_snapshot()
    assert column_rows(target) == column_rows(twin)


# -- WAL streams and fsync grouping --------------------------------------------


def make_ft(directory, shards=3, replication=1, fsync="always",
            checkpoint_every=10_000, **kwargs):
    return FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX,
        shards=shards,
        replication_factor=replication,
        retry=RetryPolicy(attempts=3, backoff_s=0.001, sleep=lambda s: None),
        wal_dir=str(directory),
        wal_fsync=fsync,
        checkpoint_every=checkpoint_every,
        **kwargs,
    )


def wal_tails(service):
    return [node.wal.tail() for node in service._nodes]


class TestWALStreams:
    @pytest.mark.parametrize("replication", [1, 2])
    def test_batched_wal_stream_equals_scalar(self, tmp_path, replication):
        """Grouping is invisible in the log: for the scalar leg and
        the batched leg alike, each shard's record stream (kinds,
        fields, seqs) is exactly the :func:`write_record` of every
        applied op whose replica group holds the shard, in submission
        order; and both directories recover to the reference
        population."""
        stream = build_stream(random.Random(8), n=50)
        db, db_outcomes = reference(stream)
        scalar = make_ft(tmp_path / "scalar", replication=replication)
        batched = make_ft(tmp_path / "batched", replication=replication)
        legs = {
            "scalar": (scalar, apply_scalar(scalar, stream)),
            "batched": (
                batched, apply_batched(batched, stream, batch_size=23)
            ),
        }
        expected = [[] for _ in range(scalar.shard_count)]
        for op, outcome in zip(stream, expected_outcomes(stream)):
            if outcome is not None:
                continue
            kind, fields = write_record(op)
            primary = scalar.router.route(
                op.oid, LinearMotion1D(0.0, 1.0, 0.0)
            )  # hash routing: the oid alone places the object
            for shard in scalar.replica_group(primary):
                expected[shard].append(
                    {"seq": len(expected[shard]) + 1, "kind": kind, **fields}
                )
        for name, (service, got) in legs.items():
            assert_matches_reference(service, got, stream, db, db_outcomes)
            assert wal_tails(service) == expected, name
            service.close()
        for name in legs:
            restored = make_ft(tmp_path / name, replication=replication)
            restored.restore_from_disk()
            assert restored.motion_snapshot() == db.motion_snapshot(), name
            restored.close()

    def test_one_fsync_per_shard_per_batch(self, tmp_path):
        """Under a deferred policy the batch path buys durability with
        exactly one fsync per touched shard — the scalar path would
        need one per record to make the same guarantee."""
        service = make_ft(tmp_path, shards=3, fsync="never")
        stream = [
            RegisterOp(oid, 10.0 * oid + 5.0, 1.0, 0.0)
            for oid in range(30)
        ]

        def fsyncs():
            return [
                node.wal.backend.stats()["log"]["fsyncs"]
                for node in service._nodes
            ]

        before = fsyncs()
        outcomes = service.apply_batch(stream)
        after = fsyncs()
        assert outcomes == [None] * len(stream)
        deltas = [b - a for a, b in zip(before, after)]
        assert all(delta == 1 for delta in deltas), deltas
        # And the records really are durable, not just page-cached.
        for node in service._nodes:
            log = node.wal.backend.stats()["log"]
            assert log["synced_bytes"] == log["size_bytes"]
        service.close()


# -- subscriptions -------------------------------------------------------------


class TestSubscriptionDeltas:
    def test_delta_streams_match_scalar(self):
        """Listeners fire once per batch, but each subscription's
        delta stream is indistinguishable from the stream the same
        subscriptions produce over a plain database fed the writes
        one by one."""
        stream = build_stream(random.Random(12), n=60, rounds=2)
        db = MotionDatabase(Y_MAX, V_MIN, V_MAX)
        batched = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3)
        legs = {}
        for name, target in (("reference", db), ("batched", batched)):
            manager = SubscriptionManager(target)
            sids = [
                manager.subscribe_snapshot(100.0, 400.0),
                manager.subscribe_within(500.0, 900.0, horizon=10.0),
            ]
            legs[name] = (manager, sids)
        db_outcomes = apply_scalar(db, stream)
        got = apply_batched(batched, stream, batch_size=41)
        assert_matches_reference(batched, got, stream, db, db_outcomes)
        reference_manager, reference_sids = legs["reference"]
        batched_manager, batched_sids = legs["batched"]
        for sid_a, sid_b in zip(reference_sids, batched_sids):
            assert (batched_manager.drain_deltas(sid_b)
                    == reference_manager.drain_deltas(sid_a))
        reference_manager.close()
        batched_manager.close()


def version_chains(pre, batch):
    """Every motion an object legitimately held at some point of the
    batch: its pre-batch value plus each in-batch write, in order.  A
    recovered value outside its object's chain is torn state."""
    chains = {oid: [motion] for oid, motion in pre.items()}
    live = dict(pre)
    for op in batch:
        if isinstance(op, DeregisterOp):
            live.pop(op.oid, None)
            continue
        if isinstance(op, RegisterOp) and op.oid in live:
            continue  # duplicate: rejected, no new version
        if isinstance(op, ReportOp) and op.oid not in live:
            continue  # unknown: rejected
        if abs(op.v) > V_MAX:
            continue  # invalid speed: rejected
        motion = LinearMotion1D(op.y0, op.v, op.t0)
        live[op.oid] = motion
        chains.setdefault(op.oid, []).append(motion)
    return chains


# -- crash chaos ---------------------------------------------------------------


class TestWriteBatchChaos:
    def test_crash_point_registry(self):
        assert WRITE_BATCH_CRASH_POINTS == (
            "write_batch.pre_fsync", "bulk.mid_pack",
        )

    @pytest.mark.chaos
    @pytest.mark.parametrize("fsync", ["always", "never"])
    def test_crash_between_append_and_sync(self, tmp_path, fsync):
        """Process death after a shard's grouped append but before its
        sync: recovery lands an all-or-prefix cut — every recovered
        motion is a pre-batch or post-batch value, never an invention,
        and each shard's log is a prefix of the crash-free twin's."""
        stream = build_stream(random.Random(31), n=40)
        prologue, batch = stream[:40], stream[40:]
        service = make_ft(tmp_path / "crash", fsync=fsync)
        apply_scalar(service, prologue)
        pre = service.motion_snapshot()
        twin = make_ft(tmp_path / "twin", fsync=fsync)
        apply_scalar(twin, prologue)
        twin.apply_batch(batch)
        post = twin.motion_snapshot()
        twin_tails = wal_tails(twin)
        twin.close()

        injector = CrashPointInjector().arm("write_batch.pre_fsync")
        with pytest.raises(SimulatedCrashError):
            service.apply_batch(batch, crash_hook=injector)
        assert injector.fired == [("write_batch.pre_fsync", 1)]
        service.close()

        restored = make_ft(tmp_path / "crash", fsync=fsync)
        restored.restore_from_disk()
        recovered = restored.motion_snapshot()
        for oid, motion in recovered.items():
            assert motion in (pre.get(oid), post.get(oid)), (
                f"object {oid} recovered torn motion {motion}"
            )
        for shard, tail in enumerate(wal_tails(restored)):
            assert tail == twin_tails[shard][:len(tail)], (
                f"shard {shard} log is not a prefix of the twin's"
            )
        restored.close()

    @pytest.mark.chaos
    @pytest.mark.parametrize(
        "point,spec",
        [
            ("log.mid_record", {"write_prefix": 7}),
            ("log.pre_fsync", {"drop_unsynced": True}),
        ],
    )
    def test_crash_mid_grouped_append(self, tmp_path, point, spec):
        """Dying *inside* the grouped append — a torn frame, or losing
        the page cache — still recovers a clean per-shard prefix."""
        stream = build_stream(random.Random(47), n=40)
        prologue, batch = stream[:40], stream[40:]
        injector = CrashPointInjector().arm(point, at=60, **spec)
        service = make_ft(tmp_path / "crash", wal_crash_hook=injector)
        apply_scalar(service, prologue)
        pre = service.motion_snapshot()
        twin = make_ft(tmp_path / "twin")
        apply_scalar(twin, prologue)
        twin.apply_batch(batch)
        post = twin.motion_snapshot()
        twin_tails = wal_tails(twin)
        twin.close()

        with pytest.raises(SimulatedCrashError):
            service.apply_batch(batch)
        service.close()

        restored = make_ft(tmp_path / "crash")
        summary = restored.restore_from_disk()
        recovered = restored.motion_snapshot()
        assert summary["objects"] == len(recovered)
        chains = version_chains(pre, batch)
        for oid, motion in recovered.items():
            assert motion in chains.get(oid, []), (
                f"object {oid} recovered torn motion {motion}"
            )
        for shard, tail in enumerate(wal_tails(restored)):
            assert tail == twin_tails[shard][:len(tail)], (
                f"shard {shard} log is not a prefix of the twin's"
            )
        restored.close()

    @pytest.mark.chaos
    def test_injected_crash_mid_batch_matches_scalar_wrappers(self):
        """Two shards of one replica group crash partway through one
        replicated ``apply_batch`` (r=2): only ops whose whole group
        is down fail, with ``ShardUnavailableError``; the catalog and
        every shard's WAL tail equal the same ops issued one at a
        time through the scalar wrappers; and after recovery the
        answers equal the brute-force oracle."""
        shards, replication = 3, 2
        prologue = [
            RegisterOp(oid, 31.0 * oid + 7.0, (-1.0) ** oid * 0.9, 0.0)
            for oid in range(30)
        ]
        batch = [
            ReportOp(oid, 29.0 * oid + 11.0, (-1.0) ** oid * 1.2, 1.0)
            for oid in range(30)
        ] + [
            RegisterOp(oid, 10.0 * oid, 1.0, 1.5) for oid in range(30, 45)
        ] + [DeregisterOp(oid) for oid in range(0, 30, 4)]

        def build():
            probe = FaultTolerantMotionService(
                Y_MAX, V_MIN, V_MAX, shards=shards,
                replication_factor=replication,
            )
            touches = [0] * shards
            for op in prologue:
                for shard in probe.replica_group(probe.router.route(
                    op.oid, LinearMotion1D(op.y0, op.v, op.t0)
                )):
                    touches[shard] += 1
            # Shards 0 and 1 (the replica group of primary 0) die on
            # their 6th and 11th touch of the batch.
            injector = FaultInjector(seed=4, per_shard={
                0: FaultSpec(crash_on_op=touches[0] + 6),
                1: FaultSpec(crash_on_op=touches[1] + 11),
            })
            service = FaultTolerantMotionService(
                Y_MAX, V_MIN, V_MAX, shards=shards,
                replication_factor=replication,
                fault_injector=injector,
                retry=RetryPolicy(
                    attempts=2, backoff_s=0.0, sleep=lambda s: None
                ),
                checkpoint_every=10_000,
            )
            assert service.apply_batch(prologue) == [None] * len(prologue)
            return service

        batched = build()
        outcomes = batched.apply_batch(batch)
        scalar = build()
        scalar_outcomes = []
        for op in batch:
            try:
                apply_scalar(scalar, [op])
                scalar_outcomes.append(None)
            except ShardUnavailableError as exc:
                scalar_outcomes.append(exc)

        down = set(batched.down_shards())
        assert down == {0, 1} == set(scalar.down_shards())
        failed = [
            op for op, outcome in zip(batch, outcomes) if outcome is not None
        ]
        assert failed, "the crash must cost some op its whole group"
        for op, outcome in zip(batch, outcomes):
            group = set(batched.replica_group(batched.router.route(
                op.oid, LinearMotion1D(0.0, 1.0, 0.0)
            )))
            if outcome is None:
                continue
            assert isinstance(outcome, ShardUnavailableError)
            assert group <= down, f"{op!r} failed with a live replica"
        assert [type(o) for o in outcomes] == [
            type(o) for o in scalar_outcomes
        ]
        assert [str(o) for o in outcomes] == [str(o) for o in scalar_outcomes]
        assert batched.motion_snapshot() == scalar.motion_snapshot()
        assert wal_tails(batched) == wal_tails(scalar)

        expected = {
            op.oid: LinearMotion1D(op.y0, op.v, op.t0) for op in prologue
        }
        for op, outcome in zip(batch, outcomes):
            if outcome is not None:
                continue
            if isinstance(op, DeregisterOp):
                del expected[op.oid]
            else:
                expected[op.oid] = LinearMotion1D(op.y0, op.v, op.t0)
        assert batched.motion_snapshot() == expected
        for shard in sorted(down):
            batched.recover_shard(shard)
        assert batched.down_shards() == []
        for query in probe_queries():
            within = Within(query.y1, query.y2, query.t1, query.t2)
            assert batched.within(
                query.y1, query.y2, query.t1, query.t2
            ) == oracle_answer(expected, within)
        for y in (0.0, 333.0, 900.0):
            nearest = Nearest(y, 2.0, 5)
            assert batched.nearest(y, 2.0, 5) == oracle_answer(
                expected, nearest
            )

    @pytest.mark.chaos
    def test_crash_mid_bulk_rebuild_never_adopts_half_generation(self):
        """A bulk rebuild that dies between tree packs must leave the
        forest exactly as it was — the half-built generation is
        discarded, and a retry completes cleanly."""
        rng = random.Random(9)
        model = PAPER_MODEL
        population = [
            MobileObject1D(
                oid,
                LinearMotion1D(
                    rng.uniform(0, model.terrain.y_max),
                    rng.choice([1.0, -1.0])
                    * rng.uniform(model.v_min, model.v_max),
                    0.0,
                ),
            )
            for oid in range(HoughYForestIndex.REBUILD_MIN_BATCH + 40)
        ]
        forest = HoughYForestIndex(model, c=2)
        twin = HoughYForestIndex(model, c=2)
        for obj in population:
            forest.insert(obj)
            twin.insert(obj)
        storm = [
            MobileObject1D(
                obj.oid,
                LinearMotion1D(
                    rng.uniform(0, model.terrain.y_max),
                    obj.motion.v,
                    1.0,
                ),
            )
            for obj in population
        ]
        injector = CrashPointInjector().arm("bulk.mid_pack", at=2)
        forest.crash_hook = injector
        with pytest.raises(SimulatedCrashError):
            forest.update_batch(storm)
        assert injector.fired == [("bulk.mid_pack", 2)]
        # Pre-storm state intact, byte for byte.
        probe = MORQuery1D(0.0, model.terrain.y_max, 0.0, 50.0)
        assert len(forest) == len(twin)
        assert forest.query(probe) == twin.query(probe)
        # The retry (hook disarmed) completes and matches a clean run.
        forest.crash_hook = None
        forest.update_batch(storm)
        twin.update_batch(storm)
        assert forest.query(probe) == twin.query(probe)
        for y1 in (0.0, 300.0, 600.0):
            window = MORQuery1D(y1, y1 + 350.0, 5.0, 40.0)
            assert forest.query(window) == twin.query(window)


# -- the update bench ------------------------------------------------------------


def test_update_bench_small_run_matches_reference():
    report = run_update_bench(
        UpdateBenchConfig(n=200, shards=3, seed=5, probe_queries=30)
    )
    assert report.divergences == []
    assert report.probes == 30
    assert report.op_count == sum(report.op_counts.values())


def test_update_bench_catches_a_bug_both_legs_share(monkeypatch):
    """The scalar and batched legs run the same write routine, so a bug
    in it must show against the reference database, on both legs."""
    resolve = ShardedMotionService._resolve_batch

    def lossy(self, ops):
        outcomes, events, per_shard = resolve(self, ops)
        for shard, sub_ops in per_shard.items():
            per_shard[shard] = [
                op for op in sub_ops
                if not (isinstance(op, ReportOp) and op.oid % 7 == 0)
            ]
        return outcomes, events, per_shard

    monkeypatch.setattr(ShardedMotionService, "_resolve_batch", lossy)
    report = run_update_bench(
        UpdateBenchConfig(n=200, shards=3, seed=5, probe_queries=30)
    )
    assert not report.ok
    for leg in ("scalar", "batched"):
        assert any(d.startswith(f"{leg} catalog") for d in report.divergences)
