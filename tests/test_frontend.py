"""The asyncio front door: admission control, shedding, SLO spans.

* answers through the frontend are byte-identical to calling
  ``query_batch`` directly — the valve adds no semantics;
* a full admission queue sheds *immediately* with a typed
  :class:`Overloaded` (falsy, carries the op and observed depth) —
  callers never block on a queue that has no room;
* every accepted request's queue+service latency lands in the
  metrics registry under ``frontend.<op>`` and the accounting
  identity ``offered == accepted + shed`` / ``accepted ==
  completed`` holds;
* ``stop()`` drains what was admitted (admission is a promise) and
  further submits fail loudly;
* the background health cadence recovers down shards and gives the
  rebalance controller its ``maybe_rebalance`` tick.
"""

import asyncio
import random
import time

import pytest

from repro.errors import InvalidQueryError
from repro.service import (
    AsyncFrontend,
    FaultTolerantMotionService,
    FrontendConfig,
    Overloaded,
    RebalanceConfig,
    RebalanceController,
    ShardedMotionService,
)
from repro.vector.ops import Nearest, RegisterOp, SnapshotAt, Within

pytestmark = pytest.mark.parallel

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66


def populate(service, seed=5, n=80):
    rng = random.Random(seed)
    ops = []
    for oid in range(n):
        speed = rng.uniform(V_MIN, V_MAX) * rng.choice([1.0, -1.0])
        ops.append(RegisterOp(oid, rng.uniform(0, Y_MAX), speed, 0.0))
    service.apply_batch(ops)
    return rng


def mixed_queries(rng, count):
    ops = []
    for q in range(count):
        t1 = rng.uniform(5, 40)
        y1 = rng.uniform(0, Y_MAX - 120)
        kind = q % 3
        if kind == 0:
            ops.append(Within(y1, y1 + rng.uniform(10, 120), t1, t1 + 10))
        elif kind == 1:
            ops.append(SnapshotAt(y1, y1 + rng.uniform(10, 120), t1))
        else:
            ops.append(Nearest(y1, t1, k=rng.randint(1, 5)))
    return ops


def make_service(**kwargs):
    service = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=3, cache_capacity=0, **kwargs
    )
    populate(service)
    return service


def test_config_validation():
    with pytest.raises(ValueError):
        FrontendConfig(queue_depth=0)
    with pytest.raises(ValueError):
        FrontendConfig(max_batch=0)
    with pytest.raises(ValueError):
        FrontendConfig(health_every_s=-1.0)


def test_frontend_answers_match_direct_query_batch():
    service = make_service()
    rng = random.Random(17)
    ops = mixed_queries(rng, 30)
    want = service.query_batch(ops)

    async def drive():
        async with AsyncFrontend(
            service, FrontendConfig(health_every_s=0.0)
        ) as frontend:
            return await frontend.submit_many(ops)

    got = asyncio.run(drive())
    assert got == want
    snapshot = service.metrics.snapshot()
    spans = {
        name for name in snapshot["operations"] if name.startswith("frontend.")
    }
    assert spans == {
        "frontend.within", "frontend.snapshot_at", "frontend.nearest"
    }
    for name in spans:
        stats = snapshot["operations"][name]
        assert stats["calls"] == 10
        assert stats["p99_ms"] >= stats["p50_ms"] >= 0.0
    counters = snapshot["counters"]
    assert counters["frontend_accepted"] == 30
    assert counters["frontend_completed"] == 30
    assert counters.get("frontend_shed", 0) == 0


def test_full_queue_sheds_typed_and_bounded():
    service = make_service()
    rng = random.Random(19)
    ops = mixed_queries(rng, 40)
    # Slow the service down so the queue actually fills: each dispatch
    # holds the worker thread long enough for every client to arrive.
    direct = service.query_batch

    def slow_query_batch(batch):
        time.sleep(0.03)
        return direct(batch)

    service.query_batch = slow_query_batch
    config = FrontendConfig(queue_depth=4, max_batch=2, health_every_s=0.0)

    async def drive():
        async with AsyncFrontend(service, config) as frontend:
            return await frontend.submit_many(ops)

    results = asyncio.run(drive())
    shed = [r for r in results if isinstance(r, Overloaded)]
    served = [r for r in results if not isinstance(r, Overloaded)]
    assert shed, "overload never tripped admission control"
    for reject in shed:
        assert not reject  # falsy by contract
        assert reject.queue_depth <= config.queue_depth
        assert reject.op in ops
    counters = service.metrics.snapshot()["counters"]
    assert counters["frontend_shed"] == len(shed)
    assert counters["frontend_accepted"] == len(served)
    assert counters["frontend_completed"] == len(served)
    assert counters["frontend_accepted"] + counters["frontend_shed"] == 40


def test_stop_drains_admitted_then_rejects():
    service = make_service()
    rng = random.Random(29)
    ops = mixed_queries(rng, 12)
    want = service.query_batch(ops)

    async def drive():
        frontend = AsyncFrontend(
            service, FrontendConfig(health_every_s=0.0)
        )
        await frontend.start()
        pending = [
            asyncio.ensure_future(frontend.submit(op)) for op in ops
        ]
        await asyncio.sleep(0)  # let every submit reach the queue
        await frontend.stop()  # admission is a promise: all answered
        results = [await p for p in pending]
        with pytest.raises(RuntimeError):
            await frontend.submit(ops[0])
        return results

    assert asyncio.run(drive()) == want


def test_submit_before_start_raises():
    service = make_service()

    async def drive():
        frontend = AsyncFrontend(service)
        with pytest.raises(RuntimeError):
            await frontend.submit(SnapshotAt(0.0, 10.0, 1.0))

    asyncio.run(drive())


def test_malformed_request_fails_alone_before_admission():
    service = make_service()
    good = SnapshotAt(0.0, Y_MAX, 1.0)

    async def drive():
        async with AsyncFrontend(
            service, FrontendConfig(health_every_s=0.0)
        ) as frontend:
            bad = frontend.submit(Nearest(float("nan"), 1.0, 3))
            answers = await asyncio.gather(
                frontend.submit(good), bad, return_exceptions=True
            )
        return answers

    answer, error = asyncio.run(drive())
    assert answer == service.query_batch([good])[0]
    assert isinstance(error, InvalidQueryError)
    assert service.metrics.counter("frontend_failed").value == 0


def test_dispatch_failure_propagates_per_request():
    service = make_service()

    def broken(batch):
        raise RuntimeError("shard exploded")

    service.query_batch = broken

    async def drive():
        async with AsyncFrontend(
            service, FrontendConfig(health_every_s=0.0)
        ) as frontend:
            with pytest.raises(RuntimeError, match="shard exploded"):
                await frontend.submit(SnapshotAt(0.0, 10.0, 1.0))

    asyncio.run(drive())
    assert service.metrics.counter("frontend_failed").value == 1


def test_health_cadence_recovers_and_ticks_rebalance():
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=2
    )
    populate(service)

    class TickingRebalancer:
        def __init__(self):
            self.calls = 0

        def maybe_rebalance(self):
            self.calls += 1
            return object() if self.calls == 1 else None

    ticker = TickingRebalancer()
    service.kill_shard(1)

    async def drive():
        config = FrontendConfig(health_every_s=0.02)
        async with AsyncFrontend(service, config, rebalancer=ticker):
            await asyncio.sleep(0.25)

    asyncio.run(drive())
    assert service.down_shards() == []  # auto-recovered by the sweep
    assert ticker.calls >= 2
    counters = service.metrics.snapshot()["counters"]
    assert counters["frontend_health_checks"] >= 2
    assert counters["frontend_rebalances"] == 1


def test_latency_skew_feeds_serving_cadence_end_to_end():
    """Satellite wiring proof: per-shard compute spans recorded by the
    query path feed the controller's latency detector, and the
    frontend's sweep is what pulls the trigger."""
    service = make_service(router="velocity")
    controller = RebalanceController(
        service,
        RebalanceConfig(
            skew_threshold=1e9,  # count detector muted
            latency_skew_threshold=2.5,
            min_objects=1,
        ),
    )
    rng = random.Random(31)
    service.query_batch(mixed_queries(rng, 12))
    assert controller.latency_skew() > 0.0  # real spans, all shards
    # Forge a hot shard: the detector reads p99 per shard, so a pile
    # of slow samples on shard 0 trips it regardless of counts.
    # One hot shard among three: max/mean approaches (but never quite
    # reaches) the shard count, so the 2.5 threshold trips.
    for _ in range(40):
        service.metrics.record_shard_latency(0, "query_batch.compute", 0.5)
    assert controller.latency_skew() >= 2.5
    assert controller.should_rebalance()

    async def drive():
        config = FrontendConfig(health_every_s=0.02)
        async with AsyncFrontend(service, config, rebalancer=controller):
            await asyncio.sleep(0.1)

    asyncio.run(drive())
    counters = service.metrics.snapshot()["counters"]
    assert counters["rebalance_auto_triggers"] >= 1
    assert counters["frontend_rebalances"] >= 1
