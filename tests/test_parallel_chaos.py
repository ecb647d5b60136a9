"""Worker-death chaos: a SIGKILLed pool worker never hangs a batch.

The pool's crash contract, end to end:

* the pool itself detects the dead lane while gathering, salvages the
  completed sub-batches, respawns the worker with fresh queues, and
  raises :class:`WorkerCrashError` naming exactly the lost shards;
* the plain service recomputes the lost lanes inline — callers see
  correct answers and only the metrics betray the crash;
* the fault-tolerant service maps the lost lanes onto the existing
  ``kill_shard`` / degraded machinery: the affected batch degrades to
  :class:`PartialResult` (never a deadlock, never a silently wrong
  full answer) and ``recover_shard`` restores full service while the
  respawned pool keeps running at width.
"""

import os
import random
import signal
import time

import pytest

from repro.errors import DegradedResultWarning
from repro.service import (
    FaultTolerantMotionService,
    PartialResult,
    ShardedMotionService,
    WorkerCrashError,
    WorkerPool,
)
from repro.vector.evaluate import merge
from repro.vector.ops import Nearest, RegisterOp, SnapshotAt, Within
from repro.vector.shm import SharedMotionColumns

pytestmark = [pytest.mark.parallel, pytest.mark.chaos]

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66


def populate(service, seed, n=120):
    rng = random.Random(seed)
    ops = []
    for oid in range(n):
        speed = rng.uniform(V_MIN, V_MAX) * rng.choice([1.0, -1.0])
        ops.append(RegisterOp(oid, rng.uniform(0, Y_MAX), speed, 0.0))
    service.apply_batch(ops)
    return rng


def fresh_queries(rng, count=9):
    """New ops every call: repeated identical batches would hit the
    result cache and never reach the pool."""
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


def sigkill(pid):
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def test_pool_raises_named_crash_and_respawns():
    pool = WorkerPool(2)
    store = SharedMotionColumns()
    rng = random.Random(61)
    try:
        from repro.core.model import LinearMotion1D

        for oid in range(60):
            store.upsert(
                oid,
                LinearMotion1D(
                    rng.uniform(0, Y_MAX), rng.uniform(V_MIN, V_MAX), 0.0
                ),
            )
        ops = fresh_queries(rng, 6)
        # Warm both lanes so the kill hits a worker that has already
        # imported the kernel stack (the expensive first task).
        pool.query_shards(
            [(0, store.segment_name, ops), (1, store.segment_name, ops)]
        )
        victim = pool.worker_pids()[0]  # lane of shard 0 (0 % 2)
        sigkill(victim)
        started = time.monotonic()
        with pytest.raises(WorkerCrashError) as excinfo:
            pool.query_shards(
                [(0, store.segment_name, ops), (1, store.segment_name, ops)]
            )
        assert time.monotonic() - started < 30.0  # detected, not hung
        assert excinfo.value.shards == [0]
        assert 1 in excinfo.value.partial  # the live lane's answers
        assert pool.respawns == 1
        assert pool.worker_pids()[0] != victim
        # The respawned lane serves the next batch at full width.
        answers, _ = pool.query_shards(
            [(0, store.segment_name, ops), (1, store.segment_name, ops)]
        )
        merged = [
            [merge(op, [p]) for op, p in zip(ops, partials)]
            for partials in (answers[0], answers[1], excinfo.value.partial[1])
        ]
        assert merged[0] == merged[1] == merged[2]
    finally:
        store.close()
        pool.close()


def test_plain_service_recomputes_lost_lanes_inline():
    service = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, workers=2, cache_capacity=0
    )
    oracle = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, cache_capacity=0
    )
    try:
        rng = populate(service, 67)
        populate(oracle, 67)
        service.query_batch(fresh_queries(rng, 6))  # warm the lanes
        sigkill(service.pool.worker_pids()[1])
        check = fresh_queries(rng)
        assert service.query_batch(check) == oracle.query_batch(check)
        metrics = service.metrics
        assert metrics.counter("parallel_worker_deaths").value >= 1
        assert metrics.counter("parallel_inline_fallbacks").value >= 1
        assert service.pool.respawns == 1
        # And the pool is healthy again: no further deaths next batch.
        deaths = metrics.counter("parallel_worker_deaths").value
        again = fresh_queries(rng)
        assert service.query_batch(again) == oracle.query_batch(again)
        assert metrics.counter("parallel_worker_deaths").value == deaths
    finally:
        service.close()


def test_ft_service_degrades_then_recovers():
    # replication_factor=1: no replicas to hide the dead shards, so
    # the degraded machinery must show itself.
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=1, workers=2
    )
    oracle = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, cache_capacity=0
    )
    try:
        rng = populate(service, 71)
        populate(oracle, 71)
        service.query_batch(fresh_queries(rng, 6))  # warm the lanes
        victim = service.pool.worker_pids()[0]
        sigkill(victim)
        started = time.monotonic()
        with pytest.warns(DegradedResultWarning):
            degraded = service.query_batch(fresh_queries(rng))
        assert time.monotonic() - started < 30.0  # degraded, not hung
        # Lane 0 of a 2-wide pool owns shards {0, 2}: both were lost,
        # so every answer is partial and names the dead shards.
        assert sorted(service.down_shards()) == [0, 2]
        assert all(isinstance(r, PartialResult) for r in degraded)
        assert all(
            r.unavailable_shards == (0, 2) for r in degraded
        )
        assert service.pool.respawns == 1
        for shard in (0, 2):
            service.recover_shard(shard)
        assert service.down_shards() == []
        check = fresh_queries(rng)
        assert service.query_batch(check) == oracle.query_batch(check)
    finally:
        service.close()


def test_ft_replicas_absorb_worker_death():
    """With replication, the shards a dead worker takes down are still
    covered: the batch completes with full, correct answers — only the
    down-shard list and the metrics betray the crash."""
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=2, workers=2
    )
    oracle = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, cache_capacity=0
    )
    try:
        rng = populate(service, 73)
        populate(oracle, 73)
        service.query_batch(fresh_queries(rng, 6))  # warm the lanes
        sigkill(service.pool.worker_pids()[0])
        check = fresh_queries(rng)
        answers = service.query_batch(check)
        assert sorted(service.down_shards()) == [0, 2]
        assert not any(isinstance(r, PartialResult) for r in answers)
        assert answers == oracle.query_batch(check)
        assert service.pool.respawns == 1
        for shard in (0, 2):
            service.recover_shard(shard)
        assert service.down_shards() == []
    finally:
        service.close()
