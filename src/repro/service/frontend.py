"""Asyncio serving layer: admission control in front of the service.

The benches so far measured the service from a closed in-process loop
— every "client" waits for its own answer before issuing the next, so
queueing never happens and latency numbers say nothing about the
loaded system the paper's setting implies.  :class:`AsyncFrontend`
adds the missing front door:

* **admission control** — requests enter a bounded queue
  (``FrontendConfig.queue_depth``); a full queue *sheds* instead of
  queueing unboundedly: the caller immediately gets a typed
  :class:`Overloaded` result carrying the observed depth, never an
  unbounded wait.  Under overload the p99 of *accepted* requests
  stays bounded by ``queue_depth × service_time`` — the shed count,
  not the tail, absorbs the excess;
* **micro-batching dispatch** — a single dispatcher task drains up to
  ``max_batch`` queued query requests at a time and pushes them down
  the service's :meth:`query_batch` (one shard fan-out per drained
  clump, preserving the batch path's throughput win), via
  :func:`asyncio.to_thread` so the GIL-released kernel work (or the
  worker pool) overlaps the event loop;
* **SLO spans** — every request's queue+service latency lands in
  :class:`~repro.service.metrics.MetricsRegistry` under
  ``frontend.<op>`` (p50/p99 per operation class), and the shed /
  accepted / completed tallies under the ``frontend_*`` counters
  (:data:`~repro.service.metrics.FRONTEND_COUNTERS`);
* **background health cadence** — every ``health_every_s`` the
  frontend sweeps the service: recovers shards a pool-worker death
  marked down (when ``auto_recover``) and gives the rebalance
  controller its :meth:`~repro.service.rebalance.RebalanceController.
  maybe_rebalance` tick, so skew detection runs on the serving path's
  cadence instead of needing an operator.

The frontend owns no service state: it is a pure valve, and a
``workers=0`` service behind it answers byte-identically to calling
:meth:`query_batch` directly.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.io_sim.stats import IOSnapshot
from repro.vector.ops import (
    Nearest,
    ProximityPairs,
    QueryOp,
    SnapshotAt,
    Within,
    validate_query,
)

__all__ = ["AsyncFrontend", "FrontendConfig", "Overloaded"]

#: One immutable zero-I/O snapshot shared by every frontend span (the
#: frontend never touches simulated disks itself).
_ZERO_IO = IOSnapshot()


@dataclass(frozen=True)
class Overloaded:
    """Typed load-shed result: the request was rejected, not queued.

    Callers distinguish it from answers by type; it carries the
    queue depth observed at rejection so clients can back off
    proportionally.
    """

    op: QueryOp
    queue_depth: int

    def __bool__(self) -> bool:  # a shed answer is never truthy
        return False


@dataclass(frozen=True)
class FrontendConfig:
    """Admission-control and cadence knobs.

    queue_depth:
        Bound on queued (admitted, not yet dispatched) requests; the
        backpressure horizon.  Arrivals beyond it shed.
    max_batch:
        Most requests one dispatcher drain pushes into a single
        ``query_batch`` call.
    health_every_s:
        Background sweep period (0 disables the sweeper).
    auto_recover:
        Whether the sweep recovers down shards (fault-tolerant
        services only; ignored otherwise).
    """

    queue_depth: int = 256
    max_batch: int = 64
    health_every_s: float = 0.25
    auto_recover: bool = True

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.health_every_s < 0:
            raise ValueError(
                f"health_every_s must be >= 0, got {self.health_every_s}"
            )


def _op_label(op: QueryOp) -> str:
    if isinstance(op, Within):
        return "within"
    if isinstance(op, SnapshotAt):
        return "snapshot_at"
    if isinstance(op, Nearest):
        return "nearest"
    if isinstance(op, ProximityPairs):
        return "proximity_pairs"
    return type(op).__name__.lower()


class _Request:
    __slots__ = ("op", "future", "enqueued_at")

    def __init__(self, op: QueryOp, future: "asyncio.Future") -> None:
        self.op = op
        self.future = future
        self.enqueued_at = time.perf_counter()


class AsyncFrontend:
    """The admission-controlled async front door of one service.

    Use as an async context manager (``async with AsyncFrontend(...)``)
    or call :meth:`start` / :meth:`stop` explicitly.  One dispatcher
    task serializes dispatch; concurrency comes from micro-batching
    and from the service's own parallel tier underneath.

    Parameters
    ----------
    service:
        Any :class:`~repro.service.service.ShardedMotionService`
        (fault-tolerant or not, pooled or not).
    config:
        :class:`FrontendConfig`; defaults apply when omitted.
    rebalancer:
        Optional :class:`~repro.service.rebalance.
        RebalanceController`; when given, the health sweep calls its
        ``maybe_rebalance`` so the skew detectors (count *and*
        latency) run on serving cadence.
    """

    def __init__(
        self,
        service,
        config: Optional[FrontendConfig] = None,
        rebalancer=None,
    ) -> None:
        self.service = service
        self.config = config or FrontendConfig()
        self.rebalancer = rebalancer
        self.metrics = service.metrics
        self._queue: "asyncio.Queue[_Request]" = asyncio.Queue(
            maxsize=self.config.queue_depth
        )
        self._dispatcher: Optional[asyncio.Task] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._stopping = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "AsyncFrontend":
        if self._dispatcher is not None:
            raise RuntimeError("frontend already started")
        self._stopping = False
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="frontend-dispatch"
        )
        if self.config.health_every_s > 0:
            self._sweeper = asyncio.create_task(
                self._health_loop(), name="frontend-health"
            )
        return self

    async def stop(self) -> None:
        """Drain admitted requests, then cancel the background tasks.

        Everything already admitted is answered (admission is a
        promise); only new submissions fail once stopping.
        """
        self._stopping = True
        if self._dispatcher is not None:
            await self._queue.join()
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None

    async def __aenter__(self) -> "AsyncFrontend":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- submission -----------------------------------------------------------

    def queue_depth(self) -> int:
        """Requests admitted and not yet dispatched."""
        return self._queue.qsize()

    async def submit(self, op: QueryOp):
        """Submit one query; returns its answer or :class:`Overloaded`.

        Admission is instantaneous: either the queue has room now, or
        the request sheds — the caller never blocks on a full queue
        (that wait *is* the unbounded buffer this layer exists to
        remove).  A malformed operation raises here
        (:func:`~repro.vector.ops.validate_query`), before admission,
        so it cannot fail the other requests of its batch.
        """
        if self._dispatcher is None or self._stopping:
            raise RuntimeError("frontend is not running")
        validate_query(op)
        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        request = _Request(op, future)
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            self.metrics.counter("frontend_shed").increment()
            return Overloaded(op=op, queue_depth=self._queue.qsize())
        self.metrics.counter("frontend_accepted").increment()
        return await future

    async def submit_many(self, ops: Sequence[QueryOp]) -> List:
        """Submit a burst concurrently; one result (or shed) per op."""
        return list(
            await asyncio.gather(*(self.submit(op) for op in ops))
        )

    # -- dispatch -------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            first = await self._queue.get()
            clump: List[_Request] = [first]
            while (
                len(clump) < self.config.max_batch
                and not self._queue.empty()
            ):
                clump.append(self._queue.get_nowait())
            ops = [r.op for r in clump]
            try:
                answers = await asyncio.to_thread(
                    self.service.query_batch, ops
                )
            except Exception as exc:  # noqa: BLE001 - forwarded per-request
                self.metrics.counter("frontend_failed").increment(
                    len(clump)
                )
                for request in clump:
                    if not request.future.done():
                        request.future.set_exception(exc)
                    self._queue.task_done()
                continue
            done = time.perf_counter()
            for request, answer in zip(clump, answers):
                self.metrics.operation(
                    f"frontend.{_op_label(request.op)}"
                ).record(
                    done - request.enqueued_at,
                    _ZERO_IO,
                )
                if not request.future.done():
                    request.future.set_result(answer)
                self._queue.task_done()
            self.metrics.counter("frontend_completed").increment(
                len(clump)
            )

    # -- health cadence -------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_every_s)
            try:
                await asyncio.to_thread(self._health_sweep)
            except Exception:  # noqa: BLE001 - the sweep must not die
                pass

    def _health_sweep(self) -> None:
        """One background pass: recover down shards, tick rebalance."""
        self.metrics.counter("frontend_health_checks").increment()
        if self.config.auto_recover:
            down = getattr(self.service, "down_shards", lambda: [])()
            for shard in down:
                try:
                    self.service.recover_shard(shard)
                except Exception:  # recovered concurrently, or still sick
                    pass
        if self.rebalancer is not None:
            report = self.rebalancer.maybe_rebalance()
            if report is not None:
                self.metrics.counter("frontend_rebalances").increment()
