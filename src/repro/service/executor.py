"""Batched concurrent execution over the sharded service.

A *batch* is one epoch of work: a mix of update operations
(:class:`Register` / :class:`Report` / :class:`Deregister`) and query
operations (:class:`Within` / :class:`SnapshotAt` / :class:`Nearest` /
:class:`ProximityPairs`).  :class:`BatchExecutor` runs the epoch on a
thread pool with two-phase semantics:

1. **Update phase** — updates are grouped by their routed shard,
   each group sorted into timestamp order (the paper's
   time-moves-forward discipline per shard), and the whole phase is
   one :meth:`ShardedMotionService.apply_batch` call: one lock round,
   one grouped apply per shard, one listener fire.
2. **Query phase** — after all updates land (a barrier), queries run
   concurrently and see the full post-update state.  This makes batch
   results deterministic: the differential harness replays the same
   batch against a single database and compares byte-for-byte.

Each operation yields an :class:`OpResult`; failures are captured
per-operation (``.error``) instead of poisoning the whole batch —
exactly what a service front-end would do with one bad request in a
bulk call.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.core.model import LinearMotion1D
from repro.errors import ObjectNotFoundError
from repro.service.service import ShardedMotionService
from repro.vector.ops import (  # noqa: F401  (historical home, re-exported)
    DeregisterOp,
    Nearest,
    ProximityPairs,
    QueryOp,
    RegisterOp,
    ReportOp,
    SnapshotAt,
    Within,
)

# -- operation types ------------------------------------------------------------
#
# The query half of the vocabulary (Within / SnapshotAt / Nearest /
# ProximityPairs) lives in :mod:`repro.vector.ops` so the engine's and
# the service's batch paths can share it; it is re-exported above
# under its historical names.  The update half is service-level only.


@dataclass(frozen=True)
class Register:
    oid: int
    y0: float
    v: float
    t0: float


@dataclass(frozen=True)
class Report:
    oid: int
    y0: float
    v: float
    t0: float


@dataclass(frozen=True)
class Deregister:
    oid: int


UpdateOp = Union[Register, Report, Deregister]
Operation = Union[UpdateOp, QueryOp]


def op_class_name(op: Operation) -> str:
    """Metric key for an operation: its class name in snake case
    (``SnapshotAt`` → ``"snapshot_at"``), matching the service's own
    span names so batch-failure counts line up with span metrics."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(op).__name__).lower()


@dataclass
class OpResult:
    """Outcome of one batch operation, aligned with the batch order."""

    op: Operation
    value: object = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class BatchExecutor:
    """Executes operation batches against a :class:`ShardedMotionService`.

    Parameters
    ----------
    service:
        The shard fan-out target.
    max_workers:
        Thread-pool width; defaults to the service's shard count
        (one in-flight task per shard is the natural parallelism).
    batch_queries:
        When true, the query phase of each epoch is pushed down as a
        single :meth:`ShardedMotionService.query_batch` call (one
        kernel invocation per shard, result cache in front) instead
        of one pool task per query.  Results are identical; an error
        raised by the batch call falls back to per-operation
        execution so containment semantics are preserved.

    The update phase is always one ``apply_batch`` call; per-op
    rejections land in ``.error``.  Each update op is also counted in
    the service metrics under its own class name (``register`` /
    ``report`` / ``deregister``; calls and errors, no latency or I/O
    sample) so per-class call counts survive the batching; the
    phase's latency and shard I/O are booked once, on the service's
    ``apply_batch`` span.
    """

    def __init__(
        self,
        service: ShardedMotionService,
        max_workers: Optional[int] = None,
        batch_queries: bool = False,
    ) -> None:
        self.service = service
        self.batch_queries = batch_queries
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers or max(2, service.shard_count),
            thread_name_prefix="motion-batch",
        )
        self._last_run_failed_ops: Dict[str, int] = {}

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution ---------------------------------------------------------------

    def run(self, batch: List[Operation]) -> List[OpResult]:
        """Execute one epoch; results align with ``batch`` order."""
        results: List[Optional[OpResult]] = [None] * len(batch)

        updates: Dict[int, List[int]] = {}
        queries: List[int] = []
        for position, op in enumerate(batch):
            if isinstance(op, (Register, Report, Deregister)):
                updates.setdefault(self._shard_hint(op), []).append(position)
            else:
                queries.append(position)

        if updates:
            self._run_updates(batch, updates, results)

        if self.batch_queries and queries:
            query_ops = [batch[position] for position in queries]
            try:
                values = self.service.query_batch(query_ops)
            except Exception:
                # One bad operation (or a service without the batch
                # API) must not poison the epoch: re-run the phase
                # with per-operation containment.
                for position in queries:
                    results[position] = self._apply(batch[position])
            else:
                for position, value in zip(queries, values):
                    results[position] = OpResult(
                        op=batch[position], value=value
                    )
        else:
            query_futures = {
                position: self._pool.submit(self._apply, batch[position])
                for position in queries
            }
            for position, future in query_futures.items():
                results[position] = future.result()
        final = [result for result in results if result is not None]
        # Rebuild the per-epoch failure view from this epoch's results
        # alone.  The registry's failed_ops is cumulative across the
        # executor's lifetime; reusing it per epoch would leak earlier
        # epochs' failures into this epoch's errors column.
        epoch_failures: Dict[str, int] = {}
        for result in final:
            if not result.ok:
                name = op_class_name(result.op)
                epoch_failures[name] = epoch_failures.get(name, 0) + 1
        self._last_run_failed_ops = epoch_failures
        return final

    @property
    def last_run_failed_ops(self) -> Dict[str, int]:
        """Failed-op counts of the most recent ``run()`` only.

        Empty after a clean epoch, even if earlier epochs failed —
        contrast ``service.metrics.snapshot()["failed_ops"]``, the
        cumulative caller-observed totals."""
        return dict(self._last_run_failed_ops)

    def _run_updates(
        self,
        batch: List[Operation],
        updates: Dict[int, List[int]],
        results: List[Optional[OpResult]],
    ) -> None:
        """The update phase: one ``service.apply_batch`` call.

        Submission order is per shard-hint group, timestamp order
        within a group (stable, so equal timestamps keep submission
        order).  An exception from the call itself — not a per-op
        rejection — propagates.

        Each op is booked under its own class name as a call (and an
        error when rejected) only: the ops share one call, so their
        latency and I/O are the ``apply_batch`` span's, not per-op
        samples.
        """
        ordered: List[int] = []
        for positions in updates.values():
            ordered.extend(
                sorted(positions, key=lambda p: getattr(batch[p], "t0", 0.0))
            )
        write_ops = []
        for position in ordered:
            op = batch[position]
            if isinstance(op, Register):
                write_ops.append(RegisterOp(op.oid, op.y0, op.v, op.t0))
            elif isinstance(op, Report):
                write_ops.append(ReportOp(op.oid, op.y0, op.v, op.t0))
            else:
                write_ops.append(DeregisterOp(op.oid))
        metrics = self.service.metrics
        outcomes = self.service.apply_batch(write_ops)
        for position, error in zip(ordered, outcomes):
            op = batch[position]
            name = op_class_name(op)
            metrics.operation(name).calls.increment()
            if error is not None:
                metrics.operation(name).errors.increment()
                metrics.record_batch_failure(name)
            results[position] = OpResult(op=op, error=error)

    def _shard_hint(self, op: UpdateOp) -> int:
        """Group key for the update phase: the op's routed shard.

        For :class:`Deregister` (no motion) and for motion-sensitive
        routers the current owner is the best hint; unknown objects
        group under their would-be route so the duplicate/missing
        error surfaces in order with their neighbors.

        ``shard_of`` reads the ownership table — never a route
        recompute — so the hint stays correct across live rebalancing
        (band edges can change between batches).  While a two-phase
        migration is in flight the hint is the migration *source*;
        that is only an ordering choice: the service's double-write
        applies the update to both participants wherever the op sits
        in the batch.
        """
        service = self.service
        if isinstance(op, Deregister):
            try:
                return service.shard_of(op.oid)
            except ObjectNotFoundError:
                # Unregistered: any group works — the op will fail with
                # the same error wherever it runs.  Anything else (a
                # routing/catalog bug) must propagate, not silently
                # mis-group work onto shard 0.
                return 0
        motion = LinearMotion1D(op.y0, op.v, op.t0)
        if isinstance(op, Report) and service.router.motion_sensitive:
            try:
                return service.shard_of(op.oid)
            except ObjectNotFoundError:
                pass  # unregistered: fall through to the would-be route
        return service.router.route(op.oid, motion)

    def _apply(self, op: Operation) -> OpResult:
        service = self.service
        try:
            if isinstance(op, Within):
                value = service.within(op.y1, op.y2, op.t1, op.t2)
            elif isinstance(op, SnapshotAt):
                value = service.snapshot_at(op.y1, op.y2, op.t)
            elif isinstance(op, Nearest):
                value = service.nearest(op.y, op.t, op.k)
            elif isinstance(op, ProximityPairs):
                value = service.proximity_pairs(op.d, op.t1, op.t2)
            else:
                raise TypeError(f"unknown operation {op!r}")
            return OpResult(op=op, value=value)
        except Exception as error:  # per-op containment
            service.metrics.record_batch_failure(op_class_name(op))
            return OpResult(op=op, error=error)
