"""Persistent worker-process pool for per-shard batch-query execution.

CPython's GIL serializes the numpy dispatch overhead of every shard in
one interpreter, so a multi-shard service gains nothing from threads.
:class:`WorkerPool` escapes it: a fixed set of **processes** (spawn
context — no inherited locks or listeners) each own a lane of shards
(``shard % workers``), attach the shards' shared-memory column
segments (:mod:`repro.vector.shm`) by name, and run the *same*
:func:`repro.vector.evaluate.evaluate_partial` dispatch the in-process
path uses — which is what keeps pooled answers byte-identical to the
``workers=0`` leg once the service merges them.

Protocol (all small, picklable tuples):

* task: ``(task_id, shard, segment_name, ops)`` on the worker's own
  task queue;
* result: ``(task_id, shard, ok, payload, elapsed_s)`` on the worker's
  own result queue — ``payload`` is the per-op partial list on success
  (numpy arrays: matching oids, or k-NN ``(oid, dist)`` candidates) or
  a ``repr`` of the worker-side exception.

Each worker has private queues on purpose: a worker SIGKILLed while
writing into a *shared* queue could die holding its write lock and
wedge every other producer.  With private queues a dead worker can
only lose its own traffic, which :meth:`WorkerPool.query_shards` turns
into a :class:`WorkerCrashError` naming exactly the shards whose
answers are missing — the service layer then either recomputes them
inline (plain service) or routes them through the existing
``kill_shard`` / degraded-result machinery (fault-tolerant service).
The pool itself never hangs: liveness is polled while waiting, the
dead worker is respawned with **fresh queues** (its old ones may hold
a half-written message), and monotone task ids let the gather loop
discard stale results a crashed batch left behind.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import queue
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["WorkerCrashError", "WorkerPool", "DEFAULT_TASK_TIMEOUT_S"]

#: Ceiling on one batch's pool round-trip before the stuck shards are
#: declared failed (generous: a worker also needs ~seconds to import
#: the kernel stack on its very first task).
DEFAULT_TASK_TIMEOUT_S = 60.0

#: How often the gather loop wakes to check worker liveness while a
#: result queue is empty.
_POLL_S = 0.05

#: Attached segments a worker keeps open; retired names get evicted
#: oldest-first (growth changes a shard's segment name).
_WORKER_SEGMENT_CACHE = 16


class WorkerCrashError(RuntimeError):
    """Some shards' sub-batches were lost to worker failure.

    Attributes
    ----------
    shards:
        Sorted shard ids whose answers are missing.
    partial:
        ``{shard: partials}`` for the sub-batches that did complete —
        the caller decides whether to salvage or discard them.
    """

    def __init__(self, shards: Sequence[int], partial: Dict[int, List]):
        self.shards = sorted(shards)
        self.partial = partial
        super().__init__(
            f"worker death lost shards {self.shards} "
            f"({len(partial)} sub-batches salvaged)"
        )


def _worker_main(task_q, result_q) -> None:
    """Worker loop: attach segment → seqlock snapshot → kernel dispatch.

    Imports live here (not at module top) so the parent's import of
    this module stays cheap and the spawn cost is paid in the child.
    """
    from repro.vector.evaluate import evaluate_partial
    from repro.vector.shm import attach_segment, read_snapshot

    segments: "Dict[str, object]" = {}
    while True:
        item = task_q.get()
        if item is None:
            break
        task_id, shard, name, ops = item
        start = time.perf_counter()
        try:
            shm = segments.get(name)
            if shm is None:
                while len(segments) >= _WORKER_SEGMENT_CACHE:
                    _, old = segments.popitem()
                    try:
                        old.close()
                    except Exception:
                        pass
                shm = attach_segment(name)
                segments[name] = shm
            oid, y0, v, t0, _version = read_snapshot(shm)
            answers = [evaluate_partial(oid, y0, v, t0, op) for op in ops]
            elapsed = time.perf_counter() - start
            result_q.put((task_id, shard, True, answers, elapsed))
        except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
            # A torn segment (retired mid-read) or any kernel error:
            # report it instead of dying, so the lane stays usable.
            segments.pop(name, None)
            elapsed = time.perf_counter() - start
            result_q.put((task_id, shard, False, repr(exc), elapsed))
    for shm in segments.values():
        try:
            shm.close()
        except Exception:
            pass


class _Worker:
    """One process + its private task/result queues."""

    def __init__(self, ctx, index: int) -> None:
        self.index = index
        self.task_q = ctx.Queue()
        self.result_q = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.task_q, self.result_q),
            daemon=True,
            name=f"repro-shard-worker-{index}",
        )
        self.process.start()

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, grace_s: float = 1.0) -> None:
        try:
            self.task_q.put(None)
        except Exception:
            pass
        self.process.join(timeout=grace_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=grace_s)
        for q in (self.task_q, self.result_q):
            try:
                q.close()
            except Exception:
                pass


def _shutdown_pool(workers: List[_Worker]) -> None:
    for worker in list(workers):
        try:
            worker.stop()
        except Exception:
            pass
    del workers[:]


class WorkerPool:
    """A fixed-size pool of shard-execution processes.

    ``shard % size`` is the static lane assignment — one worker may
    serve several shards (sequentially), but a shard's tasks never
    migrate between workers except through respawn, so per-shard
    result ordering needs no extra bookkeeping.

    The pool is crash-safe, not crash-free: :meth:`query_shards`
    raises :class:`WorkerCrashError` for lost lanes and respawns the
    worker immediately, so the *next* batch runs at full width again.
    Thread-safety: one batch in flight at a time (the service
    serializes calls under its own lock); liveness polling, not
    blocking joins, keeps a kill from hanging the caller.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least 1 worker, got {workers}")
        self._ctx = mp.get_context("spawn")
        self._workers: List[_Worker] = [
            _Worker(self._ctx, i) for i in range(workers)
        ]
        self._task_id = 0
        self._respawns = 0
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._workers
        )
        atexit.register(self.close)

    # -- introspection --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def respawns(self) -> int:
        """Workers replaced after a death (monotone)."""
        return self._respawns

    def worker_pids(self) -> List[int]:
        """Live worker pids, lane order (chaos tests SIGKILL these)."""
        return [w.process.pid for w in self._workers]

    def _worker_for(self, shard: int) -> _Worker:
        return self._workers[shard % len(self._workers)]

    # -- execution ------------------------------------------------------------

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead (or wedged) worker with a fresh one.

        Fresh queues too: the old task queue may hold a message the
        dead feeder thread half-wrote, and the old result queue may
        hold answers for a batch that already failed — monotone task
        ids make any survivor on the *new* queues recognizably stale.
        """
        index = worker.index
        try:
            worker.stop(grace_s=0.1)
        except Exception:
            pass
        self._workers[index] = _Worker(self._ctx, index)
        self._respawns += 1

    def query_shards(
        self,
        tasks: Sequence[Tuple[int, str, Sequence]],
        timeout_s: float = DEFAULT_TASK_TIMEOUT_S,
    ) -> Tuple[Dict[int, List], Dict[int, float]]:
        """Run one batch: ``(shard, segment_name, ops)`` per shard.

        Returns ``(answers, elapsed)`` — ``{shard: [partial per op]}``
        (:func:`repro.vector.evaluate.merge` turns them into answers)
        and ``{shard: worker-side compute seconds}``.  Raises
        :class:`WorkerCrashError` (carrying every completed sub-batch)
        if any lane's worker dies or exceeds ``timeout_s``; failed
        workers are respawned before the exception propagates, so the
        pool is already healthy when the caller handles it.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        assignments: Dict[int, Dict[int, int]] = {}
        for shard, name, ops in tasks:
            worker = self._worker_for(shard)
            self._task_id += 1
            worker.task_q.put((self._task_id, shard, name, list(ops)))
            assignments.setdefault(worker.index, {})[self._task_id] = shard

        answers: Dict[int, List] = {}
        elapsed: Dict[int, float] = {}
        failed: List[int] = []
        deadline = time.monotonic() + timeout_s
        for index, pending in assignments.items():
            while pending:
                worker = self._workers[index]
                try:
                    msg = worker.result_q.get(timeout=_POLL_S)
                except queue.Empty:
                    if not worker.alive():
                        failed.extend(pending.values())
                        pending.clear()
                        self._respawn(worker)
                    elif time.monotonic() >= deadline:
                        failed.extend(pending.values())
                        pending.clear()
                        self._respawn(worker)
                    continue
                task_id, shard, ok, payload, took = msg
                if task_id not in pending:
                    continue  # stale: survivor of a failed batch
                del pending[task_id]
                if ok:
                    answers[shard] = payload
                    elapsed[shard] = took
                else:
                    # Worker-side exception (torn segment, kernel
                    # error): the lane is alive, only this shard's
                    # answers are missing.
                    failed.append(shard)
        if failed:
            raise WorkerCrashError(failed, answers)
        return answers, elapsed

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker (idempotent; also runs at interpreter
        exit so CI never strands spawn children)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _shutdown_pool(self._workers)
