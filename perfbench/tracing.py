"""The traced run: spans around each layer's public functions.

Tracing lives entirely in the benchmark.  :class:`Tracer` replaces
selected functions of the program's modules with thin wrappers that
record one span per call -- ``[name, start, end, parent, tag]`` -- and
puts the originals back on :meth:`Tracer.uninstall`.  The parent is the
innermost span open on the same thread, so a span's self time is its
duration minus its direct children's.  Spans are kept in memory and
written out once, at the end of the run.

Pool workers are separate processes and run untraced; their compute
time is what ``WorkerPool.query_shards`` returns.  Coroutines are not
wrapped (tasks interleave on one thread); the frontend's admission wait
is measured from the benchmark's submit time to the start of the
``query_batch`` span that carries the request.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

from workloads import percentile

#: (module, owner attribute or None, function, span name).  ``owner``
#: None wraps a module-level function.
LAYER_FUNCTIONS = [
    ("repro.vector.cache", "QueryResultCache", "get", "cache.get"),
    ("repro.vector.cache", "QueryResultCache", "put", "cache.put"),
    ("repro.service.parallel", "WorkerPool", "query_shards", "pool.query_shards"),
    ("repro.vector.shm", "SharedMotionColumns", "upsert", "shm.apply"),
    ("repro.vector.shm", "SharedMotionColumns", "delete", "shm.apply"),
    ("repro.vector.shm", "SharedMotionColumns", "apply_events", "shm.apply"),
    ("repro.engine", "MotionDatabase", "query_batch", "engine.query_batch"),
    ("repro.engine", "MotionDatabase", "apply_batch", "engine.apply_batch"),
    ("repro.engine", "MotionDatabase", "register", "engine.register"),
    ("repro.engine", "MotionDatabase", "report", "engine.report"),
    ("repro.engine", "MotionDatabase", "deregister", "engine.deregister"),
    ("repro.engine", "MotionDatabase", "restore_object", "engine.restore_object"),
    ("repro.vector.evaluate", None, "evaluate_batch", "vector.evaluate"),
    ("repro.vector.columns", "MotionColumns", "apply_events", "columns.apply_events"),
    ("repro.vector.columns", "MotionColumns", "upsert", "columns.upsert"),
    ("repro.indexes.hybrid", "HybridIndex", "insert", "index.insert"),
    ("repro.indexes.hybrid", "HybridIndex", "delete", "index.delete"),
    ("repro.indexes.hybrid", "HybridIndex", "insert_batch", "index.insert_batch"),
    ("repro.indexes.hybrid", "HybridIndex", "update_batch", "index.update_batch"),
    ("repro.indexes.hough_y_forest", "HoughYForestIndex", "bulk_build", "index.bulk_build"),
    ("repro.bptree.tree", "BPlusTree", "insert", "bptree.insert"),
    ("repro.bptree.tree", "BPlusTree", "delete", "bptree.delete"),
    ("repro.interval.tree", "IntervalIndex", "insert", "interval.insert"),
    ("repro.service.wal", "ShardWAL", "append", "wal.append"),
    ("repro.service.wal", "ShardWAL", "append_batch", "wal.append_batch"),
    ("repro.service.wal", "ShardWAL", "checkpoint", "wal.checkpoint"),
    ("repro.service.wal", "ShardWAL", "recover", "wal.recover"),
    ("repro.storage.log", "DurableLog", "append", "storage.log_append"),
    ("repro.storage.checkpoint", "CheckpointStore", "write", "storage.checkpoint_write"),
    ("os", None, "fsync", "storage.fsync"),
]

#: Service entry points, wrapped on the class of the service under test.
SERVICE_FUNCTIONS = [
    ("query_batch", "service.query_batch"),
    ("report", "service.report"),
    ("apply_batch", "service.apply_batch"),
]


def _log_append_bytes(span, args, result) -> None:
    # DurableLog.append returns the frame's offset; size is now its end.
    span[4] = args[0].size - result


def _checkpoint_bytes(span, args, result) -> None:
    store = args[0]
    name = store.stats().get("checkpoint")
    span[4] = os.path.getsize(os.path.join(store.directory, name)) if name else 0


def _results(span, args, result) -> None:
    span[4] = (len(result), sum(len(r) for r in result))


def _worker_compute(span, args, result) -> None:
    _answers, elapsed = result
    span[4] = max(elapsed.values()) if elapsed else 0.0


POST_HOOKS: Dict[str, Callable] = {
    "storage.log_append": _log_append_bytes,
    "storage.checkpoint_write": _checkpoint_bytes,
    "engine.query_batch": _results,
    "pool.query_shards": _worker_compute,
}


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.marks: Dict[str, float] = {}
        self._local = threading.local()
        self._patches: List[tuple] = []
        #: request id -> submit time, and id(op) -> request id; filled
        #: by the serve workload through :meth:`on_submit`.
        self.submits: Dict[int, float] = {}
        self.op_rid: Dict[int, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def mark(self, name: str) -> None:
        self.marks[name] = time.perf_counter()

    def on_submit(self, rid: int, op) -> None:
        self.submits[rid] = time.perf_counter()
        self.op_rid[id(op)] = rid

    def _wrapper(self, fn: Callable, name: str, post: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, None]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(span, args, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, post: Optional[Callable] = None) -> None:
        had_own = attr in vars(owner)
        raw = vars(owner)[attr] if had_own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrapper(raw.__func__, name, post))
        else:
            patched = self._wrapper(raw, name, post)
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, raw if had_own else None))

    def install(self, service_class) -> None:
        import importlib

        for module_name, owner_name, attr, name in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self.wrap(owner, attr, name, POST_HOOKS.get(name))
        for attr, name in SERVICE_FUNCTIONS:
            post = self._carried_requests if attr == "query_batch" else None
            self.wrap(service_class, attr, name, post)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    def _carried_requests(self, span, args, result) -> None:
        ops = args[1]
        span[4] = [self.op_rid.get(id(op)) for op in ops]

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (parents by index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                record = {
                    "i": i, "name": name, "start": start, "end": end,
                    "parent": index.get(id(parent)) if parent is not None else None,
                }
                if name == "service.query_batch" and tag:
                    record["request_ids"] = [r for r in tag if r is not None]
                elif tag is not None and not isinstance(tag, list):
                    record["tag"] = tag
                handle.write(json.dumps(record) + "\n")


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _p(values: List[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def layer_metrics(tracer: Tracer, ctx: Dict[str, float]) -> Dict[str, float]:
    """Per-layer figures from the spans plus the benchmark's counter deltas.

    ``ctx`` carries ``writes`` (acknowledged writes in the traced
    phase) and the counter deltas the service reports.
    Spans before the ``phase_start`` mark come from the traced set-up
    and feed only the batch-load figures (with the phase's own); spans
    after ``phase_end`` belong to the restore (``ingest`` only) and feed
    just the recovery figures.
    """
    start, end = tracer.marks["phase_start"], tracer.marks["phase_end"]
    setup: Dict[str, List[list]] = {}
    phase: Dict[str, List[list]] = {}
    after: Dict[str, List[list]] = {}
    children: Dict[int, float] = {}
    for span in tracer.spans:
        bucket = setup if span[1] < start else phase if span[1] < end else after
        bucket.setdefault(span[0], []).append(span)
        if span[3] is not None:
            children[id(span[3])] = children.get(id(span[3]), 0.0) + span[2] - span[1]

    def durs(name: str, scale: float, source=phase) -> List[float]:
        return [(s[2] - s[1]) * scale for s in source.get(name, [])]

    def load_durs(name: str, scale: float) -> List[float]:
        return durs(name, scale, setup) + durs(name, scale)

    def self_times(name: str, scale: float) -> List[float]:
        return [
            (s[2] - s[1] - children.get(id(s), 0.0)) * scale
            for s in phase.get(name, [])
        ]

    writes = max(1, ctx["writes"])
    m: Dict[str, float] = {}

    # frontend: admission wait from submit to the carrying query_batch.
    waits = []
    batch_sizes = []
    for span in phase.get("service.query_batch", []):
        rids = [r for r in (span[4] or []) if r is not None]
        if rids:
            batch_sizes.append(len(rids))
        for rid in rids:
            submitted = tracer.submits.get(rid)
            if submitted is not None:
                waits.append((span[1] - submitted) * 1e3)
    m["frontend.admit_wait_ms.p50"] = _p(waits, 50)
    m["frontend.admit_wait_ms.p99"] = _p(waits, 99)
    m["frontend.ops_per_batch"] = _mean(batch_sizes)
    m["frontend.shed"] = ctx.get("shed", 0)

    looked = ctx.get("cache_hits", 0) + ctx.get("cache_misses", 0)
    m["cache.hit_ratio"] = ctx.get("cache_hits", 0) / looked if looked else 0.0
    m["cache.get_us"] = _mean(durs("cache.get", 1e6))
    m["cache.put_us"] = _mean(durs("cache.put", 1e6))
    for key in ("invalidations", "evictions", "stale_puts"):
        m[f"cache.{key}"] = ctx.get(f"cache_{key}", 0)

    m["service.query_batch_ms"] = _mean(durs("service.query_batch", 1e3))
    m["service.query_batch_self_ms"] = _mean(self_times("service.query_batch", 1e3))
    m["service.report_us"] = _mean(durs("service.report", 1e6))
    m["service.report_self_us"] = _mean(self_times("service.report", 1e6))
    m["service.apply_batch_ms"] = _mean(durs("service.apply_batch", 1e3))

    shards = phase.get("pool.query_shards", [])
    walls = [(s[2] - s[1]) * 1e3 for s in shards]
    compute = [s[4] * 1e3 for s in shards if s[4] is not None]
    m["pool.query_shards_ms.p50"] = _p(walls, 50)
    m["pool.query_shards_ms.p99"] = _p(walls, 99)
    m["pool.worker_compute_ms"] = _p(compute, 50)
    m["pool.dispatch_overhead_ms"] = _p(
        [w - c for w, c in zip(walls, compute)], 50
    )
    m["pool.tasks"] = ctx.get("pool_tasks", 0)
    m["pool.respawns"] = ctx.get("pool_respawns", 0)
    m["shm.apply_us"] = _mean(durs("shm.apply", 1e6))

    m["engine.query_batch_ms"] = _mean(durs("engine.query_batch", 1e3))
    tags = [s[4] for s in phase.get("engine.query_batch", []) if s[4]]
    queries = sum(t[0] for t in tags)
    m["engine.results_per_query"] = sum(t[1] for t in tags) / queries if queries else 0.0
    m["engine.apply_batch_ms"] = _mean(load_durs("engine.apply_batch", 1e3))
    m["engine.register_us"] = _mean(durs("engine.register", 1e6))
    m["engine.report_us"] = _mean(durs("engine.report", 1e6))
    m["engine.deregister_us"] = _mean(durs("engine.deregister", 1e6))
    m["engine.restore_object_us"] = _mean(durs("engine.restore_object", 1e6, after))

    m["vector.evaluate_ms"] = _mean(durs("vector.evaluate", 1e3))
    m["columns.apply_events_ms"] = _mean(load_durs("columns.apply_events", 1e3))
    m["columns.upsert_us"] = _mean(durs("columns.upsert", 1e6))

    m["index.insert_us"] = _mean(durs("index.insert", 1e6))
    m["index.delete_us"] = _mean(durs("index.delete", 1e6))
    m["index.insert_batch_ms"] = _mean(load_durs("index.insert_batch", 1e3))
    m["index.update_batch_ms"] = _mean(load_durs("index.update_batch", 1e3))
    builds = load_durs("index.bulk_build", 1e3)
    m["index.bulk_builds"] = len(builds)
    m["index.bulk_build_ms"] = _mean(builds)
    m["index.page_reads_per_write"] = ctx.get("page_reads", 0) / writes
    m["index.page_writes_per_write"] = ctx.get("page_writes", 0) / writes
    m["index.pages_in_use"] = ctx.get("pages_in_use", 0)

    m["bptree.inserts_per_write"] = len(phase.get("bptree.insert", [])) / writes
    m["bptree.insert_us"] = _mean(durs("bptree.insert", 1e6))
    m["bptree.delete_us"] = _mean(durs("bptree.delete", 1e6))
    m["interval.inserts_per_write"] = len(phase.get("interval.insert", [])) / writes
    m["interval.insert_us"] = _mean(durs("interval.insert", 1e6))

    checkpoints = durs("wal.checkpoint", 1e3)
    m["wal.append_batch_ms"] = _mean(durs("wal.append_batch", 1e3))
    m["wal.records_per_write"] = len(phase.get("wal.append", [])) / writes
    m["wal.checkpoints_per_1k_writes"] = 1000.0 * len(checkpoints) / writes
    m["wal.checkpoint_ms.p50"] = _p(checkpoints, 50)
    m["wal.checkpoint_share"] = sum(checkpoints) / 1e3 / max(1e-9, end - start)
    m["wal.recover_ms"] = _mean(durs("wal.recover", 1e3, after))

    log_bytes = sum(s[4] or 0 for s in phase.get("storage.log_append", []))
    ckpt = [s[4] or 0 for s in phase.get("storage.checkpoint_write", [])]
    m["storage.log_bytes_per_write"] = log_bytes / writes
    m["storage.checkpoint_bytes"] = _mean(ckpt)
    m["storage.bytes_written_per_write"] = (log_bytes + sum(ckpt)) / writes
    fsyncs = durs("storage.fsync", 1e3)
    m["storage.syncs"] = len(fsyncs)
    m["storage.sync_ms"] = _mean(fsyncs)

    m["loadgen.late_p99_ms"] = ctx.get("late_p99_ms", 0.0)
    m["trace.overhead_frac"] = ctx["overhead_frac"]
    return m
