"""The three benchmark workloads: seeded inputs, set-up, timed phase, gate.

Every input (scenario events, query lists, arrival schedules) is built by
:func:`make_inputs` before any clock starts, so the scenario generator's
own cost is never timed and the program only ever sees generated ops.
Each workload drives one service through the public API of
``repro.service``:

* ``ingest`` -- closed loop, one client, ``apply_batch`` writes into a
  replicated, WAL-backed ``FaultTolerantMotionService``; then a cold
  ``restore_from_disk``.  Index maintenance and checkpointing dominate.
* ``query`` -- closed loop, one client, ``query_batch`` reads of distinct
  mixed queries on a read-only ``ShardedMotionService``.  Per-shard
  vector compute and the fan-out/merge dominate; the cache only misses.
* ``serve`` -- open loop: Poisson arrivals at a fixed rate into an
  ``AsyncFrontend`` over a pooled ``ShardedMotionService``; 80% reads
  (30% of them from a fixed popular set) and 20% scalar ``report``
  writes from one writer thread.

Sizes are set so that one run (three set-ups, the timed phase, the
gate, and for ``ingest`` a restore) stays near half a minute on a
2-core host: the benchmark is run 70 times per check.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import MobileObject1D, MORQuery1D, brute_force_1d
from repro.core.model import LinearMotion1D
from repro.service import (
    AsyncFrontend,
    FaultTolerantMotionService,
    FrontendConfig,
    Overloaded,
    ShardedMotionService,
)
from repro.vector.ops import (
    DeregisterOp,
    Nearest,
    RegisterOp,
    ReportOp,
    SnapshotAt,
    Within,
)
from repro.workloads.scenarios import build_scenario

SHARDS = 4
#: Set-ups per run; ``setup_s`` is the median of their CPU seconds.
SETUP_REPEATS = 3
#: Registrations per ``apply_batch`` call while loading a population.
LOAD_BATCH = 5000

INGEST_N = 5000
INGEST_BATCH = 32
INGEST_REPLICATION = 2
INGEST_FSYNC = "batch:32"
#: Tick-stream writes generated per timed phase of ``ingest``.  A
#: phase that uses them all before ``--seconds`` ends there: every
#: bounded figure is per operation, and ``stream_used`` in the record's
#: properties shows how close a run came.
INGEST_STREAM_OPS = 40_000

QUERY_N = 20_000
QUERY_BATCH = 100
#: Distinct pre-generated batches, cycled.  Reuse distance is
#: ``QUERY_BATCHES * QUERY_BATCH`` queries, far beyond the result
#: cache's 1024 entries, so every lookup misses.
QUERY_BATCHES = 200
NEAREST_K = 10

SERVE_N = 10_000
SERVE_WORKERS = 2
SERVE_RATE = 150.0  # offered requests per second
SERVE_READ_SHARE = 0.8
SERVE_POPULAR_SHARE = 0.3
SERVE_POPULAR = 32
SERVE_LATENCY_LIMIT_MS = 250.0  # on read p99
SERVE_WARM = 1200

PROBES_PER_KIND = 12
#: Tail percentile of the primary call's latency in ``detail.extra``:
#: p90 keeps >= 10 samples beyond it in every workload (serve's read
#: p99 is reported as well).
TAIL_PERCENTILE = 90

def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _write_op(event):
    if event.kind == "register":
        return RegisterOp(event.oid, event.y0, event.v, event.t0)
    if event.kind == "report":
        return ReportOp(event.oid, event.y0, event.v, event.t0)
    return DeregisterOp(event.oid)


def _apply_to(motions: Dict[int, LinearMotion1D], op) -> None:
    """The generator-side truth: replay one write into a motion dict."""
    if isinstance(op, DeregisterOp):
        del motions[op.oid]
    else:
        motions[op.oid] = LinearMotion1D(op.y0, op.v, op.t0)


def _mixed_query(rng: random.Random, scenario, now: float):
    """One ``Within`` / ``SnapshotAt`` / ``Nearest`` drawn uniformly."""
    kind = rng.randrange(3)
    if kind == 2:
        return Nearest(
            rng.uniform(0.0, scenario.y_max),
            now + rng.uniform(0.0, scenario.query_horizon),
            NEAREST_K,
        )
    q = scenario.random_query(now)
    if kind == 0:
        return Within(q.y1, q.y2, q.t1, q.t2)
    return SnapshotAt(q.y1, q.y2, q.t1)


# -- inputs --------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything one run sends, generated from the seed up front."""

    model: Dict[str, float]
    load: List[RegisterOp]
    #: ingest: write batches; query: query batches.
    batches: List[list] = field(default_factory=list)
    #: serve: ``(due_s, op)`` reads and ``(due_s, ReportOp)`` writes.
    reads: List[Tuple[float, object]] = field(default_factory=list)
    writes: List[Tuple[float, ReportOp]] = field(default_factory=list)
    popular: List[Within] = field(default_factory=list)
    probes: List[object] = field(default_factory=list)
    #: Queries answered at the end of set-up, untimed by the phase.
    warm: List[object] = field(default_factory=list)


def make_inputs(workload: str, seed: int, seconds: float, phases: int = 1) -> Inputs:
    """Seeded inputs for ``phases`` back-to-back timed phases."""
    rng = random.Random(seed)
    if workload == "ingest":
        churn = max(1, INGEST_N // 500)
        scenario = build_scenario(
            "city", n=INGEST_N, seed=seed,
            arrivals_per_tick=churn, departures_per_tick=churn,
        )
        load = [_write_op(e) for e in scenario.initial_events()]
        stream: List = []
        tick = 0
        while len(stream) < INGEST_STREAM_OPS * phases:
            tick += 1
            stream.extend(_write_op(e) for e in scenario.tick_events(float(tick)))
        batches = [
            stream[i:i + INGEST_BATCH]
            for i in range(0, len(stream), INGEST_BATCH)
        ]
        return Inputs(scenario.model_params(), load, batches=batches,
                      probes=_probe_ops(rng, scenario, float(tick)))
    if workload == "query":
        scenario = build_scenario("uniform", n=QUERY_N, seed=seed)
        load = [_write_op(e) for e in scenario.initial_events()]
        batches = [
            [_mixed_query(rng, scenario, 0.0) for _ in range(QUERY_BATCH)]
            for _ in range(QUERY_BATCHES)
        ]
        return Inputs(scenario.model_params(), load, batches=batches,
                      probes=_probe_ops(rng, scenario, 0.0))
    if workload == "serve":
        scenario = build_scenario("city", n=SERVE_N, seed=seed)
        load = [_write_op(e) for e in scenario.initial_events()]
        popular = []
        for _ in range(SERVE_POPULAR):
            q = scenario.random_query(0.0)
            popular.append(Within(q.y1, q.y2, q.t1, q.t2))
        arrivals: List[float] = []
        t = 0.0
        while True:
            t += rng.expovariate(SERVE_RATE)
            if t >= seconds * phases:
                break
            arrivals.append(t)
        reads: List[Tuple[float, object]] = []
        due_writes: List[float] = []
        for due in arrivals:
            if rng.random() >= SERVE_READ_SHARE:
                due_writes.append(due)
            elif rng.random() < SERVE_POPULAR_SHARE:
                # A fresh but equal instance: equal ops share a cache
                # key, distinct instances let the trace tell requests
                # apart.
                p = popular[rng.randrange(SERVE_POPULAR)]
                reads.append((due, Within(p.y1, p.y2, p.t1, p.t2)))
            else:
                reads.append((due, _mixed_query(rng, scenario, 0.0)))
        reports: List[ReportOp] = []
        tick = 0
        while len(reports) < len(due_writes):
            tick += 1
            reports.extend(
                _write_op(e) for e in scenario.tick_events(float(tick))
            )
        writes = list(zip(due_writes, reports))
        probes = _probe_ops(rng, scenario, 0.0) + list(popular)
        # Enough distinct queries to fill the result cache, so the timed
        # phase starts at its steady state: a full cache, where every
        # write's invalidation pass walks every entry.
        warm = [_mixed_query(rng, scenario, 0.0) for _ in range(SERVE_WARM)]
        return Inputs(scenario.model_params(), load, reads=reads,
                      writes=writes, popular=popular, probes=probes,
                      warm=warm)
    raise ValueError(f"unknown workload {workload!r}")


def _probe_ops(rng: random.Random, scenario, now: float) -> list:
    probes = []
    for _ in range(PROBES_PER_KIND):
        q = scenario.random_query(now)
        probes.append(Within(q.y1, q.y2, q.t1, q.t2))
        probes.append(SnapshotAt(q.y1, q.y2, q.t2))
        probes.append(
            Nearest(rng.uniform(0.0, scenario.y_max),
                    now + rng.uniform(0.0, scenario.query_horizon),
                    NEAREST_K)
        )
    return probes


# -- the correctness gate ----------------------------------------------------


def oracle_answer(motions: Dict[int, LinearMotion1D], op):
    """Brute-force answer over the generator's own motions."""
    if isinstance(op, Nearest):
        ranked = sorted(
            (abs(m.y0 + m.v * (op.t - m.t0) - op.y), oid)
            for oid, m in motions.items()
        )
        return [(oid, dist) for dist, oid in ranked[: op.k]]
    objects = [MobileObject1D(oid, m) for oid, m in motions.items()]
    if isinstance(op, Within):
        return brute_force_1d(objects, MORQuery1D(op.y1, op.y2, op.t1, op.t2))
    return brute_force_1d(objects, MORQuery1D(op.y1, op.y2, op.t, op.t))


def gate(svc, motions: Dict[int, LinearMotion1D], probes: list, label: str) -> List[str]:
    """Divergences between the service and the oracle (empty = pass)."""
    problems = []
    if len(svc) != len(motions):
        problems.append(
            f"{label}: service holds {len(svc)} objects, generator {len(motions)}"
        )
    answers = svc.query_batch(probes)
    for op, got in zip(probes, answers):
        want = oracle_answer(motions, op)
        if got != want:
            problems.append(f"{label}: {op!r} diverged from the oracle")
    return problems


# -- shared plumbing ---------------------------------------------------------


def _load(svc, load: List[RegisterOp]) -> int:
    rejected = 0
    for i in range(0, len(load), LOAD_BATCH):
        rejected += sum(
            1 for out in svc.apply_batch(load[i:i + LOAD_BATCH]) if out is not None
        )
    return rejected


def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (``/proc/mounts``)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) >= 3 and (
                    path == parts[1] or path.startswith(parts[1].rstrip("/") + "/")
                ) and len(parts[1]) > len(best):
                    best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def _vm_hwm_mb(pid: int) -> float:
    """Peak RSS of a child process, from ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU of a child process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # utime and stime are fields 14 and 15 of the whole line.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _self_peak_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _close_checking_segments(svc) -> List[str]:
    """Close ``svc``; return the shared-memory segments it left behind.

    A segment counts as left over if the program still tracks it or its
    ``/dev/shm`` entry still exists after the close.
    """
    from repro.vector.shm import live_segment_names

    names = set(live_segment_names())
    svc.close()
    gc.collect()
    left = set(live_segment_names())
    left.update(n for n in names if os.path.exists(os.path.join("/dev/shm", n)))
    return sorted(left)


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: CPU and wall seconds of each set-up.
    setup_samples: List[float] = field(default_factory=list)
    setup_wall_samples: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    ops: int = 0
    writes: int = 0
    phase_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    properties: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)


class Workload:
    """One workload: ``setup`` / ``run_phase`` / ``finish``.

    ``run_phase`` may be called twice (untraced, then traced) on the
    same service; the traced run uses the second call's numbers.
    """

    def __init__(self, inputs: Inputs, seconds: float, workdir: str) -> None:
        self.inputs = inputs
        self.seconds = seconds
        self.workdir = workdir
        self.motions: Dict[int, LinearMotion1D] = {}
        self.svc = None
        self.outcome = Outcome()

    def setup(self, repeats: int) -> None:
        """Build the service ``repeats`` times, keep the last one.

        Each set-up is timed as CPU seconds of this process and of the
        new service's pool workers (spawned inside it), and as wall
        seconds for the record's detail.
        """
        for _ in range(repeats):
            if self.svc is not None:
                self.discard()
            cpu0 = time.process_time()
            start = time.perf_counter()
            self.svc = self.build()
            rejected = _load(self.svc, self.inputs.load)
            # Lazy set-up (pool worker imports, first segment attach,
            # cache fill) is paid here, not by the first timed request.
            self.svc.query_batch(self.inputs.probes[:3])
            for i in range(0, len(self.inputs.warm), 64):
                self.svc.query_batch(self.inputs.warm[i:i + 64])
            self.outcome.setup_wall_samples.append(time.perf_counter() - start)
            self.outcome.setup_samples.append(self.cpu_seconds() - cpu0)
            if rejected:
                self.outcome.problems.append(
                    f"set-up rejected {rejected} registrations"
                )
        self.motions = {
            op.oid: LinearMotion1D(op.y0, op.v, op.t0) for op in self.inputs.load
        }

    def discard(self) -> None:
        self.svc.close()
        self.svc = None
        gc.collect()

    def cpu_seconds(self) -> float:
        """CPU time (user + system) of this process and its pool workers."""
        pool = self.svc.pool
        pids = pool.worker_pids() if pool is not None else []
        return time.process_time() + sum(_proc_cpu_s(pid) for pid in pids)

    def build(self):
        raise NotImplementedError

    def run_phase(self, index: int) -> Outcome:
        raise NotImplementedError

    def finish(self) -> None:
        """Gate, capture end-of-run figures, release everything."""
        raise NotImplementedError


def _fresh_dir(parent: str, label: str) -> str:
    os.makedirs(parent, exist_ok=True)
    path = os.path.join(parent, f"{label}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    return path


class IngestWorkload(Workload):
    service_class = FaultTolerantMotionService

    def __init__(self, inputs, seconds, workdir):
        super().__init__(inputs, seconds, workdir)
        self.wal_dir: Optional[str] = None
        self.next_batch = 0

    def build(self):
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)
        self.wal_dir = _fresh_dir(self.workdir, "wal")
        return self.service_class(
            **self.inputs.model, shards=SHARDS,
            replication_factor=INGEST_REPLICATION,
            wal_dir=self.wal_dir, wal_fsync=INGEST_FSYNC,
        )

    def _counter(self, name: str) -> int:
        return self.svc.metrics.snapshot()["counters"].get(name, 0)

    def run_phase(self, index: int) -> Outcome:
        out = Outcome()
        checkpoints0 = self._counter("wal_checkpoint")
        batches = self.inputs.batches
        cpu0 = self.cpu_seconds()
        start = time.perf_counter()
        deadline = start + self.seconds
        while time.perf_counter() < deadline:
            if self.next_batch >= len(batches):
                break  # the stream ran out: the phase ends here
            batch = batches[self.next_batch]
            self.next_batch += 1
            t = time.perf_counter()
            try:
                outcomes = self.svc.apply_batch(batch)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                out.problems.append(f"apply_batch raised {exc!r}")
                outcomes = [exc] * len(batch)
            out.latencies_s.append(time.perf_counter() - t)
            out.attempted += len(batch)
            for op, result in zip(batch, outcomes):
                if result is None:
                    _apply_to(self.motions, op)
                else:
                    out.failed += 1
        out.phase_s = time.perf_counter() - start
        out.cpu_s = self.cpu_seconds() - cpu0
        out.ops = out.writes = out.attempted - out.failed
        out.properties["checkpoints_per_1k_writes"] = (
            1000.0 * (self._counter("wal_checkpoint") - checkpoints0)
            / max(1, out.writes)
        )
        out.properties["stream_used"] = self.next_batch / len(batches)
        return out

    def finish(self) -> None:
        o = self.outcome
        o.problems += gate(self.svc, self.motions, self.inputs.probes, "live")
        o.peak_rss_mb = _self_peak_mb()
        self.svc.close()
        o.extra["disk_bytes_per_object"] = _dir_bytes(self.wal_dir) / max(
            1, len(self.motions)
        )
        start = time.perf_counter()
        restored = self.service_class(
            **self.inputs.model, shards=SHARDS,
            replication_factor=INGEST_REPLICATION,
            wal_dir=self.wal_dir, wal_fsync=INGEST_FSYNC,
        )
        restored.restore_from_disk()
        o.extra["restore_s"] = time.perf_counter() - start
        o.problems += gate(restored, self.motions, self.inputs.probes, "restored")
        restored.close()
        self.svc = None
        o.provenance.update(
            wal_fsync=INGEST_FSYNC,
            wal_fs=_fs_type(self.wal_dir),
            replication_factor=INGEST_REPLICATION,
            objects=INGEST_N,
            batch_ops=INGEST_BATCH,
        )
        shutil.rmtree(self.wal_dir, ignore_errors=True)


class QueryWorkload(Workload):
    service_class = ShardedMotionService

    def __init__(self, inputs, seconds, workdir):
        super().__init__(inputs, seconds, workdir)
        self.next_batch = 0

    def build(self):
        return self.service_class(**self.inputs.model, shards=SHARDS, workers=0)

    def run_phase(self, index: int) -> Outcome:
        out = Outcome()
        batches = self.inputs.batches
        results = 0
        cpu0 = self.cpu_seconds()
        start = time.perf_counter()
        deadline = start + self.seconds
        while time.perf_counter() < deadline:
            batch = batches[self.next_batch % len(batches)]
            self.next_batch += 1
            t = time.perf_counter()
            try:
                answers = self.svc.query_batch(batch)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                out.failed += len(batch)
                out.problems.append(f"query_batch raised {exc!r}")
                answers = []
            out.latencies_s.append(time.perf_counter() - t)
            out.attempted += len(batch)
            results += sum(len(a) for a in answers)
        out.phase_s = time.perf_counter() - start
        out.cpu_s = self.cpu_seconds() - cpu0
        out.ops = out.attempted - out.failed
        out.properties["results_per_query"] = results / max(1, out.ops)
        stats = self.svc.query_cache.stats()
        looked = stats["hits"] + stats["misses"]
        out.properties["cache_hit_ratio"] = stats["hits"] / max(1, looked)
        return out

    def finish(self) -> None:
        o = self.outcome
        o.problems += gate(self.svc, self.motions, self.inputs.probes, "final")
        o.peak_rss_mb = _self_peak_mb()
        self.svc.close()
        self.svc = None
        o.provenance.update(objects=QUERY_N, batch_queries=QUERY_BATCH)


class ServeWorkload(Workload):
    service_class = ShardedMotionService

    def __init__(self, inputs, seconds, workdir):
        super().__init__(inputs, seconds, workdir)
        self.next_read = 0
        self.next_write = 0
        #: Called with ``(request id, op)`` at each read's submit; the
        #: traced run installs it to time admission waits.
        self.on_submit = None

    def build(self):
        return self.service_class(
            **self.inputs.model, shards=SHARDS, workers=SERVE_WORKERS
        )

    def discard(self) -> None:
        left = _close_checking_segments(self.svc)
        self.svc = None
        if left:
            self.outcome.problems.append(
                f"shared-memory segments left after close: {left}"
            )

    def _phase_slice(self, items, start_index, index):
        end_t = self.seconds * (index + 1)
        stop = start_index
        while stop < len(items) and items[stop][0] < end_t:
            stop += 1
        return items[start_index:stop], stop

    def run_phase(self, index: int) -> Outcome:
        out = Outcome()
        reads, self.next_read = self._phase_slice(
            self.inputs.reads, self.next_read, index
        )
        writes, self.next_write = self._phase_slice(
            self.inputs.writes, self.next_write, index
        )
        offset = self.seconds * index
        cache0 = self.svc.query_cache.stats()
        cpu0 = self.cpu_seconds()
        start = time.perf_counter()
        read_lat, write_lat, late, counts = asyncio.run(
            self._drive(reads, writes, offset)
        )
        out.phase_s = time.perf_counter() - start
        out.cpu_s = self.cpu_seconds() - cpu0
        out.latencies_s = read_lat
        out.attempted = len(reads) + len(writes)
        out.failed = counts["shed"] + counts["read_errors"] + counts["write_errors"]
        out.ops = out.attempted - out.failed
        out.writes = len(writes) - counts["write_errors"]
        for _, op in writes:
            _apply_to(self.motions, op)
        if read_lat:
            out.extra["read_p99_ms"] = 1e3 * percentile(read_lat, 99)
        if write_lat:
            out.extra["write_p50_ms"] = 1e3 * percentile(write_lat, 50)
            out.extra["write_p99_ms"] = 1e3 * percentile(write_lat, 99)
        out.extra["loadgen_late_p99_ms"] = 1e3 * percentile(late, 99) if late else 0.0
        out.extra["shed"] = counts["shed"]
        cache = self.svc.query_cache.stats()
        looked = (cache["hits"] - cache0["hits"]) + (cache["misses"] - cache0["misses"])
        popular = {(p.y1, p.y2, p.t1, p.t2) for p in self.inputs.popular}
        repeats = sum(
            1 for _, op in reads
            if isinstance(op, Within) and (op.y1, op.y2, op.t1, op.t2) in popular
        )
        out.properties.update(
            repeat_query_share=repeats / max(1, len(reads)),
            cache_hit_ratio=(cache["hits"] - cache0["hits"]) / max(1, looked),
            offered_rate=SERVE_RATE,
            achieved_rate=out.attempted / max(1e-9, out.phase_s),
        )
        return out

    async def _drive(self, reads, writes, offset: float):
        read_lat: List[float] = []
        write_lat: List[float] = []
        late: List[float] = []
        counts = {"shed": 0, "read_errors": 0, "write_errors": 0}
        frontend = AsyncFrontend(self.svc, FrontendConfig())
        await frontend.start()
        t0 = time.perf_counter() + 0.05 - offset
        on_submit = self.on_submit

        def writer() -> None:
            for due, op in writes:
                delay = t0 + due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    self.svc.report(op.oid, op.y0, op.v, op.t0)
                except Exception:  # noqa: BLE001 - counted as failed
                    counts["write_errors"] += 1
                write_lat.append(time.perf_counter() - (t0 + due))

        async def one(rid: int, op, due: float) -> None:
            if on_submit is not None:
                on_submit(rid, op)
            try:
                answer = await frontend.submit(op)
            except Exception:  # noqa: BLE001 - counted as failed
                counts["read_errors"] += 1
                return
            if isinstance(answer, Overloaded):
                counts["shed"] += 1
                return
            read_lat.append(time.perf_counter() - due)

        thread = threading.Thread(target=writer, name="perfbench-writer")
        thread.start()
        tasks = []
        try:
            for rid, (due, op) in enumerate(reads):
                delay = t0 + due - time.perf_counter()
                await asyncio.sleep(max(0.0, delay))
                late.append(max(0.0, time.perf_counter() - (t0 + due)))
                tasks.append(asyncio.create_task(one(rid, op, t0 + due)))
            await asyncio.gather(*tasks)
        finally:
            await asyncio.to_thread(thread.join)
            await frontend.stop()
        return read_lat, write_lat, late, counts

    def finish(self) -> None:
        o = self.outcome
        o.problems += gate(self.svc, self.motions, self.inputs.probes, "final")
        pool = self.svc.pool
        children_mb = sum(_vm_hwm_mb(pid) for pid in pool.worker_pids())
        # A pool that silently fell back to inline compute would be
        # measuring the workers=0 path instead.
        stats = self.svc.metrics.snapshot()["counters"]
        for name in ("parallel_worker_deaths", "parallel_inline_fallbacks"):
            if stats.get(name, 0):
                o.problems.append(f"{name} = {stats[name]} over the run")
        left = _close_checking_segments(self.svc)
        self.svc = None
        if left:
            o.problems.append(f"shared-memory segments left after close: {left}")
        o.peak_rss_mb = _self_peak_mb() + children_mb
        o.provenance.update(
            objects=SERVE_N, pool_workers=SERVE_WORKERS,
            offered_rate=SERVE_RATE,
            latency_limit_ms=SERVE_LATENCY_LIMIT_MS,
            frontend=vars(FrontendConfig()),
        )


WORKLOAD_CLASSES = {
    "ingest": IngestWorkload,
    "query": QueryWorkload,
    "serve": ServeWorkload,
}

