"""The ``serve-bench`` workload: the service layer under traffic.

Drives a :class:`~repro.service.service.ShardedMotionService` with a
seeded multi-epoch workload — motion reports mixed with the full query
menu, batched through the
:class:`~repro.service.executor.BatchExecutor` — and reports what a
service operator needs: throughput, p50/p99 latency and average
simulated I/O per operation class, plus the per-shard breakdown that
shows whether the routing policy balances load.

Chaos mode (``faults=True`` and/or ``replication > 1``) swaps in a
:class:`~repro.service.replication.FaultTolerantMotionService`: a
seeded :class:`~repro.service.faults.FaultInjector` sprays transient
errors and latency spikes across all shards and crashes one
seed-picked victim shard mid-run; crashed shards are recovered
(checkpoint + WAL replay + catalog reconciliation) after each epoch.
With ``verify=True`` the run ends with a differential check against a
faultless single :class:`~repro.engine.MotionDatabase` that replayed
exactly the acknowledged updates — the "zero lost updates" assertion
behind ``make chaos-smoke``.

Everything is deterministic from ``seed`` (the paper's reproducibility
discipline), so the smoke target in CI can assert on structure without
flaking.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import Table
from repro.engine import MotionDatabase
from repro.errors import ShardUnavailableError
from repro.service.continuous import SubscriptionManager, replay_deltas
from repro.service.executor import (
    BatchExecutor,
    Nearest,
    Operation,
    ProximityPairs,
    Register,
    Report,
    SnapshotAt,
    Within,
)
from repro.service.faults import FaultInjector, FaultSpec
from repro.service.health import RetryPolicy
from repro.service.replication import FaultTolerantMotionService, PartialResult
from repro.service.service import ShardedMotionService

#: The paper's §5 motion parameters, reused as bench defaults.
DEFAULT_Y_MAX = 1000.0
DEFAULT_V_MIN = 0.16
DEFAULT_V_MAX = 1.66

#: Chaos-mode fault mix (rates per shard operation).  Modest enough
#: that bounded retries almost always clear transient faults, spicy
#: enough that a run of a few hundred ops sees every fault class.
FAULT_ERROR_RATE = 0.03
FAULT_LATENCY_RATE = 0.01
FAULT_LATENCY_S = 0.0002
#: Retry budget for chaos mode.
RETRY_ATTEMPTS = 4
RETRY_BACKOFF_S = 0.0002


@dataclass
class ServeBenchConfig:
    """Parameters of one serve-bench run (all seeded/deterministic)."""

    n: int = 2000
    shards: int = 4
    batches: int = 10
    updates_per_batch: int = 100
    queries_per_batch: int = 50
    proximity_every: int = 5
    method: str = "forest"
    router: str = "hash"
    workers: int = 0  # 0 -> executor default (shard count)
    seed: int = 42
    #: Clear buffer pools before each query phase (the paper's §5
    #: pre-query protocol); keeps query avg_io honest instead of
    #: measuring a warm cache.
    cold_queries: bool = True
    #: Copies per object; > 1 switches to the fault-tolerant service.
    replication: int = 1
    #: Enable the seeded fault injector (transient errors, latency
    #: spikes, one victim-shard crash mid-run).
    faults: bool = False
    #: End the run with a differential check against a faultless
    #: single database (zero-lost-updates assertion).
    verify: bool = False
    #: Root directory for durable per-shard WALs; ``None`` keeps the
    #: in-memory backend.  Setting this switches to the fault-tolerant
    #: service even with ``replication == 1`` and no faults, so
    #: ``--faults --verify`` chaos runs exercise the real files.
    wal_dir: Optional[str] = None
    #: Log fsync policy for the durable backend
    #: (``always`` / ``batch[:N]`` / ``never``).
    fsync: str = "always"


@dataclass
class ServeBenchReport:
    """Results: wall-clock totals plus the service's own snapshot."""

    config: ServeBenchConfig
    elapsed_s: float
    operations: int
    stats: Dict[str, object] = field(default_factory=dict)
    #: Shard recoveries performed during the run (chaos mode).
    recoveries: int = 0
    #: Differential check outcome when ``config.verify`` was set.
    verification: Optional[Dict[str, object]] = None

    @property
    def throughput_ops_s(self) -> float:
        return self.operations / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def failed_ops(self) -> Dict[str, int]:
        """Caller-observed failed-op totals per operation class."""
        return dict(self.stats["metrics"].get("failed_ops", {}))

    def operation_table(self) -> Table:
        """Per-operation-class metrics (the service-wide view).

        The ``errors`` column is the caller-observed failure count
        (every ``OpResult.error`` from the batch layer); span-internal
        errors are a subset of it, so failed ops no longer vanish into
        the throughput numbers.

        Writes run by :class:`BatchExecutor` share one ``apply_batch``
        call per epoch: their ``register``/``report``/``deregister``
        rows count calls and errors only, and the update phase's
        latency and I/O are on the ``apply_batch`` row.
        """
        table = Table(
            headers=["op", "calls", "p50_ms", "p99_ms", "avg_io", "errors"]
        )
        metrics = self.stats["metrics"]
        failed = self.failed_ops
        names = sorted(set(metrics["operations"]) | set(failed))
        for name in names:
            summary = metrics["operations"].get(name, {})
            table.rows.append([
                name,
                summary.get("calls", 0),
                summary.get("p50_ms", 0.0),
                summary.get("p99_ms", 0.0),
                summary.get("avg_io", 0.0),
                failed.get(name, summary.get("errors", 0)),
            ])
        return table

    def shard_table(self) -> Table:
        """Per-shard load: population, ops served, I/O, space."""
        table = Table(
            headers=["shard", "objects", "ops", "reads", "writes",
                     "pages", "io_per_op"]
        )
        per_shard_ops = self.stats["metrics"]["shards"]
        for state in self.stats["shard_state"]:
            shard = state["shard"]
            ops = sum(
                summary["calls"]
                for summary in per_shard_ops.get(shard, {}).values()
            )
            io_total = state["io"]["reads"] + state["io"]["writes"]
            table.rows.append([
                shard,
                state["objects"],
                ops,
                state["io"]["reads"],
                state["io"]["writes"],
                state["pages_in_use"],
                round(io_total / ops, 2) if ops else 0.0,
            ])
        return table

    def render(self) -> str:
        lines = [
            (
                f"serve-bench: {self.operations} ops over "
                f"{self.config.batches} batches, "
                f"{self.config.shards} shards ({self.config.router} "
                f"router), {self.config.n} objects"
            ),
            (
                f"elapsed {self.elapsed_s:.3f}s — "
                f"{self.throughput_ops_s:,.0f} ops/s"
            ),
        ]
        fault_tolerance = self.stats.get("fault_tolerance")
        if fault_tolerance is not None:
            injected = (fault_tolerance.get("faults") or {}).get(
                "injected", {}
            )
            lines.append(
                f"fault tolerance: replication={self.config.replication} "
                f"injected={injected or 'off'} "
                f"recoveries={self.recoveries} "
                f"down={fault_tolerance['down_shards']}"
            )
        failed = self.failed_ops
        if failed:
            total = sum(failed.values())
            lines.append(f"failed ops: {total} ({failed})")
        if self.verification is not None:
            v = self.verification
            verdict = "OK" if v["mismatches"] == 0 else "MISMATCH"
            lines.append(
                f"verification vs faultless oracle: {verdict} — "
                f"{v['checks']} checks, {v['mismatches']} mismatches, "
                f"{v['lost_objects']} lost objects"
            )
        lines += [
            "",
            self.operation_table().render("Per-operation metrics"),
            "",
            self.shard_table().render("Per-shard load"),
        ]
        return "\n".join(lines)


def build_batch(
    rng: random.Random,
    config: ServeBenchConfig,
    oids: List[int],
    now: float,
    include_proximity: bool,
) -> Tuple[List[Operation], List[Operation]]:
    """One epoch of traffic: reports plus a mixed query menu.

    Returned as ``(updates, queries)`` so the runner can clear buffer
    pools between the phases when ``cold_queries`` is set.
    """
    updates: List[Operation] = []
    batch: List[Operation] = []
    for _ in range(config.updates_per_batch):
        oid = rng.choice(oids)
        speed = rng.uniform(DEFAULT_V_MIN, DEFAULT_V_MAX)
        direction = 1 if rng.random() < 0.5 else -1
        updates.append(Report(
            oid=oid,
            y0=rng.uniform(0.0, DEFAULT_Y_MAX),
            v=direction * speed,
            t0=now + rng.uniform(0.0, 1.0),
        ))
    for q in range(config.queries_per_batch):
        t1 = now + rng.uniform(1.0, 10.0)
        kind = q % 3
        if kind == 0:
            y1 = rng.uniform(0.0, DEFAULT_Y_MAX * 0.85)
            batch.append(Within(y1, y1 + DEFAULT_Y_MAX * 0.1,
                                t1, t1 + rng.uniform(1.0, 20.0)))
        elif kind == 1:
            y1 = rng.uniform(0.0, DEFAULT_Y_MAX * 0.9)
            batch.append(SnapshotAt(y1, y1 + DEFAULT_Y_MAX * 0.05, t1))
        else:
            batch.append(Nearest(rng.uniform(0.0, DEFAULT_Y_MAX), t1,
                                 k=rng.randint(1, 8)))
    if include_proximity:
        batch.append(ProximityPairs(
            d=DEFAULT_Y_MAX / 200.0, t1=now, t2=now + 5.0
        ))
    return updates, batch


def build_service(
    config: ServeBenchConfig,
) -> ShardedMotionService:
    """The service under test: plain sharded, or fault-tolerant when
    chaos mode (``faults`` / ``replication > 1``) is requested.

    The fault plan is fully seeded: every shard gets the default
    transient-error/latency mix, and one seed-picked victim shard
    additionally crashes partway through the run.
    """
    if not (config.faults or config.replication > 1 or config.wal_dir):
        return ShardedMotionService(
            DEFAULT_Y_MAX,
            DEFAULT_V_MIN,
            DEFAULT_V_MAX,
            shards=config.shards,
            method=config.method,
            router=config.router,
        )
    injector = None
    if config.faults:
        plan_rng = random.Random(config.seed * 7919 + 1)
        victim = plan_rng.randrange(config.shards)
        default = FaultSpec(
            error_rate=FAULT_ERROR_RATE,
            latency_rate=FAULT_LATENCY_RATE,
            latency_s=FAULT_LATENCY_S,
        )
        # Crash the victim once it has absorbed its share of the
        # initial load plus part of the first update epochs.
        crash_op = (
            config.n // max(1, config.shards)
            + max(1, config.updates_per_batch // 2)
        )
        injector = FaultInjector(
            seed=config.seed,
            default=default,
            per_shard={
                victim: FaultSpec(
                    error_rate=FAULT_ERROR_RATE,
                    latency_rate=FAULT_LATENCY_RATE,
                    latency_s=FAULT_LATENCY_S,
                    crash_on_op=crash_op,
                )
            },
        )
    return FaultTolerantMotionService(
        DEFAULT_Y_MAX,
        DEFAULT_V_MIN,
        DEFAULT_V_MAX,
        shards=config.shards,
        replication_factor=config.replication,
        method=config.method,
        router=config.router,
        fault_injector=injector,
        retry=RetryPolicy(
            attempts=RETRY_ATTEMPTS, backoff_s=RETRY_BACKOFF_S
        ),
        wal_dir=config.wal_dir,
        wal_fsync=config.fsync,
    )


def _verify_against_oracle(
    service: ShardedMotionService, oracle: MotionDatabase, seed: int
) -> Dict[str, object]:
    """Differential full-menu check: the service (with faults still
    armed) must answer exactly like the faultless oracle that replayed
    only the acknowledged updates — i.e. zero lost updates."""
    rng = random.Random(seed ^ 0xC0FFEE)
    now = max(service.now, oracle.now)
    mismatch_names: List[str] = []
    checks = 0

    def compare(name: str, got: object, want: object) -> None:
        nonlocal checks
        checks += 1
        if got != want:
            mismatch_names.append(name)

    compare("population", len(service), len(oracle))
    for i in range(5):
        y1 = rng.uniform(0.0, DEFAULT_Y_MAX * 0.8)
        t1 = now + rng.uniform(0.0, 10.0)
        t2 = t1 + rng.uniform(1.0, 20.0)
        compare(
            f"within[{i}]",
            service.within(y1, y1 + 150.0, t1, t2),
            oracle.within(y1, y1 + 150.0, t1, t2),
        )
    for i in range(3):
        y1 = rng.uniform(0.0, DEFAULT_Y_MAX * 0.9)
        t = now + rng.uniform(0.0, 10.0)
        compare(
            f"snapshot_at[{i}]",
            service.snapshot_at(y1, y1 + 80.0, t),
            oracle.snapshot_at(y1, y1 + 80.0, t),
        )
    for k in (1, 4, 9):
        y = rng.uniform(0.0, DEFAULT_Y_MAX)
        t = now + rng.uniform(0.0, 10.0)
        compare(
            f"nearest[k={k}]",
            service.nearest(y, t, k),
            oracle.nearest(y, t, k),
        )
    t1 = now + rng.uniform(0.0, 3.0)
    compare(
        "proximity_pairs",
        service.proximity_pairs(5.0, t1, t1 + 10.0),
        oracle.proximity_pairs(5.0, t1, t1 + 10.0),
    )
    return {
        "checks": checks,
        "mismatches": len(mismatch_names),
        "mismatch_names": mismatch_names,
        "lost_objects": max(0, len(oracle) - len(service)),
    }


def run_serve_bench(config: ServeBenchConfig) -> ServeBenchReport:
    """Run the full serve-bench workload, returning the report."""
    if config.n < 1:
        raise ValueError(f"need at least 1 object, got n={config.n}")
    if config.batches < 0:
        raise ValueError(f"batches must be >= 0, got {config.batches}")
    if config.replication < 1:
        raise ValueError(
            f"replication must be >= 1, got {config.replication}"
        )
    if config.shards >= 1 and config.replication > config.shards:
        # shards < 1 falls through to the service constructor's own
        # "need at least 1 shard" rejection.
        raise ValueError(
            f"replication {config.replication} exceeds shard count "
            f"{config.shards}"
        )
    rng = random.Random(config.seed)
    chaos = config.faults or config.replication > 1
    service = build_service(config)
    oracle = (
        MotionDatabase(DEFAULT_Y_MAX, DEFAULT_V_MIN, DEFAULT_V_MAX,
                       method=config.method)
        if config.verify
        else None
    )
    oids = list(range(config.n))
    operations = 0
    recoveries = 0

    def recover_down_shards() -> None:
        nonlocal recoveries
        if not isinstance(service, FaultTolerantMotionService):
            return
        for shard in service.down_shards():
            service.recover_shard(shard)
            recoveries += 1

    start = time.perf_counter()
    with BatchExecutor(
        service, max_workers=config.workers or None
    ) as executor:
        # Initial population, loaded through the batch path too.
        seed_batch: List[Operation] = []
        for oid in oids:
            speed = rng.uniform(DEFAULT_V_MIN, DEFAULT_V_MAX)
            direction = 1 if rng.random() < 0.5 else -1
            seed_batch.append(Register(
                oid=oid,
                y0=rng.uniform(0.0, DEFAULT_Y_MAX),
                v=direction * speed,
                t0=0.0,
            ))
        for result in executor.run(seed_batch):
            if result.ok:
                if oracle is not None:
                    op = result.op
                    oracle.register(op.oid, op.y0, op.v, op.t0)
            elif not chaos:
                raise result.error
        operations += len(seed_batch)

        now = 0.0
        for epoch in range(config.batches):
            now += 1.0
            include_proximity = (
                config.proximity_every > 0
                and epoch % config.proximity_every == 0
            )
            updates, queries = build_batch(
                rng, config, oids, now, include_proximity
            )
            applied: List[Report] = []
            for result in executor.run(updates):
                if result.ok:
                    applied.append(result.op)
                elif not chaos:
                    raise result.error
            if oracle is not None:
                # The executor applies each shard group in timestamp
                # order; replay acknowledged updates the same way.
                for op in sorted(applied, key=lambda op: op.t0):
                    oracle.report(op.oid, op.y0, op.v, op.t0)
            if config.cold_queries:
                service.clear_buffers()
            for result in executor.run(queries):
                if not result.ok and not chaos:
                    raise result.error
            operations += len(updates) + len(queries)
            recover_down_shards()
    elapsed = time.perf_counter() - start
    verification = (
        _verify_against_oracle(service, oracle, config.seed)
        if oracle is not None
        else None
    )
    stats = service.service_stats()
    if isinstance(service, FaultTolerantMotionService):
        service.close()
    return ServeBenchReport(
        config=config,
        elapsed_s=elapsed,
        operations=operations,
        stats=stats,
        recoveries=recoveries,
        verification=verification,
    )


# -- continuous subscriptions: incremental vs naive re-evaluation ----------------


@dataclass
class SubscriptionBenchConfig:
    """Parameters of one ``serve-bench --subscriptions`` run.

    The default workload is sized so the probe-ratio target is not a
    squeaker: ``subscriptions`` standing queries over ``ticks`` clock
    advances put the naive side at ``subscriptions * ticks`` index
    probes while the incremental side pays one probe per subscribe.
    """

    n: int = 300
    shards: int = 4
    subscriptions: int = 40
    #: Of ``subscriptions``, how many are (quadratic) proximity joins.
    proximity_subs: int = 2
    ticks: int = 15
    updates_per_tick: int = 40
    horizon: float = 8.0
    method: str = "forest"
    router: str = "hash"
    seed: int = 42
    replication: int = 1
    faults: bool = False


@dataclass
class SubscriptionBenchReport:
    """Incremental-vs-naive accounting plus the differential verdict."""

    config: SubscriptionBenchConfig
    elapsed_incremental_s: float
    elapsed_naive_s: float
    checks: int
    mismatches: List[str] = field(default_factory=list)
    skipped_checks: int = 0
    rejected_writes: int = 0
    recoveries: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    manager_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def incremental_probes(self) -> int:
        return int(self.counters.get("subscription_index_probes", 0))

    @property
    def naive_probes(self) -> int:
        return int(self.counters.get("subscription_naive_probes", 0))

    @property
    def probe_ratio(self) -> float:
        """How many times fewer index probes the incremental path made."""
        return self.naive_probes / max(1, self.incremental_probes)

    @property
    def ok(self) -> bool:
        """True iff the incremental results never diverged from the
        naive per-tick re-evaluation oracle."""
        return not self.mismatches

    def render(self) -> str:
        c = self.config
        band = c.subscriptions - c.proximity_subs
        lines = [
            (
                f"subscription-bench: {c.subscriptions} standing queries "
                f"({band} band / {c.proximity_subs} proximity) over "
                f"{c.ticks} ticks, {c.n} objects, {c.shards} shards "
                f"({c.router} router)"
            ),
            (
                f"incremental: {self.counters.get('subscription_deltas_emitted', 0)} "
                f"deltas from "
                f"{self.counters.get('subscription_events_fired', 0)} events "
                f"({self.counters.get('subscription_invalidations', 0)} "
                f"invalidations), {self.incremental_probes} index probes, "
                f"{self.elapsed_incremental_s:.3f}s"
            ),
            (
                f"naive re-eval: {self.naive_probes} index probes, "
                f"{self.elapsed_naive_s:.3f}s"
            ),
            (
                f"index probes: naive={self.naive_probes} "
                f"incremental={self.incremental_probes} "
                f"({self.probe_ratio:.1f}x fewer)"
            ),
        ]
        if self.config.faults or self.config.replication > 1:
            lines.append(
                f"chaos: {self.rejected_writes} rejected writes, "
                f"{self.recoveries} recoveries, "
                f"{self.skipped_checks} checks skipped while degraded"
            )
        verdict = "OK" if self.ok else "MISMATCH"
        lines.append(
            f"differential vs naive oracle: {verdict} — {self.checks} "
            f"checks, {len(self.mismatches)} mismatches"
            + (f" ({self.mismatches[:5]})" if self.mismatches else "")
        )
        return "\n".join(lines)


def run_subscription_bench(
    config: SubscriptionBenchConfig,
) -> SubscriptionBenchReport:
    """Drive standing subscriptions and their naive oracle side by side.

    Every tick applies a burst of motion reports, advances the
    subscription clock (the incremental path), then re-runs each
    subscription's one-shot query against the same service (the naive
    path) and requires three-way agreement: naive answer ==
    incremental result set == the initial result replayed through the
    emitted delta stream.
    """
    if config.n < 1:
        raise ValueError(f"need at least 1 object, got n={config.n}")
    if config.subscriptions < 1:
        raise ValueError(
            f"need at least 1 subscription, got {config.subscriptions}"
        )
    if not 0 <= config.proximity_subs <= config.subscriptions:
        raise ValueError(
            f"proximity_subs must be in [0, {config.subscriptions}], "
            f"got {config.proximity_subs}"
        )
    if config.ticks < 1:
        raise ValueError(f"need at least 1 tick, got {config.ticks}")
    service = build_service(ServeBenchConfig(
        n=config.n,
        shards=config.shards,
        updates_per_batch=config.updates_per_tick,
        method=config.method,
        router=config.router,
        seed=config.seed,
        replication=config.replication,
        faults=config.faults,
    ))
    chaos = config.faults or config.replication > 1
    rng = random.Random(config.seed)
    rejected = 0
    recoveries = 0

    def random_motion(now: float) -> Tuple[float, float, float]:
        speed = rng.uniform(DEFAULT_V_MIN, DEFAULT_V_MAX)
        direction = 1 if rng.random() < 0.5 else -1
        return (
            rng.uniform(0.0, DEFAULT_Y_MAX),
            direction * speed,
            now + rng.uniform(0.0, 0.5),
        )

    def recover_down_shards() -> None:
        nonlocal recoveries
        if not isinstance(service, FaultTolerantMotionService):
            return
        for shard in service.down_shards():
            service.recover_shard(shard)
            recoveries += 1

    oids = list(range(config.n))
    for oid in oids:
        y0, v, t0 = random_motion(0.0)
        try:
            service.register(oid, y0, v, 0.0)
        except ShardUnavailableError:
            if not chaos:
                raise
            rejected += 1
    recover_down_shards()

    manager = SubscriptionManager(service)
    elapsed_incremental = 0.0
    start = time.perf_counter()
    sids: List[int] = []
    for i in range(config.subscriptions):
        if i < config.proximity_subs:
            sids.append(manager.subscribe_proximity(rng.uniform(3.0, 12.0)))
        else:
            y1 = rng.uniform(0.0, DEFAULT_Y_MAX * 0.85)
            width = rng.uniform(0.05, 0.15) * DEFAULT_Y_MAX
            if i % 2 == 0:
                sids.append(manager.subscribe_snapshot(y1, y1 + width))
            else:
                sids.append(
                    manager.subscribe_within(y1, y1 + width, config.horizon)
                )
    elapsed_incremental += time.perf_counter() - start

    replayed: Dict[int, set] = {
        sid: set(manager.result(sid)) for sid in sids
    }
    elapsed_naive = 0.0
    checks = 0
    skipped = 0
    mismatches: List[str] = []

    now = service.now
    for tick in range(1, config.ticks + 1):
        now += 1.0
        for _ in range(config.updates_per_tick):
            oid = rng.choice(oids)
            y0, v, t0 = random_motion(now)
            try:
                if oid in service:
                    service.report(oid, y0, v, t0)
                else:
                    service.register(oid, y0, v, t0)
            except ShardUnavailableError:
                if not chaos:
                    raise
                rejected += 1
        if chaos:
            recover_down_shards()
        start = time.perf_counter()
        manager.advance(now)
        elapsed_incremental += time.perf_counter() - start
        for sid in sids:
            try:
                replayed[sid] = replay_deltas(
                    replayed[sid], manager.drain_deltas(sid)
                )
            except ValueError as exc:
                mismatches.append(f"tick {tick} sub {sid}: replay {exc}")
                replayed[sid] = set(manager.result(sid))
            start = time.perf_counter()
            naive = manager.reevaluate(sid)
            elapsed_naive += time.perf_counter() - start
            if isinstance(naive, PartialResult):
                skipped += 1
                continue
            checks += 1
            incremental = manager.result(sid)
            if not (naive == incremental == replayed[sid]):
                mismatches.append(f"tick {tick} sub {sid}: divergence")

    counters = dict(manager.metrics.snapshot().get("counters", {}))
    stats = manager.stats()
    manager.close()
    return SubscriptionBenchReport(
        config=config,
        elapsed_incremental_s=elapsed_incremental,
        elapsed_naive_s=elapsed_naive,
        checks=checks,
        mismatches=mismatches,
        skipped_checks=skipped,
        rejected_writes=rejected,
        recoveries=recoveries,
        counters=counters,
        manager_stats=stats,
    )
