"""The ``serve-bench --rebalance`` workload: live repartitioning.

Builds a band-routed service over an adversarially skewed population
(most objects crawl, so the even default cut piles them into band 0 —
the worst case for speed partitioning), then drives the
:class:`~repro.service.rebalance.RebalanceController` and reports the
operator view: skew before/after, the dual-space cost model's
before/after score, and migration throughput.

Between two controller passes the bench replays a seeded burst of
motion reports — some of them speed changes that land mid-protocol on
migrating objects — so the double-write and fencing paths run under
load, not just the happy path.  With ``verify=True`` the run ends
with the full differential menu against a faultless single
:class:`~repro.engine.MotionDatabase` that saw exactly the same
acknowledged updates (exit 3 from the CLI on any divergence).

Deterministic from ``seed``; ``make rebalance-baseline`` freezes the
10k-object run as ``benchmarks/results/BENCH_rebalance.json``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.harness import Table
from repro.engine import MotionDatabase
from repro.service.bench import (
    DEFAULT_V_MAX,
    DEFAULT_V_MIN,
    DEFAULT_Y_MAX,
    _verify_against_oracle,
)
from repro.service.health import RetryPolicy
from repro.service.rebalance import (
    RebalanceConfig,
    RebalanceController,
    RebalanceReport,
)
from repro.service.replication import FaultTolerantMotionService
from repro.service.service import ShardedMotionService

#: Fraction of the population stuck in the slowest sliver of the speed
#: range (the skew generator; mirrors the soak harness's adversarial
#: scenario).
SLOW_FRACTION = 0.8
SLOW_BAND = 0.1  # the sliver: lowest 10% of the speed range


@dataclass
class RebalanceBenchConfig:
    n: int = 2000
    shards: int = 4
    updates: int = 500
    replication: int = 1
    method: str = "forest"
    seed: int = 42
    verify: bool = False
    wal_dir: Optional[str] = None
    fsync: str = "always"
    json_path: Optional[str] = None


@dataclass
class RebalanceBenchReport:
    config: RebalanceBenchConfig
    skew_before: float
    skew_after: float
    counts_before: List[int]
    counts_after: List[int]
    cost_before: float
    cost_after: float
    band_epoch: int
    migrations: int
    aborted: int
    skipped: int
    double_writes: int
    migrate_seconds: float
    passes: List[Dict[str, object]] = field(default_factory=list)
    verification: Optional[Dict[str, object]] = None

    @property
    def migrations_per_s(self) -> float:
        if self.migrate_seconds <= 0:
            return 0.0
        return self.migrations / self.migrate_seconds

    @property
    def ok(self) -> bool:
        if self.verification is None:
            return True
        return self.verification["mismatches"] == 0 and (
            self.verification["lost_objects"] == 0
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "n": self.config.n,
            "shards": self.config.shards,
            "updates": self.config.updates,
            "replication": self.config.replication,
            "seed": self.config.seed,
            "skew_before": self.skew_before,
            "skew_after": self.skew_after,
            "counts_before": self.counts_before,
            "counts_after": self.counts_after,
            "cost_before": self.cost_before,
            "cost_after": self.cost_after,
            "band_epoch": self.band_epoch,
            "migrations": self.migrations,
            "aborted": self.aborted,
            "skipped": self.skipped,
            "double_writes": self.double_writes,
            "migrate_seconds": round(self.migrate_seconds, 6),
            "migrations_per_s": round(self.migrations_per_s, 1),
            "passes": self.passes,
            "verification": self.verification,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        table = Table(headers=["metric", "value"])
        table.rows.append(["objects", self.config.n])
        table.rows.append(["shards", self.config.shards])
        table.rows.append(
            ["skew before", f"{self.skew_before:.2f} "
                            f"{self.counts_before}"]
        )
        table.rows.append(
            ["skew after", f"{self.skew_after:.2f} {self.counts_after}"]
        )
        table.rows.append(
            ["dual-space cost", f"{self.cost_before:.1f} -> "
                                f"{self.cost_after:.1f}"]
        )
        table.rows.append(["band epoch", self.band_epoch])
        table.rows.append(
            ["migrations", f"{self.migrations} committed, "
                           f"{self.aborted} aborted, "
                           f"{self.skipped} skipped"]
        )
        table.rows.append(
            ["migration throughput", f"{self.migrations_per_s:.0f}/s"]
        )
        table.rows.append(
            ["window double-writes", self.double_writes]
        )
        if self.verification is not None:
            table.rows.append(
                ["verification",
                 f"{self.verification['checks']} checks, "
                 f"{self.verification['mismatches']} mismatches, "
                 f"{self.verification['lost_objects']} lost"]
            )
        return table.render("serve-bench --rebalance: live repartitioning")


def _skewed_motion(rng: random.Random) -> tuple:
    """One skewed draw: mostly slow, a tail across the full range."""
    if rng.random() < SLOW_FRACTION:
        v = DEFAULT_V_MIN + rng.random() * SLOW_BAND * (
            DEFAULT_V_MAX - DEFAULT_V_MIN
        )
    else:
        v = rng.uniform(DEFAULT_V_MIN, DEFAULT_V_MAX)
    return rng.uniform(0.0, DEFAULT_Y_MAX), v, 0.0


def run_rebalance_bench(
    config: RebalanceBenchConfig,
) -> RebalanceBenchReport:
    """Run the live-repartitioning bench, returning the report."""
    if config.n < 1:
        raise ValueError(f"need at least 1 object, got n={config.n}")
    if config.replication < 1:
        raise ValueError(
            f"replication must be >= 1, got {config.replication}"
        )
    if config.shards >= 1 and config.replication > config.shards:
        raise ValueError(
            f"replication {config.replication} exceeds shard count "
            f"{config.shards}"
        )
    rng = random.Random(config.seed)
    if config.replication > 1 or config.wal_dir:
        service: ShardedMotionService = FaultTolerantMotionService(
            DEFAULT_Y_MAX, DEFAULT_V_MIN, DEFAULT_V_MAX,
            shards=config.shards,
            replication_factor=config.replication,
            method=config.method,
            router="velocity",
            wal_dir=config.wal_dir,
            wal_fsync=config.fsync,
        )
    else:
        service = ShardedMotionService(
            DEFAULT_Y_MAX, DEFAULT_V_MIN, DEFAULT_V_MAX,
            shards=config.shards,
            method=config.method,
            router="velocity",
        )
    oracle = MotionDatabase(
        DEFAULT_Y_MAX, DEFAULT_V_MIN, DEFAULT_V_MAX, method=config.method
    )
    for oid in range(config.n):
        y0, v, t0 = _skewed_motion(rng)
        service.register(oid, y0, v, t0)
        oracle.register(oid, y0, v, t0)

    controller = RebalanceController(
        service,
        RebalanceConfig(skew_threshold=1.2),
        retry=RetryPolicy(attempts=3, backoff_s=0.0002),
    )
    counts_before = service.primary_counts()
    skew_before = controller.skew(counts_before)

    def run_pass(force: bool) -> RebalanceReport:
        start = time.perf_counter()
        report = controller.rebalance_once(force=force)
        elapsed = time.perf_counter() - start
        entry = report.to_dict()
        entry["seconds"] = round(elapsed, 6)
        passes.append(entry)
        return report

    passes: List[Dict[str, object]] = []
    migrate_seconds = 0.0
    first = run_pass(force=True)
    migrate_seconds += passes[-1]["seconds"]

    # Update burst between passes: reports (time moves forward per
    # object), a fraction of them speed changes that re-skew the
    # population so the second pass has real work.  A handful of
    # migrations are held open across the whole burst so reports land
    # inside real double-write windows — the double-write path under load,
    # not just the happy path.
    held = []
    for oid in rng.sample(range(config.n), min(16, config.n)):
        if service.migration_of(oid) is not None:
            continue
        dest = (service.shard_of(oid) + 1) % config.shards
        held.append(service.begin_migration(oid, dest))
    now = 1.0
    for _ in range(config.updates):
        oid = rng.randrange(config.n)
        motion = oracle.motion_snapshot()[oid]
        if rng.random() < 0.3:
            _, v, _ = _skewed_motion(rng)
        else:
            v = motion.v
        y = motion.y0 + motion.v * (now - motion.t0)
        y = min(max(y, 0.0), DEFAULT_Y_MAX)
        service.report(oid, y, v, now)
        oracle.report(oid, y, v, now)
        now += 0.001

    for state in held:
        service.commit_migration(state)

    second = run_pass(force=True)
    migrate_seconds += passes[-1]["seconds"]

    counters = service.metrics.snapshot()["counters"]
    report = RebalanceBenchReport(
        config=config,
        skew_before=skew_before,
        skew_after=second.skew_after,
        counts_before=list(counts_before),
        counts_after=list(second.counts_after),
        cost_before=first.cost_before,
        cost_after=(
            second.cost_after if second.triggered else first.cost_after
        ),
        band_epoch=service.router.epoch,
        migrations=first.migrated + second.migrated,
        aborted=first.aborted + second.aborted,
        skipped=first.skipped + second.skipped,
        double_writes=counters.get("rebalance_double_writes", 0),
        migrate_seconds=migrate_seconds,
        passes=passes,
    )
    if config.verify:
        report.verification = _verify_against_oracle(
            service, oracle, config.seed
        )
    if config.json_path:
        report.write_json(config.json_path)
    if isinstance(service, FaultTolerantMotionService):
        service.close()
    return report
